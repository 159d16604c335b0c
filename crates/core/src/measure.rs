//! Warm-up / measurement-window experiment runner.
//!
//! The paper warms the system up and then reads the GUPS counters over a
//! fixed window (20 s on hardware). The simulator reproduces the same
//! steady state in far less simulated time, so the default window is a few
//! milliseconds; [`MeasureConfig::quick`] shrinks it further for unit
//! tests and doc examples.

use hmc_host::{HostStats, Workload};
use hmc_mem::DeviceStats;
use hmc_power::ActivityRates;
use hmc_types::{Time, TimeDelta};
use mem_backend::MemoryBackend;
use sim_engine::Histogram;

use crate::builder::SystemBuilder;
use crate::system::{System, SystemConfig};

/// Measurement-window parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureConfig {
    /// Simulated time before the window opens (reach steady state).
    pub warmup: TimeDelta,
    /// Measurement window length.
    pub window: TimeDelta,
}

impl MeasureConfig {
    /// The default experiment window: 100 µs warm-up, 1 ms measurement.
    pub fn standard() -> Self {
        MeasureConfig {
            warmup: TimeDelta::from_us(100),
            window: TimeDelta::from_ms(1),
        }
    }

    /// A fast window for tests and docs: 50 µs warm-up, 200 µs window.
    pub fn quick() -> Self {
        MeasureConfig {
            warmup: TimeDelta::from_us(50),
            window: TimeDelta::from_us(200),
        }
    }
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig::standard()
    }
}

/// The outcome of one measurement window.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Counted bandwidth (paper accounting: full packet footprints of
    /// completed transactions over the window), GB/s.
    pub bandwidth_gbs: f64,
    /// Completed requests in millions per second.
    pub mrps: f64,
    /// Read-latency histogram over the window.
    pub read_latency: Histogram,
    /// Host-side counters over the window.
    pub host: HostStats,
    /// Device activity delta over the window.
    pub device_delta: DeviceStats,
    /// The window length.
    pub window: TimeDelta,
    /// Mean outstanding requests over the window, by Little's law
    /// (`throughput × mean latency`).
    pub outstanding: f64,
}

impl Measurement {
    /// Device activity expressed as rates, for the power model.
    pub fn activity_rates(&self) -> ActivityRates {
        ActivityRates::from_deltas(
            self.device_delta.link_bytes(),
            self.device_delta.data_read_bytes,
            self.device_delta.data_write_bytes,
            self.device_delta.bank_activations,
            self.device_delta.refreshes,
            self.window,
        )
    }

    /// Mean read latency in nanoseconds (0 if no reads completed).
    pub fn mean_latency_ns(&self) -> f64 {
        self.read_latency.mean().as_ns_f64()
    }
}

/// Runs `workload` on a fresh system and measures one window.
pub fn run_measurement(cfg: &SystemConfig, workload: &Workload, mc: &MeasureConfig) -> Measurement {
    run_measurement_with(cfg, workload, mc, |_| {})
}

/// Like [`run_measurement`], with a setup hook applied to the fresh
/// system before it starts (e.g. forcing the hot-regime refresh
/// multiplier).
pub fn run_measurement_with(
    cfg: &SystemConfig,
    workload: &Workload,
    mc: &MeasureConfig,
    setup: impl FnOnce(&mut System),
) -> Measurement {
    run_measurement_system(cfg, workload, mc, setup).0
}

/// Like [`run_measurement_with`], additionally returning the finished
/// [`System`] so callers can inspect component state after the window —
/// the sanitized runs read the merged `SanitizerReport` from it.
pub fn run_measurement_system(
    cfg: &SystemConfig,
    workload: &Workload,
    mc: &MeasureConfig,
    setup: impl FnOnce(&mut System),
) -> (Measurement, System) {
    let mut sys = SystemBuilder::new(cfg.clone()).build();
    setup(&mut sys);
    run_measurement_built(sys, workload, mc)
}

/// Measures one window on a system the caller already constructed —
/// the [`SystemBuilder`] entry point: declare observability up front,
/// build, then hand the system here.
pub fn run_measurement_built(
    mut sys: System,
    workload: &Workload,
    mc: &MeasureConfig,
) -> (Measurement, System) {
    sys.host_mut().apply_workload(workload);
    sys.host_mut().start(Time::ZERO);
    sys.step_until(Time::ZERO + mc.warmup);
    sys.host_mut().reset_stats();
    let before = sys.device().stats();
    sys.step_until(Time::ZERO + mc.warmup + mc.window);
    let after = sys.device().stats();
    let host = sys.host().stats();
    let bandwidth_gbs = host.bandwidth_gbs(mc.window);
    let mrps = host.mrps(mc.window);
    let read_latency = host.read_latency.clone();
    let completed_per_sec =
        (host.reads_completed + host.writes_completed) as f64 / mc.window.as_secs_f64();
    let outstanding = completed_per_sec * read_latency.mean().as_secs_f64();
    let m = Measurement {
        bandwidth_gbs,
        mrps,
        read_latency,
        device_delta: after - before,
        host,
        window: mc.window,
        outstanding,
    };
    (m, sys)
}

/// One backend's numbers for the cross-technology compare table: the
/// subset of [`Measurement`] every [`MemoryBackend`] can produce, plus
/// the concurrency gauge the comparison turns on.
#[derive(Debug, Clone)]
pub struct BackendMeasurement {
    /// Backend technology label.
    pub backend: &'static str,
    /// Counted bandwidth over the window, GB/s.
    pub bandwidth_gbs: f64,
    /// Completed requests, millions per second.
    pub mrps: f64,
    /// Mean read latency over the window, ns.
    pub mean_latency_ns: f64,
    /// 99th-percentile read latency over the window, ns (0 if no reads).
    pub p99_latency_ns: f64,
    /// Peak structurally independent channels observed with work in
    /// flight — vaults (HMC), banks (DIMM), pseudo-channels (HBM).
    pub peak_channels: usize,
    /// Backend-internal events processed during the window (the
    /// simulator-throughput numerator of `BENCH_simperf`).
    pub events: u64,
    /// Requests completed during the window.
    pub completed: u64,
    /// Payload bytes the device read during the window.
    pub data_read_bytes: u64,
}

/// Measures one warm-up + window cycle on any backend, sampling the
/// channels-in-flight gauge at 256 deterministic points across the
/// window. The generic analogue of [`run_measurement_built`] for the
/// `repro compare` table.
pub fn run_backend_measurement<B: MemoryBackend>(
    sys: &mut System<B>,
    workload: &Workload,
    mc: &MeasureConfig,
) -> BackendMeasurement {
    sys.host_mut().apply_workload(workload);
    sys.host_mut().start(Time::ZERO);
    sys.step_until(Time::ZERO + mc.warmup);
    sys.host_mut().reset_stats();
    let events_before = sys.device().events_processed();
    let core_before = sys.device().core_stats();
    let end = Time::ZERO + mc.warmup + mc.window;
    let slice = mc.window / 256;
    let mut peak = 0usize;
    while sys.now() < end {
        let next = (sys.now() + slice).min(end);
        sys.step_until(next);
        peak = peak.max(sys.device().channels_in_flight(sys.now()));
    }
    let host = sys.host().stats();
    let core = sys.device().core_stats();
    BackendMeasurement {
        backend: sys.device().label(),
        bandwidth_gbs: host.bandwidth_gbs(mc.window),
        mrps: host.mrps(mc.window),
        mean_latency_ns: host.read_latency.mean().as_ns_f64(),
        p99_latency_ns: host
            .read_latency
            .quantile(0.99)
            .map_or(0.0, |d| d.as_ns_f64()),
        peak_channels: peak,
        events: sys.device().events_processed() - events_before,
        completed: core.completed() - core_before.completed(),
        data_read_bytes: core.data_read_bytes - core_before.data_read_bytes,
    }
}

/// Runs a [`Workload::Stream`] to completion on a fresh system and
/// returns the latency histogram plus integrity-failure count.
pub fn run_stream(cfg: &SystemConfig, workload: &Workload) -> (Histogram, u64) {
    run_stream_on(SystemBuilder::new(cfg.clone()).build(), workload)
}

/// [`run_stream`] on a system the caller already built — any backend,
/// e.g. a [`SystemBuilder::backend`] preset through `build_any`.
pub fn run_stream_on<B: MemoryBackend>(
    mut sys: System<B>,
    workload: &Workload,
) -> (Histogram, u64) {
    sys.host_mut().apply_workload(workload);
    sys.host_mut().start(Time::ZERO);
    let drained = sys.run_until_idle(TimeDelta::from_ms(100));
    assert!(
        drained,
        "stream did not drain: {} outstanding, host next event {:?}, \
         device next event {:?} at t={} ns",
        sys.host().outstanding(),
        sys.host().next_time(),
        sys.device().next_time(),
        sys.now().as_ns_f64(),
    );
    let stats = sys.host().stats();
    (stats.read_latency.clone(), stats.integrity_failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::{RequestKind, RequestSize};

    #[test]
    fn full_scale_reads_hit_calibrated_bandwidth() {
        let m = run_measurement(
            &SystemConfig::default(),
            &Workload::full_scale(RequestKind::ReadOnly, RequestSize::MAX),
            &MeasureConfig::quick(),
        );
        // Paper Figure 7: ro 128 B over 16 vaults ≈ 21 GB/s counted.
        assert!(
            (17.0..24.0).contains(&m.bandwidth_gbs),
            "ro bandwidth {}",
            m.bandwidth_gbs
        );
        assert!(m.mrps > 80.0, "mrps {}", m.mrps);
        assert!(m.mean_latency_ns() > 600.0);
        assert!(m.outstanding > 50.0);
    }

    #[test]
    fn activity_rates_consistent_with_bandwidth() {
        let m = run_measurement(
            &SystemConfig::default(),
            &Workload::full_scale(RequestKind::ReadOnly, RequestSize::MAX),
            &MeasureConfig::quick(),
        );
        let r = m.activity_rates();
        // Counted bytes at the host track wire bytes at the device.
        let host_rate = m.bandwidth_gbs * 1e9;
        assert!(
            (r.link_bytes_per_sec - host_rate).abs() / host_rate < 0.15,
            "device {} vs host {}",
            r.link_bytes_per_sec,
            host_rate
        );
        assert!(r.read_bytes_per_sec > 0.0);
        assert_eq!(r.write_bytes_per_sec, 0.0);
    }

    #[test]
    fn device_stats_subtraction_is_field_wise() {
        let before = DeviceStats {
            reads_completed: 10,
            bytes_up: 1_000,
            bank_activations: 7,
            ..DeviceStats::default()
        };
        let after = DeviceStats {
            reads_completed: 25,
            bytes_up: 4_000,
            row_hits: 3,
            ..before
        };
        let delta = after - before;
        assert_eq!(delta.reads_completed, 15);
        assert_eq!(delta.bytes_up, 3_000);
        assert_eq!(delta.bank_activations, 0);
        assert_eq!(delta.row_hits, 3);
        assert_eq!(delta.writes_completed, 0);
        // Subtracting a window from itself zeroes every counter.
        assert_eq!(after - after, DeviceStats::default());
    }

    #[test]
    fn stream_measurement_drains() {
        let (lat, fails) = run_stream(
            &SystemConfig::default(),
            &Workload::read_stream(12, RequestSize::new(64).unwrap()),
        );
        assert_eq!(lat.count(), 12);
        assert_eq!(fails, 0);
    }
}
