//! Observed runs: lifecycle-trace reports, latency attribution, and
//! metrics export.
//!
//! The host and device each own a [`Tracer`](sim_engine::Tracer); this
//! module merges the two into a single [`TraceReport`] whose per-stage
//! totals telescope — for a drained read stream the stage spans sum
//! *exactly* (in integer picoseconds) to the end-to-end read latency, so
//! the Figure 14 breakdown is an attribution, not an estimate.
//!
//! Multi-cube chains add a third tracer per cube (the hop tracer, stage
//! [`Stage::HopLink`]) covering cube-to-cube traversal, so the same
//! zero-residue telescoping holds end-to-end across a chain.
//! [`TraceReport::from_chain`] merges all `3 × cubes` tracers, and
//! [`run_chain_observed`] is the chain counterpart of
//! [`run_stream_observed`] / [`run_window_observed`], additionally
//! capturing the merged cube-prefixed gauge stream.

use hmc_host::Workload;
use hmc_types::trace::Stage;
use hmc_types::{Time, TimeDelta};
use mem_backend::{BackendKind, MemoryBackend};
use sim_engine::stats::Histogram;
use sim_engine::trace::{chrome_trace_json, StageTotals, TraceEvent};
use sim_engine::MetricsSampler;

use crate::builder::SystemBuilder;
use crate::report::{f1, Table};
use crate::system::{System, SystemConfig};
use crate::topology::{ChainSystem, Topology};

/// The merged host + device lifecycle trace of one run.
#[derive(Debug, Clone)]
pub struct TraceReport {
    stages: Vec<StageTotals>,
    events: Vec<TraceEvent>,
}

impl TraceReport {
    /// Merges the host and device tracers of a finished (or paused)
    /// system into one report (any backend: the device tracer comes
    /// through the [`MemoryBackend`] surface).
    pub fn from_system<B: MemoryBackend>(sys: &System<B>) -> Self {
        TraceReport::from_chain(sys)
    }

    /// Merges every tracer of a chain — each cube's host and device
    /// tracer plus each shard's hop tracer (stage
    /// [`Stage::HopLink`]) — into one report. A one-cube chain's hop
    /// tracer stays empty.
    pub fn from_chain<B: MemoryBackend>(sys: &ChainSystem<B>) -> Self {
        let mut stages = vec![StageTotals::default(); Stage::COUNT];
        let mut events: Vec<TraceEvent> = Vec::new();
        for s in 0..sys.cubes() {
            for t in [
                sys.host(s).tracer(),
                sys.device(s).tracer(),
                sys.hop_tracer(s),
            ] {
                for (mine, theirs) in stages.iter_mut().zip(t.stage_totals()) {
                    mine.merge(theirs);
                }
                events.extend_from_slice(t.events());
            }
        }
        TraceReport { stages, events }
    }

    /// The span totals of one stage.
    pub fn stage(&self, stage: Stage) -> &StageTotals {
        &self.stages[stage.index()]
    }

    /// The merged sampled event log.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Sum of all stage spans, averaged per request (`n` requests). For a
    /// drained read stream with `n` completed reads this equals the mean
    /// end-to-end read latency exactly.
    pub fn stage_sum_ns(&self, n: u64) -> f64 {
        let total: u64 = self.stages.iter().map(|h| h.total().as_ps()).sum();
        total as f64 / n.max(1) as f64 / 1_000.0
    }

    /// Renders the latency-attribution table: one row per populated
    /// stage with its count, mean span, per-request contribution, and
    /// share of the end-to-end mean, followed by the telescoping check
    /// rows (sum of stages vs. measured end-to-end).
    pub fn attribution_table(&self, title: impl Into<String>, end_to_end: &Histogram) -> Table {
        let mut t = Table::new(
            title,
            &["stage", "count", "mean ns", "per-req ns", "share %"],
        );
        let n = end_to_end.count().max(1) as f64;
        let e2e_ns = end_to_end.mean().as_ns_f64();
        let mut sum_ns = 0.0;
        for s in Stage::ALL {
            let h = &self.stages[s.index()];
            if h.is_empty() {
                continue;
            }
            let per_req = h.total().as_ns_f64() / n;
            sum_ns += per_req;
            let share = if e2e_ns > 0.0 {
                per_req / e2e_ns * 100.0
            } else {
                0.0
            };
            t.row(vec![
                s.name().to_string(),
                h.count().to_string(),
                f1(h.mean().as_ns_f64()),
                f1(per_req),
                f1(share),
            ]);
        }
        let delta = if e2e_ns > 0.0 {
            (sum_ns - e2e_ns) / e2e_ns * 100.0
        } else {
            0.0
        };
        t.row(vec![
            "sum of stages".to_string(),
            String::new(),
            String::new(),
            f1(sum_ns),
            String::new(),
        ]);
        t.row(vec![
            "end-to-end mean".to_string(),
            end_to_end.count().to_string(),
            String::new(),
            f1(e2e_ns),
            f1(100.0),
        ]);
        t.row(vec![
            "attribution delta".to_string(),
            String::new(),
            String::new(),
            f1(sum_ns - e2e_ns),
            f1(delta),
        ]);
        t
    }

    /// The event log as Chrome trace-event JSON (Perfetto-loadable).
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(&self.events, &Stage::NAMES)
    }
}

impl crate::report::JsonReport for TraceReport {
    fn kind(&self) -> &'static str {
        "trace"
    }

    fn json(&self) -> String {
        self.chrome_json()
    }
}

/// A drained stream run with tracing enabled.
#[derive(Debug, Clone)]
pub struct ObservedStream {
    /// End-to-end read-latency histogram.
    pub latency: Histogram,
    /// Data-integrity failures (must be zero).
    pub integrity_failures: u64,
    /// The merged lifecycle trace.
    pub report: TraceReport,
}

/// Runs a [`Workload::Stream`] to completion with lifecycle tracing on.
/// `sample_every` controls event-log retention (1 keeps every request).
///
/// # Panics
///
/// Panics if the stream does not drain within 100 ms of simulated time.
pub fn run_stream_observed(
    cfg: &SystemConfig,
    workload: &Workload,
    sample_every: u64,
) -> ObservedStream {
    let mut sys = SystemBuilder::new(cfg.clone())
        .tracing(sample_every)
        .build();
    sys.host_mut().apply_workload(workload);
    sys.host_mut().start(Time::ZERO);
    let drained = sys.run_until_idle(TimeDelta::from_ms(100));
    assert!(
        drained,
        "observed stream did not drain: {} outstanding at t={} ns",
        sys.host().outstanding(),
        sys.now().as_ns_f64(),
    );
    let stats = sys.host().stats();
    ObservedStream {
        latency: stats.read_latency.clone(),
        integrity_failures: stats.integrity_failures,
        report: TraceReport::from_system(&sys),
    }
}

/// A fixed-span continuous run with tracing and gauge sampling on.
#[derive(Debug, Clone)]
pub struct ObservedWindow {
    /// End-to-end read-latency histogram over the run.
    pub latency: Histogram,
    /// The merged lifecycle trace.
    pub report: TraceReport,
    /// The periodic gauge sampler with all recorded series.
    pub metrics: MetricsSampler,
}

/// Runs a continuous workload for `span` on the `kind` backend preset,
/// with lifecycle tracing (one request in `sample_every` kept in the
/// event log) and periodic gauge sampling every `metrics_period`. This
/// is what `repro sweep trace` and `repro sweep metrics` capture.
pub fn run_window_observed(
    cfg: &SystemConfig,
    kind: BackendKind,
    workload: &Workload,
    span: TimeDelta,
    sample_every: u64,
    metrics_period: TimeDelta,
) -> ObservedWindow {
    let mut sys = SystemBuilder::new(cfg.clone())
        .backend(kind)
        .tracing(sample_every)
        .metrics(metrics_period)
        .build_any();
    sys.host_mut().apply_workload(workload);
    sys.host_mut().start(Time::ZERO);
    sys.run_for(span);
    let metrics = sys.metrics().expect("metrics were enabled").clone();
    ObservedWindow {
        latency: sys.host().stats().read_latency.clone(),
        report: TraceReport::from_system(&sys),
        metrics,
    }
}

/// A fully-observed chain run: merged lifecycle trace (host + device +
/// hop tracers of every cube) and merged cube-prefixed gauge stream.
#[derive(Debug, Clone)]
pub struct ObservedChain {
    /// End-to-end read-latency histogram aggregated over all cubes.
    pub latency: Histogram,
    /// Data-integrity failures (must be zero).
    pub integrity_failures: u64,
    /// The merged lifecycle trace across every tracer of the chain.
    pub report: TraceReport,
    /// Merged gauge sampler with `cube{i}.`-prefixed series, if metrics
    /// were requested (`metrics_period` was `Some`).
    pub metrics: Option<MetricsSampler>,
}

/// Runs a workload on a chain with full observability armed: lifecycle
/// tracing (one request in `sample_every` kept in the event log) and —
/// when `metrics_period` is `Some` — per-cube gauge sampling merged into
/// one cube-prefixed stream.
///
/// With `span = None` the workload runs to completion (a drained
/// stream); with `span = Some(d)` it runs continuously for `d`.
///
/// # Panics
///
/// Panics if `span` is `None` and the stream does not drain within
/// 100 ms of simulated time.
pub fn run_chain_observed(
    cfg: &SystemConfig,
    topo: Topology,
    workload: &Workload,
    span: Option<TimeDelta>,
    sample_every: u64,
    metrics_period: Option<TimeDelta>,
) -> ObservedChain {
    let mut b = SystemBuilder::new(cfg.clone())
        .topology(topo)
        .tracing(sample_every);
    if let Some(period) = metrics_period {
        b = b.metrics(period);
    }
    let mut sys = b.build_chain();
    sys.apply_workload(workload);
    sys.start(Time::ZERO);
    match span {
        Some(d) => sys.run_for(d),
        None => {
            let drained = sys.run_until_idle(TimeDelta::from_ms(100));
            assert!(
                drained,
                "observed chain stream did not drain by t={} ns",
                sys.now().as_ns_f64(),
            );
        }
    }
    let stats = sys.host_stats();
    ObservedChain {
        latency: stats.read_latency.clone(),
        integrity_failures: stats.integrity_failures,
        report: TraceReport::from_chain(&sys),
        metrics: sys.merged_metrics(),
    }
}

/// Renders a metrics sampler as JSON: `{"period_ps": ..., "series":
/// [{"name": ..., "points": [[t_ps, value], ...]}, ...]}`.
pub fn metrics_json(sampler: &MetricsSampler) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    write!(
        out,
        "{{\"period_ps\":{},\"series\":[",
        sampler.period().as_ps()
    )
    .expect("writing to a String cannot fail");
    for (i, s) in sampler.series().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{{\"name\":\"{}\",\"points\":[", s.name())
            .expect("writing to a String cannot fail");
        for (j, (t, v)) in s.points().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(out, "[{},{}]", t.as_ps(), v).expect("writing to a String cannot fail");
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::{RequestKind, RequestSize};

    #[test]
    fn read_stream_stage_spans_sum_exactly_to_end_to_end() {
        let obs = run_stream_observed(
            &SystemConfig::default(),
            &Workload::read_stream(16, RequestSize::new(64).unwrap()),
            1,
        );
        assert_eq!(obs.latency.count(), 16);
        assert_eq!(obs.integrity_failures, 0);
        // Every read-path stage saw all 16 requests; write stages none.
        for s in Stage::read_path() {
            assert_eq!(obs.report.stage(s).count(), 16, "stage {s}");
        }
        assert!(obs.report.stage(Stage::WriteStall).is_empty());
        assert!(obs.report.stage(Stage::WriteDrain).is_empty());
        // Telescoping: stage spans sum to end-to-end latency exactly.
        let stage_sum_ps: u64 = Stage::ALL
            .iter()
            .map(|s| obs.report.stage(*s).total().as_ps())
            .sum();
        assert_eq!(
            stage_sum_ps,
            obs.latency.total().as_ps(),
            "stage attribution must telescope with zero residue"
        );
    }

    #[test]
    fn attribution_table_reports_near_zero_delta() {
        let obs = run_stream_observed(
            &SystemConfig::default(),
            &Workload::read_stream(8, RequestSize::MAX),
            1,
        );
        let t = obs
            .report
            .attribution_table("Fig 14 breakdown", &obs.latency);
        let rendered = t.to_string();
        assert!(rendered.contains("dram"));
        assert!(rendered.contains("sum of stages"));
        // Last row is the attribution delta; exact telescoping makes the
        // per-request residue 0.0 ns.
        assert_eq!(t.cell(t.len() - 1, 3), "0.0");
    }

    #[test]
    fn untraced_system_produces_an_empty_report() {
        let mut sys = System::new(SystemConfig::default());
        sys.host_mut()
            .apply_workload(&Workload::read_stream(4, RequestSize::MAX));
        sys.host_mut().start(Time::ZERO);
        assert!(sys.run_until_idle(TimeDelta::from_ms(100)));
        let report = TraceReport::from_system(&sys);
        assert!(report.events().is_empty());
        let total: u64 = Stage::ALL.iter().map(|s| report.stage(*s).count()).sum();
        assert_eq!(total, 0, "disabled tracers must record nothing");
    }

    #[test]
    fn noisy_links_surface_the_retry_stage_in_attribution() {
        let mut cfg = SystemConfig::default();
        cfg.mem.link_layer.bit_error_rate = 1e-4;
        let obs = run_stream_observed(&cfg, &Workload::read_stream(64, RequestSize::MAX), 1);
        let t = obs.report.attribution_table("noisy links", &obs.latency);
        let rendered = t.to_string();
        assert!(rendered.contains("link_retry"), "{rendered}");
        // Telescoping attribution stays exact even when retries reshuffle
        // the stage boundaries.
        assert_eq!(t.cell(t.len() - 1, 3), "0.0");
    }

    #[test]
    fn chain_attribution_telescopes_with_zero_residue() {
        // The hop_link stage closes the chain attribution gap: for 1-,
        // 2-, and 4-cube chains the stage spans must sum exactly (in
        // integer picoseconds) to the measured end-to-end latency.
        for cubes in [1u8, 2, 4] {
            let obs = run_chain_observed(
                &SystemConfig::default(),
                Topology::chain(cubes),
                &Workload::read_stream(32, RequestSize::new(64).unwrap()),
                None,
                1,
                None,
            );
            // Each cube's sharded host issues the full stream.
            assert_eq!(obs.latency.count(), 32 * u64::from(cubes), "{cubes} cubes");
            assert_eq!(obs.integrity_failures, 0);
            let stage_sum_ps: u64 = Stage::ALL
                .iter()
                .map(|s| obs.report.stage(*s).total().as_ps())
                .sum();
            assert_eq!(
                stage_sum_ps,
                obs.latency.total().as_ps(),
                "chain attribution must telescope exactly ({cubes} cubes)"
            );
            let hops = obs.report.stage(Stage::HopLink).count();
            if cubes == 1 {
                assert_eq!(hops, 0, "no hop spans on a single cube");
            } else {
                assert!(hops > 0, "{cubes}-cube chain must record hop spans");
            }
            let t = obs
                .report
                .attribution_table("chain breakdown", &obs.latency);
            assert_eq!(t.cell(t.len() - 1, 3), "0.0", "{cubes} cubes");
            if cubes > 1 {
                assert!(t.to_string().contains("hop_link"));
            }
        }
    }

    #[test]
    fn chain_window_capture_merges_cube_prefixed_gauges() {
        let obs = run_chain_observed(
            &SystemConfig::default(),
            Topology::chain(2),
            &Workload::full_scale(RequestKind::ReadOnly, RequestSize::new(64).unwrap()),
            Some(TimeDelta::from_us(20)),
            8,
            Some(TimeDelta::from_us(1)),
        );
        let m = obs.metrics.expect("metrics were enabled");
        for name in [
            "cube0.host.outstanding",
            "cube0.device.vault_queued",
            "cube0.device.link_stalls",
            "cube0.device.credits_leaked",
            "cube0.hop.edge0.tx_backlog",
            "cube0.chain.mailbox",
            "cube1.device.busy_banks",
            "cube1.hop.edge0.credits",
        ] {
            let s = m.get(name).unwrap_or_else(|| panic!("{name}"));
            assert!(s.len() >= 15, "{name} has {} samples", s.len());
        }
        let json = metrics_json(&m);
        assert!(json.contains("cube1.hop.edge0.rx_queued"));
    }

    #[test]
    fn window_capture_exports_valid_trace_and_metrics() {
        let obs = run_window_observed(
            &SystemConfig::default(),
            BackendKind::Hmc,
            &Workload::full_scale(RequestKind::ReadModifyWrite, RequestSize::new(64).unwrap()),
            TimeDelta::from_us(20),
            8,
            TimeDelta::from_us(1),
        );
        let json = obs.report.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"dram\""));
        // ~20 samples of each gauge.
        for name in [
            "host.outstanding",
            "host.tx_queue",
            "device.vault_queued",
            "device.busy_banks",
            "device.ingress_credits",
            "device.link_retries",
        ] {
            let s = obs.metrics.get(name).unwrap_or_else(|| panic!("{name}"));
            assert!(s.len() >= 15, "{name} has {} samples", s.len());
        }
        let mjson = metrics_json(&obs.metrics);
        assert!(mjson.contains("\"period_ps\":1000000"));
        assert!(mjson.contains("\"series\""));
        assert!(mjson.contains("device.busy_banks"));
    }
}
