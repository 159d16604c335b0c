//! Flit-level discrete-event model of a Hybrid Memory Cube device.
//!
//! The model reproduces the internal organization the paper's measurements
//! expose (Section II of the paper):
//!
//! * [`dram`] — closed-page DRAM banks with explicit ACT/CAS/PRE timing and
//!   an optional open-page ablation mode.
//! * [`vault`] — one memory controller per vault: a small input FIFO, one
//!   queue per bank, and the 32 B-granular TSV data bus whose ~10 GB/s
//!   ceiling shapes Figures 6, 7, and 18.
//! * [`xbar`] — the quadrant switch: accesses to a vault in the link's own
//!   quadrant are faster than remote-quadrant accesses.
//! * [`link`] — device-side SerDes link layer: per-packet serialization and
//!   processing time, plus the posted-write drain limit that makes `wo`
//!   traffic slower than `ro` (the paper observes this asymmetry but could
//!   not attribute it; see DESIGN.md).
//! * [`store`] — a sparse backing store carrying write tokens so stream
//!   GUPS can verify data integrity end to end.
//! * [`device`] — the assembled [`HmcDevice`], an event-driven component
//!   the host model drives through `submit` / `advance`.
//! * [`hbm`] and [`ddr`] — the technologies the paper contrasts HMC with,
//!   an HBM stack and a DDR3 DIMM: two bank models behind one
//!   [`ChannelDevice`] port front end.
//!
//! # Example
//!
//! ```
//! use hmc_mem::{HmcDevice, MemConfig};
//! use hmc_types::{Address, CubeId, MemoryRequest, PortId, RequestId, RequestSize, Tag, TenantTag, Time};
//! use hmc_types::packet::OpKind;
//!
//! let mut dev = HmcDevice::new(MemConfig::default());
//! let req = MemoryRequest {
//!     id: RequestId::new(0),
//!     port: PortId::new(0),
//!     tag: Tag::new(0),
//!     op: OpKind::Read,
//!     size: RequestSize::new(128)?,
//!     cube: CubeId::new(0),
//!     addr: Address::new(0),
//!     issued_at: Time::ZERO,
//!     data_token: 0,
//!     tenant: TenantTag::NONE,
//! };
//! dev.submit(0, req, Time::ZERO).unwrap();
//! let mut out = Vec::new();
//! dev.advance(Time::from_ps(10_000_000), &mut out);
//! assert_eq!(out.len(), 1); // the read came back
//! # Ok::<(), hmc_types::HmcError>(())
//! ```

mod channels;
pub mod config;
pub mod ddr;
pub mod device;
pub mod dram;
pub mod hbm;
pub mod link;
pub mod store;
pub mod vault;
pub mod xbar;

pub use channels::{ChannelDevice, PortConfig};
pub use config::{
    DramTiming, LinkLayerConfig, MemConfig, PagePolicy, RefreshConfig, VaultConfig, XbarConfig,
};
pub use ddr::{DdrConfig, DdrDevice};
pub use device::{DeviceOutput, DeviceStats, HmcDevice};
pub use hbm::{HbmConfig, HbmDevice};
pub use store::SparseStore;

/// The DDR3-1600 preset's closed-form checks: latencies, row hits and
/// bus bandwidth of the [`DdrDevice`] driven request by request.
#[cfg(test)]
mod tests {
    use crate::{DdrConfig, DdrDevice};
    use hmc_types::packet::OpKind;
    use hmc_types::{
        Address, CubeId, MemoryRequest, PortId, RequestId, RequestSize, Tag, TenantTag, Time,
    };
    use mem_backend::{BackendOutput, MemoryBackend};

    fn read(id: u64, addr: u64, bytes: u64) -> MemoryRequest {
        MemoryRequest {
            id: RequestId::new(id),
            port: PortId::new(0),
            tag: Tag::new(0),
            op: OpKind::Read,
            size: RequestSize::new(bytes).expect("valid"),
            cube: CubeId::new(0),
            addr: Address::new(addr),
            issued_at: Time::ZERO,
            data_token: 0,
            tenant: TenantTag::NONE,
        }
    }

    /// Runs the device event by event until one response leaves.
    fn next_response(dev: &mut DdrDevice) -> BackendOutput {
        let mut out = Vec::new();
        while out.is_empty() {
            let t = dev.next_time().expect("a request is in flight");
            dev.advance_instant(t, &mut out);
        }
        assert_eq!(out.len(), 1, "one request in flight, one response");
        out.pop().expect("non-empty")
    }

    /// Runs a *dependent* chain of 64 B reads — each issued when the
    /// previous one's data returns (pointer-chasing semantics; measures
    /// unloaded latency). Returns the per-access latencies in ns and the
    /// makespan.
    fn chase(dev: &mut DdrDevice, addrs: impl IntoIterator<Item = u64>) -> (Vec<f64>, Time) {
        let mut at = Time::ZERO;
        let mut lat = Vec::new();
        for (i, addr) in addrs.into_iter().enumerate() {
            dev.submit(0, read(i as u64, addr, 64), at)
                .expect("an idle port has credits");
            let done = next_response(dev).at;
            lat.push(done.since(at).as_ns_f64());
            at = done;
        }
        (lat, at)
    }

    fn mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    fn hit_rate(dev: &DdrDevice) -> f64 {
        dev.row_hits() as f64 / dev.core_stats().completed() as f64
    }

    #[test]
    fn single_access_latency_tens_of_ns() {
        // A 128 B read holds the bus for two bursts:
        // 15 (ctrl) + 27.5 (tRCD+tCL) + 2 × 5 (burst) = 52.5 ns.
        let mut d = DdrDevice::new(DdrConfig::ddr3_1600());
        d.submit(0, read(0, 0, 128), Time::ZERO).unwrap();
        let done = next_response(&mut d).at;
        assert!(
            (done.as_ns_f64() - 52.5).abs() < 0.1,
            "{}",
            done.as_ns_f64()
        );
    }

    #[test]
    fn open_page_row_hits_are_fast() {
        let mut d = DdrDevice::new(DdrConfig::ddr3_1600());
        let (lat, _) = chase(&mut d, [0, 64]);
        // Hit: 15 + 13.75 + 5 = 33.75 ns.
        assert!((lat[1] - 33.75).abs() < 0.1, "{}", lat[1]);
        assert_eq!(d.row_hits(), 1);
        assert_eq!(d.activations(), 1);
    }

    #[test]
    fn linear_beats_random_under_open_page() {
        // Dependent chains: linear walks hit the row buffer and see
        // CAS-only latency; random pointer chasing keeps activating.
        let mut linear = DdrDevice::new(DdrConfig::ddr3_1600());
        let (lin, _) = chase(&mut linear, (0..2_000u64).map(|i| i * 64));
        let mut random = DdrDevice::new(DdrConfig::ddr3_1600());
        let mut rng = sim_engine::SplitMix64::new(1);
        let (rnd, _) = chase(
            &mut random,
            (0..2_000).map(|_| rng.next_below(1 << 28) * 64),
        );
        let (lin, rnd) = (mean(&lin), mean(&rnd));
        assert!(lin * 1.2 < rnd, "linear {lin} ns vs random {rnd} ns");
        assert!(hit_rate(&linear) > 0.9);
        assert!(hit_rate(&random) < 0.1);
    }

    #[test]
    fn streaming_bandwidth_near_bus_peak() {
        // One linear 64 B read offered every burst time; a full port
        // queue holds the next offer back until a credit frees.
        let cfg = DdrConfig::ddr3_1600();
        let mut d = DdrDevice::new(DdrConfig::ddr3_1600());
        let mut out = Vec::new();
        let mut t = Time::ZERO;
        for i in 0..20_000u64 {
            while !d.can_accept(0) {
                t = t.max(d.next_time().expect("a full queue has work in flight"));
                d.advance_instant(t, &mut out);
            }
            d.submit(0, read(i, i * 64, 64), t).unwrap();
            t += cfg.burst_time;
            d.advance(t, &mut out);
        }
        while let Some(next) = d.next_time() {
            d.advance_instant(next, &mut out);
        }
        assert_eq!(out.len(), 20_000);
        let span = out.iter().map(|o| o.at).max().expect("non-empty");
        let gbs =
            d.core_stats().data_read_bytes as f64 / span.since(Time::ZERO).as_secs_f64() / 1e9;
        let peak = cfg.peak_bandwidth_bytes_per_sec() / 1e9;
        assert!(gbs > 0.85 * peak, "streaming {gbs} GB/s of peak {peak}");
        assert!(gbs <= peak + 1e-9);
    }

    #[test]
    fn dependent_chain_is_latency_bound() {
        // Pointer chasing cannot exploit the bus: throughput is one access
        // per round-trip, far below peak.
        let mut d = DdrDevice::new(DdrConfig::ddr3_1600());
        let mut rng = sim_engine::SplitMix64::new(2);
        let (_, span) = chase(&mut d, (0..1_000).map(|_| rng.next_below(1 << 28) * 64));
        let gbs =
            d.core_stats().data_read_bytes as f64 / span.since(Time::ZERO).as_secs_f64() / 1e9;
        assert!(gbs < 2.0, "dependent chain {gbs} GB/s");
    }

    #[test]
    fn peak_bandwidth_is_12_8_gbs() {
        let p = DdrConfig::ddr3_1600().peak_bandwidth_bytes_per_sec();
        assert!((p / 1e9 - 12.8).abs() < 0.01);
    }

    #[test]
    fn bank_interleaving_decodes_rows() {
        let d = DdrDevice::new(DdrConfig::ddr3_1600());
        assert_eq!(d.model.decode(0), (0, 0));
        assert_eq!(d.model.decode(2048), (1, 0));
        assert_eq!(d.model.decode(2048 * 8), (0, 1));
    }

    #[test]
    fn stats_track_bytes_and_latency() {
        let mut d = DdrDevice::new(DdrConfig::ddr3_1600());
        let mut w = read(0, 0, 128);
        w.op = OpKind::Write;
        d.submit(0, w, Time::ZERO).unwrap();
        let done = next_response(&mut d);
        let s = d.core_stats();
        assert_eq!((s.writes_completed, s.reads_completed), (1, 0));
        assert_eq!(s.data_write_bytes, 128);
        assert_eq!(s.bytes_up, 128, "wire traffic is the payload itself");
        assert!(done.at > Time::ZERO);
    }
}
