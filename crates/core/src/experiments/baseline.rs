//! The DDR DIMM baseline comparison.
//!
//! The paper positions HMC against JEDEC DIMMs qualitatively: the
//! packet-switched interface costs roughly 2× a typical DRAM access in
//! unloaded latency, in exchange for concurrency that a synchronous bus
//! cannot offer. This experiment measures both technologies behind the
//! same host: each column comes from a system built with
//! [`SystemBuilder::backend`], `hmc` or `ddr3-1600`.

use hmc_host::Workload;
use hmc_types::{RequestKind, RequestSize};
use mem_backend::BackendKind;

use crate::backends::AnyBackend;
use crate::builder::SystemBuilder;
use crate::measure::{run_backend_measurement, run_stream_on, BackendMeasurement, MeasureConfig};
use crate::report::{f1, ns, Table};
use crate::system::{System, SystemConfig};

/// Head-to-head numbers for one request size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineComparison {
    /// Request size compared.
    pub size: RequestSize,
    /// HMC unloaded read latency through the host (single request), ns.
    pub hmc_unloaded_ns: f64,
    /// DDR unloaded read latency through the same host, ns.
    pub ddr_unloaded_ns: f64,
    /// HMC loaded random-read bandwidth, GB/s (counted at the host).
    pub hmc_bandwidth_gbs: f64,
    /// DDR loaded random-read bandwidth, GB/s (counted at the host).
    pub ddr_bandwidth_gbs: f64,
    /// HMC in-cube latency share, ns (round trip minus host
    /// infrastructure).
    pub hmc_in_cube_ns: f64,
    /// DDR in-device latency share, ns (round trip minus the same host
    /// infrastructure).
    pub ddr_in_device_ns: f64,
}

fn build(cfg: &SystemConfig, kind: BackendKind) -> System<AnyBackend> {
    SystemBuilder::new(cfg.clone()).backend(kind).build_any()
}

/// Unloaded read latency of one request through the host, ns.
fn unloaded_ns(cfg: &SystemConfig, kind: BackendKind, size: RequestSize) -> f64 {
    let (hist, _) = run_stream_on(build(cfg, kind), &Workload::read_stream(1, size));
    hist.min().map_or(0.0, |d| d.as_ns_f64())
}

/// One loaded random-read window through the host.
fn loaded(
    cfg: &SystemConfig,
    kind: BackendKind,
    size: RequestSize,
    mc: &MeasureConfig,
) -> BackendMeasurement {
    let workload = Workload::full_scale(RequestKind::ReadOnly, size);
    run_backend_measurement(&mut build(cfg, kind), &workload, mc)
}

/// Runs the comparison at one size.
pub fn compare(cfg: &SystemConfig, size: RequestSize, mc: &MeasureConfig) -> BaselineComparison {
    let hmc_unloaded = unloaded_ns(cfg, BackendKind::Hmc, size);
    let ddr_unloaded = unloaded_ns(cfg, BackendKind::Ddr3_1600, size);
    let infra = hmc_host::controller::infrastructure_latency(
        &cfg.host.tx,
        &cfg.host.rx,
        size,
        cfg.host.frequency,
    )
    .as_ns_f64();
    BaselineComparison {
        size,
        hmc_unloaded_ns: hmc_unloaded,
        ddr_unloaded_ns: ddr_unloaded,
        hmc_bandwidth_gbs: loaded(cfg, BackendKind::Hmc, size, mc).bandwidth_gbs,
        ddr_bandwidth_gbs: loaded(cfg, BackendKind::Ddr3_1600, size, mc).bandwidth_gbs,
        hmc_in_cube_ns: hmc_unloaded - infra,
        ddr_in_device_ns: ddr_unloaded - infra,
    }
}

/// Renders the comparison.
pub fn baseline_table(rows: &[BaselineComparison]) -> Table {
    let mut t = Table::new(
        "HMC vs DDR3-1600 baseline",
        &[
            "size",
            "HMC unloaded",
            "DDR unloaded",
            "HMC in-cube",
            "DDR in-device",
            "HMC GB/s",
            "DDR GB/s",
        ],
    );
    for r in rows {
        t.row(vec![
            r.size.to_string(),
            ns(r.hmc_unloaded_ns),
            ns(r.ddr_unloaded_ns),
            ns(r.hmc_in_cube_ns),
            ns(r.ddr_in_device_ns),
            f1(r.hmc_bandwidth_gbs),
            f1(r.ddr_bandwidth_gbs),
        ]);
    }
    t
}

/// Random-access throughput comparison: HMC's vault/bank concurrency vs
/// the DIMM's shared bus, under a random 128 B request flood. Returns
/// the data bytes each device read per second, GB/s (HMC, DDR).
pub fn random_access_throughput(cfg: &SystemConfig, mc: &MeasureConfig) -> (f64, f64) {
    let data_gbs = |kind| {
        let m = loaded(cfg, kind, RequestSize::MAX, mc);
        m.data_read_bytes as f64 / mc.window.as_secs_f64() / 1e9
    };
    (data_gbs(BackendKind::Hmc), data_gbs(BackendKind::Ddr3_1600))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::TimeDelta;

    fn tiny() -> MeasureConfig {
        MeasureConfig {
            warmup: TimeDelta::from_us(30),
            window: TimeDelta::from_us(150),
        }
    }

    #[test]
    fn packet_interface_costs_latency() {
        let c = compare(&SystemConfig::default(), RequestSize::MAX, &tiny());
        // Behind the same host, HMC is slower than a DIMM: the packet
        // interface adds SerDes, crossbar and vault-controller time.
        assert!(
            c.hmc_unloaded_ns > c.ddr_unloaded_ns,
            "HMC {} vs DDR {}",
            c.hmc_unloaded_ns,
            c.ddr_unloaded_ns
        );
        // In-cube against in-device is a few times one DRAM access —
        // the paper estimates ~2x for the packet-switched interface.
        let ratio = c.hmc_in_cube_ns / c.ddr_in_device_ns;
        assert!((1.0..6.0).contains(&ratio), "in-cube ratio {ratio}");
    }

    #[test]
    fn ddr_in_device_matches_a_lone_dimm() {
        // Subtracting the host infrastructure leaves the DIMM's own
        // unloaded latency. The ~1.07 ns residual is the host putting the
        // 16 B request on its half-width 15 Gbps link (the `link_tx`
        // stage), which `infrastructure_latency` leaves out.
        use hmc_types::packet::OpKind;
        use hmc_types::{Address, CubeId, MemoryRequest, PortId, RequestId, Tag, TenantTag, Time};
        use mem_backend::MemoryBackend;

        let cfg = SystemConfig::default();
        for bytes in [16, 64, 128] {
            let size = RequestSize::new(bytes).expect("valid");
            let c = compare(&cfg, size, &tiny());
            let mut dimm = crate::backends::instantiate(BackendKind::Ddr3_1600, &cfg);
            let req = MemoryRequest {
                id: RequestId::new(0),
                port: PortId::new(0),
                tag: Tag::new(0),
                op: OpKind::Read,
                size,
                cube: CubeId::new(0),
                addr: Address::new(0),
                issued_at: Time::ZERO,
                data_token: 0,
                tenant: TenantTag::NONE,
            };
            dimm.submit(0, req, Time::ZERO).expect("idle port");
            let mut out = Vec::new();
            dimm.advance(Time::ZERO + TimeDelta::from_us(1), &mut out);
            let lone = out[0].at.as_ns_f64();
            assert!(
                (c.ddr_in_device_ns - lone).abs() < 2.0,
                "{size}: in-device {} ns vs lone DIMM {lone} ns",
                c.ddr_in_device_ns
            );
        }
    }

    #[test]
    fn hmc_wins_on_bandwidth() {
        let c = compare(&SystemConfig::default(), RequestSize::MAX, &tiny());
        assert!(
            c.hmc_bandwidth_gbs > c.ddr_bandwidth_gbs,
            "HMC {} vs DDR {}",
            c.hmc_bandwidth_gbs,
            c.ddr_bandwidth_gbs
        );
    }

    #[test]
    fn random_concurrency_advantage() {
        let (hmc, ddr) = random_access_throughput(&SystemConfig::default(), &tiny());
        assert!(hmc > ddr, "HMC {hmc} vs DDR {ddr} GB/s of random data");
    }

    #[test]
    fn table_renders() {
        let rows = vec![compare(&SystemConfig::default(), RequestSize::MIN, &tiny())];
        let t = baseline_table(&rows);
        assert_eq!(t.len(), 1);
    }
}
