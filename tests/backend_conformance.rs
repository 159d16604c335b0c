//! Backend-conformance suite: every [`BackendKind`] preset must honor
//! the `MemoryBackend` contract — request conservation at drain,
//! monotonic `next_time`, bit-identical double runs — and the devices
//! behind the trait must stay byte-identical to the golden artifacts in
//! `tests/golden/`: the HMC, DDR3-1600 and HBM observed-window traces and
//! metrics, the two latency-attribution tables and the sanitizer report.

use hmc_core::backends;
use hmc_core::experiments::latency::{figure14_breakdown, figure14_breakdown_table};
use hmc_core::hmc_host::Workload;
use hmc_core::hmc_mem::{HbmConfig, HbmDevice};
use hmc_core::measure::{run_backend_measurement, MeasureConfig};
use hmc_core::mem_backend::{BackendKind, MemoryBackend};
use hmc_core::observe::{run_chain_observed, run_window_observed};
use hmc_core::sanitize::fig9_bandwidth_subset;
use hmc_core::{JsonReport, SystemBuilder, SystemConfig, Topology};
use hmc_types::address::MaxBlockSize;
use hmc_types::packet::OpKind;
use hmc_types::{
    Address, AddressMapping, CubeId, MemoryRequest, PortId, RequestId, RequestKind, RequestSize,
    Tag, TenantTag, Time, TimeDelta,
};

fn req(id: u64, addr: u64, op: OpKind) -> MemoryRequest {
    MemoryRequest {
        id: RequestId::new(id),
        port: PortId::new(0),
        tag: Tag::new(0),
        op,
        size: RequestSize::new(128).expect("valid"),
        cube: CubeId::new(0),
        addr: Address::new(addr),
        issued_at: Time::ZERO,
        data_token: 0,
        tenant: TenantTag::NONE,
    }
}

/// A short window every backend can drain quickly in debug builds.
fn fast_mc() -> MeasureConfig {
    MeasureConfig {
        warmup: TimeDelta::from_us(10),
        window: TimeDelta::from_us(50),
    }
}

/// Every request submitted through the host path is accounted for at
/// drain: host and device completion counters agree with the offered
/// stream and no request is left queued inside the backend.
#[test]
fn conservation_at_drain_every_backend() {
    const STREAM: usize = 96;
    for kind in BackendKind::ALL {
        let mut sys = SystemBuilder::new(SystemConfig::default())
            .backend(kind)
            .build_any();
        sys.host_mut().apply_workload(&Workload::read_stream(
            STREAM,
            RequestSize::new(64).expect("valid"),
        ));
        sys.host_mut().start(Time::ZERO);
        let drained = sys.run_until_idle(TimeDelta::from_ms(100));
        assert!(drained, "{kind}: stream failed to drain");
        let host = sys.host().stats();
        assert_eq!(
            host.reads_completed, STREAM as u64,
            "{kind}: host completion"
        );
        let core = sys.device().core_stats();
        assert_eq!(
            core.reads_completed, STREAM as u64,
            "{kind}: device completion"
        );
        assert_eq!(sys.device().total_queued(), 0, "{kind}: drained queues");
        assert_eq!(host.integrity_failures, 0, "{kind}: integrity");
    }
}

/// Driving a backend directly at its own event instants: `next_time`
/// never moves backward, and every submitted request eventually comes
/// back out exactly once.
#[test]
fn next_time_is_monotonic_every_backend() {
    const SUBMITTED: u64 = 8;
    for kind in BackendKind::ALL {
        let mut cfg = SystemConfig::default();
        backends::apply_preset(kind, &mut cfg);
        let mut dev = backends::instantiate(kind, &cfg);
        for i in 0..SUBMITTED {
            assert!(dev.free_slots(0) > 0, "{kind}: port 0 has slots");
            dev.submit(0, req(i + 1, (i + 1) * 65_536, OpKind::Read), Time::ZERO)
                .expect("port had a free slot");
        }
        let mut out = Vec::new();
        let mut prev = Time::ZERO;
        let mut iterations = 0u32;
        while out.len() < SUBMITTED as usize {
            let t = dev
                .next_time()
                .expect("requests in flight imply pending events");
            assert!(
                t >= prev,
                "{kind}: next_time moved backward: {t:?} < {prev:?}"
            );
            prev = t;
            dev.advance_instant(t, &mut out);
            iterations += 1;
            assert!(iterations < 1_000_000, "{kind}: run-away event loop");
        }
        let mut ids: Vec<u64> = out.iter().map(|o| o.resp.id.value()).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (1..=SUBMITTED).collect::<Vec<_>>(),
            "{kind}: every request completes exactly once"
        );
    }
}

/// Two identically-configured runs produce bit-identical figures on
/// every backend — the determinism clause of the contract.
#[test]
fn double_run_is_bit_identical_every_backend() {
    let mc = fast_mc();
    let workload = Workload::full_scale(RequestKind::ReadOnly, RequestSize::MAX);
    for kind in BackendKind::ALL {
        let measure = || {
            let mut sys = SystemBuilder::new(SystemConfig::default())
                .backend(kind)
                .build_any();
            run_backend_measurement(&mut sys, &workload, &mc)
        };
        let a = measure();
        let b = measure();
        assert_eq!(
            a.bandwidth_gbs.to_bits(),
            b.bandwidth_gbs.to_bits(),
            "{kind}: bandwidth"
        );
        assert_eq!(
            a.p99_latency_ns.to_bits(),
            b.p99_latency_ns.to_bits(),
            "{kind}: p99"
        );
        assert_eq!(a.events, b.events, "{kind}: event count");
        assert_eq!(a.completed, b.completed, "{kind}: completions");
        assert_eq!(a.peak_channels, b.peak_channels, "{kind}: channel gauge");
    }
}

/// The HMC, DDR3-1600 and HBM devices behind the `MemoryBackend` trait
/// produce the exact bytes of `repro sweep trace|metrics --backend
/// <kind> --json`: the same observed window, recorded before the
/// refactor each golden guards. CI pins the same bytes by SHA-256.
#[test]
fn hmc_behind_trait_matches_golden_artifacts() {
    let goldens = [
        (
            BackendKind::Hmc,
            include_str!("golden/trace.json"),
            include_str!("golden/metrics.json"),
        ),
        (
            BackendKind::Ddr3_1600,
            include_str!("golden/ddr_trace.json"),
            include_str!("golden/ddr_metrics.json"),
        ),
        (
            BackendKind::Hbm,
            include_str!("golden/hbm_trace.json"),
            include_str!("golden/hbm_metrics.json"),
        ),
    ];
    for (kind, trace, metrics) in goldens {
        let obs = run_window_observed(
            &SystemConfig::default(),
            kind,
            &Workload::full_scale(
                RequestKind::ReadModifyWrite,
                RequestSize::new(64).expect("valid"),
            ),
            TimeDelta::from_us(50),
            101,
            TimeDelta::from_us(1),
        );
        assert!(
            obs.report.json() == trace,
            "{kind}: trace artifact diverged from the recorded golden"
        );
        assert!(
            obs.metrics.json() == metrics,
            "{kind}: metrics artifact diverged from the recorded golden"
        );
    }
}

/// `repro figure fig14 --breakdown`'s attribution table, byte for byte:
/// every stage's count, mean and per-request share comes from the
/// tracers' per-stage totals.
#[test]
fn figure14_attribution_matches_golden_table() {
    let obs = figure14_breakdown(&SystemConfig::default(), RequestSize::MAX);
    assert_eq!(
        figure14_breakdown_table(&obs, RequestSize::MAX).to_string(),
        include_str!("golden/fig14_breakdown.txt"),
    );
}

/// The 4-cube chain attribution table `repro chain --cubes 4
/// --breakdown` prints: twelve tracers (host, device and hop per cube)
/// merged into one report.
#[test]
fn chain_attribution_matches_golden_table() {
    let obs = run_chain_observed(
        &SystemConfig::default(),
        Topology::chain(4),
        &Workload::read_stream(256, RequestSize::new(64).expect("valid")),
        None,
        8,
        Some(TimeDelta::from_us(1)),
    );
    assert_eq!(
        obs.report
            .attribution_table("chain latency attribution", &obs.latency)
            .to_string(),
        include_str!("golden/chain4_attribution.txt"),
    );
}

/// The sanitizer report `repro sanitize --json` writes: the Figure 9
/// subset with the sanitizer armed over `hmc_bench::bench_mc()`'s default
/// window. Its check counts include one per host and device pump call.
#[test]
fn sanitized_fig9_subset_matches_golden_report() {
    let mc = MeasureConfig {
        warmup: TimeDelta::from_us(100),
        window: TimeDelta::from_us(600),
    };
    let run = fig9_bandwidth_subset(&SystemConfig::default(), &mc, true);
    assert_eq!(run.report.json(), include_str!("golden/sanitize.json"));
}

/// A backend whose decoder disagrees with the host's interleave is
/// rejected at build time with a diagnostic naming both bit-fields.
#[test]
#[should_panic(expected = "address-layout mismatch")]
fn mismatched_interleave_fails_at_build_time() {
    // Host generates the default 128 B-block interleave; the device
    // decodes a 32 B-block one — the vault fields land on different
    // bits.
    let _ = SystemBuilder::new(SystemConfig::default()).build_with(HbmDevice::new(HbmConfig {
        mapping: AddressMapping::new(MaxBlockSize::B32),
        ..HbmConfig::default()
    }));
}
