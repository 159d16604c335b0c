//! Topology regression tests.
//!
//! A [`System`] is a one-cube [`ChainSystem`]. These tests pin one-cube
//! runs of both types to fingerprints recorded when `System` still had
//! an event pump of its own (`f64::to_bits` on every derived
//! measurement), pin the multi-cube pump to recorded fingerprints at
//! every cube count, and pin it to deterministic re-execution under an
//! adverse (noisy-link, sanitizer-armed) configuration.

use hmc_core::hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use hmc_core::topology::{ChainSystem, Topology};
use hmc_core::{System, SystemConfig};
use hmc_host::Workload;
use sim_engine::FaultScenario;

mod pin;

const WARMUP: TimeDelta = TimeDelta::from_us(20);
const WINDOW: TimeDelta = TimeDelta::from_us(60);

/// Everything a measurement run derives, flattened to exact bits.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    reads_completed: u64,
    writes_completed: u64,
    counted_bytes: u64,
    latency_count: u64,
    latency_mean_ps: u64,
    bandwidth_bits: u64,
    mrps_bits: u64,
    dev_reads: u64,
    dev_writes: u64,
    dev_bytes_down: u64,
    dev_activations: u64,
    dev_retries: u64,
    events: u64,
    now_ps: u64,
}

fn run_system(cfg: &SystemConfig, w: &Workload, faults: Option<&FaultScenario>) -> Fingerprint {
    let mut sys = System::new(cfg.clone());
    if let Some(scenario) = faults {
        sys.install_faults(scenario);
    }
    sys.host_mut().apply_workload(w);
    sys.host_mut().start(Time::ZERO);
    sys.step_until(Time::ZERO + WARMUP);
    sys.host_mut().reset_stats();
    sys.step_until(Time::ZERO + WARMUP + WINDOW);
    let s = sys.host().stats();
    let d = sys.device().stats();
    Fingerprint {
        reads_completed: s.reads_completed,
        writes_completed: s.writes_completed,
        counted_bytes: s.counted_bytes,
        latency_count: s.read_latency.count(),
        latency_mean_ps: s.read_latency.mean().as_ps(),
        bandwidth_bits: s.bandwidth_gbs(WINDOW).to_bits(),
        mrps_bits: s.mrps(WINDOW).to_bits(),
        dev_reads: d.reads_completed,
        dev_writes: d.writes_completed,
        dev_bytes_down: d.bytes_down,
        dev_activations: d.bank_activations,
        dev_retries: d.link_retries,
        events: sys.events_processed(),
        now_ps: sys.now().as_ps(),
    }
}

fn run_chain(cfg: &SystemConfig, w: &Workload, faults: Option<&FaultScenario>) -> Fingerprint {
    let mut sys = ChainSystem::new(cfg.clone(), Topology::single());
    if let Some(scenario) = faults {
        sys.install_faults(0, scenario);
    }
    sys.host_mut(0).apply_workload(w);
    sys.host_mut(0).start(Time::ZERO);
    sys.step_until(Time::ZERO + WARMUP);
    sys.reset_stats();
    sys.step_until(Time::ZERO + WARMUP + WINDOW);
    let s = sys.host_stats();
    let d = sys.device(0).stats();
    Fingerprint {
        reads_completed: s.reads_completed,
        writes_completed: s.writes_completed,
        counted_bytes: s.counted_bytes,
        latency_count: s.read_latency.count(),
        latency_mean_ps: s.read_latency.mean().as_ps(),
        bandwidth_bits: s.bandwidth_gbs(WINDOW).to_bits(),
        mrps_bits: s.mrps(WINDOW).to_bits(),
        dev_reads: d.reads_completed,
        dev_writes: d.writes_completed,
        dev_bytes_down: d.bytes_down,
        dev_activations: d.bank_activations,
        dev_retries: d.link_retries,
        events: sys.events_processed(),
        now_ps: sys.now().as_ps(),
    }
}

/// `(FNV-1a 64, byte length)` of the `Debug` string of one-cube
/// [`Fingerprint`]s, recorded when `System` ran its own event pump: the
/// three workloads of [`single_cube_chain_is_bit_identical_to_system`],
/// the salted run, and the noisy-link run.
const ONE_CUBE_PINS: [(u64, usize); 5] = [
    (0x3308_8ab6_3d26_c3bf, 330),
    (0xc1d0_2e12_7537_f5d8, 334),
    (0x952c_b634_1fe8_8040, 268),
    (0x9f29_f637_699e_9c5d, 330),
    (0x965b_7e63_1044_51bf, 331),
];

/// Runs `w` on a one-cube `System` and a one-cube `ChainSystem` and
/// checks both against the recorded pin.
fn check_one_cube(
    cfg: &SystemConfig,
    w: &Workload,
    faults: Option<&FaultScenario>,
    want: (u64, usize),
) -> Fingerprint {
    let sys = run_system(cfg, w, faults);
    let chain = run_chain(cfg, w, faults);
    for (name, fp) in [("System", &sys), ("ChainSystem", &chain)] {
        let got = pin::fingerprint(&format!("{fp:?}"));
        assert_eq!(got, want, "{name} drifted from the recorded run: {fp:?}");
    }
    sys
}

#[test]
fn single_cube_chain_is_bit_identical_to_system() {
    // Random full-scale traffic exercises every port RNG; mixed traffic
    // exercises the read/write split; the stream exercises exact pacing.
    let workloads = [
        Workload::full_scale(RequestKind::ReadOnly, RequestSize::new(128).expect("size")),
        Workload::mixed(RequestSize::new(64).expect("size"), 0.7),
        Workload::read_stream(512, RequestSize::new(32).expect("size")),
    ];
    let cfg = SystemConfig::default();
    for (w, &want) in workloads.iter().zip(&ONE_CUBE_PINS) {
        let fp = check_one_cube(&cfg, w, None, want);
        // Streams finish inside the warmup, so only the continuous
        // workloads must show traffic in the measurement window; the
        // stream still pins event counts and the final clock.
        if matches!(w, Workload::Continuous { .. }) {
            assert!(fp.reads_completed > 0, "workload produced no traffic");
        }
        assert!(fp.events > 0, "no events processed");
    }
}

#[test]
fn single_cube_chain_honours_the_host_rng_salt() {
    // A reseeded host must draw the recorded streams in both one-cube
    // types: the chain mixes its per-cube salt into the configured one
    // instead of replacing it.
    let w = Workload::full_scale(RequestKind::ReadOnly, RequestSize::new(128).expect("size"));
    let mut cfg = SystemConfig::default();
    cfg.host.rng_salt = 0x5EED_C4A1;
    let salted = check_one_cube(&cfg, &w, None, ONE_CUBE_PINS[3]);
    assert_ne!(
        salted,
        run_system(&SystemConfig::default(), &w, None),
        "the salt never reached the generators — test is vacuous"
    );
}

#[test]
fn single_cube_chain_matches_system_under_noisy_link() {
    // The retry path must also reproduce the recorded run: same BER
    // draws, same replay schedule. noisy-link arms BER 1e-6 on both
    // links at t=0.
    let scenario = FaultScenario::builtin("noisy-link").expect("builtin scenario");
    let w = Workload::full_scale(RequestKind::ReadOnly, RequestSize::new(128).expect("size"));
    let fp = check_one_cube(
        &SystemConfig::default(),
        &w,
        Some(&scenario),
        ONE_CUBE_PINS[4],
    );
    assert!(
        fp.dev_retries > 0,
        "scenario injected no retries — test is vacuous"
    );
}
fn run_noisy_pair() -> (String, u64, u64, u64) {
    let mut sys = ChainSystem::new(SystemConfig::default(), Topology::chain(2));
    sys.enable_sanitizer();
    let scenario = FaultScenario::builtin("noisy-link").expect("builtin scenario");
    sys.install_faults(0, &scenario);
    sys.install_faults(1, &scenario);
    sys.apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::new(128).expect("size"),
    ));
    sys.start(Time::ZERO);
    sys.run_for(TimeDelta::from_us(50));
    sys.stop_generation();
    let drained = sys.run_until_idle(TimeDelta::from_ms(10));
    assert!(drained, "noisy two-cube chain failed to drain");
    sys.sanitize_check_drained();
    let s = sys.host_stats();
    (
        sys.sanitizer_report().to_json(),
        s.reads_completed,
        sys.device(0).stats().link_retries + sys.device(1).stats().link_retries,
        sys.events_processed(),
    )
}

/// Runs a `cubes`-cube chain with the sanitizer armed and flattens every
/// observable surface — merged host window, per-cube device counters,
/// event totals, final clock, and the full sanitizer report — into one
/// comparable string.
fn run_sharded(cubes: u8) -> String {
    let mut sys = ChainSystem::new(SystemConfig::default(), Topology::chain(cubes));
    sys.enable_sanitizer();
    sys.apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::new(128).expect("size"),
    ));
    sys.start(Time::ZERO);
    sys.run_for(TimeDelta::from_us(5));
    sys.stop_generation();
    assert!(
        sys.run_until_idle(TimeDelta::from_ms(10)),
        "{cubes}-cube chain failed to drain"
    );
    sys.sanitize_check_drained();
    let s = sys.host_stats();
    let mut out = format!(
        "reads={} writes={} bytes={} lat_n={} lat_mean={} events={} now={}\n",
        s.reads_completed,
        s.writes_completed,
        s.counted_bytes,
        s.read_latency.count(),
        s.read_latency.mean().as_ps(),
        sys.events_processed(),
        sys.now().as_ps(),
    );
    for c in 0..sys.cubes() {
        let d = sys.device(c).stats();
        out.push_str(&format!(
            "cube{c}: reads={} writes={} down={} up={} acts={} retries={}\n",
            d.reads_completed,
            d.writes_completed,
            d.bytes_down,
            d.bytes_up,
            d.bank_activations,
            d.link_retries,
        ));
    }
    out.push_str(&sys.sanitizer_report().to_json());
    out
}

/// `(FNV-1a 64, byte length)` of [`run_sharded`] at 1..=8 cubes.
const SHARDED_PINS: [(u64, usize); 8] = [
    (0x1c7a_dc68_9fa8_8b5e, 392),
    (0x93a5_d3d1_5732_6e26, 460),
    (0xb516_2668_d55b_6289, 528),
    (0x3e26_b3b1_c5c0_bef5, 596),
    (0x0fd2_ccdb_e262_441c, 664),
    (0x49fe_d55c_2f05_c73e, 722),
    (0x288d_62be_7f22_1d8e, 788),
    (0x6783_11cd_2e3c_0535, 850),
];

#[test]
fn sharded_chains_match_pinned_fingerprints() {
    // The chain pump's whole observable surface, sanitizer report
    // included, must reproduce the recorded bytes at every cube count.
    for (cubes, &want) in (1..=8u8).zip(&SHARDED_PINS) {
        let surface = run_sharded(cubes);
        assert!(
            surface.contains("\"clean\":true"),
            "sanitizer flagged the {cubes}-cube run: {surface}"
        );
        assert_eq!(
            pin::fingerprint(&surface),
            want,
            "{cubes}-cube surface drifted:\n{surface}"
        );
    }
}

#[test]
fn noisy_two_cube_chain_drains_deterministically() {
    let a = run_noisy_pair();
    let b = run_noisy_pair();
    assert_eq!(a, b, "noisy chain runs must agree to the byte");
    assert!(a.2 > 0, "noisy-link scenario injected no retries");
    // The sanitizer saw a fully conserved run: no violations even with
    // every packet at risk of replay on both cubes' host links.
    assert!(
        a.0.contains("\"clean\":true"),
        "sanitizer flagged the noisy chain: {}",
        a.0
    );
}
