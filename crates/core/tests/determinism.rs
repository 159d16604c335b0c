//! Determinism regression tests: repeated runs of the same experiment
//! must agree to the bit — figures, tables, and sanitizer reports.
//!
//! These guard the `HashMap`→`BTreeMap` conversions and any future
//! iteration-order dependence: a randomized container in a simulation
//! path shows up here as a flaky byte-level mismatch.

use hmc_core::experiments::openloop::{bursty, openloop_json};
use hmc_core::hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use hmc_core::measure::MeasureConfig;
use hmc_core::sanitize::fig9_bandwidth_subset;
use hmc_core::topology::Topology;
use hmc_core::{SystemBuilder, SystemConfig};
use hmc_host::{OpenLoopConfig, ShedPolicy, Workload};
use sim_engine::FaultScenario;

mod pin;

fn tiny() -> MeasureConfig {
    MeasureConfig {
        warmup: TimeDelta::from_us(20),
        window: TimeDelta::from_us(60),
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let cfg = SystemConfig::default();
    let a = fig9_bandwidth_subset(&cfg, &tiny(), false);
    let b = fig9_bandwidth_subset(&cfg, &tiny(), false);
    assert_eq!(a.fingerprint(), b.fingerprint(), "figures must not drift");
    assert_eq!(
        a.table().to_string(),
        b.table().to_string(),
        "rendered tables must match byte for byte"
    );
}

#[test]
fn sanitized_reruns_agree_including_reports() {
    let cfg = SystemConfig::default();
    let a = fig9_bandwidth_subset(&cfg, &tiny(), true);
    let b = fig9_bandwidth_subset(&cfg, &tiny(), true);
    assert_eq!(a.fingerprint(), b.fingerprint());
    // The sanitizer's own accounting is part of the deterministic
    // surface: identical runs perform identical checks in identical
    // order, so the JSON reports are byte-identical too.
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(a.report.to_string(), b.report.to_string());
}

/// Runs an eight-cube chain under the noisy-link scenario on every cube
/// (sanitizer armed) and returns the full serialized surface: the
/// sanitizer's `JsonReport` plus a flattened stats line.
fn noisy_octet() -> String {
    let scenario = FaultScenario::builtin("noisy-link").expect("builtin scenario");
    let mut sys = SystemBuilder::new(SystemConfig::default())
        .sanitizer()
        .faults(&scenario)
        .topology(Topology::chain(8))
        .build_chain();
    sys.apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::new(128).expect("size"),
    ));
    sys.start(Time::ZERO);
    sys.run_for(TimeDelta::from_us(5));
    sys.stop_generation();
    assert!(
        sys.run_until_idle(TimeDelta::from_ms(10)),
        "noisy 8-cube chain failed to drain"
    );
    sys.sanitize_check_drained();
    let report = sys.sanitizer_report();
    let s = sys.host_stats();
    let retries: u64 = (0..sys.cubes())
        .map(|c| sys.device(c).stats().link_retries)
        .sum();
    format!(
        "{}\nreads={} bytes={} lat_mean={} retries={} events={} now={}",
        report.to_json(),
        s.reads_completed,
        s.counted_bytes,
        s.read_latency.mean().as_ps(),
        retries,
        sys.events_processed(),
        sys.now().as_ps(),
    )
}

/// Runs a four-cube chain under a deliberately saturating MMPP open-loop
/// frontend (sanitizer armed) and returns the full serialized surface:
/// sanitizer `JsonReport`, the openloop JSON export (shed counts, SLO
/// conformance, latency quantiles), and a flattened per-tenant shed line.
fn saturating_mmpp_quartet() -> String {
    // Far above what four cubes can retire: every shed path stays hot.
    let open = OpenLoopConfig::standard_mix(2.0e9, bursty(), ShedPolicy::PriorityShed);
    let mut sys = SystemBuilder::new(SystemConfig::default())
        .sanitizer()
        .open_loop(open.clone())
        .topology(Topology::chain(4))
        .build_chain();
    sys.start(Time::ZERO);
    sys.run_for(TimeDelta::from_us(40));
    let stats = sys.open_stats();
    sys.stop_generation();
    assert!(
        sys.run_until_idle(TimeDelta::from_ms(10)),
        "saturated 4-cube open loop failed to drain"
    );
    sys.sanitize_check_drained();
    let report = sys.sanitizer_report();
    let point = hmc_core::experiments::openloop::make_window_point(
        2.0e9,
        &open,
        &stats,
        TimeDelta::from_us(40),
    );
    let outcome = hmc_core::experiments::openloop::OpenLoopOutcome {
        policy: open.policy,
        kind: "mmpp",
        cubes: 4,
        saturation_rps: 0.0,
        points: vec![point],
        drained: true,
        report: report.clone(),
    };
    let sheds: String = stats
        .iter()
        .map(|t| {
            format!(
                " {}:{}/{}/{}",
                t.offered, t.shed_rate, t.shed_queue, t.shed_deadline
            )
        })
        .collect();
    format!(
        "{}\n{}\nsheds={} events={} now={}",
        report.to_json(),
        openloop_json(&outcome),
        sheds,
        sys.events_processed(),
        sys.now().as_ps(),
    )
}

#[test]
fn saturating_openloop_surface_is_identical_across_shard_counts() {
    // Overload is where nondeterminism hides: shed decisions, eviction
    // choices, and backpressure toggles all depend on exact queue state
    // at exact instants. The chain pump must not perturb any of it: the
    // surface must reproduce the bytes every shard count agreed on.
    let surface = saturating_mmpp_quartet();
    assert!(
        surface.contains("\"clean\":true"),
        "saturated open loop must sanitize clean: {surface}"
    );
    assert!(surface.contains("\"shed\":"), "surface missing shed counts");
    assert_eq!(
        pin::fingerprint(&surface),
        (0xeefb_93fd_a2b9_842d, 1041),
        "open-loop surface drifted:\n{surface}"
    );
}

#[test]
fn noisy_chain_json_report_is_identical_across_shard_counts() {
    // The chain pump must not perturb a single byte of the serialized
    // report, even with link-retry randomness live on all eight cubes'
    // host links.
    let surface = noisy_octet();
    assert!(
        surface.contains("\"clean\":true"),
        "noisy chain must sanitize clean: {surface}"
    );
    assert!(surface.contains("retries="), "fingerprint missing stats");
    assert_eq!(
        pin::fingerprint(&surface),
        (0x14d4_c259_7ab2_9092, 316),
        "noisy-chain surface drifted:\n{surface}"
    );
}
