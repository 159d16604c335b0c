//! Fault-injection tests for the runtime protocol sanitizer.
//!
//! Each test corrupts one aspect of a valid configuration and asserts
//! that the sanitizer reports the *specific* violation class the fault
//! should produce — proving the checks detect real protocol breakage
//! rather than merely counting to zero on healthy runs.

use hmc_core::hmc_host::Workload;
use hmc_core::hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use hmc_core::sim_engine::ViolationClass;
use hmc_core::{ChainSystem, System, SystemConfig, Topology};

/// Drives `sys` with full-scale read traffic for `span`.
fn drive(sys: &mut System, span: TimeDelta) {
    sys.host_mut().apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::MAX,
    ));
    sys.host_mut().start(Time::ZERO);
    sys.step_until(Time::ZERO + span);
}

#[test]
fn zeroed_trp_trips_dram_timing_checks() {
    let mut cfg = SystemConfig::default();
    // A tRP of zero shrinks the row cycle below the Gen2 floor: banks
    // re-activate faster than the DRAM process allows.
    cfg.mem.dram.t_rp = TimeDelta::ZERO;
    let mut sys = System::new(cfg);
    sys.enable_sanitizer();
    drive(&mut sys, TimeDelta::from_us(100));

    let report = sys.sanitizer_report();
    assert!(
        report.count_of(ViolationClass::DramTiming) > 0,
        "tRP=0 must violate the timing floor:\n{report}"
    );
    // The fault is purely a timing one — conservation and credit
    // accounting stay intact.
    assert_eq!(report.count_of(ViolationClass::Conservation), 0);
    assert_eq!(report.count_of(ViolationClass::CreditOverflow), 0);
    assert_eq!(report.count_of(ViolationClass::CreditUnderflow), 0);
}

#[test]
fn wedged_device_trips_watchdog_with_diagnostic_dump() {
    let mut cfg = SystemConfig::default();
    // A 10 ms tRAS parks every bank for far longer than the run: the
    // first wave of reads occupies all banks, the FIFOs and link
    // ingress back up, the hosts stall on credit, and nothing ever
    // completes — the classic wedge.
    cfg.mem.dram.t_ras = TimeDelta::from_ms(10);
    let mut sys = System::new(cfg);
    sys.enable_sanitizer_with_span(TimeDelta::from_us(50));
    drive(&mut sys, TimeDelta::from_us(200));

    let report = sys.sanitizer_report();
    assert!(
        report.count_of(ViolationClass::Watchdog) >= 1,
        "no forward progress must trip the watchdog:\n{report}"
    );
    let v = report
        .violations()
        .iter()
        .find(|v| v.class == ViolationClass::Watchdog)
        .expect("watchdog violation recorded");
    // The violation carries the full diagnostic dump for post-mortem.
    assert!(v.detail.contains("waiting_credit"), "detail: {}", v.detail);
    assert!(!report.is_clean());
}

#[test]
fn wedged_chain_dump_shows_credits_per_link() {
    // The same 10 ms tRAS wedge on both cubes of a chain: the fleet-wide
    // watchdog's dump must name the stalled hosts and, per cube, the
    // link credits the wedged devices still hold.
    let mut cfg = SystemConfig::default();
    cfg.mem.dram.t_ras = TimeDelta::from_ms(10);
    let mut sys = ChainSystem::new(cfg, Topology::chain(2));
    sys.enable_sanitizer_with_span(TimeDelta::from_us(50));
    sys.apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::MAX,
    ));
    sys.start(Time::ZERO);
    sys.step_until(Time::ZERO + TimeDelta::from_us(200));

    let report = sys.sanitizer_report();
    let v = report
        .violations()
        .iter()
        .find(|v| v.class == ViolationClass::Watchdog)
        .expect("no forward progress must trip the watchdog");
    // The watchdog checks at every pumped instant; it trips at the first
    // one a span past the last retirement (recorded when it still
    // checked once per epoch, which tripped at the same instant).
    assert_eq!(v.at, Time::from_ps(54_600_000), "detail: {}", v.detail);
    assert!(v.detail.contains("waiting_credit"), "detail: {}", v.detail);
    assert_eq!(
        v.detail.matches("credits in use per link").count(),
        2,
        "one credit line per cube: {}",
        v.detail
    );
}

#[test]
fn healthy_run_is_clean_and_drains() {
    let mut sys = System::new(SystemConfig::default());
    sys.enable_sanitizer_with_span(TimeDelta::from_us(50));
    drive(&mut sys, TimeDelta::from_us(200));

    let report = sys.sanitizer_report();
    assert!(report.is_clean(), "{report}");
    assert!(report.total_checks() > 0);
    // JSON export round-trips the clean verdict.
    let json = report.to_json();
    assert!(json.starts_with("{\"clean\":true,"), "{json}");
}
