//! Work counts: exact event and response counts of fixed windows, run
//! through the public API. This host has no hardware counters and its
//! wall time swings by more than 2× between runs, so exact work is the
//! noise-free evidence that a change adds or drops no events.
//!
//! Each row builds one `hmcbench` workload's system and runs it for the
//! length of that benchmark's check window (warm-up plus window). The
//! rows are a ratchet: a change that removes work lowers its rows in the
//! same diff, and a change that adds work edits them upward and says why
//! in CHANGES.md. A change meant to keep the model's behaviour leaves
//! every row as it is.

use hmc_core::experiments::openloop::bursty;
use hmc_core::{ChainSystem, SystemBuilder, SystemConfig, Topology};
use hmc_host::{OpenLoopConfig, ShedPolicy, Workload};
use hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use sim_engine::{ArrivalKind, SplitMix64};

/// Simulated time each row runs from a cold start.
const WINDOW: TimeDelta = TimeDelta::from_us(300);

/// One row's exact work over [`WINDOW`], summed over the cubes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    /// `Host::events_processed`.
    host_events: u64,
    /// The devices' `events_processed`.
    device_events: u64,
    /// `ChainSystem::events_processed`.
    events: u64,
    /// Responses delivered back to the hosts.
    completed: u64,
}

/// Starts `sys`, runs it for [`WINDOW`] and reads its work counts.
fn work(sys: &mut ChainSystem) -> Work {
    sys.start(Time::ZERO);
    sys.step_until(Time::ZERO + WINDOW);
    let cubes = 0..sys.cubes();
    Work {
        host_events: cubes.clone().map(|c| sys.host(c).events_processed()).sum(),
        device_events: cubes
            .clone()
            .map(|c| sys.device(c).events_processed())
            .sum(),
        events: sys.events_processed(),
        completed: cubes
            .map(|c| sys.host(c).total_issued() - sys.host(c).outstanding())
            .sum(),
    }
}

/// The benchmark seed 1, spread over 64 bits as `hmcbench` spreads it.
fn seed() -> u64 {
    SplitMix64::new(1).next_u64()
}

/// One cube of full-scale random closed-loop GUPS on all nine ports.
fn gups(kind: RequestKind, size: u64) -> Work {
    let mut cfg = SystemConfig::default();
    cfg.host.rng_salt = seed();
    let mut sys = SystemBuilder::new(cfg).build();
    sys.host_mut().apply_workload(&Workload::full_scale(
        kind,
        RequestSize::new(size).expect("valid request size"),
    ));
    work(&mut sys)
}

/// The standard three-tenant open-loop mix at `rps` per cube, with
/// reject-newest shedding.
fn open_loop(rps: f64, kind: ArrivalKind) -> SystemConfig {
    let mut cfg = SystemConfig::default();
    let mut open = OpenLoopConfig::standard_mix(rps, kind, ShedPolicy::RejectNewest);
    open.seed = seed();
    cfg.host.openloop = Some(open);
    cfg
}

#[test]
fn gups_ro128_work_is_pinned() {
    assert_eq!(
        gups(RequestKind::ReadOnly, 128),
        Work {
            host_events: 294_393,
            device_events: 149_640,
            events: 444_033,
            completed: 36_065,
        }
    );
}

#[test]
fn gups_rw64_work_is_pinned() {
    assert_eq!(
        gups(RequestKind::ReadModifyWrite, 64),
        Work {
            host_events: 594_028,
            device_events: 271_458,
            events: 865_486,
            completed: 58_665,
        }
    );
}

/// Eight cubes in a chain, Poisson arrivals below saturation.
#[test]
fn chain8_poisson_work_is_pinned() {
    let mut sys = SystemBuilder::new(open_loop(20e6, ArrivalKind::Poisson))
        .topology(Topology::chain(8))
        .build_chain();
    assert_eq!(
        work(&mut sys),
        Work {
            host_events: 353_237,
            device_events: 214_380,
            events: 567_617,
            completed: 47_382,
        }
    );
}

/// One cube offered about 1.5× what it retires, in bursts, with the
/// sanitizer, tracing and 1 µs gauges armed.
#[test]
fn openloop_overload_observed_work_is_pinned() {
    let mut sys = SystemBuilder::new(open_loop(180e6, bursty()))
        .sanitizer()
        .tracing(64)
        .metrics(TimeDelta::from_us(1))
        .build();
    assert_eq!(
        work(&mut sys),
        Work {
            host_events: 374_974,
            device_events: 187_950,
            events: 562_924,
            completed: 41_573,
        }
    );
}
