//! Self-tests of the benchmark, on 200 µs windows. Run them optimized:
//! `cargo test --release --manifest-path hmcbench/Cargo.toml`.

use hmc_core::hmc_types::TimeDelta;

use crate::traced::Copy;
use crate::workload::{pinned_run, run_slices, Budget, Workload};
use crate::{end_to_end, perlayer, pinned, Report};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The traced copy (armed as the workload arms it, and disarmed)
/// reproduces the untraced `System` window, event count included.
fn copy_matches_system(w: Workload) {
    let spec = w.spec();
    let n = (TimeDelta::from_us(200).as_ps() / spec.slice.as_ps()) as usize;
    let mut sys = spec.start_single(spec.builder(1));
    let (want, _) = run_slices(&mut sys, spec.slice, |k, _| k >= n);
    for armed in [spec.observed, false] {
        let mut copy = Copy::start(&spec, 1, armed);
        let (got, _) = run_slices(&mut copy, spec.slice, |k, _| k >= n);
        assert_eq!(got.fingerprint(), want.fingerprint(), "armed={armed}");
        assert!(copy.layers.instants > 0 && copy.layers.device_events > 0);
    }
}

#[test]
fn traced_copy_matches_system_on_gups_ro128() {
    copy_matches_system(Workload::GupsRo128);
}

#[test]
fn traced_copy_matches_system_on_armed_overload() {
    copy_matches_system(Workload::OpenloopOverloadObserved);
}

#[test]
fn two_runs_are_identical() {
    for w in [Workload::GupsRw64, Workload::OpenloopOverloadObserved] {
        assert_eq!(pinned_run(w, 1), pinned_run(w, 1), "{}", w.name());
    }
}

#[test]
fn seeds_one_and_two_differ() {
    for w in Workload::ALL {
        assert_ne!(pinned_run(w, 1), pinned_run(w, 2), "{}", w.name());
    }
}

#[test]
fn pinned_outputs_hold() {
    for w in Workload::ALL {
        for seed in crate::PINNED_SEEDS {
            let out = pinned_run(w, seed).expect("the check window drains clean");
            pinned::compare(w, seed, &out).expect("outputs match the pinned table");
        }
    }
}

/// `"name"` values of the objects in one top-level section of
/// `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closed string")].to_string())
        .collect()
}

fn printed(rep: &Report) -> Vec<String> {
    rep.metrics.iter().map(|m| m.name.clone()).collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn workloads_match_benchmark_json() {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_in("workloads"), names);
}

#[test]
fn every_benchmark_json_metric_is_printed() {
    let tiny = Budget {
        seconds: 0.0,
        min_slices: 5,
    };
    let mut e2e = Report::default();
    end_to_end(Workload::GupsRo128, 1, tiny, &mut e2e);
    let mut layers = Report::default();
    perlayer::run(Workload::GupsRo128, 1, tiny, &mut layers);
    assert!(
        e2e.correct() && layers.correct(),
        "{:?} {:?}",
        e2e.failures,
        layers.failures
    );
    for (rep, section) in [(&e2e, "end_to_end"), (&layers, "per_layer")] {
        let names = printed(rep);
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        assert_eq!(names_in(section), names, "{section}");
    }
}
