//! Pinned simulated outputs of the check window (warm-up, then
//! `CHECK_WINDOW`) for seeds 1 and 2. Seed 2 is held out: do not tune
//! the model against it. A change that is meant only to make the
//! simulator faster must leave every value here unchanged; a change to
//! the model updates them from `hmcbench --check` and says why.

use crate::workload::Workload;

/// One check window's `(output, value)` pairs, as `Window::outputs`
/// prints them.
type Outputs = &'static [(&'static str, &'static str)];

/// `(workload, seed, outputs)`.
pub const PINNED: &[(&str, u64, Outputs)] = &[
    (
        "gups_ro128",
        1,
        &[
            ("completed", "24097"),
            ("sim_gbs", "19.277600"),
            ("sim_read_p50_ns", "5212.400"),
            ("sim_read_p99_ns", "5527.800"),
            ("paper_err_pct", "-8.2019"),
        ],
    ),
    (
        "gups_ro128",
        2,
        &[
            ("completed", "24096"),
            ("sim_gbs", "19.276800"),
            ("sim_read_p50_ns", "5229.000"),
            ("sim_read_p99_ns", "5527.800"),
            ("paper_err_pct", "-8.2057"),
        ],
    ),
    (
        "gups_rw64",
        1,
        &[
            ("completed", "39219"),
            ("sim_gbs", "18.825120"),
            ("sim_read_p50_ns", "1322.475"),
            ("sim_read_p99_ns", "1611.392"),
        ],
    ),
    (
        "gups_rw64",
        2,
        &[
            ("completed", "39218"),
            ("sim_gbs", "18.824640"),
            ("sim_read_p50_ns", "1313.005"),
            ("sim_read_p99_ns", "1602.858"),
        ],
    ),
    (
        "chain8_poisson",
        1,
        &[
            ("completed", "31776"),
            ("sim_gbs", "23.364480"),
            ("sim_read_p50_ns", "722.547"),
            ("sim_read_p99_ns", "3263.764"),
            ("offered", "31792"),
            ("shed_rate", "0"),
            ("shed_queue", "0"),
            ("shed_deadline", "0"),
            ("sim_p99_ns.latency", "3430.622"),
            ("sim_p99_ns.serving", "3522.473"),
            ("sim_p99_ns.batch", "1041.154"),
        ],
    ),
    (
        "chain8_poisson",
        2,
        &[
            ("completed", "31659"),
            ("sim_gbs", "23.308960"),
            ("sim_read_p50_ns", "722.451"),
            ("sim_read_p99_ns", "3253.821"),
            ("offered", "31680"),
            ("shed_rate", "0"),
            ("shed_queue", "0"),
            ("shed_deadline", "0"),
            ("sim_p99_ns.latency", "3241.765"),
            ("sim_p99_ns.serving", "3682.098"),
            ("sim_p99_ns.batch", "1024.477"),
        ],
    ),
    (
        "openloop_overload_observed",
        1,
        &[
            ("completed", "29389"),
            ("sim_gbs", "21.604000"),
            ("sim_read_p50_ns", "3865.649"),
            ("sim_read_p99_ns", "15266.638"),
            ("offered", "36426"),
            ("shed_rate", "0"),
            ("shed_queue", "6318"),
            ("shed_deadline", "0"),
            ("sim_p99_ns.latency", "16933.307"),
            ("sim_p99_ns.serving", "19922.718"),
            ("sim_p99_ns.batch", "9351.269"),
        ],
    ),
    (
        "openloop_overload_observed",
        2,
        &[
            ("completed", "30203"),
            ("sim_gbs", "22.292960"),
            ("sim_read_p50_ns", "4910.241"),
            ("sim_read_p99_ns", "10194.271"),
            ("offered", "42920"),
            ("shed_rate", "0"),
            ("shed_queue", "11764"),
            ("shed_deadline", "0"),
            ("sim_p99_ns.latency", "10564.677"),
            ("sim_p99_ns.serving", "14143.339"),
            ("sim_p99_ns.batch", "10224.823"),
        ],
    ),
];

/// Compares one check run's outputs with the pinned ones.
pub fn compare(w: Workload, seed: u64, actual: &[(String, String)]) -> Result<(), String> {
    let Some((_, _, pinned)) = PINNED
        .iter()
        .find(|(name, s, _)| *name == w.name() && *s == seed)
    else {
        return Err(format!("{} seed {seed}: no pinned outputs", w.name()));
    };
    let mut diffs = Vec::new();
    if pinned.len() != actual.len() {
        diffs.push(format!("{} outputs, {} pinned", actual.len(), pinned.len()));
    }
    for ((pn, pv), (an, av)) in pinned.iter().zip(actual) {
        if pn != an || pv != av {
            diffs.push(format!("{an}={av} (pinned {pn}={pv})"));
        }
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("{} seed {seed}: {}", w.name(), diffs.join(", ")))
    }
}
