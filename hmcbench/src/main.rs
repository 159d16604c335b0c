//! `hmcbench`: the benchmark of the hmcsim discrete-event simulator.
//!
//! ```text
//! cargo run --release --manifest-path hmcbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! cargo run --release --manifest-path hmcbench/Cargo.toml -- --check [--workload <name>]
//! ```
//!
//! One invocation measures one workload in this process, single-threaded.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones from separate traced runs. Every invocation also checks outputs:
//! the measured window must drain cleanly, and the check windows of
//! seeds 1 and 2 must reproduce the pinned outputs. Each metric prints as
//! `name value unit`; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See README.md.

mod micro;
mod perlayer;
mod pinned;
#[cfg(test)]
mod tests;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use workload::{drain_chain, drain_single, pinned_run, run_slices, Budget, Workload};

/// Slices an end-to-end window takes at least, so the p99 slice time has
/// ten samples beyond it.
const MIN_SLICES: usize = 1000;

/// Each run builds its system and runs the warm-up at least this many
/// times and for at least [`SETUP_SECONDS`]; `setup_s` is the median.
const MIN_SETUPS: usize = 5;
/// See [`MIN_SETUPS`].
const SETUP_SECONDS: f64 = 1.0;

/// Seeds whose check windows are pinned.
const PINNED_SEEDS: [u64; 2] = [1, 2];

const USAGE: &str =
    "usage: hmcbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
       hmcbench --check [--workload <name>]
workloads: gups_ro128 gups_rw64 chain8_poisson openloop_overload_observed";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    json: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        check: false,
        json: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--check" {
            a.check = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                a.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--json" => a.json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_none() && !a.check {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything one invocation prints.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Slices of the measured (or untraced per-layer) window.
    slices: usize,
    /// Set-ups timed for `setup_s` (0 in per-layer runs).
    setups: usize,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.failures.push(format!("metric {name} is not finite"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one checked run: it counts as attempted, and an error
    /// counts it as failed.
    pub fn run(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => eprintln!("hmcbench: ok: {what}"),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn metrics_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are already failures; keep the JSON valid.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        s.push('}');
        s
    }

    fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }
}

/// Nearest-rank quantile of host times, milliseconds.
pub fn quantile_ms(times: &[Duration], q: f64) -> f64 {
    let mut ms: Vec<f64> = times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let rank = (q * ms.len() as f64).ceil() as usize;
    ms[rank.clamp(1, ms.len()) - 1]
}

/// Peak resident set of this process in MB: `VmHWM` of
/// `/proc/self/status` (Linux only). `getrusage`'s `ru_maxrss` would not
/// do: across `exec` it keeps the high-water mark of the process that
/// forked this one, such as `cargo run`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Builds and warms the system repeatedly, timing each set-up: at least
/// [`MIN_SETUPS`] times and until [`SETUP_SECONDS`] have passed, so a
/// cheap set-up gets enough repeats for a steady median. Returns the
/// times and the last system. The previous system is dropped before the
/// next is built, so peak memory holds one system.
fn setup<S>(mut build: impl FnMut() -> S) -> (Vec<Duration>, S) {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed());
    }
    (times, last.expect("at least one set-up ran"))
}

/// The end-to-end run: set-up, one measured window, then a checked
/// drain.
fn end_to_end(w: Workload, seed: u64, budget: Budget, rep: &mut Report) {
    let spec = w.spec();
    // Peak memory is read once the first `min_slices` slices are done: a
    // fixed simulated span, so a faster simulator that covers more
    // simulated time (and grows its histograms and gauge series) within
    // the same seconds does not read as using more memory.
    let mut rss = None;
    let done = |n, t| {
        if n == budget.min_slices {
            rss = peak_rss_mb();
        }
        budget.done(n, t)
    };
    let (setups, (window, times), drained) = if spec.cubes > 1 {
        let (setups, mut sys) = setup(|| spec.start_chain(spec.builder(seed)));
        let measured = run_slices(&mut sys, spec.slice, done);
        (setups, measured, drain_chain(&mut sys))
    } else {
        let (setups, mut sys) = setup(|| spec.start_single(spec.builder(seed)));
        let measured = run_slices(&mut sys, spec.slice, done);
        (setups, measured, drain_single(&mut sys))
    };
    let host_s: f64 = times.iter().map(Duration::as_secs_f64).sum();
    // Throughput at the median slice. On a shared host, co-tenants slow
    // a varying few percent of slices by up to 2x; the median ignores
    // them, while the mean and the tail move with them (on a shared
    // 2-vCPU x86-64 VM the p99 spread 13-43% across ten runs), so the
    // tail is printed but carries no bound.
    let (p50_ms, p99_ms) = (quantile_ms(&times, 0.50), quantile_ms(&times, 0.99));
    rep.metric(
        "sim_us_per_s",
        spec.slice.as_us_f64() / p50_ms * 1e3,
        "sim-us/s",
    );
    rep.metric("setup_s", quantile_ms(&setups, 0.50) / 1e3, "s");
    match rss {
        Some(mb) => rep.metric("peak_rss_mb", mb, "MB"),
        None => rep
            .failures
            .push("peak RSS is unavailable on this platform".into()),
    }
    rep.run("measured window drains clean", drained);
    println!(
        "# window: {} slices of {}, {} simulated, {} events, {:.3} s host; \
         slice host ms p50 {p50_ms:.4} p99 {p99_ms:.4}; {} set-ups",
        times.len(),
        spec.slice,
        window.span,
        window.events,
        host_s,
        setups.len(),
    );
    for (name, value) in window.outputs(w.paper_gbs()) {
        println!("# window output {name} {value}");
    }
    rep.slices = times.len();
    rep.setups = setups.len();
}

/// Runs the check windows of the pinned seeds against the pinned table.
fn check_pinned(w: Workload, rep: &mut Report) {
    for seed in PINNED_SEEDS {
        let outcome = pinned_run(w, seed).and_then(|out| {
            for (name, value) in &out {
                println!("# pinned {} seed {seed} {name} {value}", w.name());
            }
            pinned::compare(w, seed, &out)
        });
        rep.run(
            &format!("{} seed {seed} reproduces the pinned outputs", w.name()),
            outcome,
        );
    }
}

/// FNV-1a of the workload's full configuration.
fn fingerprint(w: Workload, seed: u64) -> String {
    let spec = w.spec();
    let text = format!("{spec:?} {:?}", spec.config(seed));
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// First line of a tool's `--version`-style output, or "unknown".
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn write_json(path: &PathBuf, a: &Args, w: Workload, rep: &Report) -> std::io::Result<()> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let manifest = format!(
        "{{\"git_revision\": \"{}\", \"rustc\": \"{}\", \"host_cores\": {cores}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"config_fingerprint\": \"{}\", \"slices\": {}, \"setup_reps\": {}}}",
        tool_output("git", &["rev-parse", "HEAD"]),
        tool_output("rustc", &["--version"]),
        w.name(),
        a.seed,
        a.seconds,
        a.trace,
        fingerprint(w, a.seed),
        rep.slices,
        rep.setups,
    );
    let body = rep.json_line();
    std::fs::write(
        path,
        format!("{{\"manifest\": {manifest}, {}\n", &body[1..]),
    )
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hmcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::default();
    if a.check {
        let workloads = match a.workload {
            Some(w) => vec![w],
            None => Workload::ALL.to_vec(),
        };
        for w in workloads {
            check_pinned(w, &mut rep);
        }
        for f in &rep.failures {
            eprintln!("hmcbench: FAILED: {f}");
        }
        return if rep.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let w = a
        .workload
        .expect("parse_args requires a workload without --check");
    let budget = Budget {
        seconds: a.seconds,
        min_slices: MIN_SLICES,
    };
    if a.trace {
        perlayer::run(w, a.seed, budget, &mut rep);
    } else {
        end_to_end(w, a.seed, budget, &mut rep);
    }
    check_pinned(w, &mut rep);
    for m in &rep.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &a.json {
        if let Err(e) = write_json(path, &a, w, &rep) {
            rep.failures
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    for f in &rep.failures {
        eprintln!("hmcbench: FAILED: {f}");
    }
    println!("{}", rep.json_line());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
