//! `hmc-lint` — a zero-dependency static determinism analyzer for the
//! simulation workspace.
//!
//! The simulator's headline guarantee is *determinism*: the same config
//! and workload must produce bit-identical figures on any machine, any
//! thread count, any run. A handful of Rust idioms silently break that
//! guarantee (or the reproducibility of failures), so this tool bans
//! them from every simulation crate with a token-level scan that needs
//! no network, no `syn`, and no nightly.
//!
//! # Architecture
//!
//! * [`lexer`] — a small hand-rolled Rust lexer producing a token
//!   stream with line spans. Comments, string/char literals (plain,
//!   raw, byte), lifetimes, numbers, and identifiers are distinct
//!   token kinds, so rules match *token sequences* instead of
//!   substrings and literal contents can never forge code or markers.
//! * [`rules`] — the per-file rule set (see the table below) plus the
//!   allow-marker ledger: `// hmc-lint: allow(<rule>)` in a comment on
//!   the offending line or the line above suppresses one rule, and a
//!   marker that suppresses nothing is itself reported as
//!   `unused-allow`, so the ledger can never go stale.
//! * [`layering`] — the workspace dependency DAG, enforced against
//!   both `Cargo.toml` manifests and `use`/path references.
//! * [`sarif`] — hand-rolled JSON and SARIF 2.1.0 serialization for
//!   `--json` / `--sarif`, plus a minimal JSON parser the tests use to
//!   round-trip the output through schema-shape assertions.
//!
//! # Rules
//!
//! | rule | bans | allow policy |
//! |------|------|--------------|
//! | `wall-clock` | `Instant` / `SystemTime` | sanctioned schedulers only |
//! | `thread` | `std::thread` primitives | sanctioned schedulers only |
//! | `atomics` | atomic types, `Ordering::` memory orders | sanctioned schedulers only |
//! | `hash-collections` | `HashMap` / `HashSet` | anywhere |
//! | `entropy` | `rand::`, `getrandom`, `RandomState`, … | anywhere |
//! | `env-read` | `std::env::var*`, `env!`, `option_env!` | anywhere |
//! | `float-time` | float-fed sim-time constructors | anywhere |
//! | `float-ord` | `sort_by`/`max_by`/`min_by` with `partial_cmp` or float keys | anywhere |
//! | `lossy-cast` | `as` casts to narrow integers | anywhere |
//! | `unwrap` | bare `.unwrap()` in library code | anywhere |
//! | `process-exit` | `process::exit`/`abort` outside binaries | anywhere |
//! | `layering` | imports violating the workspace DAG | anywhere |
//! | `unused-allow` | stale allow markers | never |
//!
//! The "sanctioned scheduler" is the one audited engine file
//! (`engine/src/exec.rs`, the sweep executor) — the only place
//! threading, host-time reads, and atomics may live, and only under an
//! explicit marker; elsewhere those bans are hard.
//!
//! Test code (`#[cfg(test)]` items, brace-delimited or not) is exempt.
//! Simulation crates ([`SIMULATION_CRATES`]) get the full rule set;
//! the tool crates ([`TOOL_CRATES`]: the linter itself and the bench
//! harness) are self-linted with every rule except `wall-clock` and
//! `thread`, which they need to measure simulator throughput.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod layering;
pub mod lexer;
pub mod rules;
pub mod sarif;

pub use rules::{sanctioned_scheduler, AllowPolicy, RuleMeta, RuleScope, FLOAT_TIME_WINDOW, RULES};

/// The crates whose `src/` trees get the full simulation rule set:
/// every crate that feeds sim-time state, which since the thermal and
/// power integrations means all seven model crates.
pub const SIMULATION_CRATES: [&str; 7] =
    ["types", "engine", "mem", "host", "core", "thermal", "power"];

/// Tool crates, self-linted with the reduced rule set (no `wall-clock`
/// / `thread`: they measure simulator throughput by definition). The
/// `criterion` shim is vendored third-party API surface and exempt.
pub const TOOL_CRATES: [&str; 2] = ["lint", "bench"];

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path of the offending file, relative to the repo root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (kebab-case, matches the allow-marker spelling).
    pub rule: &'static str,
    /// The offending source line, trimmed (or a layering diagnostic).
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// Lints one file's contents with the full simulation rule set.
/// `label` is the path reported in findings (and what path-scoped
/// rules match their sanctioned-file list against).
pub fn lint_file(label: &str, source: &str) -> Vec<Finding> {
    rules::scan(label, source, true)
}

/// Lints one file's contents with the tool-crate rule set (no
/// `wall-clock` / `thread`).
pub fn lint_tool_file(label: &str, source: &str) -> Vec<Finding> {
    rules::scan(label, source, false)
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic report order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans one crate directory: every `src/**.rs` file through the rule
/// set plus the layering source check, and the crate's `Cargo.toml`
/// through the layering manifest check. Returns findings and the
/// number of files scanned.
fn lint_crate(root: &Path, krate: &str, sim_tier: bool) -> io::Result<(Vec<Finding>, usize)> {
    let dir = root.join("crates").join(krate);
    let mut findings = Vec::new();
    let mut files = Vec::new();
    rust_files(&dir.join("src"), &mut files)?;
    let scanned = files.len();
    for file in files {
        let source = fs::read_to_string(&file)?;
        let label = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .display()
            .to_string();
        findings.extend(rules::scan(&label, &source, sim_tier));
        findings.extend(layering::check_source(krate, &label, &lexer::lex(&source)));
    }
    let manifest_path = dir.join("Cargo.toml");
    let manifest = fs::read_to_string(&manifest_path)?;
    let label = manifest_path
        .strip_prefix(root)
        .unwrap_or(&manifest_path)
        .display()
        .to_string();
    findings.extend(layering::check_manifest(krate, &label, &manifest));
    Ok((findings, scanned))
}

/// Lints the whole workspace under `root` (the repo root): simulation
/// crates with the full rule set, tool crates with the reduced one,
/// layering everywhere. Returns findings plus the number of files
/// scanned.
pub fn lint_root(root: &Path) -> io::Result<(Vec<Finding>, usize)> {
    let mut findings = Vec::new();
    let mut scanned = 0;
    for krate in SIMULATION_CRATES {
        let (f, n) = lint_crate(root, krate, true)?;
        findings.extend(f);
        scanned += n;
    }
    for krate in TOOL_CRATES {
        let (f, n) = lint_crate(root, krate, false)?;
        findings.extend(f);
        scanned += n;
    }
    Ok((findings, scanned))
}

/// Every crate the scan covers, in report order.
pub fn scanned_crates() -> Vec<&'static str> {
    SIMULATION_CRATES.into_iter().chain(TOOL_CRATES).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str) -> Vec<&'static str> {
        lint_file("t.rs", src).iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_wall_clock_and_hash_collections() {
        assert_eq!(
            rules_of("let t = std::time::Instant::now();"),
            vec!["wall-clock"]
        );
        assert_eq!(rules_of("use std::time::SystemTime;"), vec!["wall-clock"]);
        assert_eq!(
            rules_of("let m: HashMap<u64, u64> = HashMap::new();"),
            vec!["hash-collections"]
        );
        assert_eq!(
            rules_of("let s = HashSet::from([1]);"),
            vec!["hash-collections"]
        );
        // Token boundaries: identifiers merely containing the words pass.
        assert!(rules_of("let my_instant_count = 3; let xHashMapx = 1;").is_empty());
    }

    #[test]
    fn flags_bare_unwrap_but_not_variants() {
        assert_eq!(rules_of("let x = maybe.unwrap();"), vec!["unwrap"]);
        assert!(rules_of("let x = maybe.unwrap_or(0);").is_empty());
        assert!(rules_of("let x = maybe.unwrap_or_else(|| 0);").is_empty());
        assert!(rules_of("let x = maybe.expect(\"invariant\");").is_empty());
    }

    #[test]
    fn flags_narrowing_casts_only() {
        assert_eq!(rules_of("let v = idx as u16;"), vec!["lossy-cast"]);
        assert_eq!(rules_of("let p = (port as u8).into();"), vec!["lossy-cast"]);
        assert_eq!(rules_of("let d = (a - b) as i32;"), vec!["lossy-cast"]);
        // Token adjacency created by formatting is still a cast.
        assert_eq!(rules_of("let v = (x)as u16;"), vec!["lossy-cast"]);
        assert_eq!(rules_of("let v = idx as\nu16;"), vec!["lossy-cast"]);
        // Widening, platform-size, and float casts stay legal.
        assert!(rules_of("let w = x as u64; let z = y as usize;").is_empty());
        assert!(rules_of("let f = count as f64;").is_empty());
        // Identifiers that merely start with a narrow type name pass.
        assert!(rules_of("let t = x as u32x4;").is_empty());
        // The allow marker names this rule like any other.
        assert!(rules_of("let v = idx as u16; // hmc-lint: allow(lossy-cast)").is_empty());
    }

    #[test]
    fn flags_float_fed_time_constructors() {
        assert_eq!(
            rules_of("let t = TimeDelta::from_ps((x as f64 * 1.5) as u64);"),
            vec!["float-time"]
        );
        // Float arithmetic a few lines above the constructor still trips.
        let src =
            "let raw = bytes as f64 / eff;\nlet r2 = raw.ceil();\nlet t = TimeDelta::from_ps(raw as u64);";
        assert_eq!(rules_of(src), vec!["float-time"]);
        // A float *literal* counts as evidence even without a type name.
        assert_eq!(
            rules_of("let t = Time::from_ns((x * 1.5) as u64);"),
            vec!["float-time"]
        );
        // Pure integer construction is fine.
        assert!(rules_of("let t = TimeDelta::from_ps(x * 1_000);").is_empty());
        // Floats far above the constructor are out of the window.
        let far = format!(
            "let f = 1.0_f64;\n{}let t = Time::from_ps(10);",
            "let a = 1;\n".repeat(FLOAT_TIME_WINDOW + 1)
        );
        assert!(rules_of(&far).is_empty());
    }

    #[test]
    fn flags_env_reads() {
        assert_eq!(
            rules_of("let v = std::env::var(\"HMC_SEED\");"),
            vec!["env-read"]
        );
        assert_eq!(
            rules_of("if env::var_os(\"FAST\").is_some() {}"),
            vec!["env-read"]
        );
        assert_eq!(
            rules_of("let d = env!(\"CARGO_MANIFEST_DIR\");"),
            vec!["env-read"]
        );
        assert_eq!(
            rules_of("let d = option_env!(\"HMC_X\");"),
            vec!["env-read"]
        );
        // `env` as an ordinary identifier passes, as does `!=`.
        assert!(rules_of("let env = 3; if env != 4 {}").is_empty());
        assert!(rules_of("let args = std::env::args();").is_empty());
    }

    #[test]
    fn flags_entropy_sources() {
        assert_eq!(rules_of("use rand::Rng;"), vec!["entropy"]);
        assert_eq!(rules_of("let x = rand::random::<u64>();"), vec!["entropy"]);
        assert_eq!(
            rules_of("let s: RandomState = RandomState::new();"),
            vec!["entropy"]
        );
        assert_eq!(rules_of("let mut r = thread_rng();"), vec!["entropy"]);
        assert_eq!(rules_of("getrandom(&mut buf);"), vec!["entropy"]);
        // The simulator's own deterministic rng is fine.
        assert!(rules_of("let v = rng.next_below(100);").is_empty());
        assert!(rules_of("let rand = 4; let x = rand + 1;").is_empty());
    }

    #[test]
    fn flags_atomics_outside_schedulers() {
        assert_eq!(
            rules_of("use std::sync::atomic::{AtomicU64, Ordering};"),
            vec!["atomics"]
        );
        assert_eq!(
            rules_of("static N: AtomicUsize = AtomicUsize::new(0);"),
            vec!["atomics"]
        );
        assert_eq!(rules_of("x.store(1, Ordering::Relaxed);"), vec!["atomics"]);
        // `std::cmp::Ordering` is not an atomic memory order.
        assert!(rules_of("let o: Ordering = a.cmp(&b); o == Ordering::Less;").is_empty());
        assert!(rules_of("fn cmp(&self) -> std::cmp::Ordering { self.0.cmp(&o.0) }").is_empty());
        // The marker is honored only in the audited schedulers.
        let marked = "let n = N.load(Ordering::Relaxed); // hmc-lint: allow(atomics)";
        assert!(lint_file("crates/engine/src/exec.rs", marked).is_empty());
        let elsewhere = lint_file("crates/mem/src/device.rs", marked);
        assert_eq!(
            elsewhere.iter().map(|f| f.rule).collect::<Vec<_>>(),
            vec!["atomics", "unused-allow"]
        );
    }

    #[test]
    fn flags_float_keyed_ordering() {
        assert_eq!(
            rules_of("v.sort_by(|a, b| a.partial_cmp(b).expect(\"no NaN\"));"),
            vec!["float-ord"]
        );
        // The comparator body may sit on following lines.
        let multi = "v.sort_by(|a, b| {\n    a.lat.partial_cmp(&b.lat).expect(\"no NaN\")\n});";
        assert_eq!(rules_of(multi), vec!["float-ord"]);
        assert_eq!(
            rules_of("let m = xs.iter().max_by(|a, b| a.partial_cmp(b).expect(\"cmp\"));"),
            vec!["float-ord"]
        );
        // Float keys without total_cmp are flagged...
        assert_eq!(
            rules_of("v.sort_by(|a: &f64, b| cmp_floats(*a, *b));"),
            vec!["float-ord"]
        );
        // ...but total_cmp is the sanctioned deterministic comparator.
        assert!(rules_of("times.sort_by(f64::total_cmp);").is_empty());
        assert!(rules_of("v.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));").is_empty());
        // Integer-keyed sorts never trip the rule.
        assert!(rules_of("v.sort_by(|a, b| a.id.cmp(&b.id));").is_empty());
        assert!(rules_of("v.sort_by_key(|e| (e.start, e.id));").is_empty());
    }

    #[test]
    fn flags_process_exit_in_library_code() {
        assert_eq!(rules_of("std::process::exit(1);"), vec!["process-exit"]);
        assert_eq!(rules_of("process::abort();"), vec!["process-exit"]);
        // Binaries own exit-code policy.
        assert!(lint_file("crates/bench/src/bin/repro.rs", "std::process::exit(2);").is_empty());
        assert!(lint_file("crates/lint/src/main.rs", "std::process::exit(2);").is_empty());
        // A struct field named `exit` is not a call.
        assert!(rules_of("let e = stats.exit;").is_empty());
    }

    #[test]
    fn comments_strings_and_doctests_are_exempt() {
        assert!(rules_of("// let t = Instant::now();").is_empty());
        assert!(rules_of("/// assert_eq!(h.min().unwrap(), 1);").is_empty());
        assert!(rules_of("/* HashMap inside\n a block comment */ let x = 1;").is_empty());
        assert!(rules_of("let s = \"call .unwrap() on HashMap\";").is_empty());
        assert!(rules_of("let s = r#\"Instant \"quoted\" inside raw\"#; let y = 2;").is_empty());
        assert!(rules_of("let s = b\"Instant bytes .unwrap()\";").is_empty());
        // Char literals and lifetimes don't derail string tracking.
        assert_eq!(
            rules_of("fn f<'a>(c: char) -> bool { c == '\"' && \"x\".unwrap() }"),
            vec!["unwrap"]
        );
    }

    #[test]
    fn markers_in_string_literals_are_inert() {
        // A string spelling the marker must not suppress findings on
        // its line (and is not a marker, so nothing is "unused").
        let src = "let s = \"hmc-lint: allow(unwrap)\"; maybe.unwrap();";
        assert_eq!(rules_of(src), vec!["unwrap"]);
        let raw = "let s = r#\"// hmc-lint: allow(unwrap)\"#; maybe.unwrap();";
        assert_eq!(rules_of(raw), vec!["unwrap"]);
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "\
fn real() { maybe.unwrap(); }
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn helper() { x.unwrap(); }
}
fn also_real() { other.unwrap(); }
";
        let found = lint_file("t.rs", src);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].line, 1);
        assert_eq!(found[1].line, 7);
    }

    #[test]
    fn cfg_test_on_braceless_items_is_skipped() {
        // `#[cfg(test)] use …;` has no braces: the item ends at `;`.
        let src = "\
#[cfg(test)]
use std::collections::HashMap;
fn real() { maybe.unwrap(); }
#[cfg(test)] use std::time::Instant;
fn also_real() { other.unwrap(); }
";
        let found = lint_file("t.rs", src);
        assert_eq!(
            found.iter().map(|f| (f.rule, f.line)).collect::<Vec<_>>(),
            vec![("unwrap", 3), ("unwrap", 5)]
        );
        // Stacked attributes under cfg(test) are covered too.
        let stacked = "#[cfg(test)]\n#[derive(Debug)]\nstruct T { m: HashMap<u8, u8> }\nfn real() { x.unwrap(); }";
        assert_eq!(rules_of(stacked), vec!["unwrap"]);
        // cfg(not(test)) is real code and stays linted.
        let not_test = "#[cfg(not(test))]\nfn real() { maybe.unwrap(); }";
        assert_eq!(rules_of(not_test), vec!["unwrap"]);
    }

    #[test]
    fn thread_rule_is_path_scoped() {
        let marked = "let h = std::thread::spawn(f); // hmc-lint: allow(thread)";
        // The marker is honored only inside the audited sweep executor.
        assert!(lint_file("crates/engine/src/exec.rs", marked).is_empty());
        for elsewhere in ["crates/engine/src/pdes.rs", "crates/mem/src/device.rs"] {
            assert_eq!(
                lint_file(elsewhere, marked)[0].rule,
                "thread",
                "{elsewhere}"
            );
        }
        // Without the marker even the sanctioned files flag it.
        let bare = "let s = std::thread::scope(|s| run(s));";
        assert_eq!(lint_file("crates/engine/src/exec.rs", bare).len(), 1);
        // Bare `thread::` forms through a `use` are caught too.
        assert_eq!(
            lint_file("crates/core/src/system.rs", "thread::sleep(d);")[0].rule,
            "thread"
        );
        // Prose and identifiers that merely contain the word pass.
        assert!(lint_file("t.rs", "let threads = cfg.threads + 1;").is_empty());
    }

    #[test]
    fn wall_clock_rule_is_path_scoped() {
        let marked = "let t0 = std::time::Instant::now(); // hmc-lint: allow(wall-clock)";
        // Honored only inside the audited sweep executor.
        assert!(lint_file("crates/engine/src/exec.rs", marked).is_empty());
        let elsewhere = lint_file("crates/host/src/host.rs", marked);
        assert_eq!(
            elsewhere.iter().map(|f| f.rule).collect::<Vec<_>>(),
            vec!["unused-allow", "wall-clock"]
        );
        // Without the marker even the sanctioned files flag it.
        let bare = "let t0 = std::time::Instant::now();";
        assert_eq!(lint_file("crates/engine/src/exec.rs", bare).len(), 1);
    }

    #[test]
    fn allow_marker_suppresses_named_rule_only() {
        let same = "let t = q.recv().unwrap(); // hmc-lint: allow(unwrap)";
        assert!(rules_of(same).is_empty());
        let above = "// hmc-lint: allow(float-time)\nlet t = TimeDelta::from_ps(x as f64 as u64);";
        assert!(rules_of(above).is_empty());
        // A marker for a different rule suppresses nothing — and is
        // itself stale.
        let wrong = "let m = HashMap::new(); // hmc-lint: allow(unwrap)";
        assert_eq!(rules_of(wrong), vec!["hash-collections", "unused-allow"]);
    }

    #[test]
    fn unused_allow_markers_are_findings() {
        // A marker with no finding under it is stale.
        let stale = "// hmc-lint: allow(unwrap)\nlet x = maybe.expect(\"fine\");";
        assert_eq!(rules_of(stale), vec!["unused-allow"]);
        // A marker naming an unknown rule can never be used.
        let typo = "let x = maybe.unwrap(); // hmc-lint: allow(unwraps)";
        assert_eq!(rules_of(typo), vec!["unused-allow", "unwrap"]);
        // A used marker is not reported.
        let used = "let x = maybe.unwrap(); // hmc-lint: allow(unwrap)";
        assert!(rules_of(used).is_empty());
        // One marker can cover two findings of its rule on one line.
        let twice = "a.unwrap(); b.unwrap(); // hmc-lint: allow(unwrap)";
        assert!(rules_of(twice).is_empty());
        // Markers inside #[cfg(test)] code are ignored entirely.
        let in_test = "#[cfg(test)]\nmod t {\n    // hmc-lint: allow(unwrap)\n    fn f() {}\n}";
        assert!(rules_of(in_test).is_empty());
    }

    #[test]
    fn tool_tier_skips_wall_clock_and_thread() {
        let src = "let t0 = std::time::Instant::now();\nlet h = std::thread::spawn(f);";
        assert!(lint_tool_file("crates/bench/src/lib.rs", src).is_empty());
        // But the rest of the rule set still applies.
        assert_eq!(
            lint_tool_file("crates/bench/src/lib.rs", "let m = HashMap::new();")
                .iter()
                .map(|f| f.rule)
                .collect::<Vec<_>>(),
            vec!["hash-collections"]
        );
    }

    #[test]
    fn rule_table_is_consistent() {
        // Every rule name is unique, kebab-case, and documented.
        let mut names: Vec<_> = RULES.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RULES.len(), "duplicate rule name");
        assert_eq!(RULES.len(), 13, "12 rules + the unused-allow meta rule");
        for r in RULES {
            assert!(!r.summary.is_empty());
            assert!(r.name.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }
}
