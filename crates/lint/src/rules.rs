//! The determinism rule set, evaluated over the lexer's token stream.
//!
//! Each rule matches a token *sequence* (not a substring), so
//! identifier boundaries are exact and adjacency created by formatting
//! (`(x)as u16`) cannot slip past. Comments and literal interiors are
//! distinct token kinds and never match code rules; conversely, allow
//! markers are only read out of comment tokens, so a string literal
//! spelling `hmc-lint: allow(...)` suppresses nothing.

use crate::lexer::{lex, Token, TokenKind};
use crate::Finding;

/// Where a rule's allow marker is honored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllowPolicy {
    /// `// hmc-lint: allow(<rule>)` works at any site.
    Anywhere,
    /// The marker is only honored inside the audited engine sweep
    /// executor (`engine/src/exec.rs`); elsewhere the ban is hard and
    /// the marker itself goes stale.
    SanctionedSchedulers,
    /// The rule can never be suppressed (the unused-allow meta rule:
    /// a waivable staleness check would itself go stale).
    Never,
}

/// Which crates a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleScope {
    /// Simulation crates and tool crates (`lint`, `bench`) alike.
    AllScanned,
    /// Simulation crates only: tool crates legitimately measure
    /// wall-clock time and drive the audited schedulers.
    SimulationOnly,
}

/// Static description of one rule, feeding `--sarif` metadata, the
/// allow-marker validator, and the docs table.
#[derive(Debug)]
pub struct RuleMeta {
    /// Kebab-case rule id; matches the allow-marker spelling.
    pub name: &'static str,
    /// One-line rationale, shown in SARIF `shortDescription`.
    pub summary: &'static str,
    /// Marker policy.
    pub policy: AllowPolicy,
    /// Crate tier the rule runs on.
    pub scope: RuleScope,
}

/// The full rule table (SARIF rule order matches this slice).
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        name: "wall-clock",
        summary: "std::time::Instant/SystemTime read host time; simulation code must \
                  only consult simulated Time",
        policy: AllowPolicy::SanctionedSchedulers,
        scope: RuleScope::SimulationOnly,
    },
    RuleMeta {
        name: "thread",
        summary: "ad-hoc std::thread primitives leak scheduling nondeterminism; all \
                  parallelism flows through the audited engine schedulers",
        policy: AllowPolicy::SanctionedSchedulers,
        scope: RuleScope::SimulationOnly,
    },
    RuleMeta {
        name: "atomics",
        summary: "atomic types and Ordering:: memory orders imply cross-thread shared \
                  state whose interleaving is nondeterministic; sim state must be \
                  single-owner",
        policy: AllowPolicy::SanctionedSchedulers,
        scope: RuleScope::AllScanned,
    },
    RuleMeta {
        name: "hash-collections",
        summary: "HashMap/HashSet iterate in SipHash-randomized order, which leaks \
                  into event order and diagnostics; use BTreeMap/BTreeSet",
        policy: AllowPolicy::Anywhere,
        scope: RuleScope::AllScanned,
    },
    RuleMeta {
        name: "entropy",
        summary: "rand/getrandom/RandomState pull host entropy; all randomness must \
                  come from the seeded deterministic generators in hmc-types",
        policy: AllowPolicy::Anywhere,
        scope: RuleScope::AllScanned,
    },
    RuleMeta {
        name: "env-read",
        summary: "std::env::var / env! make results depend on ambient environment \
                  state that is not part of the config fingerprint",
        policy: AllowPolicy::Anywhere,
        scope: RuleScope::AllScanned,
    },
    RuleMeta {
        name: "float-time",
        summary: "constructing sim time from float arithmetic rounds differently \
                  across platforms; time math stays in integer picoseconds",
        policy: AllowPolicy::Anywhere,
        scope: RuleScope::AllScanned,
    },
    RuleMeta {
        name: "float-ord",
        summary: "sort_by/max_by/min_by with partial_cmp or float keys is silently \
                  order-nondeterministic on NaN/-0.0; use total_cmp or integer keys",
        policy: AllowPolicy::Anywhere,
        scope: RuleScope::AllScanned,
    },
    RuleMeta {
        name: "lossy-cast",
        summary: "`as` casts to narrow integers silently wrap; use try_from with an \
                  expect naming the invariant, or a widening From",
        policy: AllowPolicy::Anywhere,
        scope: RuleScope::AllScanned,
    },
    RuleMeta {
        name: "unwrap",
        summary: "bare .unwrap() panics without simulation context; use typed errors \
                  or expect with a message naming the sim-time invariant",
        policy: AllowPolicy::Anywhere,
        scope: RuleScope::AllScanned,
    },
    RuleMeta {
        name: "process-exit",
        summary: "std::process::exit/abort in library code skips destructors and \
                  steals exit-code policy from the binary; return errors instead",
        policy: AllowPolicy::Anywhere,
        scope: RuleScope::AllScanned,
    },
    RuleMeta {
        name: "layering",
        summary: "import violates the workspace dependency DAG (types <- engine <- \
                  {mem, host, thermal, power} <- core <- bench)",
        policy: AllowPolicy::Anywhere,
        scope: RuleScope::AllScanned,
    },
    RuleMeta {
        name: "unused-allow",
        summary: "an hmc-lint allow marker that suppresses nothing is stale; delete \
                  it so the suppression ledger stays live",
        policy: AllowPolicy::Never,
        scope: RuleScope::AllScanned,
    },
];

/// Looks up a rule by name.
pub fn rule(name: &str) -> Option<&'static RuleMeta> {
    RULES.iter().find(|r| r.name == name)
}

/// The only file where `SanctionedSchedulers` markers are honored.
pub fn sanctioned_scheduler(label: &str) -> bool {
    label.ends_with("engine/src/exec.rs")
}

/// Binary entry points may call `std::process::exit` (that is where
/// exit-code policy belongs); the `process-exit` rule skips them.
fn is_binary_target(label: &str) -> bool {
    label.contains("/bin/") || label.ends_with("/main.rs")
}

/// Sim-time constructor names watched by the `float-time` rule.
const TIME_CTORS: [&str; 4] = ["from_ps", "from_ns", "from_us", "from_ms"];

/// Narrowing integer cast targets the `lossy-cast` rule bans. Widening
/// casts (`u64`, `u128`) and platform-size `usize` (the simulator
/// requires a 64-bit host) stay legal, as do float conversions.
const NARROW_CASTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// `thread::` members the `thread` rule bans (`std::thread` paths are
/// banned wholesale).
const THREAD_MEMBERS: [&str; 5] = [
    "spawn",
    "scope",
    "Builder",
    "sleep",
    "available_parallelism",
];

/// Atomic type-name tails (`Atomic` + tail) the `atomics` rule bans.
const ATOMIC_TAILS: [&str; 12] = [
    "Bool", "U8", "U16", "U32", "U64", "Usize", "I8", "I16", "I32", "I64", "Isize", "Ptr",
];

/// `Ordering::` members that identify *atomic* memory orders (and can
/// never be confused with `std::cmp::Ordering`'s Less/Equal/Greater).
const MEMORY_ORDERS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Identifiers that reveal a host entropy source.
const ENTROPY_IDENTS: [&str; 7] = [
    "getrandom",
    "RandomState",
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "StdRng",
    "SmallRng",
];

/// `std::env` members that read ambient environment state.
const ENV_READS: [&str; 4] = ["var", "var_os", "vars", "vars_os"];

/// Comparator-taking order functions the `float-ord` rule watches.
const ORDER_FNS: [&str; 5] = [
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
];

/// How many preceding code lines the `float-time` rule inspects for a
/// float token when it sees a sim-time constructor.
pub const FLOAT_TIME_WINDOW: usize = 3;

/// How many lines past an order-function call the `float-ord` rule
/// scans for the comparator body (closures span a few lines).
const FLOAT_ORD_WINDOW: usize = 3;

/// One `// hmc-lint: allow(<rule>)` marker lifted from a comment token.
#[derive(Debug)]
struct Marker {
    /// Line the comment starts on; the marker covers this line and the
    /// next one.
    line: usize,
    /// The rule name as written (may be unknown — then it can never be
    /// used and surfaces as `unused-allow`).
    rule: String,
    /// Whether the marker suppressed at least one finding.
    used: bool,
}

/// Parses `hmc-lint: allow(<rule>, <rule>)` out of one comment's text.
///
/// Each name must be shaped like a rule id (lowercase kebab-case);
/// anything else — prose like `allow(...)` or a `<rule>` placeholder in
/// docs — is not a marker at all. A *well-formed* name for a rule that
/// does not exist (a typo) still becomes a marker, which can never be
/// used and therefore surfaces as `unused-allow`.
fn parse_markers(comment: &str, line: usize, out: &mut Vec<Marker>) {
    let Some(pos) = comment.find("hmc-lint: allow(") else {
        return;
    };
    let rest = &comment[pos + "hmc-lint: allow(".len()..];
    let Some(close) = rest.find(')') else {
        return;
    };
    for rule in rest[..close].split(',') {
        let rule = rule.trim();
        if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
            continue;
        }
        out.push(Marker {
            line,
            rule: rule.to_string(),
            used: false,
        });
    }
}

/// Marks every token belonging to a `#[cfg(test)]` item (the attribute
/// itself, any stacked attributes, and the item through its closing
/// `}` or `;`). Returns a mask parallel to `tokens`.
fn test_mask(tokens: &[Token<'_>]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    // Indices of code tokens (attributes never contain comments worth
    // keeping, and masking by token-index range covers interleaved
    // comments automatically).
    let code: Vec<usize> = (0..tokens.len()).filter(|&i| tokens[i].is_code()).collect();
    let txt = |k: usize| code.get(k).map(|&i| tokens[i].text).unwrap_or("");

    // Parses an attribute starting at code index `k` (`#` `[` …).
    // Returns (code index of the closing `]`, attribute is cfg(test)).
    // A `not` anywhere in the predicate (`cfg(not(test))`) disqualifies
    // it: such code is compiled into the real build and must be linted.
    let parse_attr = |k: usize| -> (usize, bool) {
        let mut depth = 0usize;
        let mut is_cfg = false;
        let mut has_test = false;
        let mut has_not = false;
        let mut j = k + 1; // at `[`
        while j < code.len() {
            match txt(j) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return (j, is_cfg && has_test && !has_not);
                    }
                }
                "cfg" if j == k + 2 => is_cfg = true,
                "test" => has_test = true,
                "not" => has_not = true,
                _ => {}
            }
            j += 1;
        }
        (code.len().saturating_sub(1), false)
    };

    let mut k = 0;
    while k < code.len() {
        if txt(k) != "#" || txt(k + 1) != "[" {
            k += 1;
            continue;
        }
        let (attr_end, is_test) = parse_attr(k);
        if !is_test {
            k = attr_end + 1;
            continue;
        }
        // Skip any further stacked attributes, then find the item extent:
        // first top-level `;`, or the `}` matching the first `{`.
        let mut j = attr_end + 1;
        while txt(j) == "#" && txt(j + 1) == "[" {
            j = parse_attr(j).0 + 1;
        }
        let mut depth = 0usize;
        let mut end = j;
        while end < code.len() {
            match txt(end) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let first = code[k];
        let last = code.get(end).copied().unwrap_or(tokens.len() - 1);
        for m in mask.iter_mut().take(last + 1).skip(first) {
            *m = true;
        }
        k = end + 1;
    }
    mask
}

/// Is this `Number` or `Ident` token float evidence for the
/// `float-time` / `float-ord` rules?
fn is_float_evidence(t: &Token<'_>) -> bool {
    match t.kind {
        TokenKind::Ident => t.text == "f64" || t.text == "f32",
        TokenKind::Number => {
            t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32")
        }
        _ => false,
    }
}

/// Scans one file's token stream with every per-file rule (all rules
/// except `layering`, which needs cross-file manifest context) and
/// returns the findings, including `unused-allow` for stale markers.
///
/// `sim_tier` selects the rule scope: simulation crates get the full
/// set, tool crates (`lint`, `bench`) skip `SimulationOnly` rules.
pub fn scan(label: &str, source: &str, sim_tier: bool) -> Vec<Finding> {
    let tokens = lex(source);
    let mask = test_mask(&tokens);
    let raw_lines: Vec<&str> = source.lines().collect();
    let excerpt_at = |line: usize| {
        raw_lines
            .get(line - 1)
            .map(|l| l.trim())
            .unwrap_or("")
            .to_string()
    };

    // Allow markers from non-test comment tokens.
    let mut markers: Vec<Marker> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_code() && !mask[i] {
            parse_markers(t.text, t.line, &mut markers);
        }
    }

    // The code tokens the rules see: non-test, non-comment.
    let code: Vec<&Token<'_>> = tokens
        .iter()
        .zip(&mask)
        .filter(|(t, &m)| t.is_code() && !m)
        .map(|(t, _)| t)
        .collect();
    let txt = |i: usize| code.get(i).map(|t| t.text).unwrap_or("");

    // Per-line evidence tables for the windowed float rules.
    let mut code_lines: Vec<usize> = Vec::new(); // distinct, ascending
    let mut float_lines: Vec<usize> = Vec::new();
    let mut partial_cmp_lines: Vec<usize> = Vec::new();
    let mut total_cmp_lines: Vec<usize> = Vec::new();
    for t in &code {
        if code_lines.last() != Some(&t.line) {
            code_lines.push(t.line);
        }
        if is_float_evidence(t) {
            float_lines.push(t.line);
        }
        if t.text == "partial_cmp" {
            partial_cmp_lines.push(t.line);
        }
        if t.text == "total_cmp" {
            total_cmp_lines.push(t.line);
        }
    }
    let any_in = |lines: &[usize], lo: usize, hi: usize| lines.iter().any(|&l| l >= lo && l <= hi);
    // Float evidence on `line` or the previous FLOAT_TIME_WINDOW code
    // lines (blank and comment-only lines don't shrink the window).
    let float_near = |line: usize| {
        let pos = code_lines.partition_point(|&l| l < line);
        let lo = pos
            .checked_sub(FLOAT_TIME_WINDOW)
            .map(|p| code_lines[p])
            .unwrap_or(0);
        any_in(&float_lines, lo, line)
    };

    let sanctioned = sanctioned_scheduler(label);
    let is_bin = is_binary_target(label);
    let mut findings = Vec::new();

    // Raises `rule` at `line` unless an in-scope marker covers it.
    let mut report = |rule_name: &'static str, line: usize, markers: &mut Vec<Marker>| {
        let meta = rule(rule_name).expect("report() is only called with table rules");
        let honored = match meta.policy {
            AllowPolicy::Anywhere => true,
            AllowPolicy::SanctionedSchedulers => sanctioned,
            AllowPolicy::Never => false,
        };
        if honored {
            if let Some(m) = markers
                .iter_mut()
                .find(|m| m.rule == rule_name && (m.line == line || m.line + 1 == line))
            {
                m.used = true;
                return;
            }
        }
        findings.push(Finding {
            file: label.to_string(),
            line,
            rule: rule_name,
            excerpt: excerpt_at(line),
        });
    };

    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let line = t.line;
        let follows_path =
            |head: &str| i >= 3 && txt(i - 1) == ":" && txt(i - 2) == ":" && txt(i - 3) == head;
        let leads_path = |member: &[&str]| {
            txt(i + 1) == ":" && txt(i + 2) == ":" && member.contains(&txt(i + 3))
        };
        match t.text {
            "Instant" | "SystemTime" if sim_tier => report("wall-clock", line, &mut markers),
            "thread" if sim_tier && (follows_path("std") || leads_path(&THREAD_MEMBERS)) => {
                report("thread", line, &mut markers)
            }
            "Ordering" if leads_path(&MEMORY_ORDERS) => report("atomics", line, &mut markers),
            "atomic" if follows_path("sync") => report("atomics", line, &mut markers),
            "HashMap" | "HashSet" => report("hash-collections", line, &mut markers),
            "rand" if txt(i + 1) == ":" && txt(i + 2) == ":" => {
                report("entropy", line, &mut markers)
            }
            name if ENTROPY_IDENTS.contains(&name) => report("entropy", line, &mut markers),
            "env" if leads_path(&ENV_READS) => report("env-read", line, &mut markers),
            "env" | "option_env" if txt(i + 1) == "!" && txt(i + 2) == "(" => {
                report("env-read", line, &mut markers)
            }
            "process" if leads_path(&["exit", "abort"]) && !is_bin => {
                report("process-exit", line, &mut markers)
            }
            "unwrap" if txt(i + 1) == "(" && txt(i + 2) == ")" && i >= 1 && txt(i - 1) == "." => {
                report("unwrap", line, &mut markers)
            }
            "as" if NARROW_CASTS.contains(&txt(i + 1)) => report("lossy-cast", line, &mut markers),
            name if ATOMIC_TAILS.contains(&name.strip_prefix("Atomic").unwrap_or("?")) => {
                report("atomics", line, &mut markers)
            }
            name if TIME_CTORS.contains(&name) && txt(i + 1) == "(" => {
                // A constructor whose sole argument is an integer
                // literal (`from_ns(120)`) cannot be float-contaminated
                // no matter what sits nearby — config structs mix float
                // fields (BER, efficiency) with constant times.
                let literal_arg = code.get(i + 2).is_some_and(|a| {
                    a.kind == TokenKind::Number && !is_float_evidence(a) && txt(i + 3) == ")"
                });
                if !literal_arg && float_near(line) {
                    report("float-time", line, &mut markers);
                }
            }
            name if ORDER_FNS.contains(&name) && i >= 1 && txt(i - 1) == "." => {
                // `partial_cmp` anywhere in the closure window (bodies
                // span lines) is nondeterministic on NaN; a float key on
                // the call line without `total_cmp` likewise. The float
                // probe stays same-line so unrelated float code after an
                // integer-keyed sort cannot trip it.
                let hi = line + FLOAT_ORD_WINDOW;
                let nondet = any_in(&partial_cmp_lines, line, hi)
                    || (any_in(&float_lines, line, line) && !any_in(&total_cmp_lines, line, hi));
                if nondet {
                    report("float-ord", line, &mut markers);
                }
            }
            _ => {}
        }
    }

    // Stale markers: every marker must have suppressed something. A
    // marker for a rule this tier doesn't run is exempted only if the
    // rule exists and is SimulationOnly (tool-crate files keep markers
    // for rules that fire when the file is scanned as simulation code).
    for m in &markers {
        if m.used {
            continue;
        }
        if !sim_tier && rule(&m.rule).is_some_and(|r| r.scope == RuleScope::SimulationOnly) {
            continue;
        }
        findings.push(Finding {
            file: label.to_string(),
            line: m.line,
            rule: "unused-allow",
            excerpt: excerpt_at(m.line),
        });
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    // One `use std::sync::atomic::{AtomicU64, Ordering}` line can trip
    // the same rule via two tokens; report it once.
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings
}
