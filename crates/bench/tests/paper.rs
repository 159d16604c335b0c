//! The paper check: every `repro figure` target, run at the short
//! windows, must keep every paper-vs-measured row inside its band, and
//! the tables it renders must match `tests/golden/paper_fast.txt` byte
//! for byte.
//!
//! The rows are the acceptance criteria of DESIGN.md §4 — not absolute
//! matches to the authors' testbed, but the orderings, ratios and
//! crossovers the paper reports — plus numeric pins on the honest
//! residuals of EXPERIMENTS.md, so a model change that moves a residual
//! fails here until its band is edited. The golden pins every figure
//! path at no extra simulation cost: a change meant to keep the model's
//! output must leave it unchanged, and a model change re-records it in
//! the same diff that explains the move.

use hmc_bench::figures::{Session, TARGETS};
use hmc_bench::Windows;
use hmc_core::SystemConfig;

/// Every target's rendered tables at [`Windows::FAST`], each under a
/// `== <target> ==` header line.
const GOLDEN: &str = include_str!("../../../tests/golden/paper_fast.txt");

#[test]
fn every_paper_row_is_inside_its_band() {
    let cfg = SystemConfig::default();
    let session = Session::new(&cfg, Windows::FAST);
    let mut rows = 0;
    let mut failures = Vec::new();
    let mut text = String::new();
    for t in &TARGETS {
        let report = (t.run)(&session);
        assert!(!report.text.is_empty(), "{} rendered nothing", t.name);
        text.push_str(&format!("== {} ==\n", t.name));
        text.push_str(&report.text);
        rows += report.rows.len();
        failures.extend(report.failures().map(|r| {
            format!(
                "{}: [!!] {} — measured {}, paper {}",
                t.name, r.what, r.measured, r.paper
            )
        }));
    }
    assert!(
        failures.is_empty(),
        "{} of {rows} paper rows outside their bands:\n{}",
        failures.len(),
        failures.join("\n")
    );
    if text != GOLDEN {
        let mut got = text.split('\n');
        let mut want = GOLDEN.split('\n');
        let (n, got, want) = (1..)
            .map(|n| (n, got.next(), want.next()))
            .find(|(_, g, w)| g != w)
            .expect("unequal texts differ at some line");
        panic!(
            "rendered tables differ from tests/golden/paper_fast.txt at line {n}:\n  \
             got:    {got:?}\n  golden: {want:?}"
        );
    }
}
