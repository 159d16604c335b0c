//! The paper check: every `repro figure` target, run at the short
//! windows, must keep every paper-vs-measured row inside its band.
//!
//! The rows are the acceptance criteria of DESIGN.md §4 — not absolute
//! matches to the authors' testbed, but the orderings, ratios and
//! crossovers the paper reports — plus numeric pins on the honest
//! residuals of EXPERIMENTS.md, so a model change that moves a residual
//! fails here until its band is edited.

use hmc_bench::figures::{Session, TARGETS};
use hmc_bench::Windows;
use hmc_core::SystemConfig;

#[test]
fn every_paper_row_is_inside_its_band() {
    let cfg = SystemConfig::default();
    let session = Session::new(&cfg, Windows::FAST);
    let mut rows = 0;
    let mut failures = Vec::new();
    for t in &TARGETS {
        let report = (t.run)(&session);
        assert!(!report.text.is_empty(), "{} rendered nothing", t.name);
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
}
