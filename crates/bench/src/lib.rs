//! The paper-reproduction harness: the paper's reference numbers, the
//! paper-check table every `repro figure` target runs from, and the
//! measurement windows its callers pass.
//!
//! `repro figure <target>|all` prints each target's table(s) followed by
//! its paper-vs-measured verdict block and exits 1 if any row is outside
//! its band; the tier-1 test `tests/paper.rs` runs every target at
//! [`Windows::FAST`]. The `benches/` targets measure the simulator
//! itself, not the paper.

use hmc_core::measure::MeasureConfig;
use hmc_types::TimeDelta;

pub mod dashboard;
pub mod figures;
pub mod paper;

/// The measurement windows a paper target runs at: one for
/// single-point experiments and a shorter one for the many-point
/// sweeps (Figures 17/18 and the bank-queue ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windows {
    /// Warm-up and window of every single-point measurement.
    pub point: MeasureConfig,
    /// Warm-up and window of every point of a many-point sweep.
    pub sweep: MeasureConfig,
}

impl Windows {
    /// The default windows: the published record in EXPERIMENTS.md.
    pub const FULL: Windows = Windows {
        point: MeasureConfig {
            warmup: TimeDelta::from_us(100),
            window: TimeDelta::from_us(600),
        },
        sweep: MeasureConfig {
            warmup: TimeDelta::from_us(50),
            window: TimeDelta::from_us(250),
        },
    };

    /// The short windows: what tier-1 checks, and what `HMC_BENCH_FAST`
    /// selects. Every simulated statistic within a window is the same at
    /// either length; only the averaging span shrinks.
    pub const FAST: Windows = Windows {
        point: MeasureConfig {
            warmup: TimeDelta::from_us(30),
            window: TimeDelta::from_us(150),
        },
        sweep: MeasureConfig {
            warmup: TimeDelta::from_us(25),
            window: TimeDelta::from_us(100),
        },
    };

    /// [`Windows::FAST`] when `HMC_BENCH_FAST` is set (useful in CI),
    /// [`Windows::FULL`] otherwise.
    pub fn from_env() -> Windows {
        // The fast-mode switch scales the measurement window only.
        // hmc-lint: allow(env-read)
        if std::env::var_os("HMC_BENCH_FAST").is_some() {
            Windows::FAST
        } else {
            Windows::FULL
        }
    }
}

/// The single-point window of [`Windows::from_env`], which the
/// non-figure `repro` commands run at.
pub fn bench_mc() -> MeasureConfig {
    Windows::from_env().point
}

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What is being compared.
    pub what: &'static str,
    /// The paper's reported value (as prose).
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// Whether the shape criterion holds.
    pub ok: bool,
}

impl Comparison {
    /// Builds a row from a numeric measurement and an acceptance range.
    pub fn range(
        what: &'static str,
        paper: impl Into<String>,
        measured: f64,
        unit: &str,
        lo: f64,
        hi: f64,
    ) -> Self {
        Comparison {
            what,
            paper: paper.into(),
            measured: format!("{measured:.2} {unit}"),
            ok: (lo..=hi).contains(&measured),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_range_marks_pass_and_fail() {
        let ok = Comparison::range("x", "≈21", 20.0, "GB/s", 17.0, 24.0);
        assert!(ok.ok);
        let bad = Comparison::range("x", "≈21", 40.0, "GB/s", 17.0, 24.0);
        assert!(!bad.ok);
        assert!(bad.measured.contains("40.00"));
    }

    #[test]
    fn windows_are_positive() {
        for w in [Windows::FULL, Windows::FAST, Windows::from_env()] {
            assert!(w.sweep.window.as_ps() > 0);
            assert!(w.sweep.window <= w.point.window);
        }
        assert!(Windows::FAST.point.window < Windows::FULL.point.window);
    }
}
