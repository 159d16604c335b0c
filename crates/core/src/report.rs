//! Plain-text table rendering and the unified JSON-export surface of the
//! benchmark harness: each experiment prints the same rows/series its
//! paper table or figure reports, and every exportable artifact implements
//! [`JsonReport`].

use std::fmt;
use std::io;
use std::path::Path;

use sim_engine::{MetricsSampler, SanitizerReport};

/// A JSON-exportable artifact.
///
/// The harness historically grew four bespoke exporters — the Chrome
/// trace (`TraceReport::chrome_json`), the gauge series
/// ([`crate::observe::metrics_json`]), the sanitizer outcome
/// (`SanitizerReport::to_json`), and the fault characterization
/// ([`crate::experiments::faults::scenarios_json`]) — each wired to its
/// own `--*-json` flag. They all implement this trait now, so the `repro`
/// subcommands share one `--json PATH` path and tests can treat any
/// artifact uniformly.
pub trait JsonReport {
    /// Short artifact-kind tag (`"trace"`, `"metrics"`, `"sanitizer"`,
    /// `"faults"`, `"chain"`), embeddable in file names and
    /// manifests.
    fn kind(&self) -> &'static str;

    /// Renders the artifact as a self-contained JSON document.
    fn json(&self) -> String;

    /// Writes [`json`](JsonReport::json) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn write_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.json())
    }
}

impl JsonReport for SanitizerReport {
    fn kind(&self) -> &'static str {
        "sanitizer"
    }

    fn json(&self) -> String {
        self.to_json()
    }
}

impl JsonReport for MetricsSampler {
    fn kind(&self) -> &'static str {
        "metrics"
    }

    fn json(&self) -> String {
        crate::observe::metrics_json(self)
    }
}

/// A simple aligned text table.
///
/// ```
/// use hmc_core::report::Table;
///
/// let mut t = Table::new("Demo", &["pattern", "GB/s"]);
/// t.row(vec!["16 vaults".into(), "21.2".into()]);
/// let s = t.to_string();
/// assert!(s.contains("16 vaults"));
/// assert!(s.contains("GB/s"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell access for programmatic checks.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let header: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "{}", rule.join("  "))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
    }
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats nanoseconds.
pub fn ns(x: f64) -> String {
    format!("{x:.0} ns")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("T", &["a", "long-header"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.starts_with("## T\n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // All data lines have the same width.
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.cell(0, 0), "xxxxxx");
        assert_eq!(t.title(), "T");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new("T", &["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(f2(1.264), "1.26");
        assert_eq!(ns(711.4), "711 ns");
    }
}
