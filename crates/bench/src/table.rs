//! Markdown table rendering for experiment reports.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A report table: a caption, a header row, and data rows.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    /// The experiment id and claim, e.g. `"E1 — Theorem 1.1 …"`.
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a caption and headers.
    pub fn new(caption: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            caption: caption.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub(crate) fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders as GitHub-flavored markdown with aligned columns.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.caption);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", fmt_row(&sep, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a bit count with a thousands separator.
pub fn fmt_bits(bits: f64) -> String {
    if bits >= 1e6 {
        format!("{:.2}M", bits / 1e6)
    } else if bits >= 1e4 {
        format!("{:.1}k", bits / 1e3)
    } else {
        format!("{bits:.0}")
    }
}

/// Formats a per-element cost.
pub(crate) fn fmt_per(bits: f64) -> String {
    format!("{bits:.2}")
}

/// Formats a failure count as `fails/trials`.
pub(crate) fn fmt_failures(failures: usize, trials: usize) -> String {
    format!("{failures}/{trials}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_is_well_formed() {
        let mut t = Table::new("T — demo", &["k", "bits"]);
        t.push_row(vec!["256".into(), "1234".into()]);
        t.push_row(vec!["65536".into(), "9".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("### T — demo"));
        assert_eq!(md.lines().filter(|l| l.starts_with('|')).count(), 4);
        // Columns aligned: every pipe-row has the same length.
        let lens: Vec<usize> = md
            .lines()
            .filter(|l| l.starts_with('|'))
            .map(|l| l.len())
            .collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{md}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_bits(512.0), "512");
        assert_eq!(fmt_bits(51_200.0), "51.2k");
        assert_eq!(fmt_bits(5_120_000.0), "5.12M");
        assert_eq!(fmt_failures(1, 30), "1/30");
    }
}
