//! Paper-style result tables: aligned plain text for terminals plus CSV
//! export, so each experiment binary prints the same rows the paper plots.

use serde::Serialize;
use std::fmt::Write as _;

/// A simple column-oriented table.
///
/// ```
/// use ddr_stats::Table;
///
/// let mut t = Table::new("demo", &["hour", "hits"]);
/// t.row(vec!["12".into(), "2301".into()]);
/// assert!(t.render().contains("2301"));
/// assert!(t.to_csv().starts_with("hour,hits\n"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; the cell count must match the header count.
    ///
    /// # Panics
    /// Panics on arity mismatch — a malformed results table is a bug.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Render as aligned plain text (right-aligned numeric-looking cells,
    /// left-aligned otherwise).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    if looks_numeric(c) {
                        format!("{c:>width$}", width = widths[i])
                    } else {
                        format!("{c:<width$}", width = widths[i])
                    }
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Render as CSV (RFC-4180-ish: quotes around cells containing commas
    /// or quotes; embedded quotes doubled).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

fn looks_numeric(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | '%' | 'e' | 'E' | '_'))
}

/// Format a float with `digits` decimal places (table-cell helper).
pub fn fnum(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["hour", "hits"]);
        t.row(vec!["12".into(), "2301".into()]);
        t.row(vec!["13".into(), "5".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("hour  hits"));
        // numeric cells right-aligned: " 5" not "5 "
        assert!(s.contains("  13     5"), "got:\n{s}");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("x", &["name", "note"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn csv_headers_first_line() {
        let t = Table::new("x", &["p", "q"]);
        assert!(t.to_csv().starts_with("p,q\n"));
    }

    #[test]
    fn fnum_rounds() {
        assert_eq!(fnum(12.345, 2), "12.35");
        assert_eq!(fnum(2.0, 0), "2");
    }

    #[test]
    fn numeric_detection() {
        assert!(looks_numeric("123"));
        assert!(looks_numeric("-1.5e3"));
        assert!(looks_numeric("50%"));
        assert!(!looks_numeric("abc"));
        assert!(!looks_numeric(""));
    }
}
