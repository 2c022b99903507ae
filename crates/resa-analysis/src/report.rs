//! Plain-text report rendering (aligned text tables, CSV, JSON payloads).
//!
//! `resa figure|table|graham` renders every reproduced table and figure
//! through this module, one renderer per `--format` value.

use serde::Serialize;
use std::fmt::Write as _;

/// One column of a [`Table`]: its header and the formatter of its cell.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// A simple rectangular table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A table with one row per element of `rows` and one cell per column.
    pub fn of<R>(title: impl Into<String>, columns: &[Column<R>], rows: &[R]) -> Self {
        Table {
            title: title.into(),
            headers: columns
                .iter()
                .map(|(header, _)| header.to_string())
                .collect(),
            rows: rows
                .iter()
                .map(|row| columns.iter().map(|(_, cell)| cell(row)).collect())
                .collect(),
        }
    }

    /// Append one row; the number of cells must match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header"
        );
        self.rows.push(cells);
    }

    /// Render as CSV (header row first, no title).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Render as an aligned plain-text table for terminal output.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", render_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }
}

/// Format a float with 3 decimal places (the precision used in reports).
pub fn fmt_f64(x: f64) -> String {
    format!("{x:.3}")
}

/// Serialize any experiment result to pretty JSON (persisted next to the
/// rendered tables so EXPERIMENTS.md can cite machine-readable data).
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("experiment results are serializable")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Sample", &["alpha", "bound"]);
        t.push_row(vec!["0.5".into(), "4.000".into()]);
        t.push_row(vec!["1".into(), "2.000".into()]);
        t
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("alpha,bound\n"));
        assert!(csv.contains("1,2.000"));
    }

    #[test]
    fn text_rendering_aligns_columns() {
        let txt = sample().to_text();
        assert!(txt.contains("Sample"));
        assert!(txt.contains("alpha"));
        assert!(txt.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn columns_render_like_pushed_rows() {
        const COLUMNS: [Column<(&str, f64)>; 2] =
            [("alpha", |r| r.0.to_string()), ("bound", |r| fmt_f64(r.1))];
        let table = Table::of("Sample", &COLUMNS, &[("0.5", 4.0), ("1", 2.0)]);
        assert_eq!(table.to_text(), sample().to_text());
    }

    #[test]
    fn helpers() {
        assert_eq!(fmt_f64(1.0 / 3.0), "0.333");
        #[derive(Serialize)]
        struct P {
            x: u32,
        }
        assert!(to_json(&P { x: 3 }).contains("\"x\": 3"));
    }
}
