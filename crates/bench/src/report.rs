//! Table rendering and CSV output for the `exhibits` binary.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

/// A simple column-aligned table that can also be saved as CSV.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table and writes `results/<slug>.csv`.
    pub fn emit(&self, slug: &str) {
        println!("{}", self.render());
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("cannot create results dir");
        let path = dir.join(format!("{slug}.csv"));
        let mut f = std::fs::File::create(&path).expect("cannot write csv");
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut write_row = |cells: &[String]| {
            let line = cells.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",");
            writeln!(f, "{line}").expect("csv write failed");
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        println!("[written {}]", path.display());
    }
}

/// Where CSVs land (override with `CUSP_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var("CUSP_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Formats a duration in seconds with 3 significant decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a byte count as MB with 2 decimals.
pub fn megabytes(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// Geometric mean of a slice of ratios.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Warns when the harness was built without optimizations.
pub fn warn_if_debug() {
    #[cfg(debug_assertions)]
    eprintln!(
        "WARNING: debug build — timings are not meaningful; rerun with --release"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
