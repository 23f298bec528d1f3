//! What one workload run produces: metric rows, operation counts and the
//! failures that were seen — and how they are printed.

use std::fmt::Write as _;

use crate::metrics::{self, Kind};
use crate::stats::{self, Summary};

/// One metric of one workload run.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
    /// The row's reported value is `summary.median`.
    pub summary: Summary,
}

/// Everything one run of one workload reports.
#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub rows: Vec<Row>,
    /// Operations attempted (partitions, requests), warm-up included.
    pub attempted: u64,
    /// Operations that failed: an error or unexpected response, an oracle
    /// violation, a fingerprint mismatch, a wrong cache tier. A failed
    /// operation contributes no timing.
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            rows: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Records a sampled metric, reported as its median. Its kind and unit
    /// come from the registry (`metrics::lookup`); names the registry does
    /// not know are extra rows: printed, but outside the driver contract.
    pub fn samples(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        if samples.is_empty() {
            self.fail(format!("metric {name} has no samples"));
            return;
        }
        self.push(name, unit, stats::summarize(samples));
    }

    /// Records a metric that is counted or computed once.
    pub fn value(&mut self, name: &str, unit: &'static str, v: f64) {
        self.push(name, unit, Summary::single(v));
    }

    fn push(&mut self, name: &str, unit: &'static str, summary: Summary) {
        let kind = metrics::lookup(name).map_or(Kind::Extra, |d| {
            debug_assert_eq!(d.unit, unit, "unit of {name} differs from the registry");
            d.kind
        });
        self.rows.push(Row {
            name: name.to_string(),
            unit,
            kind,
            summary,
        });
    }

    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation and keeps its description.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("FAIL [{}] {what}", self.workload);
        self.failures.push(what);
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// One check of the correctness gate: an attempted operation that
    /// failed if the oracle found any violation.
    pub fn expect_valid(&mut self, violations: &[String]) {
        self.attempt(1);
        if let Some(first) = violations.first() {
            self.fail(format!(
                "{} oracle violations, first: {first}",
                violations.len()
            ));
        }
    }

    /// The reported value of the row called `name`.
    #[cfg(test)]
    pub fn value_of(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.summary.median)
    }

    /// The aligned table: one line per metric, `row` first so that the
    /// `run` and `aa` subcommands can read a child's rows back.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<4} {:<6} {:<28} {:<16} {:>16} {:>16} {:>16} {:>6}",
            "", "kind", "metric", "unit", "median", "q1", "q3", "n"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<4} {:<6} {:<28} {:<16} {:>16} {:>16} {:>16} {:>6}",
                "row",
                r.kind.label(),
                r.name,
                r.unit,
                fmt_num(r.summary.median),
                fmt_num(r.summary.q1),
                fmt_num(r.summary.q3),
                r.summary.n
            );
        }
        let _ = writeln!(
            out,
            "ops  attempted {} failed {} failed_frac {}",
            self.attempted,
            self.failed,
            fmt_num(self.failed_frac())
        );
        out
    }

    /// The driver's result line: exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`, the metrics being the rows of `kind`.
    pub fn result_json(&self, kind: Kind) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for r in self.rows.iter().filter(|r| r.kind == kind) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name,
                json_num(r.summary.median),
                r.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A number with all its digits, as JSON (which has no NaN or infinity).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Six significant digits for the table; the JSON line keeps them all.
pub fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if a >= 1e6 && v.fract() == 0.0 {
        format!("{v:.0}")
    } else if a >= 1000.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

/// One `row` line of a child's table, read back by `run` and `aa`.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedRow {
    pub kind: String,
    pub name: String,
    pub unit: String,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn parse_row(line: &str) -> Option<ParsedRow> {
    let mut it = line.split_whitespace();
    if it.next()? != "row" {
        return None;
    }
    Some(ParsedRow {
        kind: it.next()?.to_string(),
        name: it.next()?.to_string(),
        unit: it.next()?.to_string(),
        median: it.next()?.parse().ok()?,
        q1: it.next()?.parse().ok()?,
        q3: it.next()?.parse().ok()?,
        n: it.next()?.parse().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_parse_back() {
        let mut r = Report::new("w");
        r.samples("partition_s", "s", &[1.0, 2.0, 3.0]);
        r.value("some.extra_row", "count", 12345678.0);
        r.attempt(3);
        let table = r.render_table();
        let rows: Vec<ParsedRow> = table.lines().filter_map(parse_row).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "partition_s");
        assert_eq!(rows[0].kind, "e2e");
        assert_eq!(
            (rows[0].median, rows[0].q1, rows[0].q3, rows[0].n),
            (2.0, 1.0, 3.0, 3)
        );
        assert_eq!(rows[1].kind, "extra");
        assert_eq!(rows[1].median, 12345678.0);
    }

    #[test]
    fn result_json_has_the_contract_shape() {
        let mut r = Report::new("w");
        r.samples("partition_s", "s", &[1.25]);
        r.value("core.read_s", "s", 0.5);
        r.attempt(4);
        assert_eq!(
            r.result_json(Kind::E2e),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"partition_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        r.fail("boom".into());
        assert!(r
            .result_json(Kind::Layer)
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
        assert!(r.result_json(Kind::Layer).contains("\"core.read_s\""));
    }
}
