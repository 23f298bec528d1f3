//! `run` and `aa`: the five workloads, each run in a child process of its
//! own (so that one workload's memory peak, page cache and thread pools
//! are not another's), and the same-code comparison of two sets of runs.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::metrics::{self, Kind, WORKLOADS};
use crate::report::{fmt_num, json_num, parse_row, ParsedRow};
use crate::stats::{self, Summary};
use crate::sysinfo;

/// Measurement window when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json` is the same number.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Runs per workload in each set of `aa`. One run per set is not enough
/// here: single runs of one workload differ by up to a quarter on the box
/// this was sized on. Fixed, so that committed `AA_<date>.json` files stay
/// comparable.
const AA_REPS: usize = 3;

/// The share of the wall the slowest host's five phases must explain on
/// the partition workloads that run the whole pipeline.
const MIN_PHASE_SUM_FRAC: f64 = 0.85;
const PHASE_SUM_WORKLOADS: [&str; 3] = ["cvc_stream", "svc_kron", "cvc_tcp"];

/// What one child reported.
struct ChildResult {
    rows: Vec<ParsedRow>,
    attempted: u64,
    failed: u64,
    ok: bool,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> ChildResult {
    let mut result = ChildResult {
        rows: Vec::new(),
        attempted: 0,
        failed: 0,
        ok: false,
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return result;
        }
    };
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cannot start child for {workload}: {e}");
            return result;
        }
    };
    let text = String::from_utf8_lossy(&out.stdout);
    // The child's table is passed through; its last line (the driver's
    // JSON) is not — the caller prints its own summary.
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in &lines {
        println!("{l}");
        if let Some(row) = parse_row(l) {
            result.rows.push(row);
        } else if let Some(rest) = l.strip_prefix("ops  attempted ") {
            let mut it = rest.split_whitespace();
            result.attempted = it.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            result.failed = it.nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        }
    }
    result.ok =
        out.status.success() && last.starts_with("{\"correct\": true") && result.failed == 0;
    if !result.ok {
        eprintln!(
            "workload {workload} failed ({}); last line: {last}",
            out.status
        );
    }
    result
}

/// All runs of one workload in one set.
struct WorkloadRuns {
    workload: &'static str,
    runs: Vec<ChildResult>,
}

impl WorkloadRuns {
    fn ok(&self) -> bool {
        self.runs.iter().all(|r| r.ok)
    }

    fn attempted(&self) -> u64 {
        self.runs.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.runs.iter().map(|r| r.failed).sum()
    }

    /// Every metric of the first run, in its order, summarised over the
    /// runs' reported values: `(kind, name, unit, summary)`.
    fn metrics(&self) -> Vec<(&str, &str, &str, Summary)> {
        let Some(first) = self.runs.first() else {
            return Vec::new();
        };
        first
            .rows
            .iter()
            .map(|row| {
                let values: Vec<f64> = self
                    .runs
                    .iter()
                    .filter_map(|r| r.rows.iter().find(|x| x.name == row.name).map(|x| x.median))
                    .collect();
                (
                    row.kind.as_str(),
                    row.name.as_str(),
                    row.unit.as_str(),
                    stats::summarize(&values),
                )
            })
            .collect()
    }
}

/// One set: every workload of `order`, `reps` times, run `i` on seed
/// `seed + i`.
fn run_set(
    order: &[&'static str],
    seed: u64,
    reps: usize,
    seconds: f64,
    trace: bool,
) -> Vec<WorkloadRuns> {
    order
        .iter()
        .map(|&workload| WorkloadRuns {
            workload,
            runs: (0..reps as u64)
                .map(|i| run_child(workload, seed + i, seconds, trace))
                .collect(),
        })
        .collect()
}

/// Per workload, the per-layer rows of a traced set or the bounded
/// (end-to-end and scoped) rows of an untraced one.
fn print_set(set: &[WorkloadRuns], trace: bool) {
    let shown = |kind: &str, name: &str| {
        if trace {
            kind == Kind::Layer.label()
        } else {
            metrics::lookup(name).is_some_and(|d| d.bound.is_some())
        }
    };
    println!(
        "\n{:<12} {:<28} {:<16} {:>14} {:>14} {:>14} {:>5}",
        "workload", "metric", "unit", "median", "q1", "q3", "runs"
    );
    for w in set {
        for (_, name, unit, s) in w.metrics().iter().filter(|m| shown(m.0, m.1)) {
            println!(
                "{:<12} {:<28} {:<16} {:>14} {:>14} {:>14} {:>5}",
                w.workload,
                name,
                unit,
                fmt_num(s.median),
                fmt_num(s.q1),
                fmt_num(s.q3),
                s.n
            );
        }
        println!(
            "{:<12} {:<28} {:<16} {:>14}",
            w.workload,
            "failed_frac",
            "ratio",
            fmt_num(w.failed() as f64 / w.attempted().max(1) as f64)
        );
    }
}

fn set_json(set: &[WorkloadRuns]) -> String {
    let mut out = String::from("{");
    for (i, w) in set.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    \"{}\": {{\"attempted\": {}, \"failed\": {}, \"rows\": [",
            w.workload,
            w.attempted(),
            w.failed()
        );
        for (j, (kind, name, unit, s)) in w.metrics().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n      {{\"kind\": \"{kind}\", \"name\": \"{name}\", \"unit\": \"{unit}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"runs\": {}}}",
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3),
                s.n
            );
        }
        out.push_str("\n    ]}");
    }
    out.push_str("\n  }");
    out
}

fn header_json(seed: u64, reps: usize, seconds: f64) -> String {
    format!(
        "\"date\": \"{}\", \"seed\": {seed}, \"runs_per_workload\": {reps}, \"seconds\": {}, \"nproc\": {}, \"kernel\": \"{}\", \"llc\": \"{}\"",
        today(),
        json_num(seconds),
        sysinfo::nproc(),
        sysinfo::kernel(),
        sysinfo::llc_size()
    )
}

/// `benchmark run [--trace]`: one run of each workload. The traced pass
/// also holds the layer rows to explaining the whole: on the workloads
/// that run the complete pipeline `core.phase_sum_frac` must reach
/// [`MIN_PHASE_SUM_FRAC`].
pub fn run_set_command(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    println!("run: {}", sysinfo::context_line(seed));
    let set = run_set(&WORKLOADS, seed, 1, seconds, trace);
    let mut ok = set.iter().all(WorkloadRuns::ok);
    print_set(&set, trace);
    if trace {
        for w in set
            .iter()
            .filter(|w| PHASE_SUM_WORKLOADS.contains(&w.workload))
        {
            let frac = w
                .metrics()
                .iter()
                .find(|m| m.1 == "core.phase_sum_frac")
                .map_or(0.0, |m| m.3.median);
            let enough = frac >= MIN_PHASE_SUM_FRAC;
            ok &= enough;
            println!(
                "run: {} core.phase_sum_frac {} {} {MIN_PHASE_SUM_FRAC}",
                w.workload,
                fmt_num(frac),
                if enough { ">=" } else { "MISS <" }
            );
        }
        println!(
            "run: traces in {}/trace-<workload>.json",
            crate::RESULTS_DIR
        );
    }
    println!("run: {}", sysinfo::context_line(seed));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `benchmark aa`: two untraced sets of the same code, the second in
/// reverse workload order, [`AA_REPS`] runs per workload in each. For
/// every bounded metric — the end-to-end ones of `BENCHMARK.json` and the
/// ones scoped to one workload — the two sets' medians may differ by at
/// most the metric's bound, in either direction: the code is the same, so
/// a second set that is much faster disagrees as much as one that is
/// slower. Writes the first set as `BASELINE.json` and the comparison as
/// `AA_<date>.json` into `out`.
pub fn aa_command(seed: u64, seconds: f64, out: &Path) -> ExitCode {
    println!("aa: {}", sysinfo::context_line(seed));
    let first = run_set(&WORKLOADS, seed, AA_REPS, seconds, false);
    let mut reversed = WORKLOADS;
    reversed.reverse();
    let second = run_set(&reversed, seed, AA_REPS, seconds, false);
    println!("aa: {}", sysinfo::context_line(seed));

    let mut all_within = true;
    let mut cmp_json = String::new();
    println!(
        "\n{:<12} {:<22} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>9} {:>6}",
        "workload",
        "metric",
        "A median",
        "A q1",
        "A q3",
        "B median",
        "B q1",
        "B q3",
        "B/A-1",
        "bound"
    );
    for a in &first {
        let Some(b) = second.iter().find(|w| w.workload == a.workload) else {
            continue;
        };
        let b_metrics = b.metrics();
        for (kind, name, unit, sa) in a.metrics() {
            let (Some(def), Some((.., sb))) = (
                metrics::lookup(name),
                b_metrics.iter().find(|m| m.1 == name),
            ) else {
                continue;
            };
            let Some(bound) = def.bound else {
                continue;
            };
            let rel = sb.median / sa.median - 1.0;
            let within = rel.abs() <= bound;
            all_within &= within;
            println!(
                "{:<12} {:<22} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>+9.4} {:>6.2} {}",
                a.workload,
                name,
                fmt_num(sa.median),
                fmt_num(sa.q1),
                fmt_num(sa.q3),
                fmt_num(sb.median),
                fmt_num(sb.q1),
                fmt_num(sb.q3),
                rel,
                bound,
                if within { "ok" } else { "MISS" }
            );
            if !cmp_json.is_empty() {
                cmp_json.push(',');
            }
            let _ = write!(
                cmp_json,
                "\n    {{\"workload\": \"{}\", \"kind\": \"{kind}\", \"metric\": \"{name}\", \"unit\": \"{unit}\", \"a_median\": {}, \"a_q1\": {}, \"a_q3\": {}, \"b_median\": {}, \"b_q1\": {}, \"b_q3\": {}, \"rel_diff\": {}, \"bound\": {}, \"within\": {within}}}",
                a.workload,
                json_num(sa.median),
                json_num(sa.q1),
                json_num(sa.q3),
                json_num(sb.median),
                json_num(sb.q1),
                json_num(sb.q3),
                json_num(rel),
                json_num(bound)
            );
        }
    }
    let ok = first.iter().chain(&second).all(WorkloadRuns::ok);
    let head = header_json(seed, AA_REPS, seconds);
    let baseline = format!("{{\n  {head},\n  \"workloads\": {}\n}}\n", set_json(&first));
    let aa = format!(
        "{{\n  {head},\n  \"all_within_bounds\": {all_within},\n  \"all_correct\": {ok},\n  \"comparison\": [{cmp_json}\n  ],\n  \"first\": {},\n  \"second\": {}\n}}\n",
        set_json(&first),
        set_json(&second)
    );
    let written = std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(out.join("BASELINE.json"), baseline))
        .and_then(|()| std::fs::write(out.join(format!("AA_{}.json", today())), aa));
    match written {
        Ok(()) => {
            println!(
                "aa: wrote BASELINE.json and AA_{}.json to {}",
                today(),
                out.display()
            )
        }
        Err(e) => {
            eprintln!("aa: cannot write results to {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "aa: {}",
        if all_within && ok {
            "all within bounds"
        } else {
            "MISS"
        }
    );
    if all_within && ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Today's UTC date as `YYYY-MM-DD` (days-to-civil; the repo vendors no
/// date crate).
fn today() -> String {
    let days = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}
