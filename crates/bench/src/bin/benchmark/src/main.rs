//! The repo benchmark: five workloads, four end-to-end metrics, layer
//! rows and a traced pass. `README.md` beside this package is the
//! glossary; `BENCHMARK.json` at the repo root is the contract.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload in this process; the last line of stdout is the
//!     driver's JSON result.
//! benchmark run [--trace] [--seed <n>] [--seconds <s>]
//!     All five workloads, each in its own child process.
//! benchmark aa [--seed <n>] [--seconds <s>]
//!     Two untraced sets of three runs per workload, workload order
//!     reversed the second time; exits non-zero when the two sets' medians
//!     of a bounded metric differ by more than its bound.
//! ```
//!
//! Everything is written under [`RESULTS_DIR`] of the directory the
//! benchmark is started from.

mod aa;
mod inputs;
mod metrics;
mod ops;
mod oracle;
mod partition_workloads;
mod probes;
mod report;
mod serve_mix;
mod spans;
mod stats;
mod sysinfo;
#[cfg(test)]
mod tests;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use inputs::Sizes;
use metrics::Kind;
use partition_workloads::Case;
use report::Report;

/// One of the benchmark's own directories (`paths` in `BENCHMARK.json`):
/// results, traces and the scratch space go here.
pub const RESULTS_DIR: &str = "results/benchmark";

/// Everything a workload needs to know about this run.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measurement window, seconds.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub plan: Plan,
    pub scratch_base: PathBuf,
}

/// How often things are repeated.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Complete set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Discarded iterations before timing.
    pub warmups: usize,
    /// Timed iterations at the least, however short the window.
    pub min_iters: usize,
    /// Iterations of the traced pass.
    pub traced_iters: usize,
}

impl Plan {
    pub const fn full() -> Plan {
        Plan {
            setup_reps: 3,
            warmups: 2,
            min_iters: 9,
            traced_iters: 3,
        }
    }
}

impl Ctx {
    pub fn setup_reps(&self) -> usize {
        // The traced pass reports no set-up time, so it sets up once.
        if self.trace {
            1
        } else {
            self.plan.setup_reps
        }
    }

    /// Timed iterations at the least (untraced), or exactly (traced).
    pub fn timed_iters(&self) -> usize {
        if self.trace {
            self.plan.traced_iters
        } else {
            self.plan.min_iters
        }
    }

    pub fn warmups(&self) -> usize {
        if self.trace {
            1
        } else {
            self.plan.warmups
        }
    }
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, ctx: &Ctx) -> Option<Report> {
    println!(
        "== {name} | trace {} | window {} s",
        u8::from(ctx.trace),
        ctx.seconds
    );
    println!("before: {}", sysinfo::context_line(ctx.seed));
    let mut report = match name {
        "cvc_stream" => partition_workloads::run(Case::CvcStream, ctx),
        "svc_kron" => partition_workloads::run(Case::SvcKron, ctx),
        "cvc_tcp" => partition_workloads::run(Case::CvcTcp, ctx),
        "delta_cvc" => partition_workloads::run(Case::DeltaCvc, ctx),
        "serve_mix" => serve_mix::run(ctx),
        _ => return None,
    };
    if ctx.trace {
        probes::run_all(ctx, &mut report);
    }
    println!("after:  {}", sysinfo::context_line(ctx.seed));
    Some(report)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: inputs::DEFAULT_SEED,
        seconds: aa::DEFAULT_SECONDS,
        trace: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        // `run --trace` takes no value; the driver's `--trace <0|1>` does.
        if flag == "--trace" && argv.get(i + 1).is_none_or(|v| v.starts_with("--")) {
            args.trace = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => {
                args.seed = parse_u64(value).ok_or_else(|| format!("bad --seed {value}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
        i += 2;
    }
    Ok(args)
}

const USAGE: &str =
    "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     benchmark run [--trace] [--seed <n>] [--seconds <s>]\n       \
                     benchmark aa [--seed <n>] [--seconds <s>]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match argv.first().map(String::as_str) {
        Some("run") => ("run", &argv[1..]),
        Some("aa") => ("aa", &argv[1..]),
        _ => ("one", &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match sub {
        "run" => aa::run_set_command(args.seed, args.seconds, args.trace),
        "aa" => aa::aa_command(args.seed, args.seconds, Path::new(RESULTS_DIR)),
        _ => {
            let Some(name) = args.workload else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            if args.trace {
                spans::enable();
            }
            let ctx = Ctx {
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                sizes: Sizes::full(),
                plan: Plan::full(),
                scratch_base: Path::new(RESULTS_DIR).join("scratch"),
            };
            let Some(mut report) = run_workload(&name, &ctx) else {
                eprintln!("unknown workload {name}; one of {:?}", metrics::WORKLOADS);
                return ExitCode::from(2);
            };
            if args.trace {
                probes::finish_trace(Path::new(RESULTS_DIR), &mut report);
            }
            print!("{}", report.render_table());
            println!(
                "{}",
                report.result_json(if args.trace { Kind::Layer } else { Kind::E2e })
            );
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
