//! `cusp-part` — the stand-alone partitioning tool.
//!
//! Run without arguments for the synopsis: `SYNOPSIS` holds its one copy,
//! and a flag it does not list for the command is refused (exit 2).
//!
//! `--policy NAME` takes any [`PolicyKind::ALL`] abbreviation (`usage()`
//! prints them, so the list cannot drift from the parser); `partition`
//! also accepts `XTRAPULP`.
//!
//! `partition` runs the full five-phase pipeline on a simulated K-host
//! cluster, prints per-phase timings, communication volume, and quality
//! metrics, and (with `--out-dir`) writes one `.part` file per host. With
//! `--trace`, the run records spans, counters, and per-message events on
//! every host, writes a Chrome trace-event JSON (open it at
//! <https://ui.perfetto.dev>), and prints the per-phase critical-path
//! summary (measured compute vs. α–β modeled network time per host).
//! `trace-check` validates such a JSON file (used by the CI smoke job).
//! A file a command cannot read or write ends it with one
//! `cusp-part: <path>: <error>` line and exit 1, and partitions that fail
//! validation with an `INVALID: …` line and exit 1.
//!
//! With `--crash-seed`, a seeded [`cusp_net::CrashPlan`] kills simulated
//! hosts mid-phase and the supervisor restarts them (`--heartbeat-ms` sets
//! how long a death takes to be reported); `--checkpoint-dir` lets restarted hosts
//! resume from the last completed phase instead of re-running everything.
//! Crash runs keep `--threads`: a restarted host re-sends exactly what it
//! sent before at any thread count, so the recovered partition is
//! bit-identical to a crash-free run. A host that exhausts its restart
//! budget terminates the run with a one-line diagnostic and a non-zero
//! exit code.
//!
//! `apply` mutates a graph with a batch of edge events — from a text
//! file (`add src dst [w]` / `remove src dst` / `setw src dst w`, one
//! per line, `#` comments) or a seeded generator — prints the dirty
//! vertex count and the old → new graph fingerprint, and optionally
//! journals the batch to a CRC-framed WAL (`--wal`) and writes the
//! mutated graph (`--out`). `wal-replay` re-applies every batch in a
//! WAL in append order; with `--policy`/`--hosts` it additionally runs
//! the *delta* repartition path against the previous generation's
//! partition after each batch and checks it fingerprint-matches a full
//! from-scratch run (the incremental-equivalence oracle).
//!
//! `launch` runs the same pipeline across **real OS processes**, and
//! `worker` is one of them: each is flag parsing → spec →
//! [`cusp::distributed::launch`] / [`cusp::distributed::worker`] → print
//! (the module documents the driver, the line protocol and the seeded
//! `--kill-seed` chaos). `launch` composes the oracle itself — the
//! crash-free [`cusp::distributed::simulator_twin`] — and prints
//! `cross-process conservation: ok`, `recovery: ...` under a kill plan, one
//! `host H: tcp=... sim=...` line of [`cusp::part_fingerprint`]s per host so
//! that a mismatch names its host, and last `fingerprint tcp=... sim=...
//! MATCH`, the CI grep target. It exits non-zero on a lost or failed worker
//! (a one-line diagnostic, then that worker's stderr tail), a conservation
//! violation or a mismatch. `--heartbeat-ms` shortens the mesh's idle
//! heartbeat, and with it the silence after which a peer counts as down.
//!
//! `client VERB` speaks the framed `cusp-serve` protocol (default server
//! `127.0.0.1:7421`). `upload` (a local `.bgr`) and `apply` (a local text
//! batch) read files, so they are its own; every other verb and its flags
//! are a row of [`cusp_serve::VERBS`], the table the HTTP front end routes
//! by (a flag the row does not name is refused). Every verb prints
//! [`cusp_serve::Response::to_json`]: the body HTTP returns for the same
//! request, so `client partition` prints
//! `"cache":"cold|memory|disk|coalesced"` for scripts to assert hit/miss
//! behaviour. An error answer is printed the same way and exits 1; a
//! request that cannot be built prints HTTP's 400 body and exits 2.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use cusp::distributed::{self, part_path, LaunchSpec, RunSpec, WorkerError, WorkerSpec};
use cusp::{
    metrics, partition_with_policy, write_partition, CuspConfig, GraphSource, OutputFormat,
    PolicyKind,
};
use cusp_graph::{edgelist, read_bgr, write_bgr, GraphProps, RangeReader};
use cusp_net::Cluster;
use cusp_repro::cli;
use cusp_xtrapulp::{xtrapulp_partition, XpConfig};

/// Prints to stdout through [`emit`], the binary's one writer.
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// [`out!`] and a newline.
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Set once stdout is found closed: [`emit`] prints nothing after that.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout. A closed stdout (`cusp-part … | head -1`)
/// silences the rest of the output but not the command: its files are
/// still written and checked, and it exits with the status it would have
/// had. Any other write failure ends it with one line on stderr and
/// exit 1.
fn emit(args: std::fmt::Arguments) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            return;
        }
        eprintln!("cusp-part: stdout: {e}");
        exit(1)
    }
}

/// Every command's synopsis but the client verbs': [`usage`] prints it and
/// [`known_flags`] reads each command's flags out of it.
const SYNOPSIS: &str = "  cusp-part gen --kind uniform|webcrawl|kron --nodes N [--degree D] [--seed S] --out G.bgr
  cusp-part convert --edgelist IN.txt --out G.bgr
  cusp-part convert --metis IN.graph --out G.bgr
  cusp-part props G.bgr
  cusp-part partition --graph G.bgr --policy NAME --hosts K [--out-dir DIR]
                      [--sync-rounds N] [--buffer BYTES] [--threads T] [--csc]
                      [--chunk-edges E] [--trace OUT.json]
                      [--crash-seed S] [--heartbeat-ms MS] [--checkpoint-dir DIR]
  cusp-part launch --hosts K --graph G.bgr --policy NAME [--out-dir DIR]
                   [--sync-rounds N] [--buffer BYTES] [--threads T] [--chunk-edges E] [--csc]
                   [--kill-seed S [--kill-repeat]] [--max-restarts N]
                   [--checkpoint-dir DIR] [--heartbeat-ms MS]
  cusp-part worker --host-id H --hosts K --graph G.bgr --policy NAME --nonce N --out-dir DIR
                   [--sync-rounds N] [--buffer BYTES] [--threads T] [--csc]
                   [--chunk-edges E] [--checkpoint-dir DIR]
                   [--listen ADDR] [--incarnation I] [--rejoin] [--announce-phases] [--heartbeat-ms MS]
  cusp-part inspect PART.part [PART.part ...]
  cusp-part validate --graph G.bgr --parts DIR
  cusp-part trace-check OUT.json
  cusp-part apply --graph G.bgr (--batch B.txt | --events N [--seed S]) [--out G2.bgr] [--wal W.wal]
  cusp-part wal-replay --graph G.bgr --wal W.wal [--out G2.bgr] [--policy NAME --hosts K]";

/// The client's own verbs, which read local files: [`usage`] prints their
/// synopses and `cmd_client` refuses a flag they do not list.
const LOCAL_VERBS: [(&str, &str); 2] =
    [("upload", "--tenant T --name N --graph G.bgr"), ("apply", "--tenant T --name N --batch B.txt")];

fn usage() -> ! {
    let table = cusp_serve::VERBS.iter().filter(|v| v.client).map(|v| (v.name, v.synopsis));
    let client: String = LOCAL_VERBS
        .into_iter()
        .chain(table)
        .map(|(verb, synopsis)| format!("\n  cusp-part client {verb} {synopsis}").trim_end().to_owned())
        .collect();
    eprintln!(
        "usage:\n{SYNOPSIS}{client}\n  (client verbs take [--addr HOST:PORT] and print the JSON the HTTP front end returns)\npolicies (--policy NAME): {} (partition only: XTRAPULP)",
        PolicyKind::ALL.map(PolicyKind::name).join(" ")
    );
    exit(2)
}

/// The flags `cmd` takes and whether each takes a value, as its lines of
/// [`SYNOPSIS`] list them; `None` for `client`, whose verbs refuse what
/// they do not take with the JSON the HTTP front end answers.
fn known_flags(cmd: &str) -> Option<Vec<(&'static str, bool)>> {
    if cmd == "client" {
        return None;
    }
    let blocks = SYNOPSIS.split("cusp-part ").filter(|block| block.split_whitespace().next() == Some(cmd));
    Some(blocks.flat_map(cli::synopsis_flags).collect())
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> &'a str {
    flags.get(name).map(String::as_str).unwrap_or_else(|| {
        eprintln!("missing required flag --{name}");
        usage()
    })
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid {what}: '{s}'");
        usage()
    })
}

/// `--hosts K`, refusing 0: no cluster runs on zero hosts.
fn hosts_flag(flags: &HashMap<String, String>) -> usize {
    let hosts = parse_num(required(flags, "hosts"), "host count");
    if hosts == 0 {
        eprintln!("--hosts must be at least 1");
        usage()
    }
    hosts
}

/// An optional numeric flag, parsed.
fn num_flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Option<T> {
    flags.get(name).map(|s| parse_num(s, name))
}

/// `--policy NAME`, as the catalog knows it.
fn policy_flag(flags: &HashMap<String, String>) -> PolicyKind {
    let name = required(flags, "policy").to_ascii_uppercase();
    PolicyKind::parse(&name).unwrap_or_else(|| {
        eprintln!("unknown policy '{name}'");
        usage()
    })
}

/// The value of a file operation on `path`, or — when it failed —
/// `cusp-part: <path>: <error>` on stderr and exit 1.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, path: impl AsRef<Path>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("cusp-part: {}: {e}", path.as_ref().display());
        exit(1)
    })
}

/// Checks the partitions, built as `output`, against the graph they came
/// from: an `INVALID` line and exit 1 when they do not partition it. The
/// check reads rows as sources, so CSC parts are checked transposed.
fn validate_or_exit(original: &cusp_graph::Csr, parts: &[cusp::DistGraph], output: OutputFormat) {
    let transposed: Vec<cusp::DistGraph>;
    let parts = match output {
        OutputFormat::Csr => parts,
        OutputFormat::Csc => {
            transposed = parts.iter().map(cusp::DistGraph::transposed).collect();
            &transposed
        }
    };
    if let Err(e) = metrics::validate_partitioning(original, parts) {
        eprintln!("INVALID: {e}");
        exit(1);
    }
    outln!("validation: ok");
}

/// Writes a `.bgr`, with its per-edge weights when it has them.
fn write_graph_any(path: &Path, graph: &cusp_graph::Csr, weights: Option<&[u32]>) {
    let written = match weights {
        Some(w) => cusp_graph::write_bgr_weighted(path, graph, w),
        None => write_bgr(path, graph),
    };
    or_exit(written, path);
    outln!("wrote graph to {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let (flags, positional) = cli::parse_flags(known_flags(cmd).as_deref(), &args[1..]).unwrap_or_else(|e| {
        eprintln!("{cmd}: {e}");
        usage()
    });
    match cmd.as_str() {
        "gen" => cmd_gen(&flags),
        "convert" => cmd_convert(&flags),
        "props" => cmd_props(&positional),
        "partition" => cmd_partition(&flags),
        "worker" => cmd_worker(&flags),
        "launch" => cmd_launch(&flags),
        "inspect" => cmd_inspect(&positional),
        "validate" => cmd_validate(&flags),
        "trace-check" => cmd_trace_check(&positional),
        "apply" => cmd_apply(&flags),
        "wal-replay" => cmd_wal_replay(&flags),
        "client" => cmd_client(&positional, &flags),
        other => {
            eprintln!("unknown command '{other}'");
            usage()
        }
    }
}

fn cmd_gen(flags: &HashMap<String, String>) {
    let kind = required(flags, "kind");
    let nodes: usize = parse_num(required(flags, "nodes"), "node count");
    let degree: f64 = num_flag(flags, "degree").unwrap_or(16.0);
    let seed: u64 = num_flag(flags, "seed").unwrap_or(42);
    let out = PathBuf::from(required(flags, "out"));
    let start = Instant::now();
    let graph = cusp_graph::gen::generate(kind, nodes, degree, seed).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    let built = start.elapsed().as_secs_f64();
    or_exit(write_bgr(&out, &graph), &out);
    outln!("{}", GraphProps::compute(&graph).row(out.display().to_string().as_str()));
    let medges = graph.num_edges() as f64 / built.max(1e-9) / 1e6;
    let workers = cusp_graph::gen::generate_workers(kind);
    outln!("built in {built:.3} s, {medges:.2} Medges/s, workers {workers}");
}

fn cmd_convert(flags: &HashMap<String, String>) {
    let out = PathBuf::from(required(flags, "out"));
    let (input, graph) = if let Some(path) = flags.get("edgelist") {
        let input = PathBuf::from(path);
        let file = or_exit(std::fs::File::open(&input), &input);
        let graph = or_exit(edgelist::read_edge_list(std::io::BufReader::new(file)), &input);
        (input, graph)
    } else if let Some(path) = flags.get("metis") {
        let input = PathBuf::from(path);
        let file = or_exit(std::fs::File::open(&input), &input);
        let graph = or_exit(cusp_graph::metis::read_metis(std::io::BufReader::new(file)), &input);
        (input, graph)
    } else {
        eprintln!("convert needs --edgelist or --metis");
        usage()
    };
    or_exit(write_bgr(&out, &graph), &out);
    outln!(
        "converted {} -> {} ({} nodes, {} edges)",
        input.display(),
        out.display(),
        graph.num_nodes(),
        graph.num_edges()
    );
}

fn cmd_inspect(positional: &[String]) {
    if positional.is_empty() {
        eprintln!("inspect needs at least one .part file");
        usage()
    }
    let mut fingerprints = Vec::with_capacity(positional.len());
    for path in positional {
        let p = or_exit(cusp::read_partition(Path::new(path)), path);
        let fingerprint = cusp::part_fingerprint(&p);
        fingerprints.push(fingerprint);
        outln!(
            "{path}: partition {}/{} of a {}-node / {}-edge graph ({:?})",
            p.part_id,
            p.num_parts,
            p.global_nodes,
            p.global_edges,
            p.class
        );
        outln!(
            "  {} masters, {} mirrors, {} local edges{}",
            p.num_masters,
            p.num_mirrors(),
            p.num_local_edges(),
            if p.edge_data.is_some() { ", weighted" } else { "" }
        );
        outln!("  fingerprint {fingerprint:016x}");
    }
    if fingerprints.len() > 1 {
        // `partition_fingerprint` of the files as one partitioning, which
        // they are when given in host order.
        outln!(
            "merged fingerprint (in the order given): {:016x}",
            cusp::merge_part_fingerprints(&fingerprints)
        );
    }
}

fn cmd_validate(flags: &HashMap<String, String>) {
    let graph_path = PathBuf::from(required(flags, "graph"));
    let dir = PathBuf::from(required(flags, "parts"));
    let original = or_exit(read_bgr(&graph_path), &graph_path);
    let mut parts = Vec::new();
    let mut entries: Vec<_> = or_exit(std::fs::read_dir(&dir), &dir)
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "part"))
        .collect();
    entries.sort();
    for path in entries {
        parts.push(or_exit(cusp::read_partition(&path), &path));
    }
    parts.sort_by_key(|p| p.part_id);
    if parts.is_empty() {
        eprintln!("no .part files in {}", dir.display());
        exit(1);
    }
    match metrics::validate_partitioning(&original, &parts) {
        Ok(()) => {
            let q = metrics::quality(&parts);
            outln!(
                "valid: {} partitions, replication factor {:.3}, edge balance {:.3}",
                parts.len(),
                q.replication_factor,
                q.edge_balance
            );
        }
        Err(e) => {
            eprintln!("INVALID: {e}");
            exit(1);
        }
    }
}

fn cmd_trace_check(positional: &[String]) {
    let Some(path) = positional.first() else {
        eprintln!("trace-check needs a trace JSON file");
        usage()
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{path}: cannot read trace file: {e}");
            exit(1);
        }
    };
    match cusp_obs::validate_trace_json(&text) {
        Ok(check) => outln!(
            "{path}: ok — {} events ({} span events, {} flow pairs, {} crash / {} restart marks) across {} host(s)",
            check.total_events,
            check.span_events,
            check.flow_pairs,
            check.crash_events,
            check.restart_events,
            check.processes
        ),
        Err(e) => {
            eprintln!("{path}: INVALID trace: {e}");
            exit(1);
        }
    }
}

fn cmd_props(positional: &[String]) {
    let Some(path) = positional.first() else { usage() };
    let graph = or_exit(read_bgr(Path::new(path)), path);
    outln!("{}", GraphProps::compute(&graph).row(path));
}

/// Runs the cluster, turning a lost host into a clean one-line diagnostic
/// and a non-zero exit instead of a panic.
fn run_cluster_or_exit<R, F>(
    hosts: usize,
    opts: cusp_net::ClusterOptions,
    f: F,
) -> cusp_net::ClusterOutput<R>
where
    R: Send,
    F: Fn(&cusp_net::Comm) -> R + Sync,
{
    match Cluster::try_run_with(hosts, opts, f) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("cusp-part: {}", cusp::PartitionError::from(e));
            exit(1);
        }
    }
}

/// Builds the pipeline configuration from the shared tuning flags
/// (`partition`, `worker`, and `launch` all accept the same set, so a
/// launched worker and the comparison simulator run identical configs).
fn cusp_cfg_from_flags(flags: &HashMap<String, String>) -> CuspConfig {
    let defaults = CuspConfig::default();
    CuspConfig {
        sync_rounds: num_flag(flags, "sync-rounds").unwrap_or(defaults.sync_rounds),
        buffer_threshold: num_flag(flags, "buffer").unwrap_or(defaults.buffer_threshold),
        threads_per_host: num_flag(flags, "threads").unwrap_or(defaults.threads_per_host),
        output: if flags.contains_key("csc") { OutputFormat::Csc } else { OutputFormat::Csr },
        chunk_edges: num_flag(flags, "chunk-edges"),
        checkpoint_dir: flags.get("checkpoint-dir").map(PathBuf::from),
        announce_phases: flags.contains_key("announce-phases"),
        ..defaults
    }
}

fn cmd_partition(flags: &HashMap<String, String>) {
    let graph_path = PathBuf::from(required(flags, "graph"));
    let policy_name = required(flags, "policy").to_ascii_uppercase();
    let hosts = hosts_flag(flags);
    let crash_seed: Option<u64> = num_flag(flags, "crash-seed");
    let cfg = cusp_cfg_from_flags(flags);
    // A missing or cut input is one line here, not a panic in every host.
    or_exit(RangeReader::open(&graph_path), &graph_path);

    let trace_path = flags.get("trace").map(PathBuf::from);
    let mut recovery = cusp_net::RecoveryOptions::default();
    if let Some(ms) = num_flag(flags, "heartbeat-ms") {
        recovery.heartbeat_timeout = std::time::Duration::from_millis(ms);
    }
    let opts = cusp_net::ClusterOptions {
        trace: trace_path.as_ref().map(|_| cusp_net::TraceConfig::default()),
        crash: crash_seed.map(cusp_net::CrashPlan::seeded),
        recovery,
        ..cusp_net::ClusterOptions::default()
    };

    let source = GraphSource::File(graph_path.clone());
    // XtraPulp builds CSR rows whatever `--csc` asks.
    let (parts, output, times_text, stats, trace, recovery_report) = if policy_name == "XTRAPULP" {
        let out = run_cluster_or_exit(hosts, opts, move |comm| {
            let r = xtrapulp_partition(comm, source.clone(), &XpConfig::default());
            (r.partition.dist_graph, r.partition_time)
        });
        let reported = out.results.iter().map(|r| r.1).max().unwrap();
        let parts: Vec<_> = out.results.into_iter().map(|r| r.0).collect();
        (
            parts,
            OutputFormat::Csr,
            format!("partitioning (read + label propagation): {reported:.2?}"),
            out.stats,
            out.trace,
            out.recovery,
        )
    } else {
        let kind = policy_flag(flags);
        let cfg2 = cfg.clone();
        let out = run_cluster_or_exit(hosts, opts, move |comm| {
            let r = partition_with_policy(comm, source.clone(), kind, &cfg2);
            (r.dist_graph, r.times, r.peak_resident_edges)
        });
        let mut t = cusp::PhaseTimes::default();
        let mut peak = 0u64;
        let mut parts = Vec::new();
        for (dg, times, p) in out.results {
            t = t.max(&times);
            peak = peak.max(p);
            parts.push(dg);
        }
        (
            parts,
            cfg.output,
            format!(
                "read {:.2?} | master {:.2?} | edge-assign {:.2?} | alloc {:.2?} | construct {:.2?} | total {:.2?}\npeak resident source edges per host: {peak}",
                t.read, t.master, t.edge_assign, t.alloc, t.construct, t.total()
            ),
            out.stats,
            out.trace,
            out.recovery,
        )
    };

    outln!("{times_text}");
    outln!(
        "communication: {:.2} MB in {} messages",
        stats.grand_total_bytes() as f64 / 1e6,
        stats.grand_total_messages()
    );
    if let Some(r) = &recovery_report {
        outln!(
            "recovery: {} crash(es), {} restart(s), {} message(s) lost in teardown; replayed {} bytes in {} messages",
            r.crashes,
            r.restarts,
            r.lost_in_teardown,
            stats.replayed_bytes(),
            stats.replayed_messages()
        );
    }

    if let (Some(path), Some(trace)) = (&trace_path, &trace) {
        let json = cusp_obs::export_chrome_trace(trace);
        or_exit(std::fs::write(path, &json), path);
        outln!(
            "trace: {} events on {} threads -> {} (open in https://ui.perfetto.dev){}",
            trace.events.len(),
            trace.threads.len(),
            path.display(),
            if trace.dropped_events > 0 {
                format!(" [{} events dropped: raise ring capacity]", trace.dropped_events)
            } else {
                String::new()
            }
        );
        let model = cusp_net::NetworkModel::omni_path();
        out!("{}", cusp::render_phase_summary(trace, &stats, &model));
    }

    // Validate against the original (in-memory reload) and report quality.
    let original = or_exit(read_bgr(&graph_path), &graph_path);
    validate_or_exit(&original, &parts, output);
    let q = metrics::quality(&parts);
    outln!(
        "quality: replication factor {:.3}, node balance {:.3}, edge balance {:.3}",
        q.replication_factor, q.node_balance, q.edge_balance
    );
    for p in &parts {
        outln!(
            "  host {:>3}: {:>9} masters  {:>9} mirrors  {:>11} edges",
            p.part_id,
            p.num_masters,
            p.num_mirrors(),
            p.num_local_edges()
        );
    }

    if let Some(dir) = flags.get("out-dir") {
        let dir = PathBuf::from(dir);
        or_exit(std::fs::create_dir_all(&dir), &dir);
        for p in &parts {
            let path = part_path(&dir, p.part_id as usize);
            or_exit(write_partition(&path, p), &path);
        }
        outln!("wrote {} partition files to {}", parts.len(), dir.display());
    }
}

/// What `launch` and `worker` share of a cross-process run, from the flags
/// they share.
fn run_spec_from_flags(flags: &HashMap<String, String>) -> RunSpec {
    RunSpec {
        hosts: hosts_flag(flags),
        graph: PathBuf::from(required(flags, "graph")),
        policy: policy_flag(flags),
        out_dir: flags.get("out-dir").map(PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir().join(format!("cusp-launch-{}", std::process::id()))
        }),
        cfg: cusp_cfg_from_flags(flags),
        heartbeat: num_flag(flags, "heartbeat-ms").map(std::time::Duration::from_millis),
    }
}

/// One host of a cross-process run: [`distributed::worker`] under
/// `cusp-part launch` or any orchestrator speaking the same lines.
fn cmd_worker(flags: &HashMap<String, String>) {
    let spec = WorkerSpec {
        run: run_spec_from_flags(flags),
        host: parse_num(required(flags, "host-id"), "host id"),
        nonce: parse_num(required(flags, "nonce"), "run nonce"),
        incarnation: num_flag(flags, "incarnation").unwrap_or(0),
        listen: flags.get("listen").cloned(),
        rejoin: flags.contains_key("rejoin"),
    };
    if let Err(e) = distributed::worker(&spec) {
        eprintln!("worker {}: {e}", spec.host);
        exit(if matches!(e, WorkerError::Protocol { .. }) { 2 } else { 1 });
    }
}

/// A real multi-process partition run: [`distributed::launch`], then the
/// oracle — the crash-free in-process simulator over the identical
/// configuration, which a launched run, recovered or not, must match host
/// by host — and the lines CI greps.
fn cmd_launch(flags: &HashMap<String, String>) {
    let spec = LaunchSpec {
        worker: std::env::current_exe().expect("cannot locate own executable"),
        run: run_spec_from_flags(flags),
        kill: num_flag(flags, "kill-seed").map(|seed| (seed, flags.contains_key("kill-repeat"))),
        max_restarts: num_flag(flags, "max-restarts").unwrap_or(3),
    };
    let run = &spec.run;
    let report = distributed::launch(&spec, &mut std::io::stdout()).unwrap_or_else(|e| {
        eprintln!("cusp-part launch: {e}");
        exit(1)
    });
    outln!(
        "cross-process conservation: {} ({:.2} MB in {} messages over TCP)",
        if report.conserved { "ok" } else { "VIOLATED" },
        report.wire_bytes as f64 / 1e6,
        report.wire_messages
    );
    if let Some(d) = &report.kill {
        outln!(
            "recovery: {} kill(s) ({} @ {}, host {}), {} respawn(s), {} peer rejoin(s)",
            report.kills,
            d.mode.as_str(),
            d.phase,
            d.victim,
            report.respawns,
            report.rejoins
        );
    }

    let sim_parts = distributed::simulator_twin(run).unwrap_or_else(|e| {
        eprintln!("cusp-part: {e}");
        exit(1)
    });
    let original = or_exit(read_bgr(&run.graph), &run.graph);
    let parts: Vec<_> = (0..run.hosts)
        .map(|h| {
            let path = part_path(&run.out_dir, h);
            or_exit(cusp::read_partition(&path), &path)
        })
        .collect();
    validate_or_exit(&original, &parts, run.cfg.output);
    // Per host first, so that a mismatch names the host that differs.
    for (h, (tcp, sim)) in report.part_fingerprints.iter().zip(&sim_parts).enumerate() {
        let verdict = if tcp == sim { "" } else { " DIFFERS" };
        outln!("  host {h}: tcp=0x{tcp:016x} sim=0x{sim:016x}{verdict}");
    }
    let tcp_fp = cusp::merge_part_fingerprints(&report.part_fingerprints);
    let sim_fp = cusp::merge_part_fingerprints(&sim_parts);
    outln!(
        "fingerprint tcp=0x{tcp_fp:016x} sim=0x{sim_fp:016x} {}",
        if tcp_fp == sim_fp { "MATCH" } else { "MISMATCH" }
    );
    if tcp_fp != sim_fp || !report.conserved {
        exit(1);
    }
}

/// A mutation batch from `--batch FILE` or the seeded generator
/// (`--events N [--seed S]`).
fn batch_from_flags(
    flags: &HashMap<String, String>,
    graph: &cusp_graph::Csr,
    weighted: bool,
) -> Vec<cusp_graph::GraphEvent> {
    if let Some(path) = flags.get("batch") {
        let text = or_exit(std::fs::read_to_string(path), path);
        cusp_graph::wal::parse_batch_text(&text).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        })
    } else if let Some(n) = flags.get("events") {
        let seed: u64 = num_flag(flags, "seed").unwrap_or(42);
        cusp_graph::wal::seeded_batch(graph, weighted, seed, parse_num(n, "event count"))
    } else {
        eprintln!("apply needs --batch FILE or --events N");
        usage()
    }
}

fn cmd_apply(flags: &HashMap<String, String>) {
    let graph_path = PathBuf::from(required(flags, "graph"));
    let (graph, weights) = or_exit(cusp_graph::read_bgr_any(&graph_path), &graph_path);
    let batch = batch_from_flags(flags, &graph, weights.is_some());
    if batch.is_empty() {
        outln!("empty batch: nothing to do");
        return;
    }
    let old_fp = cusp::graph_fingerprint(&graph, weights.as_deref());
    let applied = graph.apply_batch(weights.as_deref(), &batch).unwrap_or_else(|e| {
        eprintln!("batch rejected: {e}");
        exit(1)
    });
    let new_fp = cusp::graph_fingerprint(&applied.graph, applied.weights.as_deref());
    outln!(
        "applied {} event(s): {} edge(s) added, {} removed, {} reweighted",
        batch.len(),
        applied.added,
        applied.removed,
        applied.reweighted
    );
    outln!("dirty vertices: {}", applied.dirty.len());
    outln!(
        "graph: {} -> {} nodes, {} -> {} edges",
        graph.num_nodes(),
        applied.graph.num_nodes(),
        graph.num_edges(),
        applied.graph.num_edges()
    );
    outln!("graph fingerprint: {old_fp:016x} -> {new_fp:016x}");
    if let Some(wal_path) = flags.get("wal") {
        let wal = cusp_graph::Wal::new(PathBuf::from(wal_path));
        or_exit(wal.append(&batch), wal_path);
        let total = wal.load().map(|b| b.len()).unwrap_or(0);
        outln!("journaled to {wal_path} ({total} batch(es) total)");
    }
    if let Some(out) = flags.get("out") {
        write_graph_any(Path::new(out), &applied.graph, applied.weights.as_deref());
    }
}

fn cmd_wal_replay(flags: &HashMap<String, String>) {
    use std::sync::Arc;

    let graph_path = PathBuf::from(required(flags, "graph"));
    let wal_path = required(flags, "wal");
    let checker = flags.contains_key("policy").then(|| {
        let hosts = flags.get("hosts").map_or(4, |_| hosts_flag(flags));
        (policy_flag(flags), hosts)
    });
    let (mut graph, mut weights) = or_exit(cusp_graph::read_bgr_any(&graph_path), &graph_path);
    let wal = cusp_graph::Wal::new(PathBuf::from(wal_path));
    let batches = wal.load().unwrap_or_else(|e| {
        eprintln!("cannot load WAL {wal_path}: {e}");
        exit(1)
    });
    outln!("{}: {} batch(es)", wal_path, batches.len());

    let cfg = &CuspConfig::default();
    let source_of = |g: &cusp_graph::Csr, w: &Option<Vec<u32>>| match w {
        Some(w) => GraphSource::MemoryWeighted(Arc::new(g.clone()), Arc::new(w.clone())),
        None => GraphSource::Memory(Arc::new(g.clone())),
    };
    let mut prevs = checker.map(|(kind, hosts)| {
        let src = source_of(&graph, &weights);
        Cluster::run(hosts, |comm| partition_with_policy(comm, src.clone(), kind, cfg)).results
    });

    for (i, batch) in batches.iter().enumerate() {
        let applied = graph.apply_batch(weights.as_deref(), batch).unwrap_or_else(|e| {
            eprintln!("batch {i} rejected: {e}");
            exit(1)
        });
        outln!(
            "batch {i}: {} event(s), {} dirty vertice(s), {} -> {} edges",
            batch.len(),
            applied.dirty.len(),
            graph.num_edges(),
            applied.graph.num_edges()
        );
        if let (Some(prev), Some((kind, hosts))) = (&prevs, checker) {
            let src = source_of(&applied.graph, &applied.weights);
            let delta = Cluster::run(hosts, |comm| {
                cusp::partition_delta_with_policy(comm, src.clone(), kind, cfg, &prev[comm.host()], batch)
            })
            .results;
            let full = Cluster::run(hosts, |comm| partition_with_policy(comm, src.clone(), kind, cfg)).results;
            let delta_parts: Vec<_> = delta.iter().map(|o| o.dist_graph.clone()).collect();
            let full_parts: Vec<_> = full.iter().map(|o| o.dist_graph.clone()).collect();
            let violations = cusp::check_delta_equivalence(
                &applied.graph,
                applied.weights.as_deref(),
                &delta_parts,
                &full_parts,
            );
            if !violations.is_empty() {
                eprintln!("batch {i}: delta/full DIVERGENCE:");
                for v in &violations {
                    eprintln!("  {v:?}");
                }
                exit(1);
            }
            let reused: u64 = delta.iter().map(|o| o.reused_edges).sum();
            outln!(
                "  delta == full (fingerprint {:016x}); {} dirty, {} edge(s) reused",
                cusp::partition_fingerprint(&delta_parts),
                delta[0].dirty_vertices,
                reused
            );
            prevs = Some(full);
        }
        graph = applied.graph;
        weights = applied.weights;
    }

    outln!(
        "final graph: {} nodes, {} edges, fingerprint {:016x}",
        graph.num_nodes(),
        graph.num_edges(),
        cusp::graph_fingerprint(&graph, weights.as_deref())
    );
    if let Some(out) = flags.get("out") {
        write_graph_any(Path::new(out), &graph, weights.as_deref());
    }
}

fn cmd_client(positional: &[String], flags: &HashMap<String, String>) {
    use cusp_serve::{Client, ClientError, Response, ServeError, Verb};

    /// A request that cannot be built: the JSON HTTP answers with 400.
    fn refuse(message: String) -> ! {
        outln!("{}", Response::from(ServeError::BadRequest(message)).to_json());
        exit(2)
    }
    let flag = |name: &str| {
        flags.get(name).cloned().unwrap_or_else(|| refuse(format!("missing argument '{name}'")))
    };
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7421");
    let verb = positional.first().map_or("", String::as_str);
    // A local verb's arguments, refused like a routed verb's.
    if let Some((_, synopsis)) = LOCAL_VERBS.iter().find(|(name, _)| *name == verb) {
        let known = cli::synopsis_flags(synopsis);
        if let Some(name) = flags.keys().find(|k| *k != "addr" && !known.iter().any(|(f, _)| f == k)) {
            refuse(format!("{verb} takes no argument '{name}'"))
        }
    }
    // `upload` and `apply` read local files, so they are the client's own
    // verbs; every other verb is a row of the request table.
    let answer = match verb {
        "upload" => {
            let path = flag("graph");
            let (graph, weights) = cusp_graph::read_bgr_any(Path::new(&path))
                .unwrap_or_else(|e| refuse(format!("cannot read graph '{path}': {e}")));
            let (tenant, name) = (flag("tenant"), flag("name"));
            Client::connect(addr)
                .and_then(|mut c| c.upload_graph(&tenant, &name, &graph, weights.as_deref()))
                .map(|(fingerprint, nodes, edges)| Response::GraphUploaded {
                    fingerprint,
                    nodes,
                    edges,
                })
        }
        "apply" => {
            let path = flag("batch");
            let batch = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read batch '{path}': {e}"))
                .and_then(|text| cusp_graph::wal::parse_batch_text(&text))
                .unwrap_or_else(|e| refuse(e));
            let (tenant, name) = (flag("tenant"), flag("name"));
            Client::connect(addr).and_then(|mut c| c.apply(&tenant, &name, &batch))
        }
        verb => {
            let Some(verb) = Verb::named(verb) else {
                eprintln!("unknown client verb {verb:?}");
                usage()
            };
            let args: Vec<(&str, &str)> = flags
                .iter()
                .filter(|(k, _)| *k != "addr")
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let req = verb.request(&args).unwrap_or_else(|e| {
                outln!("{}", Response::from(e).to_json());
                exit(2)
            });
            Client::connect(addr).and_then(|mut c| c.request(&req))
        }
    };
    let resp = match answer {
        Ok(resp) => resp,
        Err(ClientError::Server { code, message }) => Response::Error { code, message },
        Err(e) => {
            eprintln!("cusp-serve at {addr}: {e}");
            exit(1)
        }
    };
    outln!("{}", resp.to_json());
    if resp.http_status() != 200 {
        exit(1)
    }
}
