//! `cusp-part` — the stand-alone partitioning tool.
//!
//! ```text
//! cusp-part gen       --kind kron|webcrawl|uniform --nodes N [--degree D] [--seed S] --out G.bgr
//! cusp-part convert   --edgelist IN.txt --out G.bgr
//! cusp-part convert   --metis IN.graph --out G.bgr
//! cusp-part props     G.bgr
//! cusp-part partition --graph G.bgr --policy NAME --hosts K [--out-dir DIR]
//!                     [--sync-rounds N] [--buffer BYTES] [--threads T] [--csc]
//!                     [--chunk-edges E] [--trace OUT.json]
//!                     [--crash-seed S] [--heartbeat-ms MS] [--checkpoint-dir DIR]
//! cusp-part launch    --hosts K --graph G.bgr --policy NAME [--out-dir DIR]
//!                     [--sync-rounds N] [--buffer BYTES] [--chunk-edges E] [--csc]
//! cusp-part worker    --host-id H --hosts K --graph G.bgr --policy NAME
//!                     --nonce N --out-dir DIR [--det] [tuning flags as above]
//! cusp-part inspect   PART.part [PART.part ...]
//! cusp-part validate  --graph G.bgr --parts DIR
//! cusp-part trace-check OUT.json
//! cusp-part apply     --graph G.bgr (--batch B.txt | --events N [--seed S])
//!                     [--out G2.bgr] [--wal W.wal]
//! cusp-part wal-replay --graph G.bgr --wal W.wal [--out G2.bgr]
//!                     [--policy NAME --hosts K]
//! cusp-part client    upload|partition|quality|apply|stats|list|server-stats ...
//! ```
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
//!
//! With `--crash-seed`, a seeded [`cusp_net::CrashPlan`] kills simulated
//! hosts mid-phase and the supervisor restarts them (heartbeat detection
//! tunable via `--heartbeat-ms`); `--checkpoint-dir` lets restarted hosts
//! resume from the last completed phase instead of re-running everything.
//! Crash runs force the determinism contract (`deterministic_sync`, one
//! worker thread) so the recovered partition is bit-identical to a
//! crash-free run. A host that exhausts its restart budget terminates the
//! run with a one-line diagnostic and a non-zero exit code.
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
//! `launch` runs the same five-phase pipeline across **real OS
//! processes**: it forks `--hosts` copies of this binary as `worker`
//! subprocesses, hands each the full list of peer listen addresses, and
//! the workers mesh up over loopback TCP (`cusp_net::TcpTransport`) and
//! partition cooperatively, each writing its own `part-XXXX.part`. The
//! launcher then (i) joins every worker's send rows against the
//! receivers' recv rows — a cross-process conservation check no single
//! process could fake — and (ii) re-runs the identical configuration on
//! the in-process simulator and asserts the merged
//! [`cusp::partition_fingerprint`]s are bit-identical (workers are forced
//! onto the determinism contract via `--det`). Exit status is non-zero on
//! any worker failure, conservation violation, or fingerprint mismatch;
//! the final line `fingerprint tcp=... sim=... MATCH` is the CI grep
//! target, preceded by one `host H: tcp=... sim=...` line of
//! [`cusp::part_fingerprint`]s per host so a mismatch names its host.
//! `worker` is the per-host half of that protocol and is also usable
//! standalone for multi-machine experiments: it prints
//! `CUSP-WORKER-LISTEN <addr>`, waits for `PEERS a,b,...` on stdin, and
//! reports `CUSP-WORKER-SENT/RECV/DONE` lines once its partition is
//! written — before it FINs, so a FIN means the worker is finished with
//! the mesh for good.
//!
//! `client` speaks the framed `cusp-serve` protocol (default server
//! `127.0.0.1:7421`): upload a `.bgr` graph into a tenant namespace,
//! request partitions/quality (the server caches and coalesces them),
//! and read graph or server statistics. `client partition` prints the
//! cache tier (`cache: cold|memory|disk|coalesced`) so scripts can
//! assert hit/miss behaviour.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::exit;

use cusp::{
    metrics, partition_with_policy, write_partition, CuspConfig, GraphSource, OutputFormat,
    PolicyKind,
};
use cusp_graph::gen::{kronecker, powerlaw, KroneckerConfig, PowerLawConfig};
use cusp_graph::{edgelist, read_bgr, write_bgr, GraphProps};
use cusp_net::recovery::{Action, Event, Exit, HostState, Supervisor};
use cusp_net::{Cluster, KillMode};
use cusp_xtrapulp::{xtrapulp_partition, XpConfig};

fn usage() -> ! {
    eprintln!(
        "usage:\n  cusp-part gen --kind kron|webcrawl|uniform --nodes N [--degree D] [--seed S] --out G.bgr\n  cusp-part convert --edgelist IN.txt --out G.bgr\n  cusp-part convert --metis IN.graph --out G.bgr\n  cusp-part props G.bgr\n  cusp-part partition --graph G.bgr --policy NAME --hosts K [--out-dir DIR]\n                      [--sync-rounds N] [--buffer BYTES] [--threads T] [--csc]\n                      [--chunk-edges E] [--trace OUT.json]\n                      [--crash-seed S] [--heartbeat-ms MS] [--checkpoint-dir DIR]\n  cusp-part launch --hosts K --graph G.bgr --policy NAME [--out-dir DIR]\n                   [--sync-rounds N] [--buffer BYTES] [--chunk-edges E] [--csc]\n                   [--kill-seed S [--kill-repeat]] [--max-restarts N]\n                   [--checkpoint-dir DIR]\n  cusp-part worker --host-id H --hosts K --graph G.bgr --policy NAME --nonce N --out-dir DIR [--det]\n                   [--listen ADDR] [--incarnation I] [--rejoin] [--announce-phases]\n  cusp-part inspect PART.part [PART.part ...]\n  cusp-part validate --graph G.bgr --parts DIR\n  cusp-part trace-check OUT.json\n  cusp-part apply --graph G.bgr (--batch B.txt | --events N [--seed S]) [--out G2.bgr] [--wal W.wal]\n  cusp-part wal-replay --graph G.bgr --wal W.wal [--out G2.bgr] [--policy NAME --hosts K]\n  cusp-part client upload --graph G.bgr --tenant T --name N [--addr HOST:PORT]\n  cusp-part client partition --tenant T --name N --policy P --hosts K [--chunk-edges E] [--addr A]\n  cusp-part client quality --tenant T --name N --policy P --hosts K [--chunk-edges E] [--addr A]\n  cusp-part client apply --tenant T --name N --batch B.txt [--addr A]\n  cusp-part client stats --tenant T --name N [--addr A]\n  cusp-part client list --tenant T [--addr A]\n  cusp-part client server-stats [--addr A]\npolicies (--policy NAME): {} (partition only: XTRAPULP)",
        PolicyKind::ALL.map(PolicyKind::name).join(" ")
    );
    exit(2)
}

/// Minimal `--flag value` parser; positional args collect separately.
fn parse_flags(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if matches!(name, "csc" | "det" | "rejoin" | "announce-phases" | "kill-repeat") {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            } else if i + 1 < args.len() {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                eprintln!("flag --{name} is missing its value");
                usage();
            }
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (flags, positional)
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let (flags, positional) = parse_flags(&args[1..]);
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
    let degree: f64 = flags
        .get("degree")
        .map(|s| parse_num(s, "degree"))
        .unwrap_or(16.0);
    let seed: u64 = flags.get("seed").map(|s| parse_num(s, "seed")).unwrap_or(42);
    let out = PathBuf::from(required(flags, "out"));
    let graph = match kind {
        "kron" => {
            let scale = (nodes.max(2) as f64).log2().ceil() as u32;
            println!("generating kronecker: scale {scale}, edge factor {degree}");
            kronecker(KroneckerConfig::graph500(scale, degree as u32, seed))
        }
        "webcrawl" => powerlaw(PowerLawConfig::webcrawl(nodes, degree, seed)),
        "uniform" => {
            cusp_graph::gen::uniform::erdos_renyi(nodes, (nodes as f64 * degree) as usize, seed)
        }
        other => {
            eprintln!("unknown generator '{other}'");
            usage()
        }
    };
    write_bgr(&out, &graph).expect("failed to write graph");
    println!("{}", GraphProps::compute(&graph).row(out.display().to_string().as_str()));
}

fn cmd_convert(flags: &HashMap<String, String>) {
    let out = PathBuf::from(required(flags, "out"));
    let (input, graph) = if let Some(path) = flags.get("edgelist") {
        let input = PathBuf::from(path);
        let file = std::fs::File::open(&input).expect("cannot open edge list");
        let graph =
            edgelist::read_edge_list(std::io::BufReader::new(file)).expect("parse failed");
        (input, graph)
    } else if let Some(path) = flags.get("metis") {
        let input = PathBuf::from(path);
        let file = std::fs::File::open(&input).expect("cannot open metis file");
        let graph =
            cusp_graph::metis::read_metis(std::io::BufReader::new(file)).expect("parse failed");
        (input, graph)
    } else {
        eprintln!("convert needs --edgelist or --metis");
        usage()
    };
    write_bgr(&out, &graph).expect("failed to write graph");
    println!(
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
        let p = cusp::read_partition(&PathBuf::from(path)).expect("cannot read partition");
        let fingerprint = cusp::part_fingerprint(&p);
        fingerprints.push(fingerprint);
        println!(
            "{path}: partition {}/{} of a {}-node / {}-edge graph ({:?})",
            p.part_id,
            p.num_parts,
            p.global_nodes,
            p.global_edges,
            p.class
        );
        println!(
            "  {} masters, {} mirrors, {} local edges{}",
            p.num_masters,
            p.num_mirrors(),
            p.num_local_edges(),
            if p.edge_data.is_some() { ", weighted" } else { "" }
        );
        println!("  fingerprint {fingerprint:016x}");
    }
    if fingerprints.len() > 1 {
        // `partition_fingerprint` of the files as one partitioning, which
        // they are when given in host order.
        println!(
            "merged fingerprint (in the order given): {:016x}",
            cusp::merge_part_fingerprints(&fingerprints)
        );
    }
}

fn cmd_validate(flags: &HashMap<String, String>) {
    let graph_path = PathBuf::from(required(flags, "graph"));
    let dir = PathBuf::from(required(flags, "parts"));
    let original = read_bgr(&graph_path).expect("cannot read graph");
    let mut parts = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cannot read parts dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "part"))
        .collect();
    entries.sort();
    for path in entries {
        parts.push(cusp::read_partition(&path).expect("cannot read partition"));
    }
    parts.sort_by_key(|p| p.part_id);
    if parts.is_empty() {
        eprintln!("no .part files in {}", dir.display());
        exit(1);
    }
    match metrics::validate_partitioning(&original, &parts) {
        Ok(()) => {
            let q = metrics::quality(&parts);
            println!(
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
        Ok(check) => println!(
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
    let graph = read_bgr(&PathBuf::from(path)).expect("cannot read graph");
    println!("{}", GraphProps::compute(&graph).row(path));
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
    let mut cfg = CuspConfig {
        sync_rounds: flags
            .get("sync-rounds")
            .map_or(defaults.sync_rounds, |s| parse_num(s, "sync rounds")),
        buffer_threshold: flags
            .get("buffer")
            .map_or(defaults.buffer_threshold, |s| parse_num(s, "buffer bytes")),
        threads_per_host: flags
            .get("threads")
            .map_or(defaults.threads_per_host, |s| parse_num(s, "threads")),
        output: if flags.contains_key("csc") {
            OutputFormat::Csc
        } else {
            OutputFormat::Csr
        },
        chunk_edges: flags
            .get("chunk-edges")
            .map(|s| parse_num(s, "chunk edges")),
        checkpoint_dir: flags.get("checkpoint-dir").map(PathBuf::from),
        announce_phases: flags.contains_key("announce-phases"),
        ..defaults
    };
    if flags.contains_key("det") {
        cfg = cusp::deterministic_for_comparison(cfg);
    }
    cfg
}

fn cmd_partition(flags: &HashMap<String, String>) {
    let graph_path = PathBuf::from(required(flags, "graph"));
    let policy_name = required(flags, "policy").to_ascii_uppercase();
    let hosts: usize = parse_num(required(flags, "hosts"), "host count");
    let crash_seed: Option<u64> = flags.get("crash-seed").map(|s| parse_num(s, "crash seed"));
    let mut cfg = cusp_cfg_from_flags(flags);
    if crash_seed.is_some() {
        // Recovery replays re-executed sends and dedupes them by sequence
        // number, which requires bit-reproducible re-execution.
        cfg.deterministic_sync = true;
        cfg.threads_per_host = 1;
    }

    let trace_path = flags.get("trace").map(PathBuf::from);
    let mut recovery = cusp_net::RecoveryOptions::default();
    if let Some(ms) = flags.get("heartbeat-ms") {
        recovery.heartbeat_timeout =
            std::time::Duration::from_millis(parse_num(ms, "heartbeat ms"));
    }
    let opts = cusp_net::ClusterOptions {
        trace: trace_path.as_ref().map(|_| cusp_net::TraceConfig::default()),
        crash: crash_seed.map(cusp_net::CrashPlan::seeded),
        recovery,
        ..cusp_net::ClusterOptions::default()
    };

    let source = GraphSource::File(graph_path.clone());
    let (parts, times_text, stats, trace, recovery_report) = if policy_name == "XTRAPULP" {
        let out = run_cluster_or_exit(hosts, opts, move |comm| {
            let r = xtrapulp_partition(comm, source.clone(), &XpConfig::default());
            (r.partition.dist_graph, r.partition_time)
        });
        let reported = out.results.iter().map(|r| r.1).max().unwrap();
        let parts: Vec<_> = out.results.into_iter().map(|r| r.0).collect();
        (
            parts,
            format!("partitioning (read + label propagation): {reported:.2?}"),
            out.stats,
            out.trace,
            out.recovery,
        )
    } else {
        let Some(kind) = PolicyKind::parse(&policy_name) else {
            eprintln!("unknown policy '{policy_name}'");
            usage()
        };
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
            format!(
                "read {:.2?} | master {:.2?} | edge-assign {:.2?} | alloc {:.2?} | construct {:.2?} | total {:.2?}\npeak resident source edges per host: {peak}",
                t.read, t.master, t.edge_assign, t.alloc, t.construct, t.total()
            ),
            out.stats,
            out.trace,
            out.recovery,
        )
    };

    println!("{times_text}");
    println!(
        "communication: {:.2} MB in {} messages",
        stats.grand_total_bytes() as f64 / 1e6,
        stats.grand_total_messages()
    );
    if let Some(r) = &recovery_report {
        println!(
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
        std::fs::write(path, &json).expect("failed to write trace file");
        println!(
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
        print!("{}", cusp::render_phase_summary(trace, &stats, &model));
    }

    // Validate against the original (in-memory reload) and report quality.
    let original = read_bgr(&graph_path).expect("cannot re-read graph");
    if cfg.output == OutputFormat::Csr {
        metrics::validate_partitioning(&original, &parts).expect("partitioning INVALID");
        println!("validation: ok");
    }
    let q = metrics::quality(&parts);
    println!(
        "quality: replication factor {:.3}, node balance {:.3}, edge balance {:.3}",
        q.replication_factor, q.node_balance, q.edge_balance
    );
    for p in &parts {
        println!(
            "  host {:>3}: {:>9} masters  {:>9} mirrors  {:>11} edges",
            p.part_id,
            p.num_masters,
            p.num_mirrors(),
            p.num_local_edges()
        );
    }

    if let Some(dir) = flags.get("out-dir") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("cannot create out dir");
        for p in &parts {
            let path = dir.join(format!("part-{:04}.part", p.part_id));
            write_partition(&path, p).expect("failed to write partition");
        }
        println!("wrote {} partition files to {}", parts.len(), dir.display());
    }
}

/// One host of a multi-process TCP partition run, spawned by
/// `cusp-part launch` (or any orchestrator speaking the same two-line
/// protocol: the worker prints `CUSP-WORKER-LISTEN <addr>` on stdout,
/// then reads `PEERS <addr0>,<addr1>,...` from stdin before building the
/// mesh). Writes `part-XXXX.part` into `--out-dir` and reports its
/// per-peer send/recv totals so the launcher can check conservation
/// across processes.
fn cmd_worker(flags: &HashMap<String, String>) {
    use std::io::{BufRead, Write};
    let host: usize = parse_num(required(flags, "host-id"), "host id");
    let hosts: usize = parse_num(required(flags, "hosts"), "host count");
    let graph_path = PathBuf::from(required(flags, "graph"));
    let policy_name = required(flags, "policy").to_ascii_uppercase();
    let Some(kind) = PolicyKind::parse(&policy_name) else {
        eprintln!("unknown policy '{policy_name}'");
        usage()
    };
    let nonce: u64 = parse_num(required(flags, "nonce"), "run nonce");
    let incarnation: u32 = flags
        .get("incarnation")
        .map(|s| parse_num(s, "incarnation"))
        .unwrap_or(0);
    let out_dir = PathBuf::from(required(flags, "out-dir"));
    let cfg = cusp_cfg_from_flags(flags);

    // Bind an ephemeral port first and announce it: the orchestrator
    // gathers every worker's address before any dial happens, so there is
    // no port race and no config file. A respawned worker (`--listen`)
    // instead pins its original address, so the peer list the survivors
    // hold — and their rejoin redials — stay valid across the restart.
    let listener = match flags.get("listen") {
        Some(addr) => bind_pinned(addr, host),
        None => std::net::TcpListener::bind("127.0.0.1:0").expect("cannot bind worker listener"),
    };
    let addr = listener.local_addr().expect("listener has no local addr");
    println!("CUSP-WORKER-LISTEN {addr}");
    std::io::stdout().flush().expect("cannot flush stdout");

    let mut line = String::new();
    std::io::stdin()
        .lock()
        .read_line(&mut line)
        .expect("cannot read PEERS line from stdin");
    let Some(list) = line.trim().strip_prefix("PEERS ") else {
        eprintln!("worker {host}: expected 'PEERS a,b,...' on stdin, got '{}'", line.trim());
        exit(2);
    };
    let peers: Vec<String> = list.split(',').map(str::to_string).collect();
    if peers.len() != hosts || host >= hosts {
        eprintln!(
            "worker {host}: got {} peer address(es) for a {hosts}-host cluster",
            peers.len()
        );
        exit(2);
    }

    let mut topts = cusp_net::TcpOptions::from_env();
    topts.rejoin = flags.contains_key("rejoin");
    let transport = match cusp_net::TcpTransport::establish_with(
        host,
        listener,
        &peers,
        nonce,
        incarnation,
        topts,
    ) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("worker {host}: transport establish failed: {e}");
            exit(1);
        }
    };

    // Torn-connection saboteur (kill mode `torn`): when the supervisor
    // writes TEAR on our stdin, emit a frame whose length prefix promises
    // far more bytes than follow and die mid-write — peers must classify
    // the partial frame as connection death, never as data.
    let mut saboteur = transport.saboteur();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut lock = stdin.lock();
        let mut line = String::new();
        loop {
            line.clear();
            match lock.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            if line.trim() == "TEAR" {
                if let Some(s) = saboteur.as_mut() {
                    let _ = s.write_all(&100u32.to_le_bytes());
                    let _ = s.write_all(&[4, 0xde, 0xad]);
                    let _ = s.flush();
                }
                std::process::abort();
            }
        }
    });

    // Everything this worker owes the launcher — the partition file, the
    // accounting rows, DONE — is produced *inside* the run, before the
    // transport FINs. A peer that has seen our FIN may leave its drain
    // window and drop its listener, so a FIN must certify that this
    // incarnation never needs the mesh again: a worker taken down after
    // its FIN is already DONE and is not respawned; one taken down before
    // it still finds every survivor draining, and rejoins.
    let source = GraphSource::File(graph_path);
    let run = Cluster::try_run_tcp(transport, cusp_net::ClusterOptions::default(), |comm| {
        let out = cusp::partition_with_policy(comm, source, kind, &cfg);

        std::fs::create_dir_all(&out_dir).expect("cannot create out dir");
        let dg = out.dist_graph;
        let path = out_dir.join(format!("part-{:04}.part", dg.part_id));
        write_partition(&path, &dg).expect("failed to write partition");

        // Per-pair totals summed over phases. The launcher joins this
        // host's SENT row with each receiver's RECV row: over TCP the two
        // sides are counted by different processes, so equality is a real
        // end-to-end conservation check, not bookkeeping tautology. (All
        // data traffic is over once the last phase's barrier has passed.)
        let stats = comm.stats().snapshot();
        for peer in (0..hosts).filter(|&p| p != host) {
            let (mut sb, mut sm, mut rb, mut rm) = (0u64, 0u64, 0u64, 0u64);
            for (_name, ph) in stats.iter() {
                sb += ph.bytes_between(host, peer);
                sm += ph.messages_between(host, peer);
                rb += ph.recv_bytes_between(peer, host);
                rm += ph.recv_messages_between(peer, host);
            }
            println!("CUSP-WORKER-SENT {peer} {sb} {sm}");
            println!("CUSP-WORKER-RECV {peer} {rb} {rm}");
        }
        println!("CUSP-WORKER-DONE {host}");
    });
    match run {
        // Counted after the drain, so peers re-admitted during it show.
        Ok(run) => println!("CUSP-WORKER-REJOINS {}", run.rejoins),
        Err(e) => {
            eprintln!("worker {host}: {}", cusp::PartitionError::from(e));
            exit(1);
        }
    }
}

/// Binds a specific listen address, retrying briefly: a respawned worker
/// reclaims its old port, which may linger for a moment after the previous
/// incarnation's death.
fn bind_pinned(addr: &str, host: usize) -> std::net::TcpListener {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match std::net::TcpListener::bind(addr) {
            Ok(l) => return l,
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    eprintln!("worker {host}: cannot rebind {addr}: {e}");
                    exit(1);
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
}

/// Orchestrates a real multi-process partition run: forks `--hosts`
/// worker processes of this same binary, wires their TCP mesh, merges
/// the partitions they write, checks cross-process conservation, and
/// compares the merged `partition_fingerprint` against an in-process
/// simulated run of the identical configuration. The comparison pins the
/// determinism contract (`deterministic_sync`, one worker thread), under
/// which the two transports must be bit-identical.
///
/// With `--kill-seed`, the launcher doubles as a chaos supervisor: a
/// seeded [`cusp_net::KillPlan`] picks one worker, a pipeline phase, and a
/// kill mode (SIGKILL / torn connection / SIGSTOP wedge); the launcher
/// takes the victim down when it announces that phase, then respawns it
/// (bounded by `--max-restarts`, exponential backoff) with the same listen
/// address and a bumped incarnation so it rejoins the surviving mesh. The
/// run must still end in fingerprint MATCH against the crash-free
/// simulator. `--kill-repeat` re-kills every incarnation at the same
/// point, which exhausts the restart budget and must produce a one-line
/// diagnostic and a non-zero exit — never a hang.
fn cmd_launch(flags: &HashMap<String, String>) {
    exit(launch_run(flags));
}

/// One worker process under supervision: the OS handles the launch driver
/// acts through. Where the host stands is the `Supervisor`'s to know.
struct Worker {
    child: std::process::Child,
    /// Kept open: the torn kill mode speaks TEAR over it.
    stdin: Option<std::process::ChildStdin>,
    addr: Option<String>,
    /// The last phase the running incarnation announced, for the watchdog.
    last_phase: Option<String>,
    stderr_path: PathBuf,
}

/// Kills and reaps every worker on drop, so no exit path — including the
/// early-return failure paths — leaks zombies.
struct Fleet {
    workers: Vec<Worker>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for w in &mut self.workers {
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
    }
}

/// What the reader thread of worker `host`'s stdout at `incarnation`
/// forwards: each line, then the end. A dead child is judged at `Eof`, not
/// when it is reaped: every line it printed has been handled by then, so
/// `done` — it printed `CUSP-WORKER-DONE` — cannot race a clean exit.
enum WorkerOut {
    Line(String),
    Eof { done: bool },
}
type WorkerEvent = (usize, u32, WorkerOut);

/// Base delay before a respawn; doubles per attempt.
const RESTART_BACKOFF: std::time::Duration = std::time::Duration::from_millis(100);

/// The launcher gives up after this long without a word from any worker.
/// A safety net, not a decision: it reports where every host stands.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(180);

fn launch_run(flags: &HashMap<String, String>) -> i32 {
    use std::io::Write;
    let hosts: usize = parse_num(required(flags, "hosts"), "host count");
    let graph_path = PathBuf::from(required(flags, "graph"));
    let policy_name = required(flags, "policy").to_ascii_uppercase();
    let Some(kind) = PolicyKind::parse(&policy_name) else {
        eprintln!("unknown policy '{policy_name}'");
        usage()
    };
    if hosts == 0 {
        eprintln!("launch needs at least one host");
        return 2;
    }
    let out_dir = flags
        .get("out-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("cusp-launch-{}", std::process::id())));
    std::fs::create_dir_all(&out_dir).expect("cannot create out dir");

    let kill_seed: Option<u64> = flags.get("kill-seed").map(|s| parse_num(s, "kill seed"));
    let kill_repeat = flags.contains_key("kill-repeat");
    let max_restarts: u32 = flags
        .get("max-restarts")
        .map(|s| parse_num(s, "max restarts"))
        .unwrap_or(3);
    let plan = kill_seed.map(|seed| {
        let d = cusp_net::KillPlan { seed, hosts }.decide(&cusp::PhaseTimes::NAMES);
        println!(
            "kill plan: seed {seed} -> host {victim}, {mode} @ {phase} (max {max_restarts} restart(s))",
            victim = d.victim,
            mode = d.mode.as_str(),
            phase = d.phase,
        );
        d
    });
    // How long a wedged victim stays SIGSTOPped before the SIGKILL: past
    // the peers' heartbeat timeout when that is CI-short, bounded at 2.5 s
    // so default 10 s timeouts don't stall the run (EOF detection covers
    // that configuration instead).
    let wedge_hold = {
        let t = cusp_net::TcpOptions::from_env().peer_timeout;
        t.min(std::time::Duration::from_secs(2)) + std::time::Duration::from_millis(500)
    };

    // A fresh nonce per launch: stale workers from a previous run (or a
    // concurrent launch on the same machine) fail the handshake instead
    // of corrupting the mesh.
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock before epoch")
        .as_nanos() as u64
        ^ ((std::process::id() as u64) << 32);

    let exe = std::env::current_exe().expect("cannot locate own executable");
    let (tx, rx) = std::sync::mpsc::channel::<WorkerEvent>();

    let spawn_worker = |h: usize, incarnation: u32, listen: Option<&str>, stderr_path: &Path| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("worker")
            .arg("--host-id")
            .arg(h.to_string())
            .arg("--hosts")
            .arg(hosts.to_string())
            .arg("--graph")
            .arg(&graph_path)
            .arg("--policy")
            .arg(&policy_name)
            .arg("--nonce")
            .arg(nonce.to_string())
            .arg("--out-dir")
            .arg(&out_dir)
            .arg("--det");
        for key in ["sync-rounds", "buffer", "chunk-edges", "checkpoint-dir"] {
            if let Some(v) = flags.get(key) {
                cmd.arg(format!("--{key}")).arg(v);
            }
        }
        if flags.contains_key("csc") {
            cmd.arg("--csc");
        }
        if kill_seed.is_some() {
            // Recovery needs the survivors' rejoin acceptors and the
            // victim's phase markers; both are inert otherwise.
            cmd.arg("--rejoin").arg("--announce-phases");
        }
        if incarnation > 0 {
            cmd.arg("--incarnation").arg(incarnation.to_string());
        }
        if let Some(addr) = listen {
            cmd.arg("--listen").arg(addr);
        }
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(stderr_path)
            .expect("cannot open worker stderr log");
        cmd.stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::from(log));
        let mut child = cmd.spawn().expect("cannot spawn worker process");
        let stdout = child.stdout.take().expect("worker stdout piped");
        let tx = tx.clone();
        std::thread::spawn(move || {
            use std::io::BufRead;
            let rdr = std::io::BufReader::new(stdout);
            let mut done = false;
            for line in rdr.lines() {
                let Ok(line) = line else { break };
                done |= line.starts_with("CUSP-WORKER-DONE");
                if tx.send((h, incarnation, WorkerOut::Line(line))).is_err() {
                    return;
                }
            }
            let _ = tx.send((h, incarnation, WorkerOut::Eof { done }));
        });
        child
    };

    let mut fleet = Fleet { workers: Vec::with_capacity(hosts) };
    for h in 0..hosts {
        let stderr_path = out_dir.join(format!("worker-{h}.stderr.log"));
        let _ = std::fs::remove_file(&stderr_path);
        let mut child = spawn_worker(h, 0, None, &stderr_path);
        let stdin = child.stdin.take();
        fleet.workers.push(Worker { child, stdin, addr: None, last_phase: None, stderr_path });
    }

    let fail = |fleet: &Fleet, h: usize, why: &str| -> i32 {
        eprintln!("cusp-part launch: {why}");
        stderr_tail(h, &fleet.workers[h].stderr_path);
        1
    };

    // The process driver of the one `Supervisor`. It detects — stdout
    // lines, and a death once the dead child's stdout is at EOF — and it
    // acts with the closures above; whether a death is a respawn, a lost
    // run or the end, when the kill plan fires and who is told the peer
    // list is decided by `Supervisor::step`. The accounting rows are not the
    // supervisor's business and are collected here.
    let recovery = cusp_net::RecoveryOptions {
        heartbeat_timeout: wedge_hold,
        max_restarts,
        restart_backoff: RESTART_BACKOFF,
    };
    let mut supervisor = Supervisor::new(hosts, recovery, plan.map(|d| (d, kill_repeat)));
    let mut sent = vec![vec![(0u64, 0u64); hosts]; hosts];
    let mut recv = vec![vec![(0u64, 0u64); hosts]; hosts];
    let mut rejoins_total = 0u64;
    let mut respawns = 0u32;
    let clock = std::time::Instant::now();
    let mut last_progress = clock.elapsed();

    'supervise: loop {
        // The one place the launcher blocks: until a worker says something,
        // the supervisor's next deadline, or the watchdog.
        let deadline = supervisor.next_deadline().map(std::time::Duration::from_millis);
        let wake = deadline.unwrap_or(std::time::Duration::MAX).min(last_progress + WATCHDOG);
        let msg = rx.recv_timeout(wake.saturating_sub(clock.elapsed())).ok();
        // How the child reaped this turn ended, for the messages below.
        let mut reaped = None;
        let event = match &msg {
            None if clock.elapsed() >= last_progress + WATCHDOG => {
                eprintln!("cusp-part launch: no worker progress within the watchdog window");
                for h in (0..hosts).filter(|&h| supervisor.state(h) != HostState::Done) {
                    let phase = fleet.workers[h].last_phase.as_ref();
                    let phase = phase.map(|p| format!(", last phase {p}")).unwrap_or_default();
                    eprintln!("  host {h}: {}{phase}", supervisor.state(h));
                    stderr_tail(h, &fleet.workers[h].stderr_path);
                }
                return 1;
            }
            None => Event::Tick,
            &Some((host, incarnation, ref out)) => {
                last_progress = clock.elapsed();
                let w = &mut fleet.workers[host];
                match out {
                    WorkerOut::Line(line) => {
                        let toks: Vec<&str> = line.split_whitespace().collect();
                        match toks.as_slice() {
                            ["CUSP-WORKER-LISTEN", addr] => {
                                // A respawn must come back where its peers
                                // will redial it.
                                if let Some(prev) = w.addr.as_ref().filter(|prev| prev != addr) {
                                    let why = format!(
                                        "respawned worker {host} rebound {addr}, expected {prev}"
                                    );
                                    return fail(&fleet, host, &why);
                                }
                                w.addr = Some(addr.to_string());
                                Event::Listening { host, incarnation }
                            }
                            ["CUSP-WORKER-PHASE", phase] => {
                                w.last_phase = Some(phase.to_string());
                                Event::PhaseReached { host, incarnation, phase }
                            }
                            [row @ ("CUSP-WORKER-SENT" | "CUSP-WORKER-RECV"), peer, bytes, msgs] => {
                                let table = if row.ends_with("SENT") { &mut sent } else { &mut recv };
                                table[host][parse_num::<usize>(peer, "peer")] =
                                    (parse_num(bytes, "bytes"), parse_num(msgs, "messages"));
                                continue;
                            }
                            ["CUSP-WORKER-REJOINS", n] => {
                                rejoins_total += parse_num::<u64>(n, "rejoin count");
                                continue;
                            }
                            _ => continue,
                        }
                    }
                    WorkerOut::Eof { done } => {
                        // Nothing more can come from it; the kill only makes
                        // sure the reap below cannot block.
                        let _ = w.child.kill();
                        let status = w.child.wait().expect("cannot reap worker");
                        // Under a kill plan any death past the listen line
                        // can be repaired by a respawn at the same address.
                        let how = match done {
                            true => Exit::Finished,
                            false if plan.is_some() && w.addr.is_some() => Exit::Crashed,
                            false => Exit::Failed,
                        };
                        reaped = Some((host, how, status));
                        Event::Exited { host, incarnation, how }
                    }
                }
            }
        };
        let actions = supervisor.step(clock.elapsed().as_millis() as u64, event);
        if let Some((host, _, status)) = reaped {
            if let HostState::Backoff { incarnation, .. } = supervisor.state(host) {
                println!(
                    "host {host} died ({status}); respawning incarnation {incarnation} in {:?}",
                    recovery.backoff(incarnation)
                );
            }
        }
        for action in actions {
            match action {
                Action::TellPeers { host } => {
                    let all: Vec<&str> = fleet
                        .workers
                        .iter()
                        .map(|w| w.addr.as_deref().expect("told once every host listens"))
                        .collect();
                    let line = format!("PEERS {}\n", all.join(","));
                    send_peers(&mut fleet.workers[host], &line);
                }
                Action::Kill { host, mode } => {
                    println!("killing host {host} ({}): {}", mode.as_str(), supervisor.state(host));
                    let w = &mut fleet.workers[host];
                    // Each softer method falls back to SIGKILL.
                    let soft = match mode {
                        KillMode::Kill => false,
                        KillMode::Torn => {
                            w.stdin.as_mut().is_some_and(|s| s.write_all(b"TEAR\n").is_ok())
                        }
                        // The hard kill follows when the supervisor says so
                        // (it lands on stopped processes too).
                        KillMode::Wedge => std::process::Command::new("kill")
                            .args(["-STOP", &w.child.id().to_string()])
                            .status()
                            .is_ok_and(|s| s.success()),
                    };
                    if !soft {
                        let _ = w.child.kill();
                    }
                }
                // Same address, bumped incarnation.
                Action::Spawn { host, incarnation } => {
                    let w = &mut fleet.workers[host];
                    let addr = w.addr.clone().expect("a respawn has listened");
                    let mut child = spawn_worker(host, incarnation, Some(&addr), &w.stderr_path);
                    w.stdin = child.stdin.take();
                    w.child = child;
                    w.last_phase = None;
                    respawns += 1;
                }
                Action::Finish => break 'supervise,
                Action::Fail(cusp_net::ClusterError::HostLost { host, restarts }) => {
                    let why = match reaped.expect("only a death loses a host") {
                        (_, Exit::Crashed, _) => {
                            format!("host {host} lost: exhausted {restarts} restart attempt(s)")
                        }
                        (_, _, status) => format!("worker {host} failed ({status})"),
                    };
                    return fail(&fleet, host, &why);
                }
            }
        }
    }

    let mut conserved = true;
    for s in 0..hosts {
        for d in (0..hosts).filter(|&d| d != s) {
            if sent[s][d] != recv[d][s] {
                eprintln!(
                    "conservation violated {s}->{d}: sent {:?} != received {:?}",
                    sent[s][d], recv[d][s]
                );
                conserved = false;
            }
        }
    }
    let wire_bytes: u64 = sent.iter().flatten().map(|&(b, _)| b).sum();
    let wire_msgs: u64 = sent.iter().flatten().map(|&(_, m)| m).sum();
    println!(
        "cross-process conservation: {} ({:.2} MB in {} messages over TCP)",
        if conserved { "ok" } else { "VIOLATED" },
        wire_bytes as f64 / 1e6,
        wire_msgs
    );
    if let Some(d) = &plan {
        println!(
            "recovery: {} kill(s) ({} @ {}, host {}), {respawns} respawn(s), {rejoins_total} peer rejoin(s)",
            supervisor.kills(),
            d.mode.as_str(),
            d.phase,
            d.victim
        );
    }

    // Merge the partitions the workers wrote and fingerprint them.
    let mut parts = Vec::with_capacity(hosts);
    for h in 0..hosts {
        let path = out_dir.join(format!("part-{h:04}.part"));
        parts.push(cusp::read_partition(&path).expect("cannot read worker partition"));
    }
    let tcp_parts: Vec<u64> = parts.iter().map(cusp::part_fingerprint).collect();
    let tcp_fp = cusp::merge_part_fingerprints(&tcp_parts);

    // The oracle: the in-process simulator over the identical config,
    // crash-free (so a recovered run must land on the crash-free answer).
    let mut cfg = cusp::deterministic_for_comparison(cusp_cfg_from_flags(flags));
    cfg.checkpoint_dir = None;
    let source = GraphSource::File(graph_path.clone());
    let cfg2 = cfg.clone();
    let sim = run_cluster_or_exit(hosts, cusp_net::ClusterOptions::default(), move |comm| {
        partition_with_policy(comm, source.clone(), kind, &cfg2).dist_graph
    });
    let sim_parts: Vec<u64> = sim.results.iter().map(cusp::part_fingerprint).collect();
    let sim_fp = cusp::merge_part_fingerprints(&sim_parts);

    if cfg.output == OutputFormat::Csr {
        let original = read_bgr(&graph_path).expect("cannot re-read graph");
        metrics::validate_partitioning(&original, &parts).expect("partitioning INVALID");
        println!("validation: ok");
    }
    // Per host first, so that a mismatch names the host that differs.
    for (h, (tcp, sim)) in tcp_parts.iter().zip(&sim_parts).enumerate() {
        let verdict = if tcp == sim { "" } else { " DIFFERS" };
        println!("  host {h}: tcp=0x{tcp:016x} sim=0x{sim:016x}{verdict}");
    }
    println!(
        "fingerprint tcp=0x{tcp_fp:016x} sim=0x{sim_fp:016x} {}",
        if tcp_fp == sim_fp { "MATCH" } else { "MISMATCH" }
    );
    if tcp_fp != sim_fp || !conserved {
        return 1;
    }
    0
}

/// Hands a worker the full peer list over its stdin, keeping the handle
/// open afterwards (the torn kill mode needs it).
fn send_peers(w: &mut Worker, line: &str) {
    use std::io::Write;
    let stdin = w.stdin.as_mut().expect("worker stdin piped");
    // A failed write means the worker is dead; its stdout EOF says so.
    let _ = stdin.write_all(line.as_bytes()).and_then(|()| stdin.flush());
}

/// Prints the last lines of a dead worker's captured stderr, so the panic
/// message is not lost inside the log file.
fn stderr_tail(h: usize, path: &Path) {
    let Ok(text) = std::fs::read_to_string(path) else { return };
    let lines: Vec<&str> = text.lines().collect();
    let tail = &lines[lines.len().saturating_sub(15)..];
    if tail.is_empty() {
        return;
    }
    eprintln!("--- worker {h} stderr tail ({}):", path.display());
    for l in tail {
        eprintln!("  {l}");
    }
}

/// Reads a `.bgr` graph, picking up per-edge weights when present.
fn read_graph_any(path: &Path) -> (cusp_graph::Csr, Option<Vec<u32>>) {
    match cusp_graph::read_bgr_weighted(path) {
        Ok((g, w)) => (g, Some(w)),
        Err(_) => (read_bgr(path).expect("cannot read graph"), None),
    }
}

/// Parses the text batch format: one event per line, `#` comments.
///
/// ```text
/// add 3 17        # unweighted edge 3 -> 17
/// add 3 17 9      # weighted edge (weighted graphs only)
/// remove 5 2
/// setw 3 17 12
/// ```
fn parse_batch_text(text: &str) -> Vec<cusp_graph::GraphEvent> {
    use cusp_graph::GraphEvent;
    let mut events = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let ev = match toks.as_slice() {
            ["add", s, d] => GraphEvent::AddEdge {
                src: parse_num(s, "src"),
                dst: parse_num(d, "dst"),
                weight: None,
            },
            ["add", s, d, w] => GraphEvent::AddEdge {
                src: parse_num(s, "src"),
                dst: parse_num(d, "dst"),
                weight: Some(parse_num(w, "weight")),
            },
            ["remove", s, d] => GraphEvent::RemoveEdge {
                src: parse_num(s, "src"),
                dst: parse_num(d, "dst"),
            },
            ["setw", s, d, w] => GraphEvent::SetWeight {
                src: parse_num(s, "src"),
                dst: parse_num(d, "dst"),
                weight: parse_num(w, "weight"),
            },
            _ => {
                eprintln!("batch line {}: cannot parse '{}'", no + 1, raw.trim());
                exit(2)
            }
        };
        events.push(ev);
    }
    events
}

/// A mutation batch from `--batch FILE` or the seeded generator
/// (`--events N [--seed S]`).
fn batch_from_flags(
    flags: &HashMap<String, String>,
    graph: &cusp_graph::Csr,
    weighted: bool,
) -> Vec<cusp_graph::GraphEvent> {
    if let Some(path) = flags.get("batch") {
        let text = std::fs::read_to_string(path).expect("cannot read batch file");
        parse_batch_text(&text)
    } else if let Some(n) = flags.get("events") {
        let seed: u64 = flags.get("seed").map(|s| parse_num(s, "seed")).unwrap_or(42);
        cusp_graph::wal::seeded_batch(graph, weighted, seed, parse_num(n, "event count"))
    } else {
        eprintln!("apply needs --batch FILE or --events N");
        usage()
    }
}

fn cmd_apply(flags: &HashMap<String, String>) {
    let graph_path = PathBuf::from(required(flags, "graph"));
    let (graph, weights) = read_graph_any(&graph_path);
    let batch = batch_from_flags(flags, &graph, weights.is_some());
    if batch.is_empty() {
        println!("empty batch: nothing to do");
        return;
    }
    let old_fp = cusp::graph_fingerprint(&graph, weights.as_deref());
    let applied = graph.apply_batch(weights.as_deref(), &batch).unwrap_or_else(|e| {
        eprintln!("batch rejected: {e}");
        exit(1)
    });
    let new_fp = cusp::graph_fingerprint(&applied.graph, applied.weights.as_deref());
    println!(
        "applied {} event(s): {} edge(s) added, {} removed, {} reweighted",
        batch.len(),
        applied.added,
        applied.removed,
        applied.reweighted
    );
    println!("dirty vertices: {}", applied.dirty.len());
    println!(
        "graph: {} -> {} nodes, {} -> {} edges",
        graph.num_nodes(),
        applied.graph.num_nodes(),
        graph.num_edges(),
        applied.graph.num_edges()
    );
    println!("graph fingerprint: {old_fp:016x} -> {new_fp:016x}");
    if let Some(wal_path) = flags.get("wal") {
        let wal = cusp_graph::Wal::new(PathBuf::from(wal_path));
        wal.append(&batch).expect("failed to append batch to WAL");
        let total = wal.load().map(|b| b.len()).unwrap_or(0);
        println!("journaled to {wal_path} ({total} batch(es) total)");
    }
    if let Some(out) = flags.get("out") {
        let out = PathBuf::from(out);
        match &applied.weights {
            Some(w) => cusp_graph::write_bgr_weighted(&out, &applied.graph, w),
            None => write_bgr(&out, &applied.graph),
        }
        .expect("failed to write mutated graph");
        println!("wrote mutated graph to {}", out.display());
    }
}

fn cmd_wal_replay(flags: &HashMap<String, String>) {
    use std::sync::Arc;

    let graph_path = PathBuf::from(required(flags, "graph"));
    let wal_path = required(flags, "wal");
    let (mut graph, mut weights) = read_graph_any(&graph_path);
    let wal = cusp_graph::Wal::new(PathBuf::from(wal_path));
    let batches = wal.load().unwrap_or_else(|e| {
        eprintln!("cannot load WAL {wal_path}: {e}");
        exit(1)
    });
    println!("{}: {} batch(es)", wal_path, batches.len());

    let checker = flags.get("policy").map(|p| {
        let name = p.to_ascii_uppercase();
        let Some(kind) = PolicyKind::parse(&name) else {
            eprintln!("unknown policy '{name}'");
            usage()
        };
        let hosts: usize =
            parse_num(flags.get("hosts").map(String::as_str).unwrap_or("4"), "host count");
        (kind, hosts)
    });
    // The delta/full equivalence check rides on the determinism contract.
    let cfg = CuspConfig {
        deterministic_sync: true,
        threads_per_host: 1,
        ..CuspConfig::default()
    };
    let source_of = |g: &cusp_graph::Csr, w: &Option<Vec<u32>>| match w {
        Some(w) => GraphSource::MemoryWeighted(Arc::new(g.clone()), Arc::new(w.clone())),
        None => GraphSource::Memory(Arc::new(g.clone())),
    };
    let mut prevs = checker.map(|(kind, hosts)| {
        let src = source_of(&graph, &weights);
        let cfg = cfg.clone();
        Cluster::run(hosts, move |comm| partition_with_policy(comm, src.clone(), kind, &cfg))
            .results
    });

    for (i, batch) in batches.iter().enumerate() {
        let applied = graph.apply_batch(weights.as_deref(), batch).unwrap_or_else(|e| {
            eprintln!("batch {i} rejected: {e}");
            exit(1)
        });
        println!(
            "batch {i}: {} event(s), {} dirty vertice(s), {} -> {} edges",
            batch.len(),
            applied.dirty.len(),
            graph.num_edges(),
            applied.graph.num_edges()
        );
        if let (Some(prev), Some((kind, hosts))) = (&prevs, checker) {
            let src = source_of(&applied.graph, &applied.weights);
            let delta = {
                let (src, cfg) = (src.clone(), cfg.clone());
                Cluster::run(hosts, move |comm| {
                    cusp::partition_delta_with_policy(
                        comm,
                        src.clone(),
                        kind,
                        &cfg,
                        &prev[comm.host()],
                        batch,
                    )
                })
                .results
            };
            let full = {
                let cfg = cfg.clone();
                Cluster::run(hosts, move |comm| {
                    partition_with_policy(comm, src.clone(), kind, &cfg)
                })
                .results
            };
            let delta_parts: Vec<_> = delta.iter().map(|o| o.dist_graph.clone()).collect();
            let full_parts: Vec<_> = full.iter().map(|o| o.dist_graph.clone()).collect();
            let violations = cusp::check_delta_equivalence(
                &applied.graph,
                applied.weights.as_deref(),
                &delta_parts,
                &full_parts,
                true,
            );
            if !violations.is_empty() {
                eprintln!("batch {i}: delta/full DIVERGENCE:");
                for v in &violations {
                    eprintln!("  {v:?}");
                }
                exit(1);
            }
            let reused: u64 = delta.iter().map(|o| o.reused_edges).sum();
            println!(
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

    println!(
        "final graph: {} nodes, {} edges, fingerprint {:016x}",
        graph.num_nodes(),
        graph.num_edges(),
        cusp::graph_fingerprint(&graph, weights.as_deref())
    );
    if let Some(out) = flags.get("out") {
        let out = PathBuf::from(out);
        match &weights {
            Some(w) => cusp_graph::write_bgr_weighted(&out, &graph, w),
            None => write_bgr(&out, &graph),
        }
        .expect("failed to write replayed graph");
        println!("wrote replayed graph to {}", out.display());
    }
}

fn cmd_client(positional: &[String], flags: &HashMap<String, String>) {
    use cusp_serve::{Client, Response};

    let Some(verb) = positional.first() else {
        eprintln!("client needs a verb: upload|partition|quality|apply|stats|list|server-stats");
        usage()
    };
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7421");
    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to cusp-serve at {addr}: {e}");
        exit(1)
    });
    let fail = |e: cusp_serve::ClientError| -> ! {
        eprintln!("request failed: {e}");
        exit(1)
    };

    match verb.as_str() {
        "upload" => {
            let tenant = required(flags, "tenant");
            let name = required(flags, "name");
            let path = PathBuf::from(required(flags, "graph"));
            // Weighted .bgr files carry their weights along; plain ones
            // upload structure only.
            let (graph, weights) = match cusp_graph::read_bgr_weighted(&path) {
                Ok((g, w)) => (g, Some(w)),
                Err(_) => (read_bgr(&path).expect("cannot read graph"), None),
            };
            let (fp, nodes, edges) = client
                .upload_graph(tenant, name, &graph, weights.as_deref())
                .unwrap_or_else(|e| fail(e));
            println!("uploaded {tenant}/{name}: {nodes} nodes, {edges} edges");
            println!("graph fingerprint: {fp:016x}");
        }
        "partition" => {
            let resp = client
                .partition(
                    required(flags, "tenant"),
                    required(flags, "name"),
                    required(flags, "policy"),
                    parse_num(flags.get("hosts").map(String::as_str).unwrap_or("4"), "hosts"),
                    flags.get("chunk-edges").map(|s| parse_num(s, "chunk size")).unwrap_or(0),
                )
                .unwrap_or_else(|e| fail(e));
            let Response::Partitioned {
                fingerprint,
                tier,
                wall_micros,
                replication_factor,
                edge_balance,
            } = resp
            else {
                unreachable!("client.partition returns Partitioned")
            };
            println!("partition fingerprint: {fingerprint:016x}");
            println!("cache: {}", tier.label());
            println!(
                "wall: {:.3} ms, replication factor {replication_factor:.3}, edge balance {edge_balance:.3}",
                wall_micros as f64 / 1000.0
            );
        }
        "quality" => {
            let resp = client
                .quality(
                    required(flags, "tenant"),
                    required(flags, "name"),
                    required(flags, "policy"),
                    parse_num(flags.get("hosts").map(String::as_str).unwrap_or("4"), "hosts"),
                    flags.get("chunk-edges").map(|s| parse_num(s, "chunk size")).unwrap_or(0),
                )
                .unwrap_or_else(|e| fail(e));
            let Response::QualityReport {
                fingerprint,
                tier,
                replication_factor,
                node_balance,
                edge_balance,
                total_mirrors,
            } = resp
            else {
                unreachable!("client.quality returns QualityReport")
            };
            println!("partition fingerprint: {fingerprint:016x}");
            println!("cache: {}", tier.label());
            println!(
                "replication factor {replication_factor:.3}, node balance {node_balance:.3}, edge balance {edge_balance:.3}, {total_mirrors} mirrors"
            );
        }
        "apply" => {
            let text = std::fs::read_to_string(required(flags, "batch"))
                .expect("cannot read batch file");
            let batch = parse_batch_text(&text);
            let resp = client
                .apply(required(flags, "tenant"), required(flags, "name"), &batch)
                .unwrap_or_else(|e| fail(e));
            let Response::Applied {
                old_fingerprint,
                new_fingerprint,
                dirty_vertices,
                nodes,
                edges,
            } = resp
            else {
                unreachable!("client.apply returns Applied")
            };
            println!("applied {} event(s); {dirty_vertices} dirty vertice(s)", batch.len());
            println!("graph fingerprint: {old_fingerprint:016x} -> {new_fingerprint:016x}");
            println!("now {nodes} nodes, {edges} edges");
        }
        "stats" => {
            let resp = client
                .graph_stats(required(flags, "tenant"), required(flags, "name"))
                .unwrap_or_else(|e| fail(e));
            let Response::GraphStatsReport { fingerprint, nodes, edges, max_degree, weighted } =
                resp
            else {
                unreachable!("client.graph_stats returns GraphStatsReport")
            };
            println!(
                "{nodes} nodes, {edges} edges, max out-degree {max_degree}{}",
                if weighted { ", weighted" } else { "" }
            );
            println!("graph fingerprint: {fingerprint:016x}");
        }
        "list" => {
            let rows = client.list_graphs(required(flags, "tenant")).unwrap_or_else(|e| fail(e));
            if rows.is_empty() {
                println!("no graphs");
            }
            for (name, nodes, edges) in rows {
                println!("{name}: {nodes} nodes, {edges} edges");
            }
        }
        "server-stats" => {
            let resp = client.server_stats().unwrap_or_else(|e| fail(e));
            let Response::ServerStatsReport {
                requests,
                jobs_run,
                mem_hits,
                disk_hits,
                coalesced,
                tenants,
                graphs,
            } = resp
            else {
                unreachable!("client.server_stats returns ServerStatsReport")
            };
            println!("requests: {requests}");
            println!("jobs run: {jobs_run}");
            println!("cache hits: {mem_hits} memory, {disk_hits} disk, {coalesced} coalesced");
            println!("tenants: {tenants}, resident graphs: {graphs}");
        }
        other => {
            eprintln!("unknown client verb '{other}'");
            usage()
        }
    }
}
