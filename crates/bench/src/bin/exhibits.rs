//! Every table and figure of the paper's evaluation (§V), one subcommand
//! each, plus the supplementary exhibits:
//!
//! ```text
//! exhibits <exhibit>|all [--scale small|medium|large] [--full]
//! ```
//!
//! `all` runs every exhibit in [`EXHIBITS`] order. Each prints its table
//! and writes `results/<slug>.csv` (see `DESIGN.md` §3 for the index and
//! `EXPERIMENTS.md` for paper-vs-measured).
//!
//! The inputs are loaded once. Every default-config run is computed at
//! most once per process, in [`Memo`]: a partition keyed by (input, hosts,
//! partitioner), an application run by (input, hosts, partitioner, app).
//! Most exhibits are row formatters over those two calls; the sweeps over
//! a non-default [`CuspConfig`] (Fig. 7, Tables VI/VII, the ablations)
//! call the runner directly. Every partition a row reads has passed the
//! partition oracle first ([`verify_run`]); a violation ends the process
//! with exit status 1.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cusp::{CuspConfig, DistGraph, GraphSource, PolicyKind};
use cusp_bench::inputs::{standard_inputs, Input, Scale, DRILLDOWN};
use cusp_bench::report::{geomean, megabytes, secs, warn_if_debug, Table};
use cusp_bench::runner::{
    run_app, run_partition, run_partition_opts, verify_run, AppKind, AppRun, PartitionRun,
    Partitioner,
};
use cusp_bench::{HOST_COUNTS, MAX_HOSTS};
use cusp_graph::degree::{in_degree_histogram, out_degree_histogram, powerlaw_alpha};
use cusp_graph::{Csr, GraphProps};
use cusp_net::{ClusterOptions, NetworkModel, TraceConfig};

/// One exhibit: prints its table(s) and writes its CSV(s).
type Exhibit = fn(&Ctx, &mut Memo);

/// The exhibits, in the order `all` runs them.
const EXHIBITS: [(&str, Exhibit); 16] = [
    ("table3_inputs", table3_inputs),
    ("fig3_partition_time", fig3_partition_time),
    ("fig4_phase_breakdown", fig4_phase_breakdown),
    ("table5_comm_volume", table5_comm_volume),
    ("fig5_fig6_app_exec", fig5_fig6_app_exec),
    ("fig7_buffer_size", fig7_buffer_size),
    ("table6_sync_rounds", table6_sync_rounds),
    ("table7_sync_quality", table7_sync_quality),
    ("table4_speedups", table4_speedups),
    ("ablation_opts", ablation_opts),
    ("input_fidelity", input_fidelity),
    ("quality_metrics", quality_metrics),
    ("scaling_hosts", scaling_hosts),
    ("model_sensitivity", model_sensitivity),
    ("twod_cuts", twod_cuts),
    ("fig2_timeline", fig2_timeline),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        let names: Vec<&str> = EXHIBITS.iter().map(|(name, _)| *name).collect();
        format!(
            "usage: exhibits <exhibit>|all [--scale small|medium|large] [--full]\nexhibits: {}",
            names.join(" ")
        )
    };
    let scale = Scale::select(&args, std::env::var("CUSP_SCALE").ok().as_deref())
        .unwrap_or_else(|e| fail(e));
    let chosen: Vec<_> = match args.first().map(String::as_str) {
        Some("all") => EXHIBITS.to_vec(),
        Some(name) => match EXHIBITS.iter().find(|(n, _)| *n == name) {
            Some(&exhibit) => vec![exhibit],
            None => fail(format!("unknown exhibit '{name}'\n{}", usage())),
        },
        None => fail(usage()),
    };
    warn_if_debug();
    let ctx = Ctx {
        scale,
        full: args.iter().any(|a| a == "--full"),
        inputs: standard_inputs(scale),
    };
    let mut memo = Memo::default();
    for (_, exhibit) in chosen {
        exhibit(&ctx, &mut memo);
    }
    eprintln!(
        "oracle: checked {} partitions in {:.2} s",
        memo.checked, memo.check_secs
    );
}

/// Prints a usage error and exits 2.
fn fail(msg: String) -> ! {
    eprintln!("exhibits: {msg}");
    std::process::exit(2)
}

/// What every exhibit reads: the scale, `--full`, and the loaded inputs.
struct Ctx {
    scale: Scale,
    full: bool,
    inputs: Vec<Input>,
}

impl Ctx {
    fn input(&self, name: &str) -> &Input {
        self.inputs
            .iter()
            .find(|i| i.name == name)
            .expect("a standard input")
    }

    fn drilldown(&self) -> impl Iterator<Item = &Input> {
        DRILLDOWN.iter().map(|name| self.input(name))
    }
}

/// The default-config runs computed so far, and the oracle's bill.
#[derive(Default)]
struct Memo {
    partitions: HashMap<(&'static str, usize, Partitioner), PartitionRun>,
    apps: HashMap<(&'static str, usize, Partitioner, AppKind), AppRun>,
    symmetrized: HashMap<&'static str, Arc<Csr>>,
    checked: usize,
    check_secs: f64,
}

impl Memo {
    /// The default-config partition of `input` from its file on `hosts`
    /// hosts, computed on first use. Each computation prints one
    /// `memo: partition …` line on stderr.
    fn partition(&mut self, input: &Input, hosts: usize, p: Partitioner) -> &PartitionRun {
        let key = (input.name, hosts, p);
        if !self.partitions.contains_key(&key) {
            let label = format!("partition {} hosts={hosts} {}", input.name, p.name());
            eprintln!("memo: {label}");
            let source = GraphSource::File(input.path.clone());
            let out = run_partition(source, hosts, p, &CuspConfig::default());
            let run = self.check(input, &label, out);
            self.partitions.insert(key, run);
        }
        &self.partitions[&key]
    }

    /// The default-config run of `app` over a fresh partition of `input`
    /// (symmetrized for cc, paper §V-A), computed on first use. Each
    /// computation prints one `memo: app …` line on stderr.
    fn app(&mut self, input: &Input, hosts: usize, p: Partitioner, app: AppKind) -> AppRun {
        let symmetrized = &mut self.symmetrized;
        *self
            .apps
            .entry((input.name, hosts, p, app))
            .or_insert_with(|| {
                eprintln!(
                    "memo: app {} hosts={hosts} {} {}",
                    input.name,
                    p.name(),
                    app.name()
                );
                let graph = app_graph(symmetrized, input, app);
                run_app(graph, hosts, p, app, &CuspConfig::default())
            })
    }

    /// Runs the partition oracle over `parts` (outside the timed run) and
    /// returns the run's summary, dropping the partitions; on a violation
    /// names the run and every violation, and exits 1.
    fn check(
        &mut self,
        input: &Input,
        label: &str,
        out: (PartitionRun, Vec<DistGraph>),
    ) -> PartitionRun {
        let (run, parts) = out;
        let start = Instant::now();
        let violations = verify_run(&input.graph, &run, &parts);
        self.check_secs += start.elapsed().as_secs_f64();
        self.checked += 1;
        if !violations.is_empty() {
            eprintln!("{label}: {} oracle violation(s):", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
        run
    }
}

/// The graph `app` runs on: `input`'s own, or for cc its symmetrization
/// (paper §V-A), built once per input.
fn app_graph<'a>(
    symmetrized: &'a mut HashMap<&'static str, Arc<Csr>>,
    input: &'a Input,
    app: AppKind,
) -> &'a Arc<Csr> {
    match app {
        AppKind::Cc => symmetrized
            .entry(input.name)
            .or_insert_with(|| Arc::new(input.graph.symmetrize())),
        _ => &input.graph,
    }
}

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Table III: the evaluation inputs and their properties (the mapping to
/// the paper's graphs is in `crates/bench/src/inputs.rs`).
fn table3_inputs(ctx: &Ctx, _: &mut Memo) {
    println!("scale: {:?}\n", ctx.scale);
    let mut table = Table::new(
        "Table III — input (directed) graphs and their properties",
        &[
            "graph",
            "|V|",
            "|E|",
            "|E|/|V|",
            "maxOutDeg",
            "maxInDeg",
            "disk (MB)",
        ],
    );
    for input in &ctx.inputs {
        let p = GraphProps::compute(&input.graph);
        table.row(vec![
            input.name.to_string(),
            p.nodes.to_string(),
            p.edges.to_string(),
            format!("{:.1}", p.avg_degree),
            p.max_out_degree.to_string(),
            p.max_in_degree.to_string(),
            format!("{:.1}", p.disk_bytes as f64 / 1e6),
        ]);
    }
    table.emit("table3_inputs");
}

/// Figure 3: partitioning time of XtraPulp and the six CuSP policies
/// across inputs and host counts. Claim: every CuSP policy partitions
/// faster than XtraPulp, the ContiguousEB policies (EEC/HVC/CVC) far
/// ahead and EEC, which needs no communication, as the floor.
fn fig3_partition_time(ctx: &Ctx, memo: &mut Memo) {
    let mut table = Table::new(
        "Figure 3 — partitioning time (seconds: wall + α–β modeled network)",
        &[
            "graph",
            "hosts",
            "partitioner",
            "wall(s)",
            "net(s)",
            "combined(s)",
        ],
    );
    for input in &ctx.inputs {
        for hosts in HOST_COUNTS {
            for p in Partitioner::figure3_set() {
                let run = memo.partition(input, hosts, p);
                table.row(vec![
                    input.name.to_string(),
                    hosts.to_string(),
                    p.name().to_string(),
                    secs(run.reported),
                    f3(run.modeled_net),
                    f3(run.combined_secs()),
                ]);
            }
        }
    }
    table.emit("fig3_partition_time");
}

/// Figure 4: time per partitioning phase per policy on the drill-down
/// inputs at the max host count. Claims: EEC is dominated by reading;
/// HVC/CVC by edge assignment + construction (HVC more than CVC); the
/// FennelEB policies (FEC/GVC/SVC) by master assignment.
fn fig4_phase_breakdown(ctx: &Ctx, memo: &mut Memo) {
    let mut table = Table::new(
        &format!("Figure 4 — phase breakdown at {MAX_HOSTS} hosts (seconds, max across hosts)"),
        &[
            "graph",
            "policy",
            "read",
            "master",
            "edgeAssign",
            "alloc",
            "construct",
            "total",
        ],
    );
    let mut shares = Table::new(
        &format!("Figure 4 — phase shares at {MAX_HOSTS} hosts (% of partitioning time)"),
        &[
            "graph",
            "policy",
            "read",
            "master",
            "edgeAssign",
            "alloc",
            "construct",
        ],
    );
    for input in ctx.drilldown() {
        for kind in cusp::policies::ALL_POLICIES {
            let run = memo.partition(input, MAX_HOSTS, Partitioner::Cusp(kind));
            let times = run.times();
            table.row(vec![
                input.name.to_string(),
                kind.name().to_string(),
                // Real read wall time plus modeled disk time (benchmark
                // files are page-cached; Lustre reads would not be).
                f3(times.read.as_secs_f64() + run.modeled_disk),
                secs(times.master),
                secs(times.edge_assign),
                secs(times.alloc),
                secs(times.construct),
                f3(times.total().as_secs_f64() + run.modeled_disk),
            ]);
            // The normalized view the paper's stacked bars show.
            let mut row = vec![input.name.to_string(), kind.name().to_string()];
            row.extend(
                times
                    .breakdown()
                    .iter()
                    .map(|(_, _, share)| format!("{:.1}%", share * 100.0)),
            );
            shares.row(row);
        }
    }
    table.emit("fig4_phase_breakdown");
    shares.emit("fig4_phase_shares");
}

/// Table V: bytes sent in edge assignment and construction, CVC vs HVC,
/// at the max host count. Claims: HVC sends more than CVC and talks to
/// (nearly) all hosts, while CVC confines its partners to its grid line.
fn table5_comm_volume(ctx: &Ctx, memo: &mut Memo) {
    let mut table = Table::new(
        &format!(
            "Table V — data volume in edge assignment / construction at {MAX_HOSTS} hosts (MB)"
        ),
        &[
            "graph",
            "policy",
            "assign (MB)",
            "construct (MB)",
            "max fanout",
        ],
    );
    for input in &ctx.inputs {
        for kind in [PolicyKind::Cvc, PolicyKind::Hvc] {
            let stats = &memo
                .partition(input, MAX_HOSTS, Partitioner::Cusp(kind))
                .stats;
            let bytes = |phase| stats.phase(phase).map_or(0, |p| p.total_bytes());
            let fanout = stats.phase("construct").map_or(0, |p| {
                (0..MAX_HOSTS).map(|h| p.fanout(h)).max().unwrap_or(0)
            });
            table.row(vec![
                input.name.to_string(),
                kind.name().to_string(),
                megabytes(bytes("edge_assign")),
                megabytes(bytes("construct")),
                fanout.to_string(),
            ]);
        }
    }
    table.emit("table5_comm_volume");
}

/// Figures 5 and 6: bfs, cc, pr and sssp over each partitioner's
/// partitions at the paper's 64 and 128 hosts (our 8 and 16). Claims: the
/// edge-cuts (XtraPulp, EEC, FEC) are comparable; CVC and SVC win in
/// several cases thanks to restricted communication; the general
/// vertex-cuts (HVC, GVC) generally lose.
fn fig5_fig6_app_exec(ctx: &Ctx, memo: &mut Memo) {
    let mut table = Table::new(
        "Figures 5 & 6 — application execution time over each policy's partitions",
        &[
            "hosts",
            "graph",
            "app",
            "partitioner",
            "wall(s)",
            "net(s)",
            "combined(s)",
            "rounds",
            "comm(MB)",
        ],
    );
    for hosts in [8, 16] {
        for input in &ctx.inputs {
            for app in AppKind::ALL {
                for p in Partitioner::figure3_set() {
                    let run = memo.app(input, hosts, p, app);
                    table.row(vec![
                        hosts.to_string(),
                        input.name.to_string(),
                        app.name().to_string(),
                        p.name().to_string(),
                        secs(run.elapsed),
                        f3(run.modeled_net),
                        f3(run.combined_secs()),
                        run.rounds.to_string(),
                        format!("{:.2}", run.comm_bytes as f64 / 1e6),
                    ]);
                }
            }
        }
    }
    table.emit("fig5_fig6_app_exec");
}

/// Figure 7: CVC partitioning time vs message buffer threshold. Claims:
/// sending every record at once (threshold 0) is far slower than
/// buffering; past a modest threshold, larger buffers neither help nor
/// hurt — in wall time and, strongly, in α-dominated modeled time.
fn fig7_buffer_size(ctx: &Ctx, memo: &mut Memo) {
    // 0 = unbuffered, then 4 KiB … 2 MiB (the paper sweeps 0 … 32 MB at
    // cluster scale).
    let thresholds: [usize; 7] = [0, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20];
    let mut table = Table::new(
        &format!("Figure 7 — CVC partitioning time vs buffer threshold at {MAX_HOSTS} hosts"),
        &[
            "graph",
            "threshold(B)",
            "wall(s)",
            "net(s)",
            "combined(s)",
            "messages",
        ],
    );
    for input in ctx.drilldown() {
        for threshold in thresholds {
            let cfg = CuspConfig {
                buffer_threshold: threshold,
                ..CuspConfig::default()
            };
            let source = GraphSource::File(input.path.clone());
            let out = run_partition(source, MAX_HOSTS, Partitioner::Cusp(PolicyKind::Cvc), &cfg);
            let label = format!("fig7 {} threshold={threshold}", input.name);
            let run = memo.check(input, &label, out);
            let msgs = run
                .stats
                .phase("construct")
                .map_or(0, |p| p.total_messages());
            table.row(vec![
                input.name.to_string(),
                threshold.to_string(),
                secs(run.reported),
                f3(run.modeled_net),
                f3(run.combined_secs()),
                msgs.to_string(),
            ]);
        }
    }
    table.emit("fig7_buffer_size");
}

/// The master-phase synchronization round counts of Tables VI and VII.
const SYNC_ROUNDS: [u32; 4] = [1, 10, 100, 1000];

/// Table VI: SVC partitioning time vs master-phase sync rounds. Claim:
/// largely flat until the count gets very high (1000). The paper's rounds
/// are asynchronous (§IV-D5); ours are lockstep (DESIGN.md §8), so every
/// round costs each host one message per peer and a wait for the slowest.
fn table6_sync_rounds(ctx: &Ctx, memo: &mut Memo) {
    let mut table = Table::new(
        &format!("Table VI — SVC partitioning time vs sync rounds at {MAX_HOSTS} hosts (seconds)"),
        &[
            "graph",
            "rounds",
            "wall(s)",
            "master(s)",
            "net(s)",
            "combined(s)",
        ],
    );
    for input in ctx.drilldown() {
        for rounds in SYNC_ROUNDS {
            let cfg = CuspConfig {
                sync_rounds: rounds,
                ..CuspConfig::default()
            };
            let source = GraphSource::File(input.path.clone());
            let out = run_partition(source, MAX_HOSTS, Partitioner::Cusp(PolicyKind::Svc), &cfg);
            let label = format!("table6 {} rounds={rounds}", input.name);
            let run = memo.check(input, &label, out);
            table.row(vec![
                input.name.to_string(),
                rounds.to_string(),
                secs(run.reported),
                secs(run.times().master),
                f3(run.modeled_net),
                f3(run.combined_secs()),
            ]);
        }
    }
    table.emit("table6_sync_rounds");
}

/// Table VII: application time over SVC partitions built with each sync
/// round count. Claim: more rounds give a fresher global view, which
/// *can* help (uk14 in the paper) but need not (clueweb12).
fn table7_sync_quality(ctx: &Ctx, memo: &mut Memo) {
    let mut table = Table::new(
        &format!(
            "Table VII — app execution time (s) over SVC partitions vs sync rounds, {MAX_HOSTS} hosts"
        ),
        &["graph", "app", "rounds", "wall(s)", "net(s)", "combined(s)"],
    );
    for input in ctx.drilldown() {
        for app in AppKind::ALL {
            let graph = app_graph(&mut memo.symmetrized, input, app);
            for rounds in SYNC_ROUNDS {
                let cfg = CuspConfig {
                    sync_rounds: rounds,
                    ..CuspConfig::default()
                };
                let run = run_app(
                    graph,
                    MAX_HOSTS,
                    Partitioner::Cusp(PolicyKind::Svc),
                    app,
                    &cfg,
                );
                table.row(vec![
                    input.name.to_string(),
                    app.name().to_string(),
                    rounds.to_string(),
                    secs(run.elapsed),
                    f3(run.modeled_net),
                    f3(run.combined_secs()),
                ]);
            }
        }
    }
    table.emit("table7_sync_quality");
}

/// Table IV: geomean speedup of each CuSP policy over XtraPulp at the max
/// host count, in partitioning time (Fig. 3's runs) and in application
/// time (Fig. 5/6's bfs and pr runs; all four apps with `--full`).
/// Claims: every policy partitions faster than XtraPulp, the
/// ContiguousEB ones by a large factor, and matches or beats it on
/// application time on average.
fn table4_speedups(ctx: &Ctx, memo: &mut Memo) {
    let apps = if ctx.full {
        AppKind::ALL.to_vec()
    } else {
        vec![AppKind::Bfs, AppKind::Pagerank]
    };
    let mut table = Table::new(
        "Table IV — geomean speedup of CuSP policies over XtraPulp",
        &["policy", "partitioning", "app execution"],
    );
    for kind in cusp::policies::ALL_POLICIES {
        let (xp, cusp) = (Partitioner::XtraPulp, Partitioner::Cusp(kind));
        let (mut part, mut app) = (Vec::new(), Vec::new());
        for input in &ctx.inputs {
            let mut time = |p| memo.partition(input, MAX_HOSTS, p).combined_secs();
            part.push(time(xp) / time(cusp));
            for &a in &apps {
                let mut time = |p| memo.app(input, MAX_HOSTS, p, a).combined_secs();
                app.push(time(xp) / time(cusp));
            }
        }
        table.row(vec![
            kind.name().to_string(),
            format!("{:.2}x", geomean(&part)),
            format!("{:.2}x", geomean(&app)),
        ]);
    }
    table.emit("table4_speedups");
}

/// Ablations of the optimizations DESIGN.md calls out (paper §IV-D), CVC
/// on the drill-down inputs at the max host count:
///
/// * the §IV-D5 pure-master elision ("replicate computation instead of
///   communication") — off with `CuspConfig::force_stored_masters`;
/// * §IV-D3 message buffering — buffered vs unbuffered construction;
/// * chunk streaming — `CuspConfig::chunk_edges` bounds resident edge
///   state to O(chunk) at the cost of per-chunk re-reads and flushes;
/// * phase checkpoints — the "checkpointed" row reruns the baseline with
///   `CuspConfig::checkpoint_dir` set: the crash-free cost of snapshotting
///   recovery state at phase boundaries (target: under 3% wall);
/// * `cusp-obs` tracing — the "traced" row reruns the baseline with event
///   recording on. At `MAX_HOSTS` the cluster runs ~3× more threads than
///   most machines have cores, so sub-100ms walls are dominated by
///   scheduler noise; trust the delta only when it holds across repeated
///   runs.
///
/// All knobs leave results identical (the test suite checks it); the
/// ablation shows what they cost when disabled.
fn ablation_opts(ctx: &Ctx, memo: &mut Memo) {
    let mut table = Table::new(
        &format!("Ablations at {MAX_HOSTS} hosts (CVC)"),
        &[
            "graph",
            "variant",
            "wall(s)",
            "net(s)",
            "combined(s)",
            "master-phase MB",
            "messages",
        ],
    );
    let ckpt_dir = std::env::temp_dir().join("cusp-ablation-ckpt");
    let variants: [(&str, CuspConfig, bool); 8] = [
        ("baseline", CuspConfig::default(), false),
        ("traced", CuspConfig::default(), true),
        (
            "checkpointed",
            CuspConfig {
                checkpoint_dir: Some(ckpt_dir.clone()),
                ..CuspConfig::default()
            },
            false,
        ),
        (
            "no pure-master elision",
            CuspConfig {
                force_stored_masters: true,
                ..CuspConfig::default()
            },
            false,
        ),
        (
            "no buffering",
            CuspConfig {
                buffer_threshold: 0,
                ..CuspConfig::default()
            },
            false,
        ),
        (
            "neither",
            CuspConfig {
                force_stored_masters: true,
                buffer_threshold: 0,
                ..CuspConfig::default()
            },
            false,
        ),
        (
            "chunked (64Ki edges)",
            CuspConfig {
                chunk_edges: Some(64 * 1024),
                ..CuspConfig::default()
            },
            false,
        ),
        (
            "chunked (4Ki edges)",
            CuspConfig {
                chunk_edges: Some(4 * 1024),
                ..CuspConfig::default()
            },
            false,
        ),
    ];
    for input in ctx.drilldown() {
        for (name, cfg, traced) in &variants {
            let opts = ClusterOptions {
                trace: traced.then(TraceConfig::default),
                ..ClusterOptions::default()
            };
            let source = GraphSource::File(input.path.clone());
            let cvc = Partitioner::Cusp(PolicyKind::Cvc);
            let (run, parts, trace) = run_partition_opts(source, MAX_HOSTS, cvc, cfg, opts);
            if let Some(t) = &trace {
                eprintln!(
                    "  traced run recorded {} events ({} dropped)",
                    t.events.len(),
                    t.dropped_events
                );
            }
            let label = format!("ablation {} {name}", input.name);
            let run = memo.check(input, &label, (run, parts));
            let master_bytes = run.stats.phase("master").map_or(0, |p| p.total_bytes());
            table.row(vec![
                input.name.to_string(),
                name.to_string(),
                secs(run.reported),
                f3(run.modeled_net),
                f3(run.combined_secs()),
                megabytes(master_bytes),
                run.stats.grand_total_messages().to_string(),
            ]);
        }
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    table.emit("ablation_opts");
}

/// Evidence that the stand-ins have the structure of the paper's Table III
/// graphs: scale-free degree tails (power-law exponents in the web-graph
/// range) and the crawls' bounded-out / heavy-in asymmetry.
fn input_fidelity(ctx: &Ctx, _: &mut Memo) {
    let mut table = Table::new(
        "Input fidelity — degree-tail exponents (Clauset MLE, d_min = 30)",
        &[
            "graph",
            "out α",
            "in α",
            "max out",
            "max in",
            "in/out max ratio",
        ],
    );
    for input in &ctx.inputs {
        let out_h = out_degree_histogram(&input.graph);
        let in_h = in_degree_histogram(&input.graph);
        let max_out = out_h.len().saturating_sub(1);
        let max_in = in_h.len().saturating_sub(1);
        let fmt = |a: Option<f64>| a.map_or("n/a".to_string(), |v| format!("{v:.2}"));
        table.row(vec![
            input.name.to_string(),
            fmt(powerlaw_alpha(&out_h, 30)),
            fmt(powerlaw_alpha(&in_h, 30)),
            max_out.to_string(),
            max_in.to_string(),
            format!("{:.1}", max_in as f64 / max_out.max(1) as f64),
        ]);
    }
    table.emit("input_fidelity");
    println!(
        "Real web crawls show in-degree exponents ≈ 1.9–2.3 with max-in ≫ max-out;\n\
         Kronecker graphs are near-symmetric with heavy tails on both sides."
    );
}

/// Structural quality per partitioner (paper §V-C: replication factor and
/// balance "are not necessarily correlated to execution time", but they
/// explain why the runtime exhibits look the way they do). The full host
/// sweep runs on `cwx` only.
fn quality_metrics(ctx: &Ctx, memo: &mut Memo) {
    let mut table = Table::new(
        "Structural quality per policy",
        &[
            "graph",
            "hosts",
            "partitioner",
            "replication",
            "node balance",
            "edge balance",
            "mirrors",
        ],
    );
    for input in &ctx.inputs {
        for hosts in HOST_COUNTS {
            if hosts != MAX_HOSTS && input.name != "cwx" {
                continue;
            }
            for p in Partitioner::figure3_set() {
                let q = &memo.partition(input, hosts, p).quality;
                table.row(vec![
                    input.name.to_string(),
                    hosts.to_string(),
                    p.name().to_string(),
                    f3(q.replication_factor),
                    f3(q.node_balance),
                    f3(q.edge_balance),
                    q.total_mirrors.to_string(),
                ]);
            }
        }
    }
    table.emit("quality_metrics");
}

/// Partitioning time of each partitioner from 1 to 16 hosts on `cwx`, the
/// trend behind Fig. 3's three host counts. Expected: EEC scales almost
/// linearly; communication-bound policies flatten as per-host α-overheads
/// grow with k²; XtraPulp flattens earliest.
fn scaling_hosts(ctx: &Ctx, memo: &mut Memo) {
    let input = ctx.input("cwx");
    let mut table = Table::new(
        "Partitioning-time scaling over host counts (cwx)",
        &["hosts", "partitioner", "wall(s)", "net(s)", "combined(s)"],
    );
    for hosts in [1, 2, 4, 8, 16] {
        for p in Partitioner::figure3_set() {
            let run = memo.partition(input, hosts, p);
            table.row(vec![
                hosts.to_string(),
                p.name().to_string(),
                secs(run.reported),
                f3(run.modeled_net),
                f3(run.combined_secs()),
            ]);
        }
    }
    table.emit("scaling_hosts");
}

/// Fig. 3's comparison on `cwx` recomputed under three network models —
/// free (wall time only), Omni-Path-like (the default) and a slow 10 GbE:
/// the orderings must not be artifacts of the α–β model.
fn model_sensitivity(ctx: &Ctx, memo: &mut Memo) {
    let input = ctx.input("cwx");
    let models = [
        NetworkModel::free(),
        NetworkModel::omni_path(),
        NetworkModel::ten_gbe(),
    ];
    let mut table = Table::new(
        &format!("Model sensitivity — cwx @ {MAX_HOSTS} hosts, seconds under each network model"),
        &["partitioner", "wall(s)", "free", "omni-path", "10GbE"],
    );
    for p in Partitioner::figure3_set() {
        let run = memo.partition(input, MAX_HOSTS, p);
        let wall = run.reported.as_secs_f64();
        let mut cells = vec![p.name().to_string(), f3(wall)];
        for model in &models {
            // The modeled network portion under this model, over the
            // phases that count for the reported time.
            let net: f64 = match p {
                Partitioner::XtraPulp => run.stats.modeled_time_with_prefix(model, "xp:"),
                Partitioner::Cusp(_) => cusp::PhaseTimes::NAMES
                    .iter()
                    .filter_map(|ph| run.stats.phase(ph))
                    .map(|ph| ph.modeled_time(model))
                    .sum(),
            };
            cells.push(f3(wall + net + run.modeled_disk));
        }
        table.row(cells);
    }
    table.emit("model_sensitivity");
}

/// The three 2D block cuts of §II-A3 side by side: CVC (cyclic columns),
/// BVC (blocked columns), JVC (staggered per-row columns). All three bound
/// communication partners to the grid row; they differ in how evenly the
/// column dimension spreads hub in-degrees.
fn twod_cuts(ctx: &Ctx, memo: &mut Memo) {
    let mut table = Table::new(
        &format!("2D cuts compared at {MAX_HOSTS} hosts"),
        &[
            "graph",
            "cut",
            "partition(s)",
            "replication",
            "edge balance",
            "pr comm (MB)",
            "pr combined(s)",
        ],
    );
    for input in &ctx.inputs {
        for kind in [PolicyKind::Cvc, PolicyKind::Bvc, PolicyKind::Jvc] {
            let p = Partitioner::Cusp(kind);
            let pr = memo.app(input, MAX_HOSTS, p, AppKind::Pagerank);
            let run = memo.partition(input, MAX_HOSTS, p);
            table.row(vec![
                input.name.to_string(),
                kind.name().to_string(),
                f3(run.combined_secs()),
                f3(run.quality.replication_factor),
                f3(run.quality.edge_balance),
                format!("{:.2}", pr.comm_bytes as f64 / 1e6),
                f3(pr.combined_secs()),
            ]);
        }
    }
    table.emit("twod_cuts");
}

/// Figure 2's empirical analogue: each host's per-phase durations in one
/// CVC run, making visible the skew between hosts that buffered
/// construction tolerates.
fn fig2_timeline(ctx: &Ctx, memo: &mut Memo) {
    let run = memo.partition(
        ctx.input("cwx"),
        MAX_HOSTS,
        Partitioner::Cusp(PolicyKind::Cvc),
    );
    let mut table = Table::new(
        &format!("Figure 2 analogue — per-host phase durations, CVC on cwx @ {MAX_HOSTS} hosts"),
        &[
            "host",
            "read",
            "master",
            "edgeAssign",
            "alloc",
            "construct",
            "total",
            "edges",
        ],
    );
    for (host, (t, edges)) in run.host_times.iter().zip(&run.host_edges).enumerate() {
        table.row(vec![
            host.to_string(),
            secs(t.read),
            secs(t.master),
            secs(t.edge_assign),
            secs(t.alloc),
            secs(t.construct),
            secs(t.total()),
            edges.to_string(),
        ]);
    }
    table.emit("fig2_timeline");
    let comm_mb = run.stats.grand_total_bytes() as f64 / 1e6;
    println!("total inter-host traffic during partitioning: {comm_mb:.2} MB");
}
