//! The four workloads whose operation is a partition: `cvc_stream`,
//! `svc_kron`, `cvc_tcp` and `delta_cvc`. They share one skeleton — set
//! up, warm up, time, read the memory peak, check against the oracle —
//! and differ in input, policy, transport and which call is timed.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cusp::{CuspConfig, GraphSource, PartitionOutput, PolicyKind};
use cusp_graph::{Csr, GraphEvent};
use cusp_net::{Cluster, NetworkModel};

use crate::inputs::{self, Scratch};
use crate::ops::{self, OpResult, HOSTS};
use crate::report::Report;
use crate::stats;
use crate::{spans, sysinfo, Ctx};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Case {
    /// `web-21m` streamed from its `.bgr` in 65 536-edge chunks, CVC,
    /// simulator, shipped defaults otherwise.
    CvcStream,
    /// `kron-19` from memory, monolithic, SVC (Fennel masters with state
    /// synchronisation, stored not arithmetic), simulator, defaults.
    SvcKron,
    /// `web-21m` from its `.bgr`, monolithic, CVC over a loopback TCP mesh.
    CvcTcp,
    /// `web-21m` in memory; the timed call is `partition_delta_with_policy`
    /// after a 0.5 % mutation batch, each paired with a full repartition of
    /// the mutated graph.
    DeltaCvc,
}

impl Case {
    pub fn name(self) -> &'static str {
        match self {
            Case::CvcStream => "cvc_stream",
            Case::SvcKron => "svc_kron",
            Case::CvcTcp => "cvc_tcp",
            Case::DeltaCvc => "delta_cvc",
        }
    }

    fn policy(self) -> PolicyKind {
        match self {
            Case::SvcKron => PolicyKind::Svc,
            _ => PolicyKind::Cvc,
        }
    }

    /// Configurations are built only from the defaults, the chunk bound
    /// and the determinism contract, and name no ablation knob: deleting
    /// one later needs no edit here.
    fn config(self, ctx: &Ctx) -> CuspConfig {
        match self {
            Case::CvcStream => CuspConfig {
                chunk_edges: Some(ctx.sizes.chunk_edges),
                ..CuspConfig::default()
            },
            Case::SvcKron => CuspConfig::default(),
            Case::CvcTcp | Case::DeltaCvc => {
                cusp::deterministic_for_comparison(CuspConfig::default())
            }
        }
    }
}

/// Fraction of edges the delta workload's batch touches.
const DELTA_FRAC: f64 = 0.005;
/// The two other points of the delta curve (traced pass only).
const DELTA_CURVE: [(f64, &str); 2] = [(0.001, "core.delta_s_0p1pct"), (0.02, "core.delta_s_2pct")];

/// Where the oracle finds the graph a partition must reproduce.
enum Reference {
    /// Loaded only after the memory peak was read: the timed part of a
    /// file workload holds no `Csr`.
    File(PathBuf),
    Memory(Arc<Csr>),
}

struct DeltaInput {
    /// The previous generation's per-host outputs.
    prev: Vec<PartitionOutput>,
    batch: Vec<GraphEvent>,
    /// The graph before the batch, for the curve points.
    base: Arc<Csr>,
}

struct Input {
    src: GraphSource,
    reference: Reference,
    edges: u64,
    delta: Option<DeltaInput>,
}

fn previous_partition(base: &Arc<Csr>, kind: PolicyKind, cfg: &CuspConfig) -> Vec<PartitionOutput> {
    let _s = spans::span("previous_partition");
    let src = GraphSource::Memory(Arc::clone(base));
    Cluster::run(HOSTS, |comm| {
        cusp::partition_with_policy(comm, src.clone(), kind, cfg)
    })
    .results
}

fn mutate(base: &Csr, batch: &[GraphEvent]) -> Result<Arc<Csr>, String> {
    let _s = spans::span("apply_batch");
    base.apply_batch(None, batch)
        .map(|a| Arc::new(a.graph))
        .map_err(|e| format!("seeded batch rejected: {e}"))
}

/// One complete set-up: generate from the seed, write what is read from
/// disk, and for the delta workload partition the previous generation.
fn setup(case: Case, ctx: &Ctx, scratch: &Scratch) -> Result<Input, String> {
    let _s = spans::span("setup");
    let seed = inputs::sub_seed(ctx.seed, 1);
    match case {
        Case::CvcStream | Case::CvcTcp => {
            let graph = inputs::web(ctx.sizes.web_nodes, seed);
            let path = scratch.path("web.bgr");
            inputs::write_bgr(&path, &graph)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(Input {
                src: GraphSource::File(path.clone()),
                reference: Reference::File(path),
                edges: graph.num_edges(),
                delta: None,
            })
        }
        Case::SvcKron => {
            let graph = Arc::new(inputs::kron(ctx.sizes.kron_scale, seed));
            Ok(Input {
                src: GraphSource::Memory(Arc::clone(&graph)),
                edges: graph.num_edges(),
                reference: Reference::Memory(graph),
                delta: None,
            })
        }
        Case::DeltaCvc => {
            let base = Arc::new(inputs::web(ctx.sizes.web_nodes, seed));
            let batch = inputs::batch(&base, DELTA_FRAC, inputs::sub_seed(ctx.seed, 2));
            let mutated = mutate(&base, &batch)?;
            let prev = previous_partition(&base, case.policy(), &case.config(ctx));
            Ok(Input {
                src: GraphSource::Memory(Arc::clone(&mutated)),
                edges: mutated.num_edges(),
                reference: Reference::Memory(mutated),
                delta: Some(DeltaInput { prev, batch, base }),
            })
        }
    }
}

/// The timed operation of the workload.
fn primary_op(
    case: Case,
    ctx: &Ctx,
    input: &Input,
    lib_trace: bool,
    iter: u64,
) -> Result<OpResult, String> {
    let (kind, cfg) = (case.policy(), case.config(ctx));
    match case {
        Case::CvcStream | Case::SvcKron => {
            Ok(ops::sim_partition(&input.src, kind, &cfg, HOSTS, lib_trace))
        }
        Case::CvcTcp => ops::tcp_partition(
            &input.src,
            kind,
            &cfg,
            HOSTS,
            inputs::sub_seed(ctx.seed, 1000 + iter),
        ),
        Case::DeltaCvc => {
            let d = input
                .delta
                .as_ref()
                .expect("delta workload without delta input");
            Ok(ops::sim_delta(
                &input.src, kind, &cfg, &d.prev, &d.batch, lib_trace,
            ))
        }
    }
}

/// The simulator's full partition of the same input and configuration:
/// the twin `cvc_tcp` and `delta_cvc` are paired with (the fingerprints
/// must be equal), and the one call library tracing can wrap on `cvc_tcp`.
fn full_sim_op(case: Case, ctx: &Ctx, input: &Input, lib_trace: bool) -> OpResult {
    ops::sim_partition(
        &input.src,
        case.policy(),
        &case.config(ctx),
        HOSTS,
        lib_trace,
    )
}

/// Per-iteration samples of the rows every partition run yields.
#[derive(Default)]
pub struct RunSamples {
    pub wall: Vec<f64>,
    cpu: Vec<f64>,
    phases: [Vec<f64>; 5],
    phase_sum_frac: Vec<f64>,
    host_skew: Vec<f64>,
    overhead_ms: Vec<f64>,
    replication: Vec<f64>,
}

impl RunSamples {
    pub fn push(&mut self, r: &OpResult) {
        self.wall.push(r.wall_s);
        self.cpu.push(r.cpu_s);
        for (i, name) in cusp::PhaseTimes::NAMES.iter().enumerate() {
            // Phases end in barriers, so the cluster's phase time is the
            // slowest host's.
            let max = r
                .times
                .iter()
                .map(|t| t.get(name).as_secs_f64())
                .fold(0.0, f64::max);
            self.phases[i].push(max);
        }
        let totals: Vec<f64> = r.times.iter().map(|t| t.total().as_secs_f64()).collect();
        let max = totals.iter().copied().fold(0.0, f64::max);
        let mean = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
        // The share of the wall the slowest host spent inside its five
        // phases. Not the sum of the per-phase maxima above: those come
        // from different hosts, overlap in time, and add up to more than
        // the wall.
        self.phase_sum_frac.push(max / r.wall_s);
        self.host_skew
            .push(if mean > 0.0 { max / mean } else { 1.0 });
        self.overhead_ms.push((r.wall_s - max) * 1e3);
        self.replication
            .push(cusp::metrics::quality(&r.parts).replication_factor);
    }
}

/// Runs one partition workload and reports it.
pub fn run(case: Case, ctx: &Ctx) -> Report {
    let mut report = Report::new(case.name());
    if let Err(e) = run_inner(case, ctx, &mut report) {
        report.attempt(1);
        report.fail(e);
    }
    report
}

fn run_inner(case: Case, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let scratch =
        Scratch::create(&ctx.scratch_base, case.name()).map_err(|e| format!("scratch dir: {e}"))?;

    // Set-up, several times over: its median is a metric of its own, so
    // that work moved out of the timed call and into set-up still shows.
    let mut setup_s = Vec::new();
    let mut input = None;
    for _ in 0..ctx.setup_reps() {
        drop(input.take());
        let t = Instant::now();
        input = Some(setup(case, ctx, &scratch)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up");
    report.samples("setup_s", "s", &setup_s);

    // The memory metric is the resident-set high-water mark of the first
    // operation: the mark is reset here, after set-up (which held the
    // generated graph and its generator's temporaries), and read right
    // after that operation. Later operations start from a heap that still
    // holds the freed arenas of the host threads before them, so their
    // peaks creep up by hundreds of MiB with the iteration count; the
    // first one is what one partition of this input needs.
    if !sysinfo::reset_peak_rss() {
        println!("note: VmHWM cannot be reset here; peak_rss_mb covers set-up too");
    }

    let mut samples = RunSamples::default();
    let mut traced_wall = Vec::new();
    // The simulator's full partition of the same input, paired with the
    // timed operation: on `delta_cvc` the repartition the delta call is
    // measured against (every iteration), on `cvc_tcp` the base of the TCP
    // tax (traced pass only; the untraced window is spent on the mesh).
    let paired = case == Case::DeltaCvc || (ctx.trace && case == Case::CvcTcp);
    let mut twin_wall = Vec::new();
    let mut last_twin: Option<OpResult> = None;
    let mut obs = (0u64, 0u64);
    let mut last: Option<OpResult> = None;
    let mut iter = 0u64;
    let mut next_op = || {
        iter += 1;
        spans::set_op(iter);
        iter
    };

    let mut peak_rss = None;
    for _ in 0..ctx.warmups() {
        let it = next_op();
        report.attempt(1);
        primary_op(case, ctx, &input, false, it)?;
        peak_rss.get_or_insert_with(sysinfo::peak_rss_mib);
    }

    // One timed iteration: the operation and, where paired, its twin, the
    // order alternating. In the traced pass the operation runs under the
    // benchmark's spans and is also paired with a run under the library's
    // own tracing (order alternating too) for the tracing overhead; the
    // TCP entry point takes no trace option, so on `cvc_tcp` that run is
    // the simulator twin.
    let started = Instant::now();
    while samples.wall.len() < ctx.timed_iters()
        || (!ctx.trace && started.elapsed().as_secs_f64() < ctx.seconds)
    {
        let it = next_op();
        let second_first = samples.wall.len() % 2 == 1;
        let mut lib_traced = |report: &mut Report| -> Result<(), String> {
            if !ctx.trace {
                return Ok(());
            }
            report.attempt(1);
            let r = if case == Case::CvcTcp {
                full_sim_op(case, ctx, &input, true)
            } else {
                primary_op(case, ctx, &input, true, it)?
            };
            traced_wall.push(r.wall_s);
            obs = r.obs.unwrap_or(obs);
            Ok(())
        };
        let mut twin = |report: &mut Report| {
            if paired {
                drop(last_twin.take());
                report.attempt(1);
                let r = full_sim_op(case, ctx, &input, false);
                twin_wall.push(r.wall_s);
                last_twin = Some(r);
            }
        };
        if second_first {
            lib_traced(report)?;
            twin(report);
        }
        drop(last.take());
        report.attempt(1);
        let r = primary_op(case, ctx, &input, false, it)?;
        samples.push(&r);
        last = Some(r);
        if !second_first {
            twin(report);
            lib_traced(report)?;
        }
    }

    let last = last.expect("at least one timed iteration");

    report.samples("partition_s", "s", &samples.wall);
    report.value(
        "peak_rss_mb",
        "MiB",
        peak_rss.unwrap_or_else(sysinfo::peak_rss_mib),
    );
    report.samples("replication_factor", "proxies/vertex", &samples.replication);
    if case == Case::DeltaCvc {
        report.samples("delta_s", "s", &samples.wall);
        report.samples("delta_full_s", "s", &twin_wall);
    }

    // ---- the correctness gate, on the last iteration --------------------
    let verify_started = Instant::now();
    let mut twin_s = 0.0;
    {
        let _v = spans::span("verify");
        let reference = match &input.reference {
            Reference::Memory(g) => Arc::clone(g),
            Reference::File(path) => {
                let _l = spans::span("read_bgr");
                Arc::new(
                    cusp_graph::read_bgr(path)
                        .map_err(|e| format!("read {}: {e}", path.display()))?,
                )
            }
        };
        report.expect_valid(&verify_op(&reference, &last));
        // Fingerprint equalities: TCP == simulator, delta == full. The
        // last pair's twin where there is one, a fresh one otherwise.
        if matches!(case, Case::CvcTcp | Case::DeltaCvc) {
            report.attempt(1);
            let _m = spans::span("merge_fingerprint");
            let twin = last_twin.take().unwrap_or_else(|| {
                let twin = full_sim_op(case, ctx, &input, false);
                twin_s = twin.wall_s;
                twin
            });
            let (a, b) = (
                cusp::partition_fingerprint(&last.parts),
                cusp::partition_fingerprint(&twin.parts),
            );
            if a != b {
                report.fail(format!(
                    "fingerprint {a:#018x} != simulator full partition {b:#018x}"
                ));
            }
        }
    }
    // The oracle's own cost: loading the reference, the checks and the
    // fingerprints, not a twin partition run for the comparison.
    let verify_s = verify_started.elapsed().as_secs_f64() - twin_s;

    let wall_med = stats::median(&samples.wall);
    emit_run_rows(report, &samples, &last, input.edges, verify_s);

    if case == Case::DeltaCvc {
        report.value(
            "core.delta_dirty_vertices",
            "count",
            last.dirty_vertices as f64,
        );
        report.value("core.delta_reused_edges", "count", last.reused_edges as f64);
        report.value(
            "core.delta_speedup",
            "ratio",
            stats::median(&twin_wall) / wall_med,
        );
    }

    if ctx.trace {
        let traced_base = if case == Case::CvcTcp {
            stats::median(&twin_wall)
        } else {
            wall_med
        };
        emit_obs_rows(report, &traced_wall, traced_base, obs);
        if case == Case::CvcTcp {
            report.samples("net.tcp_sim_twin_s", "s", &twin_wall);
            report.value(
                "net.tcp_tax_frac",
                "ratio",
                wall_med / stats::median(&twin_wall) - 1.0,
            );
        }

        single_host_rows(
            report,
            &input.src,
            case.policy(),
            &case.config(ctx),
            wall_med,
        );

        if case == Case::DeltaCvc {
            delta_curve(ctx, &input, report)?;
        }
        if matches!(case, Case::CvcStream | Case::SvcKron) {
            crate::probes::analytics(&last.parts, report);
        }
    }
    Ok(())
}

/// The correctness gate of one operation: the partition oracle on its
/// parts, and conservation of its traffic (`check_comm_stats` on the
/// simulator's snapshot; the same invariant over the per-host views of a
/// TCP run).
pub fn verify_op(reference: &Csr, op: &OpResult) -> Vec<String> {
    let mut violations = crate::oracle::check(reference, &op.parts);
    if let Some(stats) = &op.sim_stats {
        violations.extend(
            cusp::check_comm_stats(stats)
                .iter()
                .map(|v| format!("{v:?}")),
        );
    }
    violations.extend(
        op.traffic
            .unconserved()
            .into_iter()
            .map(|(phase, src, dst)| {
                format!("traffic of phase {phase} not conserved {src}->{dst}")
            }),
    );
    violations
}

/// The rows read from what the workload's runs returned: phase times
/// (median over iterations of the maximum over hosts), how much of the
/// wall they explain, host imbalance, CPU, quality and traffic counts.
pub fn emit_run_rows(
    report: &mut Report,
    samples: &RunSamples,
    last: &OpResult,
    edges: u64,
    verify_s: f64,
) {
    let wall_med = stats::median(&samples.wall);
    for (i, name) in cusp::PhaseTimes::NAMES.iter().enumerate() {
        report.samples(&format!("core.{name}_s"), "s", &samples.phases[i]);
    }
    report.samples("core.phase_sum_frac", "ratio", &samples.phase_sum_frac);
    report.samples("core.host_skew", "ratio", &samples.host_skew);
    report.value(
        "core.medges_s_host",
        "Medges/s",
        edges as f64 / 1e6 / wall_med / last.parts.len() as f64,
    );
    report.samples("core.cpu_s", "s", &samples.cpu);
    report.value(
        "core.cpu_util",
        "ratio",
        stats::median(&samples.cpu) / (wall_med * sysinfo::nproc() as f64),
    );
    let q = cusp::metrics::quality(&last.parts);
    report.value("core.edge_balance", "ratio", q.edge_balance);
    report.value("core.node_balance", "ratio", q.node_balance);
    report.value("core.total_mirrors", "count", q.total_mirrors as f64);
    report.value("core.verify_s", "s", verify_s);
    report.value(
        "graph.peak_resident_edges",
        "count",
        last.peak_resident_edges as f64,
    );
    report.samples("net.cluster_overhead_ms", "ms", &samples.overhead_ms);
    emit_traffic_rows(report, last, edges);
}

/// What the library's own tracing cost and recorded: the wall of the
/// operation under `TraceConfig::default()` against `base_s`, the wall of
/// the same operation without, and the event counts of the last trace.
pub fn emit_obs_rows(report: &mut Report, traced_wall: &[f64], base_s: f64, obs: (u64, u64)) {
    report.value(
        "obs.trace_overhead_frac",
        "ratio",
        stats::median(traced_wall) / base_s - 1.0,
    );
    report.value("obs.events", "count", obs.0 as f64);
    report.value("obs.dropped_events", "count", obs.1 as f64);
}

/// The plain baseline: the same input and policy on one host with one
/// thread, once.
pub fn single_host_rows(
    report: &mut Report,
    src: &GraphSource,
    kind: PolicyKind,
    cfg: &CuspConfig,
    wall_med: f64,
) {
    spans::set_op(0);
    let single_cfg = CuspConfig {
        threads_per_host: 1,
        ..cfg.clone()
    };
    let single = {
        let _s = spans::span("single_host_baseline");
        ops::sim_partition(src, kind, &single_cfg, 1, false)
    };
    report.attempt(1);
    report.value("core.single_host_s", "s", single.wall_s);
    report.value("core.speedup_vs_single", "ratio", single.wall_s / wall_med);
}

/// The count rows: bytes and messages per phase as the library accounted
/// them, and what the α–β model makes of them. On deterministic workloads
/// they repeat exactly.
fn emit_traffic_rows(report: &mut Report, op: &OpResult, edges: u64) {
    let t = &op.traffic;
    report.value("net.bytes_master", "bytes", t.bytes("master") as f64);
    report.value(
        "net.bytes_edge_assign",
        "bytes",
        t.bytes("edge_assign") as f64,
    );
    report.value("net.bytes_construct", "bytes", t.bytes("construct") as f64);
    report.value("net.msgs_construct", "count", t.msgs("construct") as f64);
    report.value("net.bytes_total", "bytes", t.bytes("") as f64);
    report.value("net.msgs_total", "count", t.msgs("") as f64);
    report.value(
        "net.bytes_per_edge",
        "bytes/edge",
        t.bytes("") as f64 / edges.max(1) as f64,
    );
    let model = NetworkModel::omni_path();
    report.value(
        "net.modeled_omnipath_s",
        "s",
        t.modeled_seconds(model.alpha, model.beta),
    );
}

/// Two more points of the delta-versus-batch-size curve: the same
/// previous partition, batches of 0.1 % and 2 % of the edges.
fn delta_curve(ctx: &Ctx, input: &Input, report: &mut Report) -> Result<(), String> {
    let d = input
        .delta
        .as_ref()
        .expect("delta workload without delta input");
    let (kind, cfg) = (Case::DeltaCvc.policy(), Case::DeltaCvc.config(ctx));
    for (i, (frac, row)) in DELTA_CURVE.iter().enumerate() {
        let batch = inputs::batch(&d.base, *frac, inputs::sub_seed(ctx.seed, 10 + i as u64));
        let src = GraphSource::Memory(mutate(&d.base, &batch)?);
        let walls: Vec<f64> = (0..ctx.plan.traced_iters)
            .map(|_| {
                report.attempt(1);
                ops::sim_delta(&src, kind, &cfg, &d.prev, &batch, false).wall_s
            })
            .collect();
        report.samples(row, "s", &walls);
    }
    Ok(())
}
