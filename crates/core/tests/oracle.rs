//! Differential partition oracle.
//!
//! Every policy in the catalog is run at 1/2/4/8 hosts with 3 graph seeds,
//! with and without an active [`FaultPlan`], and each run is checked
//! against the full invariant oracle ([`cusp::check_partition`] /
//! [`cusp::check_comm_stats`]), against a single-host reference partition
//! (edge-multiset differential), and against itself (same seed ⇒
//! bit-identical partitions and CommStats, faults on or off). Every
//! (seed, policy, hosts ≥ 2) cell is also run at 1, 2 and 4 threads per
//! host, monolithic and in 64-edge chunks, and must give one fingerprint
//! per output format: a partition depends on no thread count.
//!
//! Mutation tests then corrupt real partitions one invariant class at a
//! time and assert the oracle attributes the damage correctly — proving
//! the oracle would actually catch each bug class, not just that clean
//! runs are clean.

use std::sync::Arc;

use cusp::{
    check_comm_stats, check_delta_equivalence, check_partition, partition_delta_with_policy,
    partition_fingerprint, partition_with_policy, CuspConfig, DistGraph, GraphSource, OutputFormat,
    PartitionOutput, PolicyKind, ViolationKind,
};
use cusp::phases::delta::dirty_set;
use cusp::policies::ContiguousEB;
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_graph::wal::seeded_batch;
use cusp_graph::{Csr, GraphEvent, Wal};
use cusp_net::{Cluster, ClusterOptions, CommStats, FaultPlan, FaultReport, Tag};

const HOSTS: [usize; 4] = [1, 2, 4, 8];
const THREADS: [usize; 3] = [1, 2, 4];
const SEEDS: [u64; 3] = [11, 29, 47];
const NODES: usize = 150;
const EDGES: usize = 800;
/// The thread-count test's graph: large enough that a round of the master
/// phase (4 of them per host, 8 hosts) spans more than one `do_all` grain,
/// so a round that ran on the pool would show.
const THREAD_NODES: usize = 4000;
const THREAD_EDGES: usize = 24_000;
/// The message-stream test's graph: tens of thousands of edges per host,
/// many times construction's send block.
const STREAM_NODES: usize = 20_000;
const STREAM_EDGES: usize = 160_000;

/// The chaos seed for oracle runs: `CUSP_FAULT_SEED` (set by the CI chaos
/// job) or a fixed default.
fn env_seed() -> u64 {
    std::env::var("CUSP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// The base configuration of every oracle run, at one thread per host
/// (`one_message_stream_at_every_thread_count` shows the `CommStats` a
/// faulty run is compared with are the same at any thread count).
///
/// `CUSP_CHUNK_EDGES` (set by the CI chaos job) re-runs the entire oracle
/// suite with chunk-streaming slices of that size — the partitions must be
/// bit-identical to monolithic runs, so every oracle check carries over.
/// `CUSP_BUFFER_THRESHOLD` does the same for the send-buffer threshold: at
/// `0` every record is its own message, under whatever faults the run
/// injects.
fn det_cfg() -> CuspConfig {
    let env = |name| std::env::var(name).ok().and_then(|s| s.parse().ok());
    let default = CuspConfig::default();
    CuspConfig {
        threads_per_host: 1,
        sync_rounds: 4,
        chunk_edges: env("CUSP_CHUNK_EDGES"),
        buffer_threshold: env("CUSP_BUFFER_THRESHOLD").map_or(default.buffer_threshold, |t| t as usize),
        ..default
    }
}

fn run(
    hosts: usize,
    kind: PolicyKind,
    source: GraphSource,
    fault: Option<FaultPlan>,
) -> (Vec<DistGraph>, CommStats, Option<FaultReport>) {
    let out = Cluster::run_with(hosts, ClusterOptions { fault, ..ClusterOptions::default() }, move |comm| {
        partition_with_policy(comm, source.clone(), kind, &det_cfg())
    });
    let parts = out.results.into_iter().map(|r| r.dist_graph).collect();
    (parts, out.stats, out.faults)
}

/// Sorted multiset of global edges across all partitions.
fn global_edges(parts: &[DistGraph]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for p in parts {
        for (lu, lv) in p.graph.iter_edges() {
            out.push((p.local2global[lu as usize], p.local2global[lv as usize]));
        }
    }
    out.sort_unstable();
    out
}

fn assert_clean(parts: &[DistGraph], stats: &CommStats, graph: &Csr, label: &str) {
    let v = check_partition(graph, None, parts);
    assert!(v.is_empty(), "{label}: partition violations: {v:#?}");
    let c = check_comm_stats(stats);
    assert!(c.is_empty(), "{label}: conservation violations: {c:#?}");
}

/// The full matrix for one policy: hosts × seeds × faults on/off, each run
/// oracle-checked, differential-checked against the 1-host reference, and
/// fingerprint-compared between the clean and the faulty run.
fn matrix(kind: PolicyKind) {
    // The bulk codec packs a whole phase into a handful of messages, so a
    // single small run can legitimately draw zero faults; assert the chaos
    // plan fired across the matrix as a whole instead of per run.
    let mut chaos_total = 0u64;
    for &seed in &SEEDS {
        let graph = Arc::new(erdos_renyi(NODES, EDGES, seed));
        let src = GraphSource::Memory(graph.clone());
        let (reference, ref_stats, _) = run(1, kind, src.clone(), None);
        assert_clean(&reference, &ref_stats, &graph, &format!("{kind:?} ref seed {seed}"));
        let ref_edges = global_edges(&reference);

        for &hosts in &HOSTS {
            let label = format!("{kind:?} hosts {hosts} seed {seed}");
            let (clean, clean_stats, _) = run(hosts, kind, src.clone(), None);
            assert_clean(&clean, &clean_stats, &graph, &label);
            assert_eq!(
                global_edges(&clean),
                ref_edges,
                "{label}: edge multiset diverged from single-host reference"
            );

            let plan = FaultPlan::chaos(env_seed() ^ seed ^ hosts as u64);
            let (faulty, faulty_stats, report) = run(hosts, kind, src.clone(), Some(plan));
            assert_clean(&faulty, &faulty_stats, &graph, &format!("{label} +faults"));
            assert_eq!(
                partition_fingerprint(&clean),
                partition_fingerprint(&faulty),
                "{label}: faults changed the partition"
            );
            assert_eq!(
                clean_stats, faulty_stats,
                "{label}: faults leaked into CommStats"
            );
            chaos_total += report.expect("fault plan was active").total();
        }
    }
    assert!(chaos_total > 0, "{kind:?}: chaos plans injected nothing across the whole matrix");
}

macro_rules! oracle_matrix {
    ($($name:ident => $kind:ident),* $(,)?) => {$(
        #[test]
        fn $name() { matrix(PolicyKind::$kind); }
    )*};
}

oracle_matrix! {
    oracle_matrix_eec => Eec,
    oracle_matrix_hvc => Hvc,
    oracle_matrix_cvc => Cvc,
    oracle_matrix_fec => Fec,
    oracle_matrix_gvc => Gvc,
    oracle_matrix_svc => Svc,
    oracle_matrix_cec => Cec,
    oracle_matrix_fnc => Fnc,
    oracle_matrix_hdrf => Hdrf,
    oracle_matrix_ldg => Ldg,
    oracle_matrix_bvc => Bvc,
    oracle_matrix_jvc => Jvc,
}

/// A partition depends on no thread count: every policy, seed, host count
/// and output format gives one fingerprint at 1, 2 and 4 threads per host,
/// monolithic and in 64-edge chunks. One host exchanges nothing, so the
/// cells start at two. The test sets `chunk_edges` itself, so under
/// `CUSP_CHUNK_EDGES` it would only repeat itself and is skipped.
#[test]
fn one_fingerprint_at_every_thread_count() {
    if std::env::var_os("CUSP_CHUNK_EDGES").is_some() {
        return;
    }
    for &seed in &SEEDS {
        let source = GraphSource::Memory(Arc::new(erdos_renyi(THREAD_NODES, THREAD_EDGES, seed)));
        for kind in PolicyKind::ALL {
            for &hosts in HOSTS.iter().filter(|&&h| h >= 2) {
                for output in [OutputFormat::Csr, OutputFormat::Csc] {
                    let mut fingerprints = THREADS.iter().flat_map(|&threads_per_host| {
                        [None, Some(64)].map(|chunk_edges| {
                            let cfg = CuspConfig { threads_per_host, output, chunk_edges, ..det_cfg() };
                            let parts = Cluster::run(hosts, |comm| {
                                partition_with_policy(comm, source.clone(), kind, &cfg).dist_graph
                            })
                            .results;
                            (threads_per_host, chunk_edges, partition_fingerprint(&parts))
                        })
                    });
                    let (_, _, first) = fingerprints.next().expect("one run at least");
                    for (threads, chunk, fp) in fingerprints {
                        assert_eq!(
                            fp, first,
                            "{kind:?} hosts {hosts} seed {seed} {output:?}: {threads} thread(s), chunk {chunk:?} changed the partition"
                        );
                    }
                }
            }
        }
    }
}

/// Every phase's messages are a function of the input: for every policy,
/// host count, chunking and buffer threshold, the per-phase bytes and
/// messages between every pair of hosts are the same at 1, 2 and 4 threads
/// per host. Construction's records leave through one sender per host, in
/// source order, so where a message ends depends on no thread. The graph
/// gives each host several send blocks, so the pool walks several blocks
/// a wave, and several waves at one thread.
#[test]
fn one_message_stream_at_every_thread_count() {
    let source = GraphSource::Memory(Arc::new(erdos_renyi(STREAM_NODES, STREAM_EDGES, SEEDS[0])));
    let default = CuspConfig::default().buffer_threshold;
    for kind in PolicyKind::ALL {
        for hosts in [2, 4] {
            for chunk_edges in [None, Some(64)] {
                for buffer_threshold in [default, 0] {
                    let mut streams = THREADS.iter().map(|&threads_per_host| {
                        let cfg = CuspConfig { threads_per_host, chunk_edges, buffer_threshold, ..det_cfg() };
                        let stats = Cluster::run(hosts, |comm| {
                            partition_with_policy(comm, source.clone(), kind, &cfg);
                        })
                        .stats;
                        (threads_per_host, stats)
                    });
                    let (_, first) = streams.next().expect("one run at least");
                    for (threads, stats) in streams {
                        for ((phase, a), (_, b)) in first.iter().zip(stats.iter()) {
                            assert_eq!(
                                a, b,
                                "{kind:?} hosts {hosts} chunk {chunk_edges:?} threshold {buffer_threshold}: \
                                 the {phase} row differs at {threads} thread(s)"
                            );
                        }
                        assert_eq!(first, stats, "{kind:?} hosts {hosts}: {threads} thread(s)");
                    }
                }
            }
        }
    }
}

/// Same seed ⇒ bit-identical partitions, CommStats, and fault report —
/// for a stateless and a stateful (HDRF) policy, faults on and off.
#[test]
fn same_seed_is_bit_identical() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 7));
    let src = GraphSource::Memory(graph.clone());
    for kind in [PolicyKind::Cvc, PolicyKind::Hdrf] {
        let (a, a_stats, _) = run(4, kind, src.clone(), None);
        let (b, b_stats, _) = run(4, kind, src.clone(), None);
        assert_eq!(partition_fingerprint(&a), partition_fingerprint(&b), "{kind:?} clean");
        assert_eq!(a_stats, b_stats, "{kind:?} clean stats");

        let plan = FaultPlan::chaos(env_seed());
        let (c, c_stats, c_rep) = run(4, kind, src.clone(), Some(plan));
        let (d, d_stats, d_rep) = run(4, kind, src.clone(), Some(plan));
        assert_eq!(partition_fingerprint(&c), partition_fingerprint(&d), "{kind:?} chaos");
        assert_eq!(c_stats, d_stats, "{kind:?} chaos stats");
        assert_eq!(c_rep, d_rep, "{kind:?} fault report must replay per seed");
        assert_eq!(partition_fingerprint(&a), partition_fingerprint(&c), "{kind:?} faults");
    }
}

/// A weighted pipeline preserves per-edge data exactly, faults on or off.
#[test]
fn weighted_pipeline_preserves_edge_data() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 13));
    let data: Arc<Vec<u32>> = Arc::new(
        (0..graph.num_edges())
            .map(|i| (i as u32).wrapping_mul(2_654_435_761))
            .collect(),
    );
    let src = GraphSource::MemoryWeighted(graph.clone(), data.clone());
    for fault in [None, Some(FaultPlan::chaos(env_seed() ^ 13))] {
        let (parts, stats, _) = run(4, PolicyKind::Hvc, src.clone(), fault);
        let v = check_partition(&graph, Some(&data), &parts);
        assert!(v.is_empty(), "weighted violations: {v:#?}");
        assert!(check_comm_stats(&stats).is_empty());
    }
}

// --- Mutation-equivalence rows: delta repartition vs full re-partition ---
// of the same mutated graph (ISSUE 8 acceptance criterion).

/// Like [`run`], but keeps the whole [`PartitionOutput`] (delta needs the
/// retained `Setup` and reports its accounting through it).
fn run_full(
    hosts: usize,
    kind: PolicyKind,
    source: GraphSource,
) -> (Vec<PartitionOutput>, CommStats) {
    let out = Cluster::run(hosts, move |comm| {
        partition_with_policy(comm, source.clone(), kind, &det_cfg())
    });
    (out.results, out.stats)
}

/// One mutation-equivalence row: partition the base graph, push a seeded
/// batch through a WAL round-trip, apply it, then check the delta
/// repartition against a from-scratch re-partition of the mutated graph —
/// invariant-clean and fingerprint-identical, faults on and off.
fn delta_matrix(kind: PolicyKind, seed: u64) {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, seed));
    let src = GraphSource::Memory(graph.clone());

    // The batch every host replays: WAL write → load round-trip, so the
    // durable byte path is on the oracle's critical path (the CI chaos job
    // re-runs this very test with a date-derived CUSP_FAULT_SEED).
    let wal_path = std::env::temp_dir().join(format!(
        "cusp-oracle-wal-{kind:?}-{seed}-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&wal_path);
    let wal = Wal::new(&wal_path);
    let batch = seeded_batch(&graph, false, seed ^ 0xD1517, 24);
    wal.append(&batch).expect("WAL append");
    let replayed: Vec<GraphEvent> = wal
        .load()
        .expect("WAL load")
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(replayed, batch, "WAL round-trip changed the batch");
    let _ = std::fs::remove_file(&wal_path);

    let applied = graph.apply_batch(None, &batch).expect("batch applies");
    let mutated = Arc::new(applied.graph);
    let mutated_src = GraphSource::Memory(mutated.clone());

    for &hosts in &HOSTS {
        let label = format!("{kind:?} delta hosts {hosts} seed {seed}");
        let (prevs, _) = run_full(hosts, kind, src.clone());
        let (full, _, _) = run(hosts, kind, mutated_src.clone(), None);

        for fault in [None, Some(FaultPlan::chaos(env_seed() ^ seed ^ hosts as u64))] {
            let faulty = fault.is_some();
            let out = Cluster::run_with(
                hosts,
                ClusterOptions { fault, ..ClusterOptions::default() },
                |comm| {
                    partition_delta_with_policy(
                        comm,
                        mutated_src.clone(),
                        kind,
                        &det_cfg(),
                        &prevs[comm.host()],
                        &batch,
                    )
                },
            );
            let delta_outs = out.results;
            let delta_parts: Vec<DistGraph> =
                delta_outs.iter().map(|r| r.dist_graph.clone()).collect();
            let v = check_delta_equivalence(&mutated, None, &delta_parts, &full);
            assert!(v.is_empty(), "{label} faults={faulty}: {v:#?}");

            // Accounting: a truly incremental run recomputes fewer
            // vertices than a full one and reuses edges somewhere
            // (hosts > 1 can leave one host with nothing to keep);
            // a fallback run reports full-recompute accounting.
            let n = mutated.num_nodes() as u64;
            let dirty = delta_outs[0].dirty_vertices;
            let reused: u64 = delta_outs.iter().map(|r| r.reused_edges).sum();
            if ["FEC", "GVC", "SVC", "FNC", "LDG", "HDRF"].contains(&kind.name()) {
                assert_eq!(dirty, n, "{label}: fallback must report a full recompute");
                assert_eq!(reused, 0, "{label}: fallback reuses nothing");
            } else {
                assert!(dirty < n, "{label}: dirty set {dirty} not smaller than {n}");
                assert!(reused > 0, "{label}: no edges reused");
                // Exactly the edges no input of whose decision changed: a
                // clean source and an unmoved destination (every
                // incremental policy above masters by `ContiguousEB`).
                let roles = dirty_set(
                    &ContiguousEB::new(&prevs[0].setup),
                    &ContiguousEB::new(&delta_outs[0].setup),
                    graph.num_nodes() as u64,
                    n,
                    hosts as u32,
                    &batch,
                );
                assert_eq!(roles.len(), dirty, "{label}: dirty vertices");
                let kept = mutated
                    .iter_edges()
                    .filter(|&(s, d)| !roles.contains(s) && !roles.moved(d))
                    .count() as u64;
                assert_eq!(reused, kept, "{label}: reused edges are not the edges kept by role");
            }
        }
    }
}

macro_rules! delta_oracle {
    ($($name:ident => ($kind:ident, $seed:expr)),* $(,)?) => {$(
        #[test]
        fn $name() { delta_matrix(PolicyKind::$kind, $seed); }
    )*};
}

// ≥3 policies spanning the three partition classes (edge-cut, 2D,
// general vertex-cut) plus a streaming-masters policy exercising the
// full-repartition fallback.
delta_oracle! {
    delta_oracle_eec => (Eec, 11),
    delta_oracle_hvc => (Hvc, 29),
    delta_oracle_cvc => (Cvc, 47),
    delta_oracle_jvc => (Jvc, 11),
    delta_oracle_fec_fallback => (Fec, 29),
}

/// Weighted delta row: AddEdge-with-weight, RemoveEdge, and SetWeight
/// events, delta vs full, weights preserved bit-for-bit.
#[test]
fn delta_weighted_matches_full() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 59));
    let data: Arc<Vec<u32>> = Arc::new(
        (0..graph.num_edges())
            .map(|i| (i as u32).wrapping_mul(2_654_435_761))
            .collect(),
    );
    let src = GraphSource::MemoryWeighted(graph.clone(), data.clone());
    let batch = seeded_batch(&graph, true, 0xBEEF, 24);
    let applied = graph.apply_batch(Some(&data), &batch).expect("batch applies");
    let mutated = Arc::new(applied.graph);
    let mutated_w = Arc::new(applied.weights.expect("weighted output"));
    let mutated_src = GraphSource::MemoryWeighted(mutated.clone(), mutated_w.clone());

    for hosts in [1, 4] {
        let kind = PolicyKind::Hvc;
        let (prevs, _) = run_full(hosts, kind, src.clone());
        let (full, _, _) = run(hosts, kind, mutated_src.clone(), None);
        let out = Cluster::run(hosts, |comm| {
            partition_delta_with_policy(
                comm,
                mutated_src.clone(),
                kind,
                &det_cfg(),
                &prevs[comm.host()],
                &batch,
            )
        });
        let delta_parts: Vec<DistGraph> =
            out.results.into_iter().map(|r| r.dist_graph).collect();
        let v = check_delta_equivalence(&mutated, Some(&mutated_w), &delta_parts, &full);
        assert!(v.is_empty(), "weighted delta hosts {hosts}: {v:#?}");
    }
}

/// Delta-vs-full rows in the shapes `delta_matrix` does not reach: CSC
/// output, where the rows of the previous partition are destinations, and
/// two threads per host, where the kept-edge copy runs on several tasks. A
/// CSC delta is also held to the CSR delta's parts transposed, byte for
/// byte. The graph is large enough that every host's rows split into
/// several tasks.
fn delta_shape_rows(kind: PolicyKind, weighted: bool, output: OutputFormat, threads: usize) {
    let cfg = CuspConfig { threads_per_host: threads, output, ..det_cfg() };
    let graph = Arc::new(erdos_renyi(1200, 9000, 71));
    let data: Arc<Vec<u32>> =
        Arc::new((0..graph.num_edges()).map(|i| (i as u32).wrapping_mul(2_654_435_761)).collect());
    let source_of = |g: &Arc<Csr>, w: &Arc<Vec<u32>>| {
        if weighted {
            GraphSource::MemoryWeighted(g.clone(), w.clone())
        } else {
            GraphSource::Memory(g.clone())
        }
    };
    let batch = seeded_batch(&graph, weighted, 0x5AFE, 60);
    let applied = graph.apply_batch(weighted.then(|| data.as_slice()), &batch).expect("batch applies");
    let mutated = Arc::new(applied.graph);
    let mutated_w = Arc::new(applied.weights.unwrap_or_default());
    let (src, mutated_src) = (source_of(&graph, &data), source_of(&mutated, &mutated_w));
    let mutated_data = weighted.then(|| mutated_w.as_slice());

    for hosts in [1, 2, 4] {
        let label = format!("{kind:?} {output:?} weighted={weighted} threads={threads} hosts={hosts}");
        let full_run = |source: &GraphSource, cfg: &CuspConfig| -> Vec<PartitionOutput> {
            Cluster::run(hosts, |comm| partition_with_policy(comm, source.clone(), kind, cfg)).results
        };
        let delta_run = |cfg: &CuspConfig| -> Vec<PartitionOutput> {
            let prevs = full_run(&src, cfg);
            Cluster::run(hosts, |comm| {
                partition_delta_with_policy(comm, mutated_src.clone(), kind, cfg, &prevs[comm.host()], &batch)
            })
            .results
        };
        let full: Vec<DistGraph> = full_run(&mutated_src, &cfg).into_iter().map(|r| r.dist_graph).collect();
        let outs = delta_run(&cfg);
        assert!(outs.iter().any(|r| r.reused_edges > 0), "{label}: nothing kept, nothing copied");
        let delta: Vec<DistGraph> = outs.into_iter().map(|r| r.dist_graph).collect();
        if output == OutputFormat::Csr {
            let v = check_delta_equivalence(&mutated, mutated_data, &delta, &full);
            assert!(v.is_empty(), "{label}: {v:#?}");
            continue;
        }
        // `check_partition` reads rows as sources: compare the CSC parts by
        // fingerprint and validate them transposed back to out-edges.
        assert_eq!(partition_fingerprint(&delta), partition_fingerprint(&full), "{label}");
        let as_csr: Vec<DistGraph> = delta.iter().map(DistGraph::transposed).collect();
        let v = check_partition(&mutated, mutated_data, &as_csr);
        assert!(v.is_empty(), "{label}: {v:#?}");
        // The delta path fills source rows and the freeze transposes them,
        // so the CSC delta is the CSR delta transposed.
        let csr_delta = delta_run(&CuspConfig { output: OutputFormat::Csr, ..cfg.clone() });
        for (h, (csc, csr)) in delta.iter().zip(&csr_delta).enumerate() {
            assert!(*csc == csr.dist_graph.transposed(), "{label}: host {h} is not the CSR delta transposed");
        }
    }
}

#[test]
fn delta_oracle_csc_output() {
    for kind in [PolicyKind::Eec, PolicyKind::Hvc, PolicyKind::Cvc] {
        for weighted in [false, true] {
            for threads in [1, 2] {
                delta_shape_rows(kind, weighted, OutputFormat::Csc, threads);
            }
        }
    }
}

#[test]
fn delta_oracle_csr_two_threads_per_host() {
    delta_shape_rows(PolicyKind::Cvc, false, OutputFormat::Csr, 2);
    delta_shape_rows(PolicyKind::Hvc, true, OutputFormat::Csr, 2);
}

/// An empty batch is the degenerate delta: nothing dirty, everything
/// reused, fingerprint unchanged from the previous partition, and nothing
/// on the wire but the empty tallies.
#[test]
fn delta_empty_batch_is_identity() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 23));
    let src = GraphSource::Memory(graph.clone());
    let (prevs, _) = run_full(4, PolicyKind::Cvc, src.clone());
    let prev_fp =
        partition_fingerprint(&prevs.iter().map(|r| r.dist_graph.clone()).collect::<Vec<_>>());
    let out = Cluster::run(4, |comm| {
        partition_delta_with_policy(
            comm,
            src.clone(),
            PolicyKind::Cvc,
            &det_cfg(),
            &prevs[comm.host()],
            &[],
        )
    });
    // Nothing is dirty, so the shared exchange sends every ordered pair of
    // hosts its one-byte empty tally, and no edge record moves.
    let pairs = 4 * 3;
    let meta = out.stats.phase("edge_assign").expect("edge assignment ran");
    assert_eq!((meta.total_messages(), meta.total_bytes()), (pairs, pairs), "edge_assign traffic");
    let records = out.stats.phase("construct").map_or(0, |p| p.total_messages());
    assert_eq!(records, 0, "construct traffic");
    let outs = out.results;
    assert_eq!(outs[0].dirty_vertices, 0, "empty batch dirtied vertices");
    assert_eq!(
        outs.iter().map(|r| r.reused_edges).sum::<u64>(),
        graph.num_edges(),
        "empty batch must reuse every edge"
    );
    let delta_parts: Vec<DistGraph> = outs.into_iter().map(|r| r.dist_graph).collect();
    assert_eq!(partition_fingerprint(&delta_parts), prev_fp, "identity delta diverged");
}

// --- Mutation tests: corrupt one invariant class of a *real* partition ---
// and assert the oracle attributes the damage to that class.

fn real_partition() -> (Arc<Csr>, Vec<DistGraph>) {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 3));
    let (parts, _, _) = run(4, PolicyKind::Cvc, GraphSource::Memory(graph.clone()), None);
    (graph, parts)
}

fn kinds(v: &[cusp::Violation]) -> Vec<ViolationKind> {
    let mut k: Vec<_> = v.iter().map(|v| v.kind).collect();
    k.dedup();
    k
}

/// Find a partition with at least one edge and return its index.
fn busy_part(parts: &[DistGraph]) -> usize {
    parts
        .iter()
        .position(|p| p.graph.num_edges() > 0)
        .expect("some partition holds edges")
}

#[test]
fn mutation_dropped_edge_is_caught() {
    let (graph, mut parts) = real_partition();
    let i = busy_part(&parts);
    let p = &mut parts[i];
    let mut dests = p.graph.dests().to_vec();
    dests.pop();
    let n = dests.len() as u64;
    let offsets: Vec<u64> = p.graph.offsets().iter().map(|&o| o.min(n)).collect();
    p.graph = Csr::from_parts(offsets, dests);
    let v = check_partition(&graph, None, &parts);
    assert!(
        v.iter().any(|v| v.kind == ViolationKind::EdgeCoverage),
        "expected EdgeCoverage, got {:?}",
        kinds(&v)
    );
}

#[test]
fn mutation_duplicated_edge_is_caught() {
    let (graph, mut parts) = real_partition();
    let i = busy_part(&parts);
    let p = &mut parts[i];
    let mut dests = p.graph.dests().to_vec();
    dests.push(*dests.last().unwrap());
    let mut offsets = p.graph.offsets().to_vec();
    *offsets.last_mut().unwrap() += 1;
    p.graph = Csr::from_parts(offsets, dests);
    let v = check_partition(&graph, None, &parts);
    assert!(
        v.iter().any(|v| v.kind == ViolationKind::EdgeCoverage),
        "expected EdgeCoverage, got {:?}",
        kinds(&v)
    );
}

#[test]
fn mutation_stolen_master_is_caught() {
    let (graph, mut parts) = real_partition();
    // A master proxy that points away from its own partition breaks the
    // single-master agreement.
    let i = parts.iter().position(|p| p.num_masters > 0).unwrap();
    parts[i].master_of[0] = (parts[i].part_id + 1) % parts[i].num_parts;
    let v = check_partition(&graph, None, &parts);
    assert!(
        v.iter().any(|v| v.kind == ViolationKind::MasterAssignment),
        "expected MasterAssignment, got {:?}",
        kinds(&v)
    );
}

#[test]
fn mutation_demoted_master_is_caught() {
    let (graph, mut parts) = real_partition();
    // Shrinking the master segment orphans the last master: no partition
    // claims the vertex any more.
    let i = parts.iter().position(|p| p.num_masters > 0).unwrap();
    parts[i].num_masters -= 1;
    let v = check_partition(&graph, None, &parts);
    assert!(
        v.iter().any(|v| v.kind == ViolationKind::MasterAssignment),
        "expected MasterAssignment, got {:?}",
        kinds(&v)
    );
}

#[test]
fn mutation_lying_mirror_is_caught() {
    let (graph, mut parts) = real_partition();
    let (i, l) = parts
        .iter()
        .enumerate()
        .find_map(|(i, p)| (p.num_mirrors() > 0).then_some((i, p.num_masters)))
        .expect("some partition has mirrors");
    // Point the mirror at a partition that does not host the master.
    let truth = parts[i].master_of[l];
    parts[i].master_of[l] = (truth + 1) % parts[i].num_parts;
    let v = check_partition(&graph, None, &parts);
    assert!(
        v.iter().any(|v| matches!(
            v.kind,
            ViolationKind::MirrorSymmetry | ViolationKind::MasterAssignment
        )),
        "expected MirrorSymmetry, got {:?}",
        kinds(&v)
    );
}

#[test]
fn mutation_out_of_range_dest_is_caught() {
    let (graph, mut parts) = real_partition();
    let i = busy_part(&parts);
    let p = &mut parts[i];
    let mut dests = p.graph.dests().to_vec();
    let last = dests.len() - 1;
    dests[last] = p.num_local() as u32 + 1000;
    p.graph = Csr::from_parts(p.graph.offsets().to_vec(), dests);
    let v = check_partition(&graph, None, &parts);
    assert!(
        v.iter().any(|v| v.kind == ViolationKind::CsrWellFormed),
        "expected CsrWellFormed, got {:?}",
        kinds(&v)
    );
}

#[test]
fn mutation_shuffled_id_map_is_caught() {
    let (graph, mut parts) = real_partition();
    let i = parts.iter().position(|p| p.num_masters >= 2).unwrap();
    parts[i].local2global.swap(0, 1);
    let v = check_partition(&graph, None, &parts);
    assert!(
        v.iter().any(|v| v.kind == ViolationKind::CsrWellFormed),
        "expected CsrWellFormed, got {:?}",
        kinds(&v)
    );
}

#[test]
fn mutation_altered_weight_is_caught() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 5));
    let data: Arc<Vec<u32>> = Arc::new((0..graph.num_edges()).map(|i| i as u32).collect());
    let src = GraphSource::MemoryWeighted(graph.clone(), data.clone());
    let (mut parts, _, _) = run(4, PolicyKind::Eec, src, None);
    let i = busy_part(&parts);
    parts[i].edge_data.as_mut().unwrap()[0] ^= 1;
    let v = check_partition(&graph, Some(&data), &parts);
    assert!(
        v.iter().any(|v| v.kind == ViolationKind::WeightPreservation),
        "expected WeightPreservation, got {:?}",
        kinds(&v)
    );
}

#[test]
fn mutation_leaky_phase_breaks_conservation() {
    // A host that sends a message nobody consumes must show up as a
    // CommConservation violation.
    let out = Cluster::run(2, |comm| {
        comm.set_phase("leak");
        if comm.host() == 0 {
            comm.send_bytes(1, Tag(9), cusp_net::Bytes::from_static(b"orphan"));
        }
        comm.barrier();
    });
    let v = check_comm_stats(&out.stats);
    assert!(
        v.iter().any(|v| v.kind == ViolationKind::CommConservation),
        "expected CommConservation, got {:?}",
        kinds(&v)
    );
}
