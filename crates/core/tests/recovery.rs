//! End-to-end host-crash recovery oracle.
//!
//! Every cell of the crash matrix — victim host × crash phase × cluster
//! size × seed × input (monolithic, chunked, chunked from a file), with
//! and without durable checkpoints — must produce a partition
//! **bit-identical** to the crash-free deterministic
//! run (same `partition_fingerprint`), pass the full invariant oracle
//! ([`cusp::check_partition`]), and keep communication accounting
//! conserved ([`cusp::check_comm_stats`]) — replayed traffic is tracked in
//! its own counters, outside the conserved per-phase matrices.
//!
//! Recovery leans on the determinism contract: a restarted host
//! re-executes phases and regenerates byte-identical per-channel send
//! streams, at any thread count, which receivers dedupe by sequence
//! number. Checkpoints only change *how much* is re-executed, never the
//! result. The matrix runs one worker thread a host; `two_thread_row`
//! runs each policy family at two.

use std::path::PathBuf;
use std::sync::Arc;

use cusp::{
    check_comm_stats, check_partition, partition_fingerprint, partition_with_policy, CuspConfig,
    DistGraph, GraphSource, PartitionError, PolicyKind,
};
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_graph::Csr;
use cusp_net::{
    Cluster, ClusterError, ClusterOptions, CommStats, CrashPlan, RecoveryOptions, RecoveryReport,
    TraceConfig,
};

const NODES: usize = 150;
const EDGES: usize = 800;

/// Crash phases and the op budget the plan draws its trigger from: `read`
/// and `alloc` are killed right at phase entry (they are re-run wholesale
/// anyway), communicating phases somewhere in their first few operations.
const PHASES: [(&str, u64); 5] = [
    ("read", 1),
    ("master", 3),
    ("edge_assign", 3),
    ("alloc", 1),
    ("construct", 3),
];

/// The crash seed for recovery runs: `CUSP_CRASH_SEED` (set by the CI
/// chaos job to the current date) or a fixed default.
fn env_seed() -> u64 {
    std::env::var("CUSP_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDEC0DE)
}

/// Tight timings so the matrix runs in seconds: detection within tens of
/// milliseconds, short backoff, generous restart budget.
fn fast_recovery() -> RecoveryOptions {
    RecoveryOptions {
        heartbeat_timeout: std::time::Duration::from_millis(30),
        max_restarts: 3,
        restart_backoff: std::time::Duration::from_millis(2),
    }
}

/// The reproducibility configuration the recovery contract requires.
fn det_cfg(chunk: Option<u64>, ckpt: Option<PathBuf>) -> CuspConfig {
    CuspConfig {
        threads_per_host: 1,
        sync_rounds: 4,
        chunk_edges: chunk,
        checkpoint_dir: ckpt,
        ..CuspConfig::default()
    }
}

/// What a (possibly crash-injected) run yields: the partitions, the comm
/// statistics, and the recovery report and trace when requested.
type RunResult = (Vec<DistGraph>, CommStats, Option<RecoveryReport>, Option<cusp_obs::Trace>);

fn run(
    hosts: usize,
    kind: PolicyKind,
    source: GraphSource,
    crash: Option<CrashPlan>,
    cfg: CuspConfig,
    trace: Option<TraceConfig>,
) -> Result<RunResult, ClusterError> {
    let opts = ClusterOptions {
        crash,
        recovery: fast_recovery(),
        trace,
        ..ClusterOptions::default()
    };
    let out = Cluster::try_run_with(hosts, opts, move |comm| {
        partition_with_policy(comm, source.clone(), kind, &cfg)
    })?;
    let parts = out.results.into_iter().map(|r| r.dist_graph).collect();
    Ok((parts, out.stats, out.recovery, out.trace))
}

fn assert_clean(parts: &[DistGraph], stats: &CommStats, graph: &Csr, label: &str) {
    let v = check_partition(graph, None, parts);
    assert!(v.is_empty(), "{label}: partition violations: {v:#?}");
    let c = check_comm_stats(stats);
    assert!(c.is_empty(), "{label}: conservation violations: {c:#?}");
}

fn cell_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cusp-recovery-{}-{tag}", std::process::id()))
}

/// The full matrix for one cluster size: victims {first, last} × the five
/// phases × two crash seeds × {monolithic, chunked from memory, chunked
/// from the `.bgr` file}, all checkpointed. The file-backed input puts a
/// real reader (open file, seek position, recycled chunk buffer) in the
/// dying incarnation; the restarted one must rebuild its stream from
/// scratch. Whether a given cell's plan actually fires depends on the
/// seeded op threshold versus how many ops the victim executes in that
/// phase, so firing is asserted in aggregate (like the fault-injection
/// oracle); every cell's *result* must be bit-identical to the crash-free
/// baseline either way.
fn crash_matrix(hosts: usize) {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 29));
    let path = cell_dir(&format!("{hosts}-input.bgr"));
    cusp_graph::write_bgr(&path, &graph).unwrap();
    let victims = if hosts > 1 { vec![0, hosts - 1] } else { vec![0] };
    let seeds = [env_seed(), 0xFACADE];
    let inputs = [
        ("mem", GraphSource::Memory(graph.clone()), None),
        ("mem", GraphSource::Memory(graph.clone()), Some(64)),
        ("file", GraphSource::File(path.clone()), Some(13)),
    ];

    let mut fired = 0u64;
    for (backing, src, chunk) in inputs {
        let cfg = det_cfg(chunk, None);
        let (baseline, base_stats, _, _) =
            run(hosts, PolicyKind::Cvc, src.clone(), None, cfg, None).expect("clean run");
        assert_clean(&baseline, &base_stats, &graph, &format!("hosts {hosts} baseline"));
        let base_fp = partition_fingerprint(&baseline);
        assert_eq!(base_stats.replayed_bytes(), 0, "clean run must replay nothing");

        for &victim in &victims {
            for &(phase, max_ops) in &PHASES {
                for &seed in &seeds {
                    let label = format!(
                        "hosts {hosts} victim {victim} phase {phase} seed {seed:#x} {backing} chunk {chunk:?}"
                    );
                    let dir = cell_dir(&format!("{hosts}-{victim}-{phase}-{seed}-{backing}-{chunk:?}"));
                    let cfg = det_cfg(chunk, Some(dir.clone()));
                    let plan = CrashPlan::once(seed, victim, phase, max_ops);
                    let (parts, stats, rec, _) =
                        run(hosts, PolicyKind::Cvc, src.clone(), Some(plan), cfg, None)
                            .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let _ = std::fs::remove_dir_all(&dir);

                    assert_clean(&parts, &stats, &graph, &label);
                    assert_eq!(
                        partition_fingerprint(&parts),
                        base_fp,
                        "{label}: crash changed the partition"
                    );
                    let rec = rec.expect("crash plan was armed");
                    if rec.crashes > 0 {
                        assert!(rec.restarts >= 1, "{label}: crashed without restart");
                        fired += rec.crashes;
                    } else {
                        assert_eq!(stats.replayed_messages(), 0, "{label}: replay without crash");
                    }
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(
        fired >= 12,
        "crash plans fired only {fired} times across the hosts={hosts} matrix"
    );
}

#[test]
fn crash_matrix_2_hosts() {
    crash_matrix(2);
}

#[test]
fn crash_matrix_4_hosts() {
    crash_matrix(4);
}

#[test]
fn crash_matrix_8_hosts() {
    crash_matrix(8);
}

/// Without checkpoints the restarted host re-runs the whole pipeline; the
/// result must still be bit-identical (pure re-execution + receiver-side
/// dedup), it just replays more.
#[test]
fn uncheckpointed_restart_is_bit_identical() {
    let hosts = 4;
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 47));
    let src = GraphSource::Memory(graph.clone());
    let (baseline, _, _, _) =
        run(hosts, PolicyKind::Cvc, src.clone(), None, det_cfg(None, None), None).expect("clean");
    let base_fp = partition_fingerprint(&baseline);

    let mut fired = 0u64;
    for &(phase, max_ops) in &PHASES {
        for seed in 0..4u64 {
            let label = format!("no-ckpt phase {phase} seed {seed}");
            let plan = CrashPlan::once(env_seed() ^ seed, 1, phase, max_ops);
            let (parts, stats, rec, _) =
                run(hosts, PolicyKind::Cvc, src.clone(), Some(plan), det_cfg(None, None), None)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_clean(&parts, &stats, &graph, &label);
            assert_eq!(partition_fingerprint(&parts), base_fp, "{label}");
            fired += rec.expect("armed").crashes;
        }
    }
    assert!(fired >= 3, "crash plans fired only {fired} times");
}

/// Checkpoints must actually skip work: for the same construct-phase crash,
/// the checkpointed run replays strictly less traffic than the full
/// restart (the master and edge-assignment exchanges are not re-sent).
/// Stored masters (forced) make the skipped phases traffic-heavy, and a
/// stateful edge rule (HDRF) proves snapshot-resume preserves the replay
/// determinism of partitioning state.
#[test]
fn checkpoint_skips_reexecution_traffic() {
    let hosts = 4;
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 11));
    let src = GraphSource::Memory(graph.clone());
    let stored_cfg = |ckpt: Option<PathBuf>| CuspConfig {
        force_stored_masters: true,
        ..det_cfg(None, ckpt)
    };

    // Find a seed whose plan actually fires during construction on host 2.
    let seed = (0..500u64)
        .find(|&s| CrashPlan::once(s, 2, "construct", 3).decide(2, "construct") == Some(2))
        .expect("a firing seed exists");
    let plan = CrashPlan::once(seed, 2, "construct", 3);

    let (clean, clean_stats, _, _) =
        run(hosts, PolicyKind::Hdrf, src.clone(), None, stored_cfg(None), None).expect("clean");
    assert_clean(&clean, &clean_stats, &graph, "hdrf clean");
    let fp = partition_fingerprint(&clean);

    let (full, full_stats, full_rec, _) =
        run(hosts, PolicyKind::Hdrf, src.clone(), Some(plan), stored_cfg(None), None)
            .expect("full restart");
    let full_rec = full_rec.expect("armed");
    assert_eq!(full_rec.crashes, 1, "plan must fire");
    assert_eq!(partition_fingerprint(&full), fp, "full restart diverged");

    let dir = cell_dir("skip");
    let (ckpt, ckpt_stats, ckpt_rec, _) =
        run(hosts, PolicyKind::Hdrf, src.clone(), Some(plan), stored_cfg(Some(dir.clone())), None)
            .expect("checkpointed restart");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(ckpt_rec.expect("armed").crashes, 1, "plan must fire");
    assert_eq!(partition_fingerprint(&ckpt), fp, "checkpointed restart diverged");
    assert_clean(&ckpt, &ckpt_stats, &graph, "hdrf ckpt");

    assert!(
        ckpt_stats.replayed_bytes() < full_stats.replayed_bytes(),
        "checkpoint did not reduce replayed traffic ({} vs {})",
        ckpt_stats.replayed_bytes(),
        full_stats.replayed_bytes()
    );
}

/// A neighbour-aware rule crashed *inside* the master phase. SYNC answers
/// carry no node ids — a run is "the masters of the next `n` ids you asked
/// me for" — so the restarted host's decoding leans on each peer's channel
/// being replayed to it from the first message, in order, and on its own
/// re-sent answers deduplicating against the ones the survivors already
/// consumed. Full restart and checkpointed restart must both end bit-identical
/// to the clean run.
#[test]
fn neighbour_aware_rule_recovers_from_a_crash_in_master() {
    let hosts = 4;
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 61));
    let src = GraphSource::Memory(graph.clone());
    let (clean, clean_stats, _, _) =
        run(hosts, PolicyKind::Svc, src.clone(), None, det_cfg(None, None), None).expect("clean");
    assert_clean(&clean, &clean_stats, &graph, "svc clean");
    let fp = partition_fingerprint(&clean);

    // With 4 hosts and 4 rounds the phase is 30 sends and receives on each
    // host: 6 exchange the requests, 6 more make each of the three SYNC
    // rounds, 6 the FINALs. Die in the requests, in the first SYNC round,
    // with answers already decoded in the third, and among the FINALs.
    const MASTER_OPS: u64 = 30;
    for op in [1, 8, 20, 26] {
        let seed = (0..5000u64)
            .find(|&s| CrashPlan::once(s, 2, "master", MASTER_OPS).decide(2, "master") == Some(op))
            .expect("a firing seed exists");
        let plan = CrashPlan::once(seed, 2, "master", MASTER_OPS);
        let dir = cell_dir(&format!("svc-master-{op}"));
        for ckpt in [None, Some(dir.clone())] {
            let label = format!("svc master crash at op {op}, checkpoints {}", ckpt.is_some());
            let (parts, stats, rec, _) =
                run(hosts, PolicyKind::Svc, src.clone(), Some(plan), det_cfg(None, ckpt), None)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(rec.expect("armed").crashes, 1, "{label}: plan must fire");
            assert_clean(&parts, &stats, &graph, &label);
            assert_eq!(partition_fingerprint(&parts), fp, "{label}: crash changed the partition");
            assert!(stats.replayed_messages() > 0, "{label}: nothing was replayed");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Recovery at two threads per host, one row per policy family: pure
/// masters (CVC), Fennel masters with state sync (SVC) and a stateful edge
/// rule (HDRF). A restarted host re-sends the messages its first
/// incarnation sent whatever its pool does, so its peers' deduplication
/// holds and every crash ends bit-identical to the clean run, with the
/// same per-phase traffic between every pair of hosts. A small buffer
/// threshold cuts construction into many messages per peer, so a crash
/// lands among them; monolithic and streamed, with and without
/// checkpoints.
fn two_thread_row(kind: PolicyKind) {
    let hosts = 4;
    let graph = Arc::new(erdos_renyi(4000, 24_000, 71));
    let src = GraphSource::Memory(graph.clone());
    let cfg = |chunk, ckpt| CuspConfig {
        threads_per_host: 2,
        buffer_threshold: 4 << 10,
        ..det_cfg(chunk, ckpt)
    };
    let mut fired = 0;
    for chunk in [None, Some(2048)] {
        let (clean, clean_stats, _, _) =
            run(hosts, kind, src.clone(), None, cfg(chunk, None), None).expect("clean");
        let fp = partition_fingerprint(&clean);
        for (phase, max_ops) in [("master", 6), ("edge_assign", 6), ("construct", 12)] {
            let dir = cell_dir(&format!("two-threads-{kind:?}-{chunk:?}-{phase}"));
            for ckpt in [None, Some(dir.clone())] {
                let label = format!("{kind:?} chunk {chunk:?} crash in {phase}, checkpoints {}", ckpt.is_some());
                let plan = CrashPlan::once(env_seed(), 1, phase, max_ops);
                let (parts, stats, rec, _) = run(hosts, kind, src.clone(), Some(plan), cfg(chunk, ckpt), None)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_clean(&parts, &stats, &graph, &label);
                assert_eq!(partition_fingerprint(&parts), fp, "{label}: crash changed the partition");
                for ((name, a), (_, b)) in clean_stats.iter().zip(stats.iter()) {
                    assert_eq!(a, b, "{label}: the {name} row differs from the clean run");
                }
                fired += rec.expect("armed").crashes;
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(fired >= 6, "{kind:?}: crash plans fired only {fired} times");
}

#[test]
fn two_threads_recover_pure_masters() {
    two_thread_row(PolicyKind::Cvc);
}

#[test]
fn two_threads_recover_fennel_masters() {
    two_thread_row(PolicyKind::Svc);
}

#[test]
fn two_threads_recover_a_stateful_edge_rule() {
    two_thread_row(PolicyKind::Hdrf);
}

/// A host that keeps dying exhausts its restart budget and surfaces as a
/// typed error — mapped into [`PartitionError::HostLost`] — instead of a
/// hang or a panic.
#[test]
fn exhausted_restarts_surface_as_partition_error() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 7));
    let src = GraphSource::Memory(graph);
    let plan = CrashPlan::repeating(3, 0, "edge_assign");
    let err = run(2, PolicyKind::Cvc, src, Some(plan), det_cfg(None, None), None)
        .err()
        .expect("restart budget must exhaust");
    let pe = PartitionError::from(err);
    assert_eq!(
        pe,
        PartitionError::HostLost { host: 0, restarts: fast_recovery().max_restarts }
    );
    let msg = pe.to_string();
    assert!(msg.contains("host 0"), "{msg}");
}

/// A host lost while the survivors are draining construction's records —
/// every record its own message, two workers a host, a streamed slice so
/// the victim dies after its first chunk while the others still walk —
/// surfaces as `HostLost`, not as a survivor's panic and not as a hang. A
/// host thread that sees the abort unwinds with the cluster's silent
/// signal, so no survivor unwinds with a panic message.
#[test]
fn a_host_lost_while_workers_drain_is_host_lost() {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    let hosts = 4;
    let victim = 2;
    let graph = Arc::new(erdos_renyi(40_000, 400_000, 5));
    let cfg = CuspConfig { threads_per_host: 2, buffer_threshold: 0, ..det_cfg(Some(4096), None) };
    let recovery = RecoveryOptions { max_restarts: 0, ..fast_recovery() };
    let opts = ClusterOptions {
        crash: Some(CrashPlan::once(env_seed(), victim, "construct", 1)),
        recovery,
        ..ClusterOptions::default()
    };
    let panicked = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&panicked);
    let started = Instant::now();
    let lost = Cluster::try_run_with(hosts, opts, move |comm| {
        let run = catch_unwind(AssertUnwindSafe(|| {
            partition_with_policy(comm, GraphSource::Memory(graph.clone()), PolicyKind::Cvc, &cfg)
        }));
        run.unwrap_or_else(|payload| {
            if payload.is::<String>() || payload.is::<&str>() {
                seen.fetch_add(1, Ordering::Relaxed);
            }
            resume_unwind(payload)
        })
    })
    .err()
    .expect("a host crashed with no restart left");
    let took = started.elapsed();
    assert_eq!(lost, ClusterError::HostLost { host: victim, restarts: 0 });
    assert_eq!(panicked.load(Ordering::Relaxed), 0, "a survivor unwound with a panic");
    // The crashed host's detection wait and one 50 ms poll of the
    // survivors' blocked receives, after an unoptimised build on a loaded
    // machine has partitioned up to construction: well inside 20 s.
    assert!(took < Duration::from_secs(20), "lost after {took:?}");
}

/// A traced crashed-and-recovered partitioning run records the outage as
/// first-class events and still exports a structurally valid trace (the
/// crashed incarnation's open phase spans are closed synthetically).
#[test]
fn traced_crash_run_validates() {
    let hosts = 4;
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 29));
    let src = GraphSource::Memory(graph.clone());
    let seed = (0..500u64)
        .find(|&s| CrashPlan::once(s, 1, "construct", 3).decide(1, "construct") == Some(2))
        .expect("a firing seed exists");
    let plan = CrashPlan::once(seed, 1, "construct", 3);
    let dir = cell_dir("traced");
    let (parts, stats, rec, trace) = run(
        hosts,
        PolicyKind::Cvc,
        src,
        Some(plan),
        det_cfg(None, Some(dir.clone())),
        Some(TraceConfig::default()),
    )
    .expect("recovered run");
    let _ = std::fs::remove_dir_all(&dir);
    assert_clean(&parts, &stats, &graph, "traced crash");
    assert_eq!(rec.expect("armed").crashes, 1);

    let trace = trace.expect("trace requested");
    let json = cusp_obs::export_chrome_trace(&trace);
    let check = cusp_obs::validate_trace_json(&json).expect("valid trace");
    assert_eq!(check.processes, hosts);
    assert_eq!(check.crash_events, 1, "host_crash instant missing");
    assert_eq!(check.restart_events, 1, "host_restart instant missing");
}

/// Replayed traffic is accounted outside the conserved phase matrices:
/// the counters move exactly when a crash fired, and conservation holds
/// regardless.
#[test]
fn replay_counters_track_recovery() {
    let hosts = 2;
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 13));
    let src = GraphSource::Memory(graph.clone());
    let mut saw_replay = false;
    for seed in 0..6u64 {
        let plan = CrashPlan::once(seed, 1, "construct", 3);
        let (parts, stats, rec, _) =
            run(hosts, PolicyKind::Cvc, src.clone(), Some(plan), det_cfg(None, None), None)
                .expect("recovered");
        assert_clean(&parts, &stats, &graph, &format!("seed {seed}"));
        let rec = rec.expect("armed");
        if rec.crashes > 0 && stats.replayed_messages() > 0 {
            assert!(stats.replayed_bytes() > 0);
            saw_replay = true;
        }
        if rec.crashes == 0 {
            assert_eq!(stats.replayed_messages(), 0);
        }
    }
    assert!(saw_replay, "no construct-phase crash replayed traffic across seeds");
}
