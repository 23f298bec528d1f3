//! Cache-correctness battery: what comes off disk must be
//! indistinguishable from a fresh partition run, and anything less is
//! treated as a miss, never served.
//!
//! - A disk round-trip passes the oracle (`cusp::check_partition`) and
//!   fingerprints identically to a fresh deterministic run.
//! - Corrupting any cached artifact (a `.part` file, the meta record, or
//!   deleting a part outright) silently falls back to re-partitioning —
//!   and the recomputed result again matches the original fingerprint.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use cusp_graph::gen::uniform::erdos_renyi;
use cusp_graph::GraphEvent;
use cusp_serve::{CacheTier, Quota, Request, Response, ServeConfig, ServerState};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cusp-serve-cache-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn state_at(dir: &std::path::Path) -> Arc<ServerState> {
    ServerState::new(ServeConfig {
        data_dir: dir.to_path_buf(),
        default_quota: Quota::default(),
        ..ServeConfig::default()
    })
    .expect("state")
}

fn upload(state: &ServerState, nodes: usize, seed: u64) -> cusp_graph::Csr {
    let g = erdos_renyi(nodes, nodes * 6, seed);
    let resp = state.handle(Request::UploadGraph {
        tenant: "acme".to_string(),
        name: "g".to_string(),
        offsets: g.offsets().to_vec(),
        dests: g.dests().to_vec(),
        weights: None,
    });
    assert!(matches!(resp, Response::GraphUploaded { .. }), "{resp:?}");
    g
}

fn partition(state: &ServerState) -> (u64, CacheTier) {
    match state.handle(Request::Partition {
        tenant: "acme".to_string(),
        graph: "g".to_string(),
        policy: "HVC".to_string(),
        hosts: 4,
        chunk_edges: 0,
    }) {
        Response::Partitioned { fingerprint, tier, .. } => (fingerprint, tier),
        other => panic!("partition failed: {other:?}"),
    }
}

/// The single on-disk cache entry directory for tenant "acme".
fn cache_entry_dir(dir: &std::path::Path) -> std::path::PathBuf {
    let cache_root = dir.join("tenants").join("acme").join("cache");
    let mut entries: Vec<_> = std::fs::read_dir(&cache_root)
        .expect("cache root exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one cache entry in {}", cache_root.display());
    entries.remove(0)
}

/// Disk round-trip: a server restart (new state, same data dir) serves
/// the key from disk; the loaded parts pass the partition oracle
/// against the original graph and fingerprint-match the fresh run.
#[test]
fn disk_roundtrip_passes_oracle_and_matches_fingerprint() {
    let dir = temp_dir("roundtrip");

    let state = state_at(&dir);
    let graph = upload(&state, 2000, 21);
    let (cold_fp, tier) = partition(&state);
    assert_eq!(tier, CacheTier::Cold);
    drop(state);

    // "Restart": fresh in-memory state over the same data dir.
    let state = state_at(&dir);
    upload(&state, 2000, 21);
    let (warm_fp, tier) = partition(&state);
    assert_eq!(tier, CacheTier::Disk, "restart must hit the disk tier");
    assert_eq!(warm_fp, cold_fp, "disk round-trip changed the partition");
    assert_eq!(state.cache_for("acme").jobs_run.load(Ordering::Relaxed), 0);

    // The served-from-disk entry is a *valid* partition of the graph,
    // not merely byte-stable: run the oracle on the loaded parts.
    let cache = state.cache_for("acme");
    let key = cusp_serve::CacheKey {
        graph: cusp::graph_fingerprint(&graph, None),
        policy: cusp::PolicyKind::Hvc,
        hosts: 4,
        chunk_edges: 0,
    };
    let (cached, _) = cache
        .get_or_compute(key, || panic!("must come from cache") )
        .expect("cached entry");
    let violations = cusp::check_partition(&graph, None, &cached.parts);
    assert!(violations.is_empty(), "oracle violations on disk-loaded parts: {violations:?}");
    assert_eq!(cusp::partition_fingerprint(&cached.parts), cold_fp);
}

/// The cache key carries no thread count, which is correct because no
/// partition depends on one: the server (one thread per host) serves what
/// the library computes at two and four, for a stored-master policy whose
/// rounds exchange state (SVC) and a pure one (HVC).
#[test]
fn served_partition_equals_the_library_at_any_thread_count() {
    let dir = temp_dir("served-equals-library");
    let state = state_at(&dir);
    let graph = Arc::new(upload(&state, 2000, 33));
    for policy in [cusp::PolicyKind::Svc, cusp::PolicyKind::Hvc] {
        let served = match state.handle(Request::Partition {
            tenant: "acme".to_string(),
            graph: "g".to_string(),
            policy: policy.name().to_string(),
            hosts: 4,
            chunk_edges: 0,
        }) {
            Response::Partitioned { fingerprint, .. } => fingerprint,
            other => panic!("partition failed: {other:?}"),
        };
        for threads_per_host in [2, 4] {
            let cfg = cusp::CuspConfig { threads_per_host, ..cusp::CuspConfig::default() };
            let src = cusp::GraphSource::Memory(Arc::clone(&graph));
            let parts = cusp_net::Cluster::run(4, |comm| {
                cusp::partition_with_policy(comm, src.clone(), policy, &cfg).dist_graph
            })
            .results;
            assert_eq!(cusp::partition_fingerprint(&parts), served, "{policy:?} at {threads_per_host} threads");
        }
    }
}

/// Flipping bytes inside a cached `.part` file makes the disk entry
/// unloadable; the server recomputes instead of serving the corruption,
/// and the recomputed fingerprint matches the original run.
#[test]
fn corrupt_part_file_falls_back_to_recompute() {
    let dir = temp_dir("corrupt-part");
    let state = state_at(&dir);
    upload(&state, 1800, 22);
    let (fp, _) = partition(&state);

    // Corrupt one part file mid-body.
    let entry = cache_entry_dir(&dir);
    let part = entry.join("part-0000.part");
    let mut bytes = std::fs::read(&part).expect("part file exists");
    let mid = bytes.len() / 2;
    let end = (mid + 64).min(bytes.len());
    for b in &mut bytes[mid..end] {
        *b ^= 0xA5;
    }
    std::fs::write(&part, &bytes).unwrap();

    let state = state_at(&dir);
    upload(&state, 1800, 22);
    let (fp2, tier) = partition(&state);
    assert_eq!(tier, CacheTier::Cold, "corrupt entry must be treated as a miss");
    assert_eq!(fp2, fp, "recomputed partition must match the original");
    assert_eq!(state.cache_for("acme").jobs_run.load(Ordering::Relaxed), 1);
}

/// Same for the meta record (fingerprint + CRC): truncate it and the
/// entry is a miss.
#[test]
fn corrupt_meta_falls_back_to_recompute() {
    let dir = temp_dir("corrupt-meta");
    let state = state_at(&dir);
    upload(&state, 1200, 23);
    let (fp, _) = partition(&state);

    let meta = cache_entry_dir(&dir).join("meta");
    let bytes = std::fs::read(&meta).expect("meta exists");
    std::fs::write(&meta, &bytes[..bytes.len() / 2]).unwrap();

    let state = state_at(&dir);
    upload(&state, 1200, 23);
    let (fp2, tier) = partition(&state);
    assert_eq!(tier, CacheTier::Cold);
    assert_eq!(fp2, fp);
}

/// A missing part file (torn write: meta survived, a part vanished) is
/// a miss, not a short read or a panic.
#[test]
fn missing_part_file_falls_back_to_recompute() {
    let dir = temp_dir("missing-part");
    let state = state_at(&dir);
    upload(&state, 1000, 24);
    let (fp, _) = partition(&state);

    std::fs::remove_file(cache_entry_dir(&dir).join("part-0002.part")).expect("remove part");

    let state = state_at(&dir);
    upload(&state, 1000, 24);
    let (fp2, tier) = partition(&state);
    assert_eq!(tier, CacheTier::Cold);
    assert_eq!(fp2, fp);
}

/// Different chunking of the same graph is a different cache key but —
/// under the determinism contract — the same partition: both entries
/// live side by side on disk and fingerprint-match each other.
#[test]
fn chunked_and_monolithic_entries_coexist() {
    let dir = temp_dir("chunked");
    let state = state_at(&dir);
    upload(&state, 1500, 25);

    let (fp_mono, _) = partition(&state);
    let resp = state.handle(Request::Partition {
        tenant: "acme".to_string(),
        graph: "g".to_string(),
        policy: "HVC".to_string(),
        hosts: 4,
        chunk_edges: 1024,
    });
    let Response::Partitioned { fingerprint: fp_chunked, .. } = resp else {
        panic!("chunked partition failed: {resp:?}")
    };
    assert_eq!(
        fp_mono, fp_chunked,
        "chunked streaming must not change the deterministic partition"
    );
    assert_eq!(state.cache_for("acme").jobs_run.load(Ordering::Relaxed), 2);

    let cache_root = dir.join("tenants").join("acme").join("cache");
    let entries = std::fs::read_dir(&cache_root).unwrap().count();
    assert_eq!(entries, 2, "two keys, two disk entries");
}

/// First present edge of `g`, for building removal events.
fn first_edge(g: &cusp_graph::Csr) -> (u32, u32) {
    let offsets = g.offsets();
    for s in 0..g.num_nodes() {
        if offsets[s + 1] > offsets[s] {
            return (s as u32, g.dests()[offsets[s] as usize]);
        }
    }
    panic!("graph has no edges");
}

/// Applying a mutation batch retires the old generation from *both*
/// cache tiers — not merely makes it unreachable. Re-uploading the
/// original bytes (same fingerprint) must recompute from scratch, and
/// the mutated graph's partition keys on the new fingerprint.
#[test]
fn apply_retires_old_generation_everywhere() {
    let dir = temp_dir("apply-invalidate");
    let state = state_at(&dir);
    let graph = upload(&state, 1600, 26);
    let gfp_old = cusp::graph_fingerprint(&graph, None);

    // Warm both tiers under the old generation.
    let (fp_old, tier) = partition(&state);
    assert_eq!(tier, CacheTier::Cold);
    let (fp_mem, tier) = partition(&state);
    assert_eq!(tier, CacheTier::Memory);
    assert_eq!(fp_mem, fp_old);

    let (s0, d0) = first_edge(&graph);
    let batch = vec![
        GraphEvent::AddEdge { src: 3, dst: 5, weight: None },
        GraphEvent::RemoveEdge { src: s0, dst: d0 },
    ];
    let resp = state.handle(Request::Apply {
        tenant: "acme".to_string(),
        graph: "g".to_string(),
        batch: batch.clone(),
    });
    let Response::Applied { old_fingerprint, new_fingerprint, dirty_vertices, .. } = resp
    else {
        panic!("apply failed: {resp:?}")
    };
    assert_eq!(old_fingerprint, gfp_old);
    assert_ne!(new_fingerprint, gfp_old);
    assert!(dirty_vertices > 0);

    // The server's resident graph now fingerprints as the locally
    // replayed mutation.
    let applied = graph.apply_batch(None, &batch).expect("batch applies locally");
    assert_eq!(cusp::graph_fingerprint(&applied.graph, None), new_fingerprint);

    // Disk: no entry directory keyed by the retired fingerprint remains.
    let cache_root = dir.join("tenants").join("acme").join("cache");
    let prefix = format!("g{gfp_old:016x}-");
    let stale = std::fs::read_dir(&cache_root)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .count();
    assert_eq!(stale, 0, "old-generation disk entries must be evicted");

    // The WAL journals exactly the acknowledged batch.
    let wal =
        cusp_graph::Wal::new(dir.join("tenants").join("acme").join("wal").join("g.wal"));
    assert_eq!(wal.load().expect("wal loads"), vec![batch.clone()]);

    // Partitioning the mutated graph is a fresh cold run under the new
    // fingerprint — the old entries cannot satisfy it.
    let (_, tier) = partition(&state);
    assert_eq!(tier, CacheTier::Cold);

    // Memory: restore the *original* bytes (same old fingerprint) —
    // still cold, proving the memory entry was evicted rather than
    // merely shadowed by the new fingerprint.
    upload(&state, 1600, 26);
    let jobs_before = state.cache_for("acme").jobs_run.load(Ordering::Relaxed);
    let (fp_again, tier) = partition(&state);
    assert_eq!(tier, CacheTier::Cold, "old-generation memory entry must be evicted");
    assert_eq!(fp_again, fp_old, "determinism: same bytes, same partition");
    assert_eq!(state.cache_for("acme").jobs_run.load(Ordering::Relaxed), jobs_before + 1);
}

/// Re-uploading a graph name establishes a new base graph, so the WAL
/// recorded against the old base must not survive: replaying a stale
/// journal over the new bytes would produce a wrong graph. After a
/// re-upload the log is empty, and the next apply journals only its own
/// batch.
#[test]
fn reupload_resets_wal() {
    let dir = temp_dir("reupload-wal");
    let state = state_at(&dir);
    upload(&state, 1400, 28);

    let first = vec![GraphEvent::AddEdge { src: 2, dst: 9, weight: None }];
    let resp = state.handle(Request::Apply {
        tenant: "acme".to_string(),
        graph: "g".to_string(),
        batch: first.clone(),
    });
    assert!(matches!(resp, Response::Applied { .. }), "{resp:?}");
    let wal =
        cusp_graph::Wal::new(dir.join("tenants").join("acme").join("wal").join("g.wal"));
    assert_eq!(wal.load().expect("wal loads"), vec![first]);

    // Replace the graph under the same name: the stale journal is gone.
    let replacement = upload(&state, 900, 29);
    assert!(wal.load().expect("wal loads").is_empty(), "stale WAL survived a re-upload");

    // A fresh apply journals exactly its own batch, and replaying that
    // log over the *new* base reproduces the resident graph.
    let second = vec![GraphEvent::AddEdge { src: 7, dst: 3, weight: None }];
    let resp = state.handle(Request::Apply {
        tenant: "acme".to_string(),
        graph: "g".to_string(),
        batch: second.clone(),
    });
    let Response::Applied { new_fingerprint, .. } = resp else {
        panic!("apply failed: {resp:?}")
    };
    let batches = wal.load().expect("wal loads");
    assert_eq!(batches, vec![second]);
    let mut replayed = replacement;
    for b in &batches {
        replayed = replayed.apply_batch(None, b).expect("replay applies").graph;
    }
    assert_eq!(cusp::graph_fingerprint(&replayed, None), new_fingerprint);
}

/// A partition job in flight when the mutation lands completes under
/// its own (old-fingerprint) key: its caller asked for the
/// pre-mutation graph and gets a valid partition of exactly that,
/// while requests against the mutated graph key on the new fingerprint
/// and never see the stale entry.
#[test]
fn inflight_pre_mutation_job_completes_under_own_key() {
    use std::sync::mpsc;

    let dir = temp_dir("apply-inflight");
    let state = state_at(&dir);
    let graph = upload(&state, 1000, 27);
    let gfp_old = cusp::graph_fingerprint(&graph, None);
    let key = cusp_serve::CacheKey {
        graph: gfp_old,
        policy: cusp::PolicyKind::Hvc,
        hosts: 2,
        chunk_edges: 0,
    };

    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let runner = {
        let state = Arc::clone(&state);
        let graph = Arc::new(graph.clone());
        std::thread::spawn(move || {
            state.cache_for("acme").get_or_compute(key, move || {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                let src = cusp::GraphSource::Memory(Arc::clone(&graph));
                let cfg = cusp::CuspConfig { threads_per_host: 2, ..cusp::CuspConfig::default() };
                let out = cusp_net::Cluster::run(2, move |comm| {
                    cusp::partition_with_policy(
                        comm,
                        src.clone(),
                        cusp::PolicyKind::Hvc,
                        &cfg,
                    )
                    .dist_graph
                });
                Ok(out.results)
            })
        })
    };
    started_rx.recv().expect("job starts");

    // The mutation lands while the old-generation job is running.
    let resp = state.handle(Request::Apply {
        tenant: "acme".to_string(),
        graph: "g".to_string(),
        batch: vec![GraphEvent::AddEdge { src: 1, dst: 2, weight: None }],
    });
    assert!(matches!(resp, Response::Applied { .. }), "{resp:?}");

    release_tx.send(()).unwrap();
    let (cached, tier) = runner
        .join()
        .expect("runner thread")
        .expect("in-flight job must complete despite the invalidation");
    assert_eq!(tier, CacheTier::Cold);
    let violations = cusp::check_partition(&graph, None, &cached.parts);
    assert!(violations.is_empty(), "in-flight result must be valid: {violations:?}");

    // The late completion must not leak: its generation was retired
    // while it ran, so its disk entry (written after the invalidation
    // sweep) is cleaned up by the job itself on publication.
    let cache_root = dir.join("tenants").join("acme").join("cache");
    let prefix = format!("g{gfp_old:016x}-");
    let stale = std::fs::read_dir(&cache_root)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .count();
    assert_eq!(stale, 0, "late disk write for the retired generation leaked");

    // The mutated graph's partition keys on the new fingerprint: a
    // request through the server recomputes rather than serving the
    // just-completed pre-mutation entry.
    let resp = state.handle(Request::Partition {
        tenant: "acme".to_string(),
        graph: "g".to_string(),
        policy: "HVC".to_string(),
        hosts: 2,
        chunk_edges: 0,
    });
    let Response::Partitioned { fingerprint, tier, .. } = resp else {
        panic!("partition failed: {resp:?}")
    };
    assert_eq!(tier, CacheTier::Cold, "stale in-flight entry must not satisfy the new graph");
    assert_ne!(fingerprint, cached.fingerprint, "the mutated graph partitions differently");
}
