//! Chunk-streaming equivalence suite.
//!
//! `CuspConfig::chunk_edges` must be a pure memory/latency knob: a chunked
//! run is required to produce partitions bit-identical (by
//! [`partition_fingerprint`]) to the monolithic run, for every chunk
//! size, host count, and policy — while actually bounding the
//! resident edge state to O(max(chunk, d_max)) and keeping the per-phase
//! communication conserved.
//!
//! Construction sorts nothing, so what makes the parts byte-identical is
//! the row property checked last: a full run's row is the input row,
//! filtered and in input order, in every execution shape.

use std::collections::HashMap;
use std::sync::Arc;

use cusp::{
    check_all, check_comm_stats, deterministic_for_comparison, partition_fingerprint,
    partition_with_policy, CuspConfig, DistGraph, GraphSource, PolicyKind,
};
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_graph::gen::{powerlaw, PowerLawConfig};
use cusp_graph::Csr;
use cusp_net::{Cluster, ClusterOptions, CommStats, FaultPlan};

const NODES: usize = 150;
const EDGES: usize = 800;

/// Deterministic config with the given chunking (None = monolithic).
fn cfg(chunk_edges: Option<u64>) -> CuspConfig {
    CuspConfig {
        threads_per_host: 1,
        sync_rounds: 4,
        chunk_edges,
        ..CuspConfig::default()
    }
}

/// Partitions `source` on `hosts` hosts; returns the parts, the per-host
/// peak resident edge counts, and the run's comm stats.
fn run(
    hosts: usize,
    kind: PolicyKind,
    source: GraphSource,
    chunk_edges: Option<u64>,
) -> (Vec<DistGraph>, Vec<u64>, CommStats) {
    let out = Cluster::run(hosts, move |comm| {
        let r = partition_with_policy(comm, source.clone(), kind, &cfg(chunk_edges));
        (r.dist_graph, r.peak_resident_edges)
    });
    let (parts, peaks) = out.results.into_iter().unzip();
    (parts, peaks, out.stats)
}

fn max_degree(g: &Csr) -> u64 {
    g.offsets().windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
}

/// Chunk sizes covering the degenerate (one node per chunk), the prime
/// mid-size, and the larger-than-slice cases.
const CHUNKS: [u64; 3] = [1, 7, 1024];

/// Policies spanning the rule space: CVC (stateless 2D rules), FEC
/// (stateful load-aware master rule), HDRF (stateful edge rule that
/// replays during construction).
const POLICIES: [PolicyKind; 3] = [PolicyKind::Cvc, PolicyKind::Fec, PolicyKind::Hdrf];

/// The tentpole contract: chunked runs are bit-identical to monolithic
/// ones, for every chunk size × host count × policy, and all oracle
/// invariants keep holding.
#[test]
fn chunked_runs_match_monolithic_fingerprints() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 71));
    for kind in POLICIES {
        for hosts in [1usize, 4] {
            let src = GraphSource::Memory(graph.clone());
            let (whole, _, _) = run(hosts, kind, src.clone(), None);
            let reference = partition_fingerprint(&whole);
            for chunk in CHUNKS {
                let (parts, _, stats) = run(hosts, kind, src.clone(), Some(chunk));
                assert_eq!(
                    partition_fingerprint(&parts),
                    reference,
                    "{kind:?} at {hosts} hosts, chunk_edges {chunk}"
                );
                let v = check_all(&graph, None, &parts, &stats);
                assert!(v.is_empty(), "{kind:?} chunk {chunk}: {v:#?}");
            }
        }
    }
}

/// Streaming must actually bound memory: the measured per-host peak is at
/// most max(chunk_edges, d_max) — a chunk always holds at least one whole
/// node — and strictly below the host's full slice for small chunks.
#[test]
fn peak_resident_edges_is_bounded_by_chunk_size() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 71));
    let d_max = max_degree(&graph);
    let src = GraphSource::Memory(graph.clone());
    let (_, whole_peaks, _) = run(2, PolicyKind::Cvc, src.clone(), None);
    // Monolithic runs report their full slice: the per-host peaks are
    // exactly the read slices, which partition the edge set.
    assert!(whole_peaks.iter().all(|&p| p > 0));
    assert_eq!(whole_peaks.iter().sum::<u64>(), graph.num_edges());
    for chunk in CHUNKS {
        let (_, peaks, _) = run(2, PolicyKind::Cvc, src.clone(), Some(chunk));
        for &peak in &peaks {
            assert!(
                peak <= chunk.max(d_max),
                "chunk_edges {chunk}: peak {peak} exceeds bound {}",
                chunk.max(d_max)
            );
        }
    }
    // A small chunk is a real reduction, not a no-op.
    let (_, small_peaks, _) = run(2, PolicyKind::Cvc, src, Some(7));
    assert!(small_peaks.iter().all(|&p| p < graph.num_edges() / 2));
}

/// Per-chunk send-buffer flushes change message boundaries but must not
/// lose or invent traffic: every tagged phase stays conserved, and nothing
/// lands in the untagged bucket now that the Phase harness sets the tag.
#[test]
fn chunked_comm_stays_conserved_and_tagged() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 29));
    for chunk in [None, Some(7), Some(64)] {
        let (_, _, stats) = run(4, PolicyKind::Hvc, GraphSource::Memory(graph.clone()), chunk);
        assert!(check_comm_stats(&stats).is_empty(), "chunk {chunk:?}");
        if let Some(untagged) = stats.phase("(untagged)") {
            assert_eq!(
                untagged.total_bytes(),
                0,
                "phase-tagged pipeline leaked untagged traffic (chunk {chunk:?})"
            );
        }
    }
}

/// Weighted inputs stream their per-edge data chunk-aligned with the
/// destinations; fingerprints (which hash edge data) must still match.
#[test]
fn weighted_chunked_runs_match_monolithic() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 13));
    let data: Arc<Vec<u32>> = Arc::new(
        (0..graph.num_edges())
            .map(|i| (i as u32).wrapping_mul(2_654_435_761))
            .collect(),
    );
    let src = GraphSource::MemoryWeighted(graph.clone(), data.clone());
    let (whole, _, _) = run(4, PolicyKind::Hvc, src.clone(), None);
    let reference = partition_fingerprint(&whole);
    for chunk in CHUNKS {
        let (parts, _, stats) = run(4, PolicyKind::Hvc, src.clone(), Some(chunk));
        assert_eq!(partition_fingerprint(&parts), reference, "chunk {chunk}");
        let v = check_all(&graph, Some(&data), &parts, &stats);
        assert!(v.is_empty(), "chunk {chunk}: {v:#?}");
    }
}

/// The file-backed reader must stream the same partitions as the in-memory
/// backing (it re-reads byte ranges instead of copying windows).
#[test]
fn file_backed_chunks_match_memory_backed() {
    let graph = Arc::new(erdos_renyi(NODES, EDGES, 47));
    let mut path = std::env::temp_dir();
    path.push(format!("cusp-chunking-{}.bgr", std::process::id()));
    cusp_graph::write_bgr(&path, &graph).unwrap();
    let (mem, _, _) = run(4, PolicyKind::Cvc, GraphSource::Memory(graph.clone()), Some(7));
    let (file, _, _) = run(4, PolicyKind::Cvc, GraphSource::File(path.clone()), Some(7));
    assert_eq!(partition_fingerprint(&mem), partition_fingerprint(&file));
    std::fs::remove_file(&path).ok();
}

/// Asserts that each part's row for local source `l` is the input row of
/// `local2global[l]` restricted to the edges the part holds, in input
/// order, with each edge's weight beside it.
fn assert_rows_in_input_order(graph: &Csr, weights: &[u32], parts: &[DistGraph], label: &str) {
    for p in parts {
        let (offsets, data) = (p.graph.offsets(), p.edge_data.as_deref().expect("weighted input"));
        for (l, &s) in p.local2global.iter().enumerate() {
            let slots = offsets[l] as usize..offsets[l + 1] as usize;
            let dests = p.graph.dests()[slots.clone()].iter().map(|&d| p.local2global[d as usize]);
            let row: Vec<(u32, u32)> = dests.zip(data[slots].iter().copied()).collect();
            let mut held: HashMap<(u32, u32), usize> = HashMap::new();
            for &edge in &row {
                *held.entry(edge).or_default() += 1;
            }
            let first = graph.offsets()[s as usize] as usize;
            let input = graph.edges(s).iter().enumerate().map(|(i, &d)| (d, weights[first + i]));
            let in_order: Vec<(u32, u32)> = input
                .filter(|edge| match held.get_mut(edge) {
                    Some(c) if *c > 0 => {
                        *c -= 1;
                        true
                    }
                    _ => false,
                })
                .collect();
            assert_eq!(row, in_order, "{label}: part {} row of {s}", p.part_id);
        }
    }
}

/// The property the determinism contract rests on now that construction
/// sorts nothing: every source's edges for one owner travel as one record
/// from the one task that reads it, so a row is filled by one reservation
/// in input order. Then no execution shape can reorder a row — chunking,
/// chaos on the wire, or (for stateless rules) a second worker thread —
/// and the parts are byte-identical across all of them.
#[test]
fn full_run_rows_are_input_rows_in_input_order_in_every_shape() {
    // Skewed rows with repeated destinations, and a weight per edge that
    // differs from its neighbours', so any reordering within a row shows.
    let graph = Arc::new(powerlaw(PowerLawConfig::webcrawl(400, 6.0, 17)));
    let weights: Arc<Vec<u32>> =
        Arc::new((0..graph.num_edges() as u32).map(|e| e.wrapping_mul(2_654_435_761)).collect());
    let src = GraphSource::MemoryWeighted(graph.clone(), weights.clone());
    for kind in [PolicyKind::Eec, PolicyKind::Hvc, PolicyKind::Cvc, PolicyKind::Hdrf] {
        for hosts in [2usize, 4] {
            let run = |chunk_edges: Option<u64>, threads: usize, fault: Option<FaultPlan>| {
                let cfg = CuspConfig {
                    chunk_edges,
                    threads_per_host: threads,
                    ..deterministic_for_comparison(CuspConfig::default())
                };
                let src = src.clone();
                let opts = ClusterOptions { fault, ..ClusterOptions::default() };
                let out = Cluster::run_with(hosts, opts, move |comm| {
                    partition_with_policy(comm, src.clone(), kind, &cfg).dist_graph
                });
                out.results
            };
            let reference = run(None, 1, None);
            let label = format!("{kind:?} at {hosts} hosts");
            assert_rows_in_input_order(&graph, &weights, &reference, &label);
            let threads: &[usize] = if kind == PolicyKind::Hdrf { &[1] } else { &[1, 2] };
            for chunk in [None, Some(7)] {
                for &t in threads {
                    for fault in [None, Some(FaultPlan::chaos(0xC0FFEE ^ hosts as u64))] {
                        let chaos = fault.is_some();
                        let shape = format!("{label}, chunk {chunk:?}, {t} threads, chaos {chaos}");
                        for (a, b) in run(chunk, t, fault).iter().zip(&reference) {
                            let same = a.graph == b.graph && a.edge_data == b.edge_data;
                            assert!(same, "{shape}: part {}", a.part_id);
                        }
                    }
                }
            }
        }
    }
}
