//! Wire-format parity: the bulk slice codec must be a pure CPU optimization.
//! Running the full pipeline with `scalar_codec` on and off must produce
//! bit-identical partitions AND bit-identical per-phase communication stats
//! (every host-pair's byte and message counts) — the Table V invariant.
//! The same must hold for `partition_delta`, which routes its dirty edges
//! through the same construction code.

use std::sync::Arc;

use cusp::{
    partition_delta_with_policy, partition_with_policy, CuspConfig, GraphSource, PolicyKind,
};
use cusp_graph::gen::{powerlaw, PowerLawConfig};
use cusp_graph::wal::seeded_batch;
use cusp_graph::Csr;
use cusp_net::{Cluster, CommStats};

fn hash_weights(g: &Csr) -> Vec<u32> {
    g.iter_edges().map(|(u, v)| (u.wrapping_mul(31).wrapping_add(v) % 1000) + 1).collect()
}

/// A full run, or (`delta`) the delta run that follows it after a seeded
/// mutation batch — both under the same codec setting.
fn run(weighted: bool, scalar: bool, delta: bool) -> (CommStats, Vec<cusp::DistGraph>) {
    let graph = Arc::new(powerlaw(PowerLawConfig::webcrawl(800, 6.0, 42)));
    let weights = Arc::new(hash_weights(&graph));
    let source_of = |g: Arc<Csr>, w: Arc<Vec<u32>>| {
        if weighted {
            GraphSource::MemoryWeighted(g, w)
        } else {
            GraphSource::Memory(g)
        }
    };
    // One thread per host: send-buffer flush boundaries are then a
    // deterministic function of the record stream, so message counts
    // are comparable across runs, not just byte counts.
    let cfg = CuspConfig {
        threads_per_host: 1,
        scalar_codec: scalar,
        ..CuspConfig::default()
    };
    let source = source_of(graph.clone(), weights.clone());
    // The delta path re-decides, and so ships, only the out-edges of dirty
    // sources and the edges into re-homed vertices. Hvc leaves nearly all of
    // a source's edges with its reader, so a small batch ships nothing and
    // the comparison would be vacuous; Cvc sends them across the grid.
    let kind = if delta { PolicyKind::Cvc } else { PolicyKind::Hvc };
    let full = Cluster::run(4, |comm| partition_with_policy(comm, source.clone(), kind, &cfg));
    if !delta {
        return (full.stats, full.results.into_iter().map(|r| r.dist_graph).collect());
    }
    let batch = seeded_batch(&graph, weighted, 0xC0DEC, 24);
    let applied = graph.apply_batch(weighted.then(|| weights.as_slice()), &batch).unwrap();
    let mutated = source_of(Arc::new(applied.graph), Arc::new(applied.weights.unwrap_or_default()));
    let out = Cluster::run(4, |comm| {
        let prev = &full.results[comm.host()];
        partition_delta_with_policy(comm, mutated.clone(), kind, &cfg, prev, &batch)
    });
    assert!(out.results.iter().any(|r| r.reused_edges > 0), "delta fell back to a full run");
    (out.stats, out.results.into_iter().map(|r| r.dist_graph).collect())
}

fn assert_stats_identical(a: &CommStats, b: &CommStats) {
    assert_eq!(a.phase_names(), b.phase_names());
    for (name, pa) in a.iter() {
        let pb = b.phase(name).unwrap();
        assert_eq!(pa.hosts(), pb.hosts());
        for s in 0..pa.hosts() {
            for d in 0..pa.hosts() {
                assert_eq!(
                    pa.bytes_between(s, d),
                    pb.bytes_between(s, d),
                    "phase {name}: bytes {s}->{d} diverged between scalar and bulk codec"
                );
                assert_eq!(
                    pa.messages_between(s, d),
                    pb.messages_between(s, d),
                    "phase {name}: messages {s}->{d} diverged between scalar and bulk codec"
                );
            }
        }
    }
}

fn check(weighted: bool, delta: bool) {
    let (bulk_stats, bulk_parts) = run(weighted, false, delta);
    let (scalar_stats, scalar_parts) = run(weighted, true, delta);
    assert_stats_identical(&bulk_stats, &scalar_stats);
    // The constructed partitions must match bit for bit as well.
    for (x, y) in bulk_parts.iter().zip(&scalar_parts) {
        assert_eq!(x.graph, y.graph);
        assert_eq!(x.local2global, y.local2global);
        assert_eq!(x.edge_data, y.edge_data);
    }
    // Sanity: the comparison is not vacuous — the policy `run` picks moves
    // edges (dirty ones included), so the construct phase must actually
    // have traffic.
    let construct = bulk_stats.phase("construct").unwrap();
    assert!(construct.total_bytes() > 0, "no construct traffic to compare");
}

#[test]
fn scalar_and_bulk_codec_are_byte_identical_unweighted() {
    check(false, false);
}

#[test]
fn scalar_and_bulk_codec_are_byte_identical_weighted() {
    check(true, false);
}

#[test]
fn delta_scalar_and_bulk_codec_are_byte_identical_unweighted() {
    check(false, true);
}

#[test]
fn delta_scalar_and_bulk_codec_are_byte_identical_weighted() {
    check(true, true);
}
