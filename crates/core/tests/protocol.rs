//! Protocol-level tests of the partitioning phases: message framing,
//! synchronization elisions, and cross-configuration equivalence.

use std::sync::Arc;

use cusp::{metrics, partition_with_policy, CuspConfig, DistGraph, GraphSource, PolicyKind};
use cusp_graph::gen::powerlaw;
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_graph::gen::PowerLawConfig;
use cusp_net::Cluster;

fn parts_with(cfg: CuspConfig, kind: PolicyKind, seed: u64) -> Vec<DistGraph> {
    let graph = Arc::new(erdos_renyi(400, 4800, seed));
    let g = Arc::clone(&graph);
    let out = Cluster::run(4, move |comm| {
        partition_with_policy(comm, GraphSource::Memory(g.clone()), kind, &cfg).dist_graph
    });
    metrics::validate_partitioning(&graph, &out.results).unwrap();
    out.results
}

/// The §IV-D5 elision must not change the result, only the traffic:
/// forcing the stored-master protocol for a pure rule yields bit-identical
/// partitions.
#[test]
fn forced_stored_masters_is_bit_identical() {
    for kind in [PolicyKind::Eec, PolicyKind::Hvc, PolicyKind::Cvc] {
        let a = parts_with(CuspConfig::default(), kind, 7);
        let b = parts_with(
            CuspConfig {
                force_stored_masters: true,
                ..CuspConfig::default()
            },
            kind,
            7,
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.local2global, y.local2global, "{kind}");
            assert_eq!(x.graph, y.graph, "{kind}");
            assert_eq!(x.master_of, y.master_of, "{kind}");
            assert_eq!(x.num_masters, y.num_masters, "{kind}");
        }
    }
}

/// Buffer threshold changes traffic shape, never results.
#[test]
fn buffering_is_result_invariant() {
    let a = parts_with(
        CuspConfig {
            buffer_threshold: 0,
            ..CuspConfig::default()
        },
        PolicyKind::Cvc,
        11,
    );
    let b = parts_with(
        CuspConfig {
            buffer_threshold: 8 << 20,
            ..CuspConfig::default()
        },
        PolicyKind::Cvc,
        11,
    );
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.graph, y.graph);
        assert_eq!(x.local2global, y.local2global);
    }
}

/// Thread count changes scheduling, never results, for stateless policies.
#[test]
fn thread_count_is_result_invariant_for_stateless_policies() {
    for threads in [1usize, 2, 4] {
        let parts = parts_with(
            CuspConfig {
                threads_per_host: threads,
                ..CuspConfig::default()
            },
            PolicyKind::Hvc,
            13,
        );
        let reference = parts_with(CuspConfig::default(), PolicyKind::Hvc, 13);
        for (x, y) in parts.iter().zip(&reference) {
            assert_eq!(x.graph, y.graph, "threads={threads}");
            assert_eq!(x.local2global, y.local2global, "threads={threads}");
        }
    }
}

/// The edge-assignment metadata honors the "empty message" shortcut
/// (§IV-D2): under EEC nothing substantive flows, and the phase's total
/// bytes stay at the few-bytes-per-pair floor.
#[test]
fn eec_metadata_is_minimal() {
    let graph = Arc::new(erdos_renyi(500, 6000, 17));
    let out = Cluster::run(4, move |comm| {
        partition_with_policy(
            comm,
            GraphSource::Memory(graph.clone()),
            PolicyKind::Eec,
            &CuspConfig::default(),
        )
        .dist_graph
        .num_local_edges()
    });
    let meta = out.stats.phase("edge_assign").unwrap();
    // 4 hosts × 3 peers, 1-byte empty markers plus nothing else.
    assert_eq!(meta.total_messages(), 12);
    assert_eq!(meta.total_bytes(), 12);
}

/// Master-phase traffic scales with the requested set, not the graph: a
/// policy that needs no neighbor masters (stateless, non-pure path forced)
/// sends only requests + answers, bounded by the number of distinct remote
/// destinations.
#[test]
fn master_traffic_bounded_by_demand() {
    let graph = Arc::new(powerlaw(PowerLawConfig::webcrawl(1000, 8.0, 19)));
    let remote_dests_upper = graph.num_edges(); // loose upper bound
    let g = Arc::clone(&graph);
    let out = Cluster::run(4, move |comm| {
        partition_with_policy(
            comm,
            GraphSource::Memory(g.clone()),
            PolicyKind::Eec,
            &CuspConfig {
                force_stored_masters: true,
                ..CuspConfig::default()
            },
        )
        .dist_graph
        .part_id
    });
    let master = out.stats.phase("master").unwrap();
    // Each requested node costs ≤ 12 bytes (4 request + 8 answer) plus
    // framing; the total must be well under "send everything to everyone".
    let ceiling = remote_dests_upper * 16 + 4 * 4 * 64;
    assert!(
        master.total_bytes() < ceiling,
        "master traffic {} exceeds demand ceiling {}",
        master.total_bytes(),
        ceiling
    );
}

/// Table VI's message shape: the master phase is lockstep, so its message
/// count is a function of `k` and `sync_rounds` alone, at any thread
/// count. A neighbour-aware rule (SVC) sends one request and
/// `sync_rounds` SYNC/FINAL messages per ordered host pair; a
/// neighbour-blind stored rule (EEC with `force_stored_masters`) one
/// request and one FINAL. At 150 rounds over about 100 nodes a host, the
/// late rounds assign nothing and answer nothing: their SYNCs are sent all
/// the same.
#[test]
fn master_messages_are_k_k_minus_1_per_round() {
    const K: u64 = 4;
    let pairs = K * (K - 1);
    let graph = Arc::new(erdos_renyi(400, 4800, 23));
    for threads_per_host in [1usize, 4] {
        for (kind, force_stored_masters, sync_rounds, want) in [
            (PolicyKind::Svc, false, 7, pairs + 7 * pairs),
            (PolicyKind::Svc, false, 150, pairs + 150 * pairs),
            (PolicyKind::Eec, true, 7, pairs + pairs),
        ] {
            let cfg = CuspConfig { threads_per_host, sync_rounds, force_stored_masters, ..CuspConfig::default() };
            let g = Arc::clone(&graph);
            let out = Cluster::run(K as usize, move |comm| {
                partition_with_policy(comm, GraphSource::Memory(g.clone()), kind, &cfg).dist_graph
            });
            metrics::validate_partitioning(&graph, &out.results).unwrap();
            let master = out.stats.phase("master").unwrap();
            assert_eq!(master.total_messages(), want, "{kind:?} at {threads_per_host} thread(s)");
        }
    }
}

/// Stateful (FennelEB) partitions stay valid across thread counts (the
/// oracle's thread cells check they are also one partition).
#[test]
fn fennel_valid_across_thread_counts() {
    for threads in [1usize, 3] {
        let _ = parts_with(
            CuspConfig {
                threads_per_host: threads,
                sync_rounds: 7,
                ..CuspConfig::default()
            },
            PolicyKind::Svc,
            23,
        );
    }
}
