//! Integration tests: the full five-phase CuSP pipeline across policies,
//! host counts, graph shapes, and configurations.

use std::sync::Arc;

use cusp::{
    metrics, partition_with_policy, CuspConfig, DistGraph, GraphSource, OutputFormat, PolicyKind,
};
use cusp_graph::gen::{kronecker, powerlaw, KroneckerConfig, PowerLawConfig};
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_graph::Csr;
use cusp_net::Cluster;
use cusp_xtrapulp::{xtrapulp_partition, XpConfig};

fn partition_all(graph: &Arc<Csr>, k: usize, kind: PolicyKind, cfg: CuspConfig) -> Vec<DistGraph> {
    let g = Arc::clone(graph);
    let out = Cluster::run(k, move |comm| {
        partition_with_policy(comm, GraphSource::Memory(g.clone()), kind, &cfg)
    });
    out.results.into_iter().map(|r| r.dist_graph).collect()
}

fn check(graph: &Arc<Csr>, k: usize, kind: PolicyKind, cfg: CuspConfig) -> Vec<DistGraph> {
    let parts = partition_all(graph, k, kind, cfg);
    metrics::validate_partitioning(graph, &parts)
        .unwrap_or_else(|e| panic!("{kind} on {k} hosts invalid: {e}"));
    parts
}

#[test]
fn every_policy_produces_valid_partitions() {
    let graph = Arc::new(erdos_renyi(500, 5000, 7));
    for kind in [
        PolicyKind::Eec,
        PolicyKind::Hvc,
        PolicyKind::Cvc,
        PolicyKind::Fec,
        PolicyKind::Gvc,
        PolicyKind::Svc,
        PolicyKind::Cec,
        PolicyKind::Fnc,
        PolicyKind::Hdrf,
        PolicyKind::Ldg,
        PolicyKind::Bvc,
        PolicyKind::Jvc,
    ] {
        check(&graph, 4, kind, CuspConfig::default());
    }
}

#[test]
fn policies_valid_across_host_counts() {
    let graph = Arc::new(erdos_renyi(300, 3000, 11));
    for k in [1, 2, 3, 5, 8] {
        for kind in [PolicyKind::Eec, PolicyKind::Cvc, PolicyKind::Svc, PolicyKind::Hvc] {
            check(&graph, k, kind, CuspConfig::default());
        }
    }
}

#[test]
fn powerlaw_graph_partitions_validly() {
    let graph = Arc::new(powerlaw(PowerLawConfig::webcrawl(2000, 15.0, 3)));
    for kind in cusp::policies::ALL_POLICIES {
        check(&graph, 4, kind, CuspConfig::default());
    }
}

#[test]
fn kronecker_graph_partitions_validly() {
    let graph = Arc::new(kronecker(KroneckerConfig::graph500(10, 8, 5)));
    for kind in [PolicyKind::Eec, PolicyKind::Hvc, PolicyKind::Cvc, PolicyKind::Svc] {
        check(&graph, 4, kind, CuspConfig::default());
    }
}

#[test]
fn eec_exchanges_no_edges() {
    // EEC builds each partition from what the host read (paper §V-A).
    let graph = Arc::new(erdos_renyi(400, 6000, 13));
    let g = Arc::clone(&graph);
    let out = Cluster::run(4, move |comm| {
        partition_with_policy(comm, GraphSource::Memory(g.clone()), PolicyKind::Eec, &CuspConfig::default())
    });
    let construct = out.stats.phase("construct").unwrap();
    assert_eq!(construct.total_bytes(), 0, "EEC must not move edges");
    // Master phase of a pure rule is also silent.
    assert_eq!(out.stats.phase("master").unwrap().total_bytes(), 0);
}

#[test]
fn cvc_has_block_structure() {
    // Every edge lives on the host in the (src-master grid row, dst-master
    // grid column class) block — paper Fig. 1c.
    let graph = Arc::new(erdos_renyi(400, 5000, 17));
    let parts = check(&graph, 4, PolicyKind::Cvc, CuspConfig::default());
    // Recover each node's master partition.
    let mut master_of = vec![0u32; 400];
    for p in &parts {
        for &g in p.master_globals() {
            master_of[g as usize] = p.part_id;
        }
    }
    let p_c = 2; // 4 hosts → 2×2 grid
    for part in &parts {
        for (lu, lv) in part.graph.iter_edges() {
            let sm = master_of[part.global_of(lu) as usize];
            let dm = master_of[part.global_of(lv) as usize];
            let expect = (sm / p_c) * p_c + dm % p_c;
            assert_eq!(part.part_id, expect, "edge misplaced under CVC");
        }
    }
}

#[test]
fn hvc_respects_degree_threshold() {
    // With a tiny threshold, a hub's edges scatter to destination masters.
    let mut edges = Vec::new();
    for d in 1..100u32 {
        edges.push((0u32, d));
    }
    for i in 1..50u32 {
        edges.push((i, i + 1));
    }
    let graph = Arc::new(Csr::from_edges(100, &edges));
    let g = Arc::clone(&graph);
    let out = Cluster::run(4, move |comm| {
        let cfg = CuspConfig::default();
        cusp::partition(
            comm,
            GraphSource::Memory(g.clone()),
            &cfg,
            cusp::PartitionClass::GeneralVertexCut,
            |s| {
                (
                    cusp::policies::ContiguousEB::new(s),
                    cusp::policies::HybridEdge { degree_threshold: 10 },
                )
            },
        )
    });
    let parts: Vec<DistGraph> = out.results.into_iter().map(|r| r.dist_graph).collect();
    metrics::validate_partitioning(&graph, &parts).unwrap();
    // Node 0 (degree 99 > 10) must have its out-edges spread over several
    // partitions — the defining property of a vertex-cut on hubs.
    let hub_partitions = parts
        .iter()
        .filter(|p| {
            p.local_of(0)
                .map(|l| p.graph.out_degree(l) > 0)
                .unwrap_or(false)
        })
        .count();
    assert!(hub_partitions > 1, "hub edges not scattered: {hub_partitions}");
}

#[test]
fn csc_output_is_transpose_of_csr_output() {
    let graph = Arc::new(erdos_renyi(200, 2000, 23));
    let csr_parts = partition_all(&graph, 3, PolicyKind::Cvc, CuspConfig::default());
    let csc_parts = partition_all(
        &graph,
        3,
        PolicyKind::Cvc,
        CuspConfig {
            output: OutputFormat::Csc,
            ..CuspConfig::default()
        },
    );
    for (a, b) in csr_parts.iter().zip(&csc_parts) {
        assert_eq!(a.graph.transpose(), b.graph);
        assert_eq!(a.local2global, b.local2global);
    }
}

#[test]
fn single_host_partition_is_whole_graph() {
    let graph = Arc::new(erdos_renyi(100, 900, 29));
    let parts = check(&graph, 1, PolicyKind::Svc, CuspConfig::default());
    assert_eq!(parts[0].num_masters, 100);
    assert_eq!(parts[0].num_mirrors(), 0);
    assert_eq!(parts[0].num_local_edges(), 900);
}

#[test]
fn empty_and_tiny_graphs() {
    let empty = Arc::new(Csr::from_edges(0, &[]));
    check(&empty, 2, PolicyKind::Eec, CuspConfig::default());
    let single = Arc::new(Csr::from_edges(1, &[(0, 0)]));
    check(&single, 2, PolicyKind::Cvc, CuspConfig::default());
    let isolated = Arc::new(Csr::from_edges(10, &[(3, 7)]));
    for kind in [PolicyKind::Eec, PolicyKind::Hvc, PolicyKind::Svc] {
        check(&isolated, 4, kind, CuspConfig::default());
    }
}

#[test]
fn more_hosts_than_nodes() {
    let graph = Arc::new(erdos_renyi(3, 9, 31));
    for kind in [PolicyKind::Eec, PolicyKind::Cvc] {
        check(&graph, 6, kind, CuspConfig::default());
    }
}

#[test]
fn empty_host_ranges_are_valid_at_both_budgets() {
    // 16 hosts over 10 nodes: most read ranges are empty. An empty range is
    // still one (empty) chunk, which every phase walks and XtraPulp reads
    // whole, from memory and from a file alike.
    let graph = Arc::new(erdos_renyi(10, 40, 53));
    let path = std::env::temp_dir().join(format!("cusp-empty-ranges-{}.bgr", std::process::id()));
    cusp_graph::write_bgr(&path, &graph).unwrap();
    let valid = |what: String, parts: Vec<DistGraph>| {
        metrics::validate_partitioning(&graph, &parts).unwrap_or_else(|e| panic!("{what}: {e}"));
    };
    for source in [GraphSource::Memory(Arc::clone(&graph)), GraphSource::File(path.clone())] {
        let from = if matches!(source, GraphSource::File(_)) { "file" } else { "memory" };
        for kind in PolicyKind::ALL {
            for chunk_edges in [None, Some(1)] {
                let cfg = CuspConfig { chunk_edges, ..CuspConfig::default() };
                let source = source.clone();
                let out = Cluster::run(16, move |comm| {
                    partition_with_policy(comm, source.clone(), kind, &cfg)
                });
                let parts = out.results.into_iter().map(|r| r.dist_graph).collect();
                valid(format!("{kind} from {from}, chunk_edges {chunk_edges:?}"), parts);
            }
        }
        let out = Cluster::run(16, move |comm| {
            xtrapulp_partition(comm, source.clone(), &XpConfig::default())
        });
        let parts = out.results.into_iter().map(|r| r.partition.dist_graph).collect();
        valid(format!("XtraPulp from {from}"), parts);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn stateless_policies_are_deterministic() {
    let graph = Arc::new(erdos_renyi(300, 4000, 37));
    for kind in [PolicyKind::Eec, PolicyKind::Hvc, PolicyKind::Cvc] {
        let a = partition_all(&graph, 4, kind, CuspConfig::default());
        let b = partition_all(&graph, 4, kind, CuspConfig::default());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.local2global, y.local2global, "{kind} nondeterministic");
            assert_eq!(x.graph, y.graph, "{kind} nondeterministic");
            assert_eq!(x.master_of, y.master_of);
        }
    }
}

#[test]
fn sync_round_counts_all_produce_valid_partitions() {
    let graph = Arc::new(powerlaw(PowerLawConfig::webcrawl(1000, 10.0, 41)));
    for rounds in [1u32, 2, 10, 100] {
        let cfg = CuspConfig {
            sync_rounds: rounds,
            ..CuspConfig::default()
        };
        check(&graph, 4, PolicyKind::Svc, cfg);
    }
}

#[test]
fn buffer_thresholds_all_produce_valid_partitions() {
    let graph = Arc::new(erdos_renyi(400, 6000, 43));
    for threshold in [0usize, 64, 4096, 1 << 20] {
        let cfg = CuspConfig {
            buffer_threshold: threshold,
            ..CuspConfig::default()
        };
        check(&graph, 4, PolicyKind::Cvc, cfg);
    }
}

#[test]
fn node_weighted_reading_split_still_valid() {
    let graph = Arc::new(powerlaw(PowerLawConfig::webcrawl(800, 12.0, 47)));
    let cfg = CuspConfig {
        node_read_weight: 1,
        edge_read_weight: 1,
        ..CuspConfig::default()
    };
    for kind in [PolicyKind::Eec, PolicyKind::Hvc, PolicyKind::Svc] {
        check(&graph, 4, kind, cfg.clone());
    }
}

#[test]
fn file_source_round_trips_through_disk() {
    let graph = Arc::new(erdos_renyi(250, 3000, 53));
    let mut path = std::env::temp_dir();
    path.push(format!("cusp-int-test-{}.bgr", std::process::id()));
    cusp_graph::write_bgr(&path, &graph).unwrap();
    let p = path.clone();
    let out = Cluster::run(4, move |comm| {
        partition_with_policy(
            comm,
            GraphSource::File(p.clone()),
            PolicyKind::Cvc,
            &CuspConfig::default(),
        )
    });
    let parts: Vec<DistGraph> = out.results.into_iter().map(|r| r.dist_graph).collect();
    metrics::validate_partitioning(&graph, &parts).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn replication_factor_is_sane() {
    let graph = Arc::new(powerlaw(PowerLawConfig::webcrawl(2000, 20.0, 59)));
    let parts = check(&graph, 8, PolicyKind::Eec, CuspConfig::default());
    let q = metrics::quality(&parts);
    // Replication factor is at least 1 (every node has a master) and at
    // most k (a proxy on every host).
    assert!(q.replication_factor >= 1.0);
    assert!(q.replication_factor <= 8.0);
    // EEC masters are edge-balanced chunks; node balance can be loose but
    // edge distribution should be tight.
    assert!(q.edge_balance < 1.6, "edge balance {}", q.edge_balance);
}

#[test]
fn hdrf_runs_past_64_partitions() {
    // Each vertex's replica set is sized by k, not one 64-bit mask. The
    // graph is 130 mutual pairs per host's stream: a pair's first edge goes
    // to the least-loaded partition, so all 128 are used, and its second
    // edge follows the pair's replicas there.
    let k = 128;
    let pairs = 130 * k as u32;
    let edges: Vec<(u32, u32)> = (0..pairs).flat_map(|i| [(2 * i, 2 * i + 1), (2 * i + 1, 2 * i)]).collect();
    let graph = Arc::new(Csr::from_edges(2 * pairs as usize, &edges));
    let [one, two] = [1, 2].map(|threads_per_host| {
        check(&graph, k, PolicyKind::Hdrf, CuspConfig { threads_per_host, ..CuspConfig::default() })
    });
    for (x, y) in one.iter().zip(&two) {
        assert_eq!(x.local2global, y.local2global, "part {}", x.part_id);
        assert_eq!(x.graph, y.graph, "part {}", x.part_id);
        assert_eq!(x.master_of, y.master_of, "part {}", x.part_id);
    }
    // Only a pair that a read-range boundary cuts may be apart.
    let mut apart = 0;
    for p in &one {
        assert!(p.graph.num_edges() > 0, "partition {} holds no edge", p.part_id);
        let global = |(u, v): (u32, u32)| (p.local2global[u as usize], p.local2global[v as usize]);
        let held: std::collections::HashSet<_> = p.graph.iter_edges().map(global).collect();
        apart += held.iter().filter(|&&(u, v)| !held.contains(&(v, u))).count();
    }
    assert!(apart <= 2 * k, "{apart} edges apart from their pair");
}
