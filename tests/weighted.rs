//! Integration tests for per-edge data (the `.gr` format's `sizeofEdgeTy`):
//! weights must follow their edges through reading, assignment,
//! construction, CSC transposition, persistence, and analytics.

use std::sync::Arc;

use cusp::{
    metrics, partition_with_policy, CuspConfig, GraphSource, OutputFormat, PolicyKind,
};
use cusp_dgalois::{reference, sssp_weighted, SyncPlan};
use cusp_galois::ThreadPool;
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_graph::{read_bgr_weighted, write_bgr_weighted, Csr};
use cusp_net::Cluster;

/// Deterministic weights matching `cusp_dgalois::edge_weight`, in CSR edge
/// order, so the unweighted sssp oracle applies to the stored weights.
fn hash_weights(g: &Csr) -> Vec<u32> {
    g.iter_edges()
        .map(|(u, v)| cusp_dgalois::edge_weight(u, v) as u32)
        .collect()
}

fn partition_weighted(
    graph: &Arc<Csr>,
    weights: &Arc<Vec<u32>>,
    k: usize,
    kind: PolicyKind,
    cfg: CuspConfig,
) -> Vec<cusp::DistGraph> {
    let g = Arc::clone(graph);
    let w = Arc::clone(weights);
    let out = Cluster::run(k, move |comm| {
        partition_with_policy(
            comm,
            GraphSource::MemoryWeighted(g.clone(), w.clone()),
            kind,
            &cfg,
        )
        .dist_graph
    });
    out.results
}

#[test]
fn weights_follow_edges_across_policies() {
    let graph = Arc::new(erdos_renyi(400, 4000, 83));
    let weights = Arc::new(hash_weights(&graph));
    for kind in [
        PolicyKind::Eec,
        PolicyKind::Hvc,
        PolicyKind::Cvc,
        PolicyKind::Svc,
        PolicyKind::Hdrf,
    ] {
        let parts = partition_weighted(&graph, &weights, 4, kind, CuspConfig::default());
        metrics::validate_partitioning_weighted(&graph, &weights, &parts)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

#[test]
fn weighted_file_round_trip_and_partition() {
    let graph = Arc::new(erdos_renyi(300, 2500, 89));
    let weights = hash_weights(&graph);
    let mut path = std::env::temp_dir();
    path.push(format!("cusp-weighted-{}.bgr", std::process::id()));
    write_bgr_weighted(&path, &graph, &weights).unwrap();
    let (back, wback) = read_bgr_weighted(&path).unwrap();
    assert_eq!(back, *graph);
    assert_eq!(wback, weights);

    let p = path.clone();
    let out = Cluster::run(3, move |comm| {
        partition_with_policy(
            comm,
            GraphSource::File(p.clone()),
            PolicyKind::Cvc,
            &CuspConfig::default(),
        )
        .dist_graph
    });
    metrics::validate_partitioning_weighted(&graph, &weights, &out.results).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn csc_output_permutes_weights_correctly() {
    let graph = Arc::new(erdos_renyi(200, 1500, 97));
    let weights = Arc::new(hash_weights(&graph));
    let csr_parts = partition_weighted(&graph, &weights, 3, PolicyKind::Cvc, CuspConfig::default());
    let csc_parts = partition_weighted(
        &graph,
        &weights,
        3,
        PolicyKind::Cvc,
        CuspConfig {
            output: OutputFormat::Csc,
            ..CuspConfig::default()
        },
    );
    for (a, b) in csr_parts.iter().zip(&csc_parts) {
        // The CSC output is the transpose of the CSR output with weights
        // carried along.
        assert!(b.edge_data.is_some() && a.transposed() == *b, "host {}", a.part_id);
    }
}

#[test]
fn sssp_over_stored_weights_matches_oracle() {
    let graph = Arc::new(erdos_renyi(350, 3000, 101));
    let weights = Arc::new(hash_weights(&graph));
    let source = graph.max_out_degree_node().unwrap();
    let expect = reference::sssp_ref(&graph, source);
    for kind in [PolicyKind::Eec, PolicyKind::Hvc, PolicyKind::Svc] {
        let g = Arc::clone(&graph);
        let w = Arc::clone(&weights);
        let out = Cluster::run(4, move |comm| {
            let p = partition_with_policy(
                comm,
                GraphSource::MemoryWeighted(g.clone(), w.clone()),
                kind,
                &CuspConfig::default(),
            );
            let pool = ThreadPool::new(2);
            let plan = SyncPlan::build(comm, &p.dist_graph);
            sssp_weighted(comm, &pool, &p.dist_graph, &plan, source).master_values
        });
        let mut got = vec![u64::MAX; graph.num_nodes()];
        for host in out.results {
            for (gid, v) in host {
                got[gid as usize] = v;
            }
        }
        assert_eq!(got, expect, "weighted sssp mismatch under {kind}");
    }
}

#[test]
fn weighted_partition_persists() {
    let graph = Arc::new(erdos_renyi(150, 1200, 103));
    let weights = Arc::new(hash_weights(&graph));
    let parts = partition_weighted(&graph, &weights, 2, PolicyKind::Hvc, CuspConfig::default());
    let dir = std::env::temp_dir();
    for p in &parts {
        let path = dir.join(format!("cusp-wpart-{}-{}.part", std::process::id(), p.part_id));
        cusp::write_partition(&path, p).unwrap();
        let back = cusp::read_partition(&path).unwrap();
        assert_eq!(back.edge_data, p.edge_data);
        assert_eq!(back.graph, p.graph);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn validator_detects_corrupted_weights() {
    let graph = Arc::new(erdos_renyi(100, 800, 107));
    let weights = Arc::new(hash_weights(&graph));
    let mut parts = partition_weighted(&graph, &weights, 2, PolicyKind::Eec, CuspConfig::default());
    // Corrupt one weight.
    if let Some(data) = &mut parts[0].edge_data {
        if let Some(x) = data.first_mut() {
            *x = x.wrapping_add(1);
        }
    }
    let err = metrics::validate_partitioning_weighted(&graph, &weights, &parts).unwrap_err();
    assert!(err.contains("duplicated or altered"), "{err}");
}
