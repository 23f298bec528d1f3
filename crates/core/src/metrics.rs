//! Partition quality metrics and full-partitioning validation.
//!
//! The paper evaluates quality primarily through application runtime, but
//! cites the structural metrics — replication factor and node/edge balance
//! (§V-C) — which are computed here. The validator is the test-suite
//! workhorse: it checks that a set of [`DistGraph`]s is a *correct*
//! partitioning of the original graph, as a first-violation `Result` view
//! of the [`crate::verify`] oracle.

use cusp_graph::Csr;

use crate::dist_graph::DistGraph;
use crate::verify::{check_partition, ViolationKind};

/// Structural quality summary of a partitioning.
#[derive(Clone, Debug)]
pub struct QualityReport {
    /// Average number of proxies per original vertex (paper §II).
    pub replication_factor: f64,
    /// max over hosts of masters / (total masters / k).
    pub node_balance: f64,
    /// max over hosts of local edges / (total edges / k).
    pub edge_balance: f64,
    /// Total mirrors across all partitions.
    pub total_mirrors: u64,
}

/// Computes quality metrics over all partitions of one graph.
pub fn quality(parts: &[DistGraph]) -> QualityReport {
    assert!(!parts.is_empty());
    let k = parts.len() as f64;
    let global_nodes = parts[0].global_nodes as f64;
    let total_proxies: u64 = parts.iter().map(|p| p.num_local() as u64).sum();
    let total_masters: u64 = parts.iter().map(|p| p.num_masters as u64).sum();
    let total_edges: u64 = parts.iter().map(|p| p.num_local_edges()).sum();
    let max_masters = parts.iter().map(|p| p.num_masters as u64).max().unwrap();
    let max_edges = parts.iter().map(|p| p.num_local_edges()).max().unwrap();
    QualityReport {
        replication_factor: total_proxies as f64 / global_nodes.max(1.0),
        node_balance: if total_masters == 0 {
            1.0
        } else {
            max_masters as f64 / (total_masters as f64 / k)
        },
        edge_balance: if total_edges == 0 {
            1.0
        } else {
            max_edges as f64 / (total_edges as f64 / k)
        },
        total_mirrors: total_proxies - total_masters,
    }
}

/// Validates that `parts` is a correct partitioning of `original`:
///
/// 1. every global vertex has exactly one master proxy, on the partition
///    all other proxies point to;
/// 2. the union of partition edge multisets equals the original's;
/// 3. every edge's endpoints exist as proxies in its partition;
/// 4. local id maps are internally consistent.
///
/// An adapter over [`check_partition`], the one implementation of these
/// invariants: returns its first violation as text. Per-edge data is not
/// examined (see [`validate_partitioning_weighted`]).
pub fn validate_partitioning(original: &Csr, parts: &[DistGraph]) -> Result<(), String> {
    check_partition(original, None, parts)
        .iter()
        .find(|v| v.kind != ViolationKind::WeightPreservation)
        .map_or(Ok(()), |v| Err(v.to_string()))
}

/// Like [`validate_partitioning`] but also checks that per-edge data
/// followed each edge: the multiset of `(src, dst, data)` triples across
/// all partitions equals the original's.
pub fn validate_partitioning_weighted(
    original: &Csr,
    original_data: &[u32],
    parts: &[DistGraph],
) -> Result<(), String> {
    if original_data.len() as u64 != original.num_edges() {
        return Err("original edge data length mismatch".into());
    }
    check_partition(original, Some(original_data), parts).first().map_or(Ok(()), |v| Err(v.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_graph::PartitionClass;

    /// Hand-built correct 2-way partitioning of a 4-node path 0→1→2→3
    /// with an extra edge 1→3, using source-cut with contiguous masters.
    fn good_parts() -> (Csr, Vec<DistGraph>) {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 3)]);
        // masters: {0,1} on part 0, {2,3} on part 1. Edges by src master:
        // part 0: (0,1), (1,2), (1,3); part 1: (2,3).
        let p0 = DistGraph {
            part_id: 0,
            num_parts: 2,
            global_nodes: 4,
            global_edges: 4,
            num_masters: 2,
            local2global: vec![0, 1, 2, 3], // masters 0,1; mirrors 2,3
            master_of: vec![0, 0, 1, 1],
            graph: Csr::from_edges(4, &[(0, 1), (1, 2), (1, 3)]),
            edge_data: None,
            class: PartitionClass::OutEdgeCut,
        };
        let p1 = DistGraph {
            part_id: 1,
            num_parts: 2,
            global_nodes: 4,
            global_edges: 4,
            num_masters: 2,
            local2global: vec![2, 3],
            master_of: vec![1, 1],
            graph: Csr::from_edges(2, &[(0, 1)]),
            edge_data: None,
            class: PartitionClass::OutEdgeCut,
        };
        (g, vec![p0, p1])
    }

    #[test]
    fn validator_accepts_correct_partitioning() {
        let (g, parts) = good_parts();
        validate_partitioning(&g, &parts).unwrap();
    }

    #[test]
    fn validator_rejects_missing_edge() {
        let (g, mut parts) = good_parts();
        parts[1].graph = Csr::from_edges(2, &[]);
        let err = validate_partitioning(&g, &parts).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn validator_rejects_duplicate_master() {
        let (g, mut parts) = good_parts();
        // Make node 2 a master on partition 0 as well.
        parts[0].num_masters = 3;
        parts[0].master_of = vec![0, 0, 0, 1];
        let err = validate_partitioning(&g, &parts).unwrap_err();
        assert!(err.contains("masters on partitions"), "{err}");
    }

    #[test]
    fn validator_rejects_wrong_master_of() {
        let (g, mut parts) = good_parts();
        parts[0].master_of[2] = 0; // node 2's master is actually on 1
        let err = validate_partitioning(&g, &parts).unwrap_err();
        assert!(err.contains("claims master"), "{err}");
    }

    #[test]
    fn quality_metrics() {
        let (_g, parts) = good_parts();
        let q = quality(&parts);
        // 6 proxies over 4 nodes.
        assert!((q.replication_factor - 1.5).abs() < 1e-12);
        assert_eq!(q.total_mirrors, 2);
        // Edge balance: max 3 local edges vs mean 2.
        assert!((q.edge_balance - 1.5).abs() < 1e-12);
        assert!((q.node_balance - 1.0).abs() < 1e-12);
    }
}
