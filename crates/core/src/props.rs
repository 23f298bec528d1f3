//! The `prop` structure of the paper (§III-A): static graph properties a
//! partitioning rule may query.
//!
//! `prop` exposes *global* scalars (node/edge/partition counts) plus
//! *local* structural queries — out-degree, first-edge index, and neighbor
//! list — valid only for the nodes whose edges this host read from disk.
//! The rules in Algorithms 1 and 2 only ever query the node (or edge
//! source) currently being assigned, which is always locally read; the
//! accessors panic loudly if a custom rule violates that contract instead
//! of silently returning wrong data.

use cusp_graph::{EdgeIdx, GraphSlice, Node};

use crate::PartId;

/// Static graph properties queryable by partitioning rules.
pub struct LocalProps<'a> {
    num_nodes: u64,
    num_edges: u64,
    num_partitions: PartId,
    slice: &'a GraphSlice,
}

impl<'a> LocalProps<'a> {
    /// Builds the property view for one host.
    pub fn new(num_nodes: u64, num_edges: u64, num_partitions: PartId, slice: &'a GraphSlice) -> Self {
        LocalProps {
            num_nodes,
            num_edges,
            num_partitions,
            slice,
        }
    }

    /// `prop.getNumNodes()`.
    #[inline]
    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    /// `prop.getNumEdges()`.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// `prop.getNumPartitions()`.
    #[inline]
    pub fn num_partitions(&self) -> PartId {
        self.num_partitions
    }

    /// First node of the locally read range.
    #[inline]
    pub fn local_lo(&self) -> Node {
        self.slice.node_lo
    }

    /// One past the last node of the locally read range.
    #[inline]
    pub fn local_hi(&self) -> Node {
        self.slice.node_hi
    }

    #[inline]
    fn check_local(&self, v: Node) {
        assert!(
            v >= self.slice.node_lo && v < self.slice.node_hi,
            "rule queried structural property of node {v}, which is outside \
             this host's read range [{}, {})",
            self.slice.node_lo,
            self.slice.node_hi
        );
    }

    /// `prop.getNodeOutDegree(v)` — `v` must be locally read.
    #[inline]
    pub fn out_degree(&self, v: Node) -> u64 {
        self.check_local(v);
        self.slice.out_degree(v)
    }

    /// `prop.getNodeOutEdge(v, 0)` — global index of `v`'s first out-edge.
    #[inline]
    pub fn first_edge(&self, v: Node) -> EdgeIdx {
        self.check_local(v);
        self.slice.first_edge(v)
    }

    /// `prop.getNodeOutNeighbors(v)` — `v` must be locally read.
    #[inline]
    pub fn out_neighbors(&self, v: Node) -> &[Node] {
        self.check_local(v);
        self.slice.edges(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp_graph::Csr;
    use std::sync::Arc;

    fn props_over(lo: Node, hi: Node) -> (Csr, GraphSlice) {
        let g = Csr::from_edges(6, &[(0, 1), (2, 3), (2, 4), (3, 0), (5, 5)]);
        let s = GraphSlice::window(Arc::new(g.clone()), None, lo, hi);
        (g, s)
    }

    #[test]
    fn exposes_globals_and_locals() {
        let (_g, s) = props_over(2, 4);
        let p = LocalProps::new(6, 5, 3, &s);
        assert_eq!(p.num_nodes(), 6);
        assert_eq!(p.num_edges(), 5);
        assert_eq!(p.num_partitions(), 3);
        assert_eq!(p.out_degree(2), 2);
        assert_eq!(p.out_degree(3), 1);
        assert_eq!(p.out_neighbors(2), &[3, 4]);
        assert_eq!(p.first_edge(2), 1);
        assert_eq!(p.first_edge(3), 3);
        assert_eq!(p.local_lo(), 2);
        assert_eq!(p.local_hi(), 4);
    }

    #[test]
    #[should_panic(expected = "outside this host's read range")]
    fn nonlocal_query_panics() {
        let (_g, s) = props_over(2, 4);
        let p = LocalProps::new(6, 5, 3, &s);
        let _ = p.out_degree(5);
    }
}
