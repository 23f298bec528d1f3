//! The per-host partition produced by CuSP.

use cusp_graph::{Csr, Node};

use crate::PartId;

/// Structural class of a partitioning policy — the invariant (paper Table
/// I) that downstream systems like D-Galois exploit for communication
/// optimizations (§V-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionClass {
    /// All out-edges of a vertex live with its master (EEC, FEC, XtraPulp).
    OutEdgeCut,
    /// 2D block structure: owners share a grid row with the source's
    /// master and a grid column class with the destination's (CVC, SVC).
    TwoDimensional,
    /// No structural restriction (HVC, GVC, HDRF).
    GeneralVertexCut,
}

/// One host's partition: a local CSR over local vertex ids plus the
/// master/mirror bookkeeping that distributed analytics needs.
///
/// Local ids are assigned deterministically: masters first (ascending
/// global id), then mirrors (ascending global id).
#[derive(Clone, PartialEq, Eq)]
pub struct DistGraph {
    /// This partition's id (== the host id that built it).
    pub part_id: PartId,
    /// Total number of partitions.
    pub num_parts: PartId,
    /// |V| of the original graph.
    pub global_nodes: u64,
    /// |E| of the original graph.
    pub global_edges: u64,
    /// Number of master proxies (local ids `0..num_masters`).
    pub num_masters: usize,
    /// Local id → global id. Two sorted segments: masters then mirrors.
    pub local2global: Vec<Node>,
    /// Local id → partition holding this vertex's master proxy.
    pub master_of: Vec<PartId>,
    /// Local adjacency (out-edges; destinations are **local** ids).
    pub graph: Csr,
    /// Per-edge data aligned with `graph`'s edge order (weighted inputs).
    pub edge_data: Option<Vec<u32>>,
    /// Structural class (for downstream communication planning).
    pub class: PartitionClass,
}

/// Heap bytes behind `v`'s buffer (its capacity, not its length).
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

impl DistGraph {
    /// Heap bytes of the partition's buffers (capacities, not lengths): the
    /// local-id maps, the CSR and the per-edge data.
    pub fn heap_bytes(&self) -> u64 {
        vec_bytes(&self.local2global)
            + vec_bytes(&self.master_of)
            + self.graph.heap_bytes()
            + self.edge_data.as_ref().map_or(0, vec_bytes)
    }

    /// Number of proxies (masters + mirrors) in this partition.
    #[inline]
    pub fn num_local(&self) -> usize {
        self.local2global.len()
    }

    /// Number of mirror proxies.
    #[inline]
    pub fn num_mirrors(&self) -> usize {
        self.num_local() - self.num_masters
    }

    /// Global id of local vertex `l`.
    #[inline]
    pub fn global_of(&self, l: u32) -> Node {
        self.local2global[l as usize]
    }

    /// Is local vertex `l` a master proxy?
    #[inline]
    pub fn is_master(&self, l: u32) -> bool {
        (l as usize) < self.num_masters
    }

    /// Local id of global vertex `v`, if present in this partition.
    /// Two binary searches over the sorted master / mirror segments.
    pub fn local_of(&self, v: Node) -> Option<u32> {
        let masters = &self.local2global[..self.num_masters];
        if let Ok(i) = masters.binary_search(&v) {
            return Some(i as u32);
        }
        let mirrors = &self.local2global[self.num_masters..];
        mirrors
            .binary_search(&v)
            .ok()
            .map(|i| (self.num_masters + i) as u32)
    }

    /// Iterates the global ids of master proxies.
    pub fn master_globals(&self) -> &[Node] {
        &self.local2global[..self.num_masters]
    }

    /// Iterates the global ids of mirror proxies.
    pub fn mirror_globals(&self) -> &[Node] {
        &self.local2global[self.num_masters..]
    }

    /// Number of edges stored in this partition.
    pub fn num_local_edges(&self) -> u64 {
        self.graph.num_edges()
    }

    /// The same partition with every edge reversed (CSR rows become CSC rows
    /// and back), each row ascending by local id, the edge data carried along.
    pub fn transposed(&self) -> DistGraph {
        let (graph, edge_data) = self.graph.transpose_on(self.edge_data.as_deref(), 1);
        DistGraph {
            local2global: self.local2global.clone(),
            master_of: self.master_of.clone(),
            graph,
            edge_data,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistGraph {
        // masters: globals {2, 5}; mirrors: globals {0, 7}
        DistGraph {
            part_id: 1,
            num_parts: 2,
            global_nodes: 8,
            global_edges: 10,
            num_masters: 2,
            local2global: vec![2, 5, 0, 7],
            master_of: vec![1, 1, 0, 0],
            graph: Csr::from_edges(4, &[(0, 2), (1, 3)]),
            edge_data: None,
            class: PartitionClass::OutEdgeCut,
        }
    }

    #[test]
    fn id_mapping_round_trips() {
        let d = sample();
        assert_eq!(d.num_local(), 4);
        assert_eq!(d.num_mirrors(), 2);
        for l in 0..4u32 {
            let g = d.global_of(l);
            assert_eq!(d.local_of(g), Some(l));
        }
        assert_eq!(d.local_of(3), None);
        assert!(d.is_master(0));
        assert!(d.is_master(1));
        assert!(!d.is_master(2));
    }

    #[test]
    fn transposed_reverses_edges_and_carries_data() {
        let d = DistGraph {
            graph: Csr::from_edges(4, &[(0, 2), (1, 3), (3, 2), (0, 3)]),
            edge_data: Some(vec![10, 11, 12, 13]),
            ..sample()
        };
        let t = d.transposed();
        assert_eq!(t.graph, Csr::from_edges(4, &[(2, 0), (2, 3), (3, 0), (3, 1)]));
        assert_eq!(t.edge_data, Some(vec![10, 13, 11, 12]));
        assert_eq!((&t.local2global, &t.master_of, t.num_masters), (&d.local2global, &d.master_of, 2));
        // `d`'s rows ascend, so transposing back restores it.
        assert!(t.transposed() == d);
    }

    #[test]
    fn segments_expose_globals() {
        let d = sample();
        assert_eq!(d.master_globals(), &[2, 5]);
        assert_eq!(d.mirror_globals(), &[0, 7]);
        assert_eq!(d.num_local_edges(), 2);
    }
}
