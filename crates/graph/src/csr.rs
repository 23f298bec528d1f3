//! Compressed Sparse Row graphs.
//!
//! [`Csr`] stores a directed graph as an offsets array (`num_nodes + 1`
//! entries) plus a flat destination array. A CSC graph of the same edge set
//! is just the [`Csr::transpose`] — CuSP constructs CSC partitions via an
//! in-memory transpose of the CSR it built (paper Algorithm 4, line 13).

use crate::{EdgeIdx, Node};

/// An immutable CSR graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `dests` for vertex `v`. The
    /// `.bgr` reader refills both buffers in place.
    pub(crate) offsets: Vec<EdgeIdx>,
    /// Flat destination array.
    pub(crate) dests: Vec<Node>,
}

/// The graph with no nodes.
impl Default for Csr {
    fn default() -> Self {
        Csr {
            offsets: vec![0],
            dests: Vec::new(),
        }
    }
}

impl Csr {
    /// Creates a CSR from raw parts.
    ///
    /// # Panics
    /// Panics if the offsets are not monotone, don't start at 0, or don't
    /// end at `dests.len()`.
    pub fn from_parts(offsets: Vec<EdgeIdx>, dests: Vec<Node>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "offsets must start at zero");
        assert_eq!(
            *offsets.last().unwrap(),
            dests.len() as EdgeIdx,
            "offsets must end at the edge count"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        Csr { offsets, dests }
    }

    /// The raw parts [`Csr::from_parts`] takes, moved out without a copy.
    pub fn into_parts(self) -> (Vec<EdgeIdx>, Vec<Node>) {
        (self.offsets, self.dests)
    }

    /// Builds a CSR with `n` nodes from an unsorted edge list, using a
    /// counting sort over sources (stable: parallel edges preserved in
    /// input order). Large lists are packed on every core into the same
    /// bytes.
    ///
    /// ```
    /// use cusp_graph::Csr;
    /// let g = Csr::from_edges(3, &[(2, 0), (0, 1), (0, 2)]);
    /// assert_eq!(g.edges(0), &[1, 2]);
    /// assert_eq!(g.out_degree(2), 1);
    /// ```
    pub fn from_edges(n: usize, edges: &[(Node, Node)]) -> Self {
        Csr::from_edges_on(n, edges, crate::workers())
    }

    /// [`Csr::from_edges`] on at most `workers` threads: one range of at
    /// least a block of edges per thread, and no more ranges than edges per
    /// node, so the per-range counts are never larger than the edge list.
    pub(crate) fn from_edges_on(n: usize, edges: &[(Node, Node)], workers: usize) -> Self {
        let m = edges.len();
        let ranges = workers.min(m / crate::BLOCK).min(m / n.max(1)).max(1);
        pack(n, edges, ranges)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: Node) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Outgoing neighbors of `v`.
    #[inline]
    pub fn edges(&self, v: Node) -> &[Node] {
        &self.dests[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Index of the first outgoing edge of `v` in the global edge order
    /// (`prop.getNodeOutEdge(v, 0)` in the paper's pseudocode).
    #[inline]
    pub fn first_edge(&self, v: Node) -> EdgeIdx {
        self.offsets[v as usize]
    }

    /// The offsets array (length `num_nodes + 1`).
    #[inline]
    pub fn offsets(&self) -> &[EdgeIdx] {
        &self.offsets
    }

    /// The flat destination array.
    #[inline]
    pub fn dests(&self) -> &[Node] {
        &self.dests
    }

    /// Heap bytes backing the graph's buffers (capacities, not lengths).
    pub fn heap_bytes(&self) -> u64 {
        (self.offsets.capacity() * 8 + self.dests.capacity() * 4) as u64
    }

    /// Iterates all edges as `(src, dst)` pairs in CSR order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (Node, Node)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.edges(u as Node)
                .iter()
                .map(move |&v| (u as Node, v))
        })
    }

    /// In-memory transpose: returns the CSC view of this graph as a CSR
    /// over reversed edges. Counting-sort based, O(V + E).
    pub fn transpose(&self) -> Csr {
        let n = self.num_nodes();
        let mut in_degree = vec![0 as EdgeIdx; n];
        for &d in &self.dests {
            in_degree[d as usize] += 1;
        }
        let mut offsets = vec![0 as EdgeIdx; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + in_degree[v];
        }
        let mut cursor = offsets.clone();
        let mut dests = vec![0 as Node; self.dests.len()];
        for u in 0..n {
            for &v in self.edges(u as Node) {
                dests[cursor[v as usize] as usize] = u as Node;
                cursor[v as usize] += 1;
            }
        }
        Csr { offsets, dests }
    }

    /// Transpose carrying per-edge data: returns the transposed graph and
    /// the data vector permuted to the transposed edge order.
    ///
    /// # Panics
    /// Panics if `data.len() != num_edges`.
    pub fn transpose_with_data(&self, data: &[u32]) -> (Csr, Vec<u32>) {
        assert_eq!(data.len() as u64, self.num_edges(), "edge data length mismatch");
        let n = self.num_nodes();
        let mut in_degree = vec![0 as EdgeIdx; n];
        for &d in &self.dests {
            in_degree[d as usize] += 1;
        }
        let mut offsets = vec![0 as EdgeIdx; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + in_degree[v];
        }
        let mut cursor = offsets.clone();
        let mut dests = vec![0 as Node; self.dests.len()];
        let mut out_data = vec![0u32; data.len()];
        for u in 0..n {
            let base = self.offsets[u] as usize;
            for (i, &v) in self.edges(u as Node).iter().enumerate() {
                let slot = cursor[v as usize] as usize;
                dests[slot] = u as Node;
                out_data[slot] = data[base + i];
                cursor[v as usize] += 1;
            }
        }
        (Csr { offsets, dests }, out_data)
    }

    /// Returns the symmetric closure (every edge plus its reverse, then
    /// deduplicated, self-loops removed) — what the paper's `cc` runs on.
    pub fn symmetrize(&self) -> Csr {
        let n = self.num_nodes();
        let mut pairs: Vec<(Node, Node)> =
            Vec::with_capacity(self.dests.len() * 2);
        for (u, v) in self.iter_edges() {
            if u != v {
                pairs.push((u, v));
                pairs.push((v, u));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        Csr::from_edges(n, &pairs)
    }

    /// The vertex with the highest out-degree (the paper's bfs/sssp source;
    /// ties broken toward the lower id). `None` for empty graphs.
    pub fn max_out_degree_node(&self) -> Option<Node> {
        (0..self.num_nodes() as Node).max_by_key(|&v| (self.out_degree(v), std::cmp::Reverse(v)))
    }
}

/// The stable counting sort of `edges` by source, over `ranges` contiguous
/// ranges of the list: each range counts its sources on a thread of its
/// own; one prefix over (node, range), ranges in input order, turns the
/// counts into each range's first slot per node; then each range scatters
/// its destinations from those slots. Every node's row is its edges in input
/// order, whatever `ranges` is.
fn pack(n: usize, edges: &[(Node, Node)], ranges: usize) -> Csr {
    let len = edges.len().div_ceil(ranges).max(1);
    let mut counts: Vec<Vec<EdgeIdx>> = edges.chunks(len).map(|_| vec![0; n]).collect();
    crate::on_threads(edges.chunks(len).zip(&mut counts).collect(), |(range, count)| {
        for &(u, _) in range {
            assert!((u as usize) < n, "source {u} out of range ({n} nodes)");
            count[u as usize] += 1;
        }
    });
    let mut offsets = vec![0 as EdgeIdx; n + 1];
    let mut next = 0;
    for (v, end) in offsets[1..].iter_mut().enumerate() {
        for count in &mut counts {
            (count[v], next) = (next, next + count[v]);
        }
        *end = next;
    }
    let mut dests = vec![0 as Node; edges.len()];
    let slots = Slots(dests.as_mut_ptr());
    crate::on_threads(edges.chunks(len).zip(&mut counts).collect(), |(range, cursor)| {
        for &(u, v) in range {
            assert!((v as usize) < n, "destination {v} out of range ({n} nodes)");
            // SAFETY: the prefix gave this range the slots `[c, c + k)` of
            // node `u`, where `c` counts the edges of the nodes below `u` and
            // of `u` in the ranges before this one, and `k` the edges of `u`
            // in this one: disjoint from every other (node, range) pair's,
            // and below the edge count. The range puts exactly its `k` edges
            // of `u`, the ones it counted.
            unsafe { slots.put(cursor[u as usize], v) };
            cursor[u as usize] += 1;
        }
    });
    Csr { offsets, dests }
}

/// `dests` as the scatter's threads share it.
struct Slots(*mut Node);

// SAFETY: the threads write disjoint slots, and nothing reads `dests` until
// every thread has been joined.
unsafe impl Sync for Slots {}

impl Slots {
    /// # Safety
    /// `slot` is below the length of `dests`, and no other thread writes it.
    unsafe fn put(&self, slot: EdgeIdx, v: Node) {
        unsafe { self.0.add(slot as usize).write(v) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn from_edges_builds_correct_adjacency() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.edges(0), &[1, 2]);
        assert_eq!(g.edges(1), &[3]);
        assert_eq!(g.edges(2), &[3]);
        assert_eq!(g.edges(3), &[] as &[Node]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.first_edge(2), 3);
    }

    #[test]
    fn from_edges_is_stable_for_parallel_edges() {
        let g = Csr::from_edges(2, &[(0, 1), (0, 0), (0, 1)]);
        assert_eq!(g.edges(0), &[1, 0, 1]);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.edges(3), &[1, 2]);
        assert_eq!(t.edges(1), &[0]);
        assert_eq!(t.edges(0), &[] as &[Node]);
        // Transpose twice = original edge multiset.
        let tt = t.transpose();
        let mut a: Vec<_> = g.iter_edges().collect();
        let mut b: Vec<_> = tt.iter_edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn symmetrize_adds_reverses_and_dedups() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 2)]);
        let s = g.symmetrize();
        assert_eq!(s.edges(0), &[1]);
        assert_eq!(s.edges(1), &[0, 2]);
        assert_eq!(s.edges(2), &[1]); // self-loop removed
    }

    #[test]
    fn iter_edges_yields_csr_order() {
        let g = diamond();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn max_out_degree_node_breaks_ties_low() {
        let g = Csr::from_edges(4, &[(1, 0), (1, 2), (3, 0), (3, 2)]);
        assert_eq!(g.max_out_degree_node(), Some(1));
        let empty = Csr::from_edges(0, &[]);
        assert_eq!(empty.max_out_degree_node(), None);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.transpose().num_nodes(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = Csr::from_edges(5, &[(0, 4)]);
        assert_eq!(g.out_degree(1), 0);
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.transpose().edges(4), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_validates_bounds() {
        let _ = Csr::from_edges(2, &[(0, 5)]);
    }

    /// The sequential definition: a stable sort of the edges by source.
    fn sorted_by_source(n: usize, edges: &[(Node, Node)]) -> Csr {
        let mut sorted = edges.to_vec();
        sorted.sort_by_key(|&(u, _)| u);
        let mut offsets = vec![0 as EdgeIdx; n + 1];
        for &(u, _) in &sorted {
            offsets[u as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        Csr::from_parts(offsets, sorted.into_iter().map(|(_, v)| v).collect())
    }

    const RANGES: [usize; 4] = [1, 2, 3, 8];

    #[test]
    fn no_nodes_and_no_edges_at_every_range_count() {
        for ranges in RANGES {
            assert_eq!(pack(0, &[], ranges), Csr::default());
            assert_eq!(pack(3, &[], ranges), Csr::from_parts(vec![0; 4], vec![]));
        }
    }

    #[test]
    #[should_panic(expected = "source 1 out of range (1 nodes)")]
    fn a_range_thread_reraises_its_panic() {
        let mut edges = vec![(0, 0); 10];
        edges[9] = (1, 0);
        let _ = pack(1, &edges, 3);
    }

    #[test]
    fn from_edges_on_is_the_stable_sort_at_every_worker_count() {
        let edges = vec![(0, 0); 3 * crate::BLOCK];
        for workers in [1, 2, 3, 8] {
            let g = Csr::from_edges_on(2, &edges, workers);
            assert_eq!(g, sorted_by_source(2, &edges));
        }
        let edges = vec![(0, 0); 3 * crate::BLOCK + 1];
        assert_eq!(Csr::from_edges_on(1 << 20, &edges, 8), sorted_by_source(1 << 20, &edges));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn pack_is_the_stable_sort_at_every_range_count(
            (n, edges) in (1usize..40).prop_flat_map(|n| {
                let id = 0..n as Node;
                (Just(n), prop::collection::vec((id.clone(), id), 0..200))
            })
        ) {
            let want = sorted_by_source(n, &edges);
            for ranges in RANGES {
                prop_assert_eq!(&pack(n, &edges, ranges), &want, "{} ranges", ranges);
            }
        }
    }
}
