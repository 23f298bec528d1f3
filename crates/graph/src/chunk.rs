//! Bounded edge-chunk streaming over a host's read range.
//!
//! A [`ChunkedSlice`] exposes a contiguous node range as a sequence of
//! node-aligned chunks, each carrying at most a configured number of edges
//! (a single node whose degree exceeds the budget gets a chunk of its own,
//! so the bound is `max(chunk_edges, d_max)`). Only the O(nodes) rebased
//! offset array stays resident. Each chunk is a [`GraphSlice`]: re-read
//! from the `.bgr` file into one recycled buffer, or, for a graph already
//! in memory, a window over the shared CSR that copies nothing. The
//! high-water mark of a chunk's edges is tracked in
//! [`ChunkedSlice::peak_resident_edges`] so callers can *prove* the
//! O(chunk) residency claim rather than assume it.
//!
//! The File backing clears and refills the chunk it returned last instead
//! of allocating, so a steady-state stream stops allocating after its
//! largest chunk.

use std::sync::Arc;

use crate::csr::Csr;
use crate::file::{GraphSlice, RangeReader};
use crate::{EdgeIdx, Node};

/// Splits a node range into node-aligned chunks of at most `chunk_edges`
/// edges each, returning the chunk boundaries as global node ids
/// (`chunks + 1` entries, first = `node_lo`, last = `node_lo + n`).
///
/// `offsets` is the rebased offset array of the range (`n + 1` entries,
/// first entry 0). Every chunk contains at least one node, so a node whose
/// degree exceeds the budget still makes progress.
pub fn chunk_boundaries(offsets: &[EdgeIdx], node_lo: Node, chunk_edges: u64) -> Vec<Node> {
    let n = offsets.len() - 1;
    let budget = chunk_edges.max(1);
    let mut bounds = vec![node_lo];
    let mut start = 0usize;
    while start < n {
        // Furthest node index whose cumulative edge count stays within
        // budget; always advance by at least one node.
        let limit = offsets[start].saturating_add(budget);
        let mut end = offsets.partition_point(|&o| o <= limit) - 1;
        end = end.clamp(start + 1, n);
        bounds.push(node_lo + end as Node);
        start = end;
    }
    bounds
}

/// The backing store a [`ChunkedSlice`] materializes chunks from.
pub enum ChunkBacking {
    /// Range-reads each chunk's byte span from the `.bgr` file.
    File(RangeReader),
    /// Hands out each chunk as a window over a shared in-memory graph
    /// (the stand-in for a hot page cache).
    Mem {
        /// The full graph shared by all simulated hosts.
        csr: Arc<Csr>,
        /// Per-edge data aligned with the CSR edge order, if weighted.
        weights: Option<Arc<Vec<u32>>>,
    },
}

/// A host's read range exposed as a stream of bounded edge chunks.
pub struct ChunkedSlice {
    backing: ChunkBacking,
    node_lo: Node,
    node_hi: Node,
    /// Rebased offsets over the whole range (`num_nodes + 1` entries).
    /// File-backed chunks slice their offsets out of this array, so only
    /// the edge payload bytes are ever re-read from the file.
    offsets: Vec<EdgeIdx>,
    first_edge_global: EdgeIdx,
    /// Chunk boundaries as global node ids (`num_chunks + 1` entries).
    boundaries: Vec<Node>,
    chunk_edges: u64,
    weighted: bool,
    peak_resident: u64,
    /// The chunk most recently returned by `load_chunk` (empty before the
    /// first); the next File load clears and refills its buffers.
    current: GraphSlice,
}

impl ChunkedSlice {
    /// Builds a chunked view over `[node_lo, node_hi)` with the given
    /// rebased offsets (which stay resident) and edge budget per chunk.
    pub fn new(
        backing: ChunkBacking,
        node_lo: Node,
        node_hi: Node,
        offsets: Vec<EdgeIdx>,
        first_edge_global: EdgeIdx,
        chunk_edges: u64,
    ) -> Self {
        assert_eq!(offsets.len(), (node_hi - node_lo) as usize + 1);
        let boundaries = chunk_boundaries(&offsets, node_lo, chunk_edges);
        let weighted = match &backing {
            ChunkBacking::File(r) => r.has_weights(),
            ChunkBacking::Mem { weights, .. } => weights.is_some(),
        };
        ChunkedSlice {
            backing,
            node_lo,
            node_hi,
            offsets,
            first_edge_global,
            boundaries,
            chunk_edges,
            weighted,
            peak_resident: 0,
            current: GraphSlice::empty(),
        }
    }

    /// Chunked view over an in-memory graph window (copies the range's
    /// offsets; each chunk is a window over `csr`).
    pub fn from_csr(
        csr: Arc<Csr>,
        weights: Option<Arc<Vec<u32>>>,
        node_lo: Node,
        node_hi: Node,
        chunk_edges: u64,
    ) -> Self {
        if let Some(w) = &weights {
            assert_eq!(w.len() as u64, csr.num_edges());
        }
        let base = csr.offsets()[node_lo as usize];
        let offsets: Vec<EdgeIdx> = csr.offsets()[node_lo as usize..=node_hi as usize]
            .iter()
            .map(|&o| o - base)
            .collect();
        Self::new(
            ChunkBacking::Mem { csr, weights },
            node_lo,
            node_hi,
            offsets,
            base,
            chunk_edges,
        )
    }

    /// First node of the range (global id).
    pub fn node_lo(&self) -> Node {
        self.node_lo
    }

    /// One past the last node of the range (global id).
    pub fn node_hi(&self) -> Node {
        self.node_hi
    }

    /// Number of nodes in the range.
    pub fn num_nodes(&self) -> usize {
        (self.node_hi - self.node_lo) as usize
    }

    /// Number of edges in the range (across all chunks).
    pub fn num_edges(&self) -> u64 {
        *self.offsets.last().unwrap_or(&0)
    }

    /// The rebased offset array of the whole range (always resident).
    pub fn offsets(&self) -> &[EdgeIdx] {
        &self.offsets
    }

    /// Whether chunks carry per-edge data.
    pub fn weighted(&self) -> bool {
        self.weighted
    }

    /// The configured per-chunk edge budget.
    pub fn chunk_edges(&self) -> u64 {
        self.chunk_edges
    }

    /// Number of chunks the range splits into.
    pub fn num_chunks(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Node bounds `[lo, hi)` of chunk `i`.
    pub fn chunk_bounds(&self, i: usize) -> (Node, Node) {
        (self.boundaries[i], self.boundaries[i + 1])
    }

    /// Index of the chunk containing node `v` (must lie in the range).
    pub fn chunk_index_of(&self, v: Node) -> usize {
        assert!(v >= self.node_lo && v < self.node_hi, "node {v} outside chunked range");
        self.boundaries.partition_point(|&b| b <= v) - 1
    }

    /// Materializes chunk `i` as a [`GraphSlice`] (global destination ids,
    /// global `first_edge`), updating the peak-residency high-water mark.
    /// The returned slice stays valid until the next `load_chunk`. Content
    /// is identical to what a full `read_range_into` of the same window
    /// would produce.
    pub fn load_chunk(&mut self, i: usize) -> &GraphSlice {
        let (lo, hi) = self.chunk_bounds(i);
        let offsets = &self.offsets[(lo - self.node_lo) as usize..=(hi - self.node_lo) as usize];
        let edge_lo = self.first_edge_global + offsets[0];
        let slice = &mut self.current;
        match &mut self.backing {
            ChunkBacking::File(r) => r
                .read_chunk_into(lo, hi, offsets, edge_lo, slice)
                .expect("chunk re-read from input file failed"),
            ChunkBacking::Mem { csr, weights } => {
                *slice = GraphSlice::window(Arc::clone(csr), weights.clone(), lo, hi)
            }
        }
        debug_assert_eq!(slice.first_edge(lo), edge_lo);
        self.peak_resident = self.peak_resident.max(slice.num_edges());
        slice
    }

    /// Largest number of edges any single materialized chunk held — the
    /// measured peak resident edge state of the stream.
    pub fn peak_resident_edges(&self) -> u64 {
        self.peak_resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform::erdos_renyi;
    use crate::write_bgr;

    #[test]
    fn boundaries_respect_budget_and_cover_range() {
        let g = erdos_renyi(200, 1700, 5);
        let offsets = g.offsets().to_vec();
        for budget in [1u64, 7, 64, 10_000] {
            let b = chunk_boundaries(&offsets, 0, budget);
            assert_eq!(*b.first().unwrap(), 0);
            assert_eq!(*b.last().unwrap(), 200);
            let max_deg = (0..200).map(|v| g.out_degree(v)).max().unwrap();
            for w in b.windows(2) {
                assert!(w[0] < w[1], "empty chunk");
                let edges = g.offsets()[w[1] as usize] - g.offsets()[w[0] as usize];
                assert!(
                    edges <= budget.max(max_deg),
                    "chunk [{}, {}) holds {edges} edges > max({budget}, {max_deg})",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn empty_range_has_no_chunks() {
        let b = chunk_boundaries(&[0], 10, 4);
        assert_eq!(b, vec![10]);
    }

    /// A File-backed stream over `[lo, hi)` of the `.bgr` at `path`.
    fn file_chunks(path: &std::path::Path, lo: Node, hi: Node, chunk_edges: u64) -> ChunkedSlice {
        let mut reader = RangeReader::open(path).unwrap();
        let ends = reader.read_end_offsets().unwrap();
        let base = if lo == 0 { 0 } else { ends[lo as usize - 1] };
        let mut offsets = vec![0];
        offsets.extend(ends[lo as usize..hi as usize].iter().map(|&e| e - base));
        ChunkedSlice::new(ChunkBacking::File(reader), lo, hi, offsets, base, chunk_edges)
    }

    fn temp_bgr(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cusp-chunk-test-{}-{name}.bgr", std::process::id()))
    }

    #[test]
    fn mem_chunks_reassemble_the_slice() {
        let g = Arc::new(erdos_renyi(120, 900, 11));
        let whole = GraphSlice::window(Arc::clone(&g), None, 20, 100);
        let mut c = ChunkedSlice::from_csr(Arc::clone(&g), None, 20, 100, 50);
        assert_eq!(c.num_edges(), whole.num_edges());
        assert!(c.num_chunks() > 1);
        let mut dests = Vec::new();
        for i in 0..c.num_chunks() {
            let chunk = c.load_chunk(i);
            for v in chunk.node_lo..chunk.node_hi {
                assert_eq!(chunk.edges(v), whole.edges(v), "node {v}");
                assert_eq!(chunk.first_edge(v), whole.first_edge(v), "node {v}");
                dests.extend_from_slice(chunk.edges(v));
            }
        }
        assert_eq!(dests, whole.dests());
        let max_deg = (20..100).map(|v| whole.out_degree(v)).max().unwrap();
        assert!(
            c.peak_resident_edges() <= 50u64.max(max_deg),
            "peak {} exceeds max(50, {max_deg})",
            c.peak_resident_edges()
        );
        assert!(c.peak_resident_edges() < whole.num_edges());
    }

    #[test]
    fn file_chunks_match_mem_chunks() {
        let g = Arc::new(erdos_renyi(80, 600, 3));
        let path = temp_bgr("match");
        write_bgr(&path, &g).unwrap();
        let (lo, hi) = (10u32, 70u32);
        let mut file_c = file_chunks(&path, lo, hi, 33);
        let mut mem_c = ChunkedSlice::from_csr(Arc::clone(&g), None, lo, hi, 33);
        assert_eq!(file_c.num_chunks(), mem_c.num_chunks());
        for i in 0..file_c.num_chunks() {
            let f = file_c.load_chunk(i);
            let m = mem_c.load_chunk(i);
            assert_eq!(f.local_offsets(), m.local_offsets(), "chunk {i}");
            assert_eq!(f.dests(), m.dests(), "chunk {i}");
            assert_eq!(f.first_edge(f.node_lo), m.first_edge(m.node_lo), "chunk {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recycled_buffer_never_leaks_the_previous_chunk() {
        // Master-phase rounds restart sub-range walks, so chunks are
        // reloaded out of order into the File backing's one recycled
        // buffer: a longer chunk followed by a shorter one must leave
        // nothing behind.
        let g = Arc::new(erdos_renyi(100, 800, 29));
        let w: Arc<Vec<u32>> = Arc::new((0..g.num_edges() as u32).map(|e| e ^ 0x5a5a).collect());
        for weights in [None, Some(Arc::clone(&w))] {
            let path = temp_bgr(if weights.is_some() { "recycle-w" } else { "recycle" });
            match &weights {
                Some(w) => crate::write_bgr_weighted(&path, &g, w).unwrap(),
                None => write_bgr(&path, &g).unwrap(),
            }
            let mut c = file_chunks(&path, 0, 100, 30);
            let n = c.num_chunks();
            assert!(n >= 3);
            let lens: Vec<u64> = (0..n).map(|i| c.load_chunk(i).num_edges()).collect();
            assert!(lens.windows(2).any(|p| p[0] > p[1]), "no longer-then-shorter pair in {lens:?}");
            for &i in &[0usize, 1, 2, 0, 1, 2, n - 1, 0] {
                let (lo, hi) = c.chunk_bounds(i);
                let want = GraphSlice::window(Arc::clone(&g), weights.clone(), lo, hi);
                let got = c.load_chunk(i);
                assert_eq!(want.local_offsets(), got.local_offsets(), "chunk {i}");
                assert_eq!(want.dests(), got.dests(), "chunk {i}");
                assert_eq!(want.weights(), got.weights(), "chunk {i}");
                assert_eq!((want.node_lo, want.node_hi), (got.node_lo, got.node_hi));
                assert_eq!(want.first_edge(lo), got.first_edge(lo), "chunk {i}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn chunk_index_of_agrees_with_bounds() {
        let g = Arc::new(erdos_renyi(60, 400, 9));
        let c = ChunkedSlice::from_csr(g, None, 0, 60, 25);
        for v in 0..60u32 {
            let i = c.chunk_index_of(v);
            let (lo, hi) = c.chunk_bounds(i);
            assert!(v >= lo && v < hi);
        }
    }
}
