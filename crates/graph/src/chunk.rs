//! Bounded edge-chunk streaming over a host's read range.
//!
//! A [`ChunkedSlice`] exposes a contiguous node range as a sequence of
//! node-aligned chunks, each carrying at most a configured number of edges
//! (a single node whose degree exceeds the budget gets a chunk of its own,
//! so the bound is `max(chunk_edges, d_max)`). It is the one shape a host's
//! range takes: under an unbounded budget (`u64::MAX`) the whole range is
//! one chunk, loaded when [`ChunkedSlice::from_file`] or
//! [`ChunkedSlice::from_csr`] builds the stream and never reloaded, so a
//! resident range costs what one [`GraphSlice`] costs. Every range has at
//! least one chunk; an empty range is one empty chunk.
//!
//! Each chunk is a [`GraphSlice`]: re-read from the `.bgr` file into one
//! recycled buffer, or, for a graph already in memory, a window over the
//! shared CSR that copies nothing. A File stream of several chunks keeps
//! its range's rebased offsets resident, so only edge payloads are
//! re-read; a one-chunk File stream hands them to its chunk instead; a Mem
//! stream holds none, its boundaries computed over the graph's own
//! offsets. The high-water mark of a chunk's edges is tracked in
//! [`ChunkedSlice::peak_resident_edges`] so callers can *prove* the
//! O(chunk) residency claim rather than assume it.
//!
//! Loading the chunk that is already loaded touches nothing; otherwise the
//! File backing clears and refills the chunk it returned last instead of
//! allocating, so a steady-state stream stops allocating after its largest
//! chunk.

use std::io;
use std::sync::Arc;

use crate::csr::Csr;
use crate::file::{GraphSlice, RangeReader};
use crate::{EdgeIdx, Node};

/// Splits a node range into node-aligned chunks of at most `chunk_edges`
/// edges each, returning the chunk boundaries as global node ids
/// (`chunks + 1` entries, first = `node_lo`, last = `node_lo + n`).
///
/// `offsets` holds the range's `n + 1` offsets at any origin (rebased to
/// 0, or a window of the whole graph's): only their differences count.
/// Every chunk of a non-empty range contains at least one node, so a node
/// whose degree exceeds the budget still makes progress; an empty range is
/// one empty chunk.
pub fn chunk_boundaries(offsets: &[EdgeIdx], node_lo: Node, chunk_edges: u64) -> Vec<Node> {
    let n = offsets.len() - 1;
    if n == 0 {
        return vec![node_lo; 2];
    }
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
    /// Where chunks come from; `None` once a one-chunk File stream has
    /// read its chunk, which it never reloads, so its file closes then.
    backing: Option<ChunkBacking>,
    /// Rebased offsets over the whole range (`num_nodes + 1` entries) that
    /// a File stream of several chunks slices each chunk's offsets out of.
    /// Empty for a Mem stream, and for a one-chunk File stream once its
    /// chunk holds them.
    offsets: Vec<EdgeIdx>,
    /// Global index of the range's first edge.
    first_edge_global: EdgeIdx,
    num_edges: u64,
    /// Chunk boundaries as global node ids (`num_chunks + 1` entries).
    boundaries: Vec<Node>,
    weighted: bool,
    peak_resident: u64,
    /// The chunk most recently loaded (empty before the first); the next
    /// File load of another chunk clears and refills its buffers.
    current: GraphSlice,
    /// Which chunk `current` holds.
    loaded: Option<usize>,
}

impl ChunkedSlice {
    /// Builds a chunked view over `[node_lo, node_hi)` with the given
    /// rebased offsets and edge budget per chunk. No chunk is loaded yet.
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
        let num_edges = offsets[offsets.len() - 1];
        Self::build(backing, boundaries, offsets, first_edge_global, num_edges)
    }

    /// [`ChunkedSlice::new`] over the `.bgr` file `reader` reads, except
    /// that a one-chunk stream reads its chunk here, handing it `offsets`:
    /// the range is read, and a read error returned, when the stream is
    /// built.
    pub fn from_file(
        reader: RangeReader,
        node_lo: Node,
        node_hi: Node,
        offsets: Vec<EdgeIdx>,
        first_edge_global: EdgeIdx,
        chunk_edges: u64,
    ) -> io::Result<Self> {
        let backing = ChunkBacking::File(reader);
        let mut s = Self::new(backing, node_lo, node_hi, offsets, first_edge_global, chunk_edges);
        if s.num_chunks() == 1 {
            s.fill(0)?;
        }
        Ok(s)
    }

    /// Chunked view over the window `[node_lo, node_hi)` of an in-memory
    /// graph. Nothing is copied: the boundaries are computed over
    /// `csr.offsets()` itself and each chunk is a window over `csr`. A
    /// one-chunk stream's chunk is loaded here.
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
        let window = &csr.offsets()[node_lo as usize..=node_hi as usize];
        let boundaries = chunk_boundaries(window, node_lo, chunk_edges);
        let (base, num_edges) = (window[0], window[window.len() - 1] - window[0]);
        let backing = ChunkBacking::Mem { csr, weights };
        let mut s = Self::build(backing, boundaries, Vec::new(), base, num_edges);
        if s.num_chunks() == 1 {
            s.load_chunk(0);
        }
        s
    }

    fn build(
        backing: ChunkBacking,
        boundaries: Vec<Node>,
        offsets: Vec<EdgeIdx>,
        first_edge_global: EdgeIdx,
        num_edges: u64,
    ) -> Self {
        let weighted = match &backing {
            ChunkBacking::File(r) => r.has_weights(),
            ChunkBacking::Mem { weights, .. } => weights.is_some(),
        };
        ChunkedSlice {
            backing: Some(backing),
            offsets,
            first_edge_global,
            num_edges,
            boundaries,
            weighted,
            peak_resident: 0,
            current: GraphSlice::empty(),
            loaded: None,
        }
    }

    /// First node of the range (global id).
    pub fn node_lo(&self) -> Node {
        self.boundaries[0]
    }

    /// One past the last node of the range (global id).
    pub fn node_hi(&self) -> Node {
        self.boundaries[self.boundaries.len() - 1]
    }

    /// Number of nodes in the range.
    pub fn num_nodes(&self) -> usize {
        (self.node_hi() - self.node_lo()) as usize
    }

    /// Number of edges in the range (across all chunks).
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Whether chunks carry per-edge data.
    pub fn weighted(&self) -> bool {
        self.weighted
    }

    /// Number of chunks the range splits into (at least one).
    pub fn num_chunks(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Node bounds `[lo, hi)` of chunk `i`.
    pub fn chunk_bounds(&self, i: usize) -> (Node, Node) {
        (self.boundaries[i], self.boundaries[i + 1])
    }

    /// Index of the chunk containing node `v` (must lie in the range).
    pub fn chunk_index_of(&self, v: Node) -> usize {
        assert!(v >= self.node_lo() && v < self.node_hi(), "node {v} outside chunked range");
        self.boundaries.partition_point(|&b| b <= v) - 1
    }

    /// Materializes chunk `i` as a [`GraphSlice`] (global destination ids,
    /// global `first_edge`), updating the peak-residency high-water mark;
    /// when `i` is the chunk already loaded, returns it untouched. The
    /// returned slice stays valid until the next `load_chunk`. Content is
    /// identical to what a full `read_range_into` of the same window would
    /// produce.
    pub fn load_chunk(&mut self, i: usize) -> &GraphSlice {
        self.fill(i).expect("chunk re-read from input file failed");
        &self.current
    }

    /// Loads chunk `i` into `current` unless it is there already.
    fn fill(&mut self, i: usize) -> io::Result<()> {
        if self.loaded == Some(i) {
            return Ok(());
        }
        self.loaded = None;
        let (lo, hi) = self.chunk_bounds(i);
        let node_lo = self.node_lo();
        match &mut self.backing {
            // The only chunk is never reloaded: it takes the range's
            // offsets as its own, and the file is not needed again.
            Some(ChunkBacking::File(r)) if self.boundaries.len() == 2 => {
                let offsets = std::mem::take(&mut self.offsets);
                r.read_chunk_owning(lo, hi, offsets, self.first_edge_global, &mut self.current)?;
                self.backing = None;
            }
            Some(ChunkBacking::File(r)) => {
                let offsets = &self.offsets[(lo - node_lo) as usize..=(hi - node_lo) as usize];
                let edge_lo = self.first_edge_global + offsets[0];
                r.read_chunk_into(lo, hi, offsets, edge_lo, &mut self.current)?
            }
            Some(ChunkBacking::Mem { csr, weights }) => {
                self.current = GraphSlice::window(Arc::clone(csr), weights.clone(), lo, hi)
            }
            None => unreachable!("a one-chunk File stream keeps its chunk loaded"),
        }
        self.loaded = Some(i);
        self.peak_resident = self.peak_resident.max(self.current.num_edges());
        Ok(())
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
    fn empty_range_is_one_empty_chunk() {
        for budget in [4, u64::MAX] {
            assert_eq!(chunk_boundaries(&[0], 10, budget), vec![10, 10]);
            assert_eq!(chunk_boundaries(&[77], 10, budget), vec![10, 10]);
        }
    }

    #[test]
    fn mem_boundaries_match_rebased_ones() {
        // A Mem stream splits over the graph's own offsets, unrebased.
        let g = Arc::new(erdos_renyi(200, 1700, 5));
        for (lo, hi) in [(0u32, 200u32), (13, 171), (90, 91), (50, 50), (200, 200)] {
            let rebased: Vec<EdgeIdx> = g.offsets()[lo as usize..=hi as usize]
                .iter()
                .map(|&o| o - g.offsets()[lo as usize])
                .collect();
            for budget in [1u64, 7, 64, u64::MAX] {
                let c = ChunkedSlice::from_csr(Arc::clone(&g), None, lo, hi, budget);
                let got: Vec<Node> = (0..c.num_chunks())
                    .map(|i| c.chunk_bounds(i).0)
                    .chain([c.node_hi()])
                    .collect();
                assert_eq!(got, chunk_boundaries(&rebased, lo, budget), "[{lo}, {hi}) budget {budget}");
                assert_eq!(c.num_edges(), rebased[rebased.len() - 1]);
            }
        }
    }

    /// A File-backed stream over `[lo, hi)` of the `.bgr` at `path`.
    fn file_chunks(path: &std::path::Path, lo: Node, hi: Node, chunk_edges: u64) -> ChunkedSlice {
        let mut reader = RangeReader::open(path).unwrap();
        let ends = reader.read_end_offsets().unwrap();
        let base = if lo == 0 { 0 } else { ends[lo as usize - 1] };
        let mut offsets = vec![0];
        offsets.extend(ends[lo as usize..hi as usize].iter().map(|&e| e - base));
        ChunkedSlice::from_file(reader, lo, hi, offsets, base, chunk_edges).unwrap()
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

    #[test]
    fn one_chunk_streams_are_the_range_read_once() {
        let g = Arc::new(erdos_renyi(90, 700, 41));
        let w: Arc<Vec<u32>> = Arc::new((0..g.num_edges() as u32).map(|e| e * 3).collect());
        for weights in [None, Some(Arc::clone(&w))] {
            let path = temp_bgr(if weights.is_some() { "one-w" } else { "one" });
            match &weights {
                Some(w) => crate::write_bgr_weighted(&path, &g, w).unwrap(),
                None => write_bgr(&path, &g).unwrap(),
            }
            for (lo, hi) in [(0u32, 90u32), (17, 64), (40, 40), (90, 90)] {
                let read = RangeReader::open(&path).unwrap().read_range(lo as u64, hi as u64).unwrap();
                let window = GraphSlice::window(Arc::clone(&g), weights.clone(), lo, hi);
                let mut file = file_chunks(&path, lo, hi, u64::MAX);
                let mut mem = ChunkedSlice::from_csr(Arc::clone(&g), weights.clone(), lo, hi, u64::MAX);
                // Loaded when built, the offsets held once: by the chunk.
                assert_eq!(file.peak_resident_edges(), read.num_edges());
                assert_eq!(mem.peak_resident_edges(), read.num_edges());
                assert!(file.offsets.is_empty() && file.offsets.capacity() == 0);
                assert!(file.backing.is_none(), "the file stays open");
                for c in [file.load_chunk(0), mem.load_chunk(0)] {
                    for want in [&read, &window] {
                        assert_eq!((c.node_lo, c.node_hi), (want.node_lo, want.node_hi));
                        assert_eq!(c.dests(), want.dests(), "[{lo}, {hi})");
                        assert_eq!(c.weights(), want.weights(), "[{lo}, {hi})");
                        for v in lo..=hi {
                            assert_eq!(c.first_edge(v), want.first_edge(v), "node {v}");
                        }
                    }
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn reloading_the_loaded_chunk_touches_nothing() {
        let g = Arc::new(erdos_renyi(100, 800, 23));
        let path = temp_bgr("cached");
        write_bgr(&path, &g).unwrap();
        for budget in [u64::MAX, 30] {
            let mut c = file_chunks(&path, 5, 95, budget);
            let i = c.num_chunks() / 2;
            let (dests, offsets) = {
                let chunk = c.load_chunk(i);
                (chunk.dests().as_ptr(), chunk.local_offsets())
            };
            // With the file emptied, any read would fail.
            std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(0).unwrap();
            for _ in 0..3 {
                let chunk = c.load_chunk(i);
                assert!(std::ptr::eq(chunk.dests().as_ptr(), dests), "budget {budget}");
                assert_eq!(chunk.local_offsets(), offsets, "budget {budget}");
            }
            write_bgr(&path, &g).unwrap();
        }
        let mut mem = ChunkedSlice::from_csr(Arc::clone(&g), None, 5, 95, 30);
        let first = mem.load_chunk(1).dests().as_ptr();
        assert!(std::ptr::eq(mem.load_chunk(1).dests().as_ptr(), first));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_one_chunk_read_error_is_returned() {
        let g = Arc::new(erdos_renyi(60, 400, 8));
        let path = temp_bgr("short");
        write_bgr(&path, &g).unwrap();
        let reader = RangeReader::open(&path).unwrap();
        let offsets = g.offsets()[..=30].to_vec();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(300).unwrap();
        let read = ChunkedSlice::from_file(reader, 0, 30, offsets, 0, u64::MAX);
        assert!(read.is_err(), "a truncated file read as a chunk");
        std::fs::remove_file(&path).ok();
    }
}
