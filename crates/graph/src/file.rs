//! Binary on-disk graph format (`.bgr`) with per-host range reads.
//!
//! Layout (all little-endian), modeled on the Galois `.gr` format the paper
//! reads from Lustre:
//!
//! ```text
//! magic   u64   0x2147_4253_5543 ("CUSBG!")
//! version u64   1 (unweighted) | 2 (u32 edge data follows destinations)
//! nodes   u64
//! edges   u64
//! end[v]  u64 × nodes     exclusive end offset of v's edge range
//! dst[e]  u32 × edges     destination ids
//! w[e]    u32 × edges     edge data (version 2 only; `sizeofEdgeTy` = 4)
//! ```
//!
//! [`RangeReader`] reads only the bytes a host needs for a contiguous node
//! range — the header, that range's slice of the offset array (plus one
//! preceding entry), and the corresponding span of the destination array —
//! mirroring how each CuSP host reads its slice of the file (§IV-B1).
//! The bytes go through [`wire`]: header via its `Reader`, arrays streamed
//! through its slice codec; no checksum (DESIGN.md §4 "Bytes" has why).
//! The reader is total: a header whose counts do not match the file
//! length, or end offsets that decrease or pass the edge count, are an
//! `InvalidData` error before anything is allocated or indexed by them, and
//! so is a destination id that names no node, on every read of the
//! destination array (a whole file, a range, or a chunk re-read).
//!
//! A [`GraphSlice`] is what a host holds of its range, read from a file or
//! windowed over a graph already in memory.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use crate::csr::Csr;
use crate::wire;
use crate::{EdgeIdx, Node};

const MAGIC: u64 = 0x2147_4253_5543;
const VERSION_UNWEIGHTED: u64 = 1;
const VERSION_WEIGHTED: u64 = 2;
const HEADER_BYTES: u64 = 8 * 4;

fn write_bgr_inner(path: &Path, graph: &Csr, weights: Option<&[u32]>) -> io::Result<()> {
    if let Some(w) = weights {
        assert_eq!(
            w.len() as u64,
            graph.num_edges(),
            "edge data length must match edge count"
        );
    }
    let version = if weights.is_some() {
        VERSION_WEIGHTED
    } else {
        VERSION_UNWEIGHTED
    };
    let mut header = Vec::with_capacity(HEADER_BYTES as usize);
    for field in [MAGIC, version, graph.num_nodes() as u64, graph.num_edges()] {
        wire::put_u64(&mut header, field);
    }
    let mut w = File::create(path)?;
    w.write_all(&header)?;
    let scratch = &mut vec![0u8; wire::SCRATCH_BYTES];
    // Exclusive end offsets (skip offsets[0] which is always 0).
    wire::write_u64s(&mut w, &graph.offsets()[1..], scratch)?;
    wire::write_u32s(&mut w, graph.dests(), scratch)?;
    if let Some(data) = weights {
        wire::write_u32s(&mut w, data, scratch)?;
    }
    Ok(())
}

/// Writes `graph` to `path` in unweighted `.bgr` format (version 1).
pub fn write_bgr(path: &Path, graph: &Csr) -> io::Result<()> {
    write_bgr_inner(path, graph, None)
}

/// Writes `graph` with per-edge `u32` data (version 2); `weights[e]`
/// belongs to the `e`-th edge of the CSR order.
pub fn write_bgr_weighted(path: &Path, graph: &Csr, weights: &[u32]) -> io::Result<()> {
    write_bgr_inner(path, graph, Some(weights))
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads an entire `.bgr` file into memory (any version), with its edge
/// data when the file has an edge data section.
pub fn read_bgr_any(path: &Path) -> io::Result<(Csr, Option<Vec<u32>>)> {
    let mut reader = RangeReader::open(path)?;
    let n = reader.num_nodes();
    Ok(reader.read_range(0, n)?.into_parts())
}

/// Reads an entire `.bgr` file into memory (any version; edge data, if
/// present, is dropped — use [`read_bgr_weighted`] to keep it).
pub fn read_bgr(path: &Path) -> io::Result<Csr> {
    read_bgr_any(path).map(|(graph, _)| graph)
}

/// Reads a version-2 `.bgr` file with its edge data.
pub fn read_bgr_weighted(path: &Path) -> io::Result<(Csr, Vec<u32>)> {
    match read_bgr_any(path)? {
        (graph, Some(weights)) => Ok((graph, weights)),
        (_, None) => Err(bad_data("file has no edge data section".into())),
    }
}

/// A host's contiguous node range `[node_lo, node_hi)`: a window over
/// rows of a shared [`Csr`], plus the edge data aligned with that CSR's
/// edges.
///
/// There is one representation. A window over an in-memory graph
/// ([`GraphSlice::window`]) shares the caller's buffers, so nothing is
/// copied. A range read from a `.bgr` file ([`RangeReader::read_range`])
/// is a CSR of just that range, which the reader refills in place when it
/// is the slice's alone. Either way `edges(v)` holds global destination
/// ids and `first_edge(v)` is `v`'s global edge index, which edge-balanced
/// master rules (`ContiguousEB`) need.
#[derive(Clone, Debug)]
pub struct GraphSlice {
    /// First node of the slice (global id).
    pub node_lo: Node,
    /// One past the last node of the slice (global id).
    pub node_hi: Node,
    /// Global id of `csr`'s row 0: node `v` is row `v - csr_node0`.
    csr_node0: Node,
    /// Global index of `csr`'s edge 0.
    csr_edge0: EdgeIdx,
    csr: Arc<Csr>,
    /// Per-edge `u32` data aligned with `csr`'s edges, if weighted.
    weights: Option<Arc<Vec<u32>>>,
}

/// The value behind `arc`, for writing; a shared value is left to its
/// other owners and replaced by a fresh default first.
fn unique<T: Default>(arc: &mut Arc<T>) -> &mut T {
    if Arc::get_mut(arc).is_none() {
        *arc = Arc::default();
    }
    Arc::get_mut(arc).expect("a fresh Arc has one owner")
}

/// `bytes(value)` if `arc` is the value's only owner, else 0.
fn sole_bytes<T>(arc: &Arc<T>, bytes: impl Fn(&T) -> u64) -> u64 {
    if Arc::strong_count(arc) == 1 {
        bytes(arc)
    } else {
        0
    }
}

impl GraphSlice {
    /// An empty slice, used as the seed of buffer-recycling reads
    /// ([`RangeReader::read_range_into`]).
    pub fn empty() -> Self {
        GraphSlice {
            node_lo: 0,
            node_hi: 0,
            csr_node0: 0,
            csr_edge0: 0,
            csr: Arc::default(),
            weights: None,
        }
    }

    /// The window `[node_lo, node_hi)` of `graph`, sharing its buffers
    /// (and `weights`, aligned with `graph`'s edges): nothing is copied.
    ///
    /// # Panics
    /// Panics if the window leaves the graph or `weights` does not hold
    /// one entry per edge.
    pub fn window(
        graph: Arc<Csr>,
        weights: Option<Arc<Vec<u32>>>,
        node_lo: Node,
        node_hi: Node,
    ) -> Self {
        assert!(
            node_lo <= node_hi && node_hi as usize <= graph.num_nodes(),
            "window [{node_lo}, {node_hi}) outside a graph of {} nodes",
            graph.num_nodes()
        );
        if let Some(w) = &weights {
            assert_eq!(
                w.len() as u64,
                graph.num_edges(),
                "edge data length must match edge count"
            );
        }
        GraphSlice {
            node_lo,
            node_hi,
            csr_node0: 0,
            csr_edge0: 0,
            csr: graph,
            weights,
        }
    }

    /// Number of nodes in the slice.
    pub fn num_nodes(&self) -> usize {
        (self.node_hi - self.node_lo) as usize
    }

    /// Heap bytes of the buffers this slice alone keeps alive (capacities,
    /// not lengths): 0 for a window over a graph someone else also holds.
    pub fn heap_bytes(&self) -> u64 {
        sole_bytes(&self.csr, Csr::heap_bytes)
            + self
                .weights
                .as_ref()
                .map_or(0, |w| sole_bytes(w, |w| w.capacity() as u64 * 4))
    }

    /// Positions in `csr`'s edge arrays of the edges of nodes `[lo, hi)`.
    #[inline]
    fn edge_range(&self, lo: Node, hi: Node) -> Range<usize> {
        self.csr.first_edge(lo - self.csr_node0) as usize
            ..self.csr.first_edge(hi - self.csr_node0) as usize
    }

    /// Number of edges in the slice.
    pub fn num_edges(&self) -> u64 {
        self.edge_range(self.node_lo, self.node_hi).len() as u64
    }

    /// Destination ids of the slice's edges, in row order.
    pub fn dests(&self) -> &[Node] {
        &self.csr.dests()[self.edge_range(self.node_lo, self.node_hi)]
    }

    /// Edge data of the slice's edges, in row order, if weighted.
    pub fn weights(&self) -> Option<&[u32]> {
        let span = self.edge_range(self.node_lo, self.node_hi);
        self.weights.as_ref().map(|w| &w[span])
    }

    /// Out-degree of global node `v` (must lie in the slice).
    #[inline]
    pub fn out_degree(&self, v: Node) -> u64 {
        self.csr.out_degree(v - self.csr_node0)
    }

    /// Outgoing neighbors of global node `v` (must lie in the slice).
    #[inline]
    pub fn edges(&self, v: Node) -> &[Node] {
        self.csr.edges(v - self.csr_node0)
    }

    /// Edge data of global node `v`'s out-edges, if the input is weighted.
    #[inline]
    pub fn edge_data(&self, v: Node) -> Option<&[u32]> {
        let span = self.edge_range(v, v + 1);
        self.weights.as_ref().map(|w| &w[span])
    }

    /// Global index of the first outgoing edge of global node `v`, for
    /// `v` in `[node_lo, node_hi]`: `first_edge(node_hi)` is one past the
    /// slice's last edge.
    #[inline]
    pub fn first_edge(&self, v: Node) -> EdgeIdx {
        self.csr_edge0 + self.csr.first_edge(v - self.csr_node0)
    }

    /// The slice's CSR and edge data, by value: moved out when the slice
    /// is their only owner (as it is fresh off the reader), cloned
    /// otherwise.
    fn into_parts(self) -> (Csr, Option<Vec<u32>>) {
        (
            Arc::unwrap_or_clone(self.csr),
            self.weights.map(Arc::unwrap_or_clone),
        )
    }
}

/// Random-access reader over a `.bgr` file.
pub struct RangeReader {
    file: File,
    nodes: u64,
    edges: u64,
    weighted: bool,
    /// Logical stream position, tracked so sequential range reads (a chunk
    /// stream walking the destination array in order) skip the seek — and
    /// its buffer-discarding syscall — entirely.
    pos: u64,
    /// The codec's staging block, reused across range reads, so a chunk
    /// stream re-reading the same file allocates it once.
    scratch: Vec<u8>,
}

impl RangeReader {
    /// Opens the file and validates the header, including that its node
    /// and edge counts account for the file's length exactly.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header)?;
        let mut h = wire::Reader::new(&header);
        let magic = h.u64()?;
        if magic != MAGIC {
            return Err(bad_data(format!("bad magic {magic:#x}")));
        }
        let version = h.u64()?;
        if version != VERSION_UNWEIGHTED && version != VERSION_WEIGHTED {
            return Err(bad_data(format!("unsupported version {version}")));
        }
        let weighted = version == VERSION_WEIGHTED;
        let (nodes, edges) = (h.u64()?, h.u64()?);
        let bytes_per_edge = if weighted { 8 } else { 4 };
        let expected = nodes
            .checked_mul(8)
            .zip(edges.checked_mul(bytes_per_edge))
            .and_then(|(o, e)| o.checked_add(e)?.checked_add(HEADER_BYTES));
        let len = file.metadata()?.len();
        if expected != Some(len) {
            return Err(bad_data(format!(
                "header claims {nodes} nodes and {edges} edges, but the file is {len} bytes"
            )));
        }
        Ok(RangeReader {
            file,
            nodes,
            edges,
            weighted,
            pos: HEADER_BYTES,
            scratch: vec![0u8; wire::SCRATCH_BYTES],
        })
    }

    /// Positions the stream at `target`, as a no-op when already there
    /// (the common case for in-order chunk streams).
    fn seek_to(&mut self, target: u64) -> io::Result<()> {
        if self.pos != target {
            self.file.seek(SeekFrom::Start(target))?;
            self.pos = target;
        }
        Ok(())
    }

    /// Fills `dst` with the array at byte offset `target` — `read` is one
    /// of `wire`'s streaming array readers — through the position tracker,
    /// and returns what `read` does.
    fn read_at<T, R>(
        &mut self,
        target: u64,
        dst: &mut [T],
        read: fn(&mut File, &mut [T], &mut [u8]) -> io::Result<R>,
    ) -> io::Result<R> {
        self.seek_to(target)?;
        let out = read(&mut self.file, dst, &mut self.scratch)?;
        self.pos += size_of_val(dst) as u64;
        Ok(out)
    }

    /// An `InvalidData` error unless the end offsets `ends` never decrease
    /// and stay within the edge count.
    fn check_ends(&self, ends: &[EdgeIdx]) -> io::Result<()> {
        if ends.windows(2).any(|w| w[1] < w[0]) || ends.last().is_some_and(|&e| e > self.edges) {
            return Err(bad_data(format!(
                "corrupt offsets: end offsets decrease or pass the edge count ({})",
                self.edges
            )));
        }
        Ok(())
    }

    /// Whether the file carries per-edge data.
    pub fn has_weights(&self) -> bool {
        self.weighted
    }

    /// Number of nodes declared in the header.
    pub fn num_nodes(&self) -> u64 {
        self.nodes
    }

    /// Number of edges declared in the header.
    pub fn num_edges(&self) -> u64 {
        self.edges
    }

    /// Reads the full end-offsets array (used once, to compute the
    /// edge-balanced host split).
    pub fn read_end_offsets(&mut self) -> io::Result<Vec<EdgeIdx>> {
        let mut out = vec![0; self.nodes as usize];
        self.read_at(HEADER_BYTES, &mut out, wire::read_u64s_into)?;
        self.check_ends(&out)?;
        Ok(out)
    }

    /// Reads the slice for nodes `[lo, hi)`.
    pub fn read_range(&mut self, lo: u64, hi: u64) -> io::Result<GraphSlice> {
        let mut out = GraphSlice::empty();
        self.read_range_into(lo, hi, &mut out)?;
        Ok(out)
    }

    /// Reads the slice for nodes `[lo, hi)` into `out`, recycling `out`'s
    /// buffers when `out` alone holds them. Content is identical to
    /// [`RangeReader::read_range`]; this is the allocation-free fill for
    /// re-reading the same file over and over. On an error `out` is left
    /// empty.
    pub fn read_range_into(&mut self, lo: u64, hi: u64, out: &mut GraphSlice) -> io::Result<()> {
        let read = self.fill_range(lo, hi, out);
        if read.is_err() {
            *out = GraphSlice::empty();
        }
        read
    }

    fn fill_range(&mut self, lo: u64, hi: u64, out: &mut GraphSlice) -> io::Result<()> {
        if lo > hi || hi > self.nodes {
            return Err(bad_data(format!(
                "range [{lo}, {hi}) out of bounds (nodes = {})",
                self.nodes
            )));
        }
        // End offsets for [lo, hi) behind the edge range's start — the end
        // offset of node lo-1, read in the same pass (0 if lo == 0) — then
        // checked and rebased in place.
        let count = (hi - lo) as usize;
        let offsets = &mut unique(&mut out.csr).offsets;
        offsets.clear();
        offsets.resize(count + 1, 0);
        if lo > 0 {
            self.read_at(HEADER_BYTES + (lo - 1) * 8, offsets, wire::read_u64s_into)?;
        } else {
            self.read_at(HEADER_BYTES, &mut offsets[1..], wire::read_u64s_into)?;
        }
        self.check_ends(offsets)?;
        let edge_lo = offsets[0];
        for o in offsets.iter_mut() {
            *o -= edge_lo;
        }
        self.read_edges_into(lo as Node, hi as Node, edge_lo, out)
    }

    /// Reads the edges of nodes `[lo, hi)` into `out`, whose CSR already
    /// holds that window's offsets rebased to 0, and points `out` at the
    /// window. `edge_lo` is the global index of the window's first edge.
    ///
    /// Only the destination (and, for weighted files, edge-data) span is
    /// read, so a chunk stream, which keeps its range's offsets resident,
    /// skips the offsets section entirely, and an in-order walk of an
    /// unweighted file degenerates to pure sequential reads (the position
    /// tracker elides every seek).
    fn read_edges_into(
        &mut self,
        lo: Node,
        hi: Node,
        edge_lo: EdgeIdx,
        out: &mut GraphSlice,
    ) -> io::Result<()> {
        let csr = unique(&mut out.csr);
        let count = csr.num_edges();
        if edge_lo.checked_add(count).is_none_or(|h| h > self.edges) {
            return Err(bad_data(format!(
                "edge span [{edge_lo}, +{count}) out of bounds (edges = {})",
                self.edges
            )));
        }
        let dest_base = HEADER_BYTES + self.nodes * 8;
        csr.dests.resize(count as usize, 0);
        // The bound on destinations is taken in the decode pass; only a
        // file that breaks it pays a second look, to name the edge.
        let max = self.read_at(dest_base + edge_lo * 4, &mut csr.dests, wire::read_u32s_max_into)?;
        if count > 0 && max as u64 >= self.nodes {
            let i = csr.dests.iter().position(|&d| d as u64 >= self.nodes).expect("the maximum is one");
            return Err(bad_data(format!(
                "edge {} has destination {}, but the graph has {} nodes",
                edge_lo + i as u64,
                csr.dests[i],
                self.nodes
            )));
        }
        if self.weighted {
            let w = unique(out.weights.get_or_insert_with(Arc::default));
            w.resize(count as usize, 0);
            self.read_at(dest_base + (self.edges + edge_lo) * 4, w, wire::read_u32s_into)?;
        } else {
            out.weights = None;
        }
        out.node_lo = lo;
        out.node_hi = hi;
        out.csr_node0 = lo;
        out.csr_edge0 = edge_lo;
        Ok(())
    }

    /// Reads chunk `[lo, hi)` of a chunk stream into `out`, recycling its
    /// buffers: `offsets` are the chunk's `hi - lo + 1` offsets, rebased
    /// to any origin, and `edge_lo` is the global index of its first edge.
    pub(crate) fn read_chunk_into(
        &mut self,
        lo: Node,
        hi: Node,
        offsets: &[EdgeIdx],
        edge_lo: EdgeIdx,
        out: &mut GraphSlice,
    ) -> io::Result<()> {
        let own = &mut unique(&mut out.csr).offsets;
        own.clear();
        own.extend(offsets.iter().map(|&o| o - offsets[0]));
        self.read_edges_into(lo, hi, edge_lo, out)
    }

    /// [`RangeReader::read_chunk_into`] for a chunk that takes `offsets`,
    /// rebased to 0, as its own instead of copying them.
    pub(crate) fn read_chunk_owning(
        &mut self,
        lo: Node,
        hi: Node,
        offsets: Vec<EdgeIdx>,
        edge_lo: EdgeIdx,
        out: &mut GraphSlice,
    ) -> io::Result<()> {
        unique(&mut out.csr).offsets = offsets;
        self.read_edges_into(lo, hi, edge_lo, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform::erdos_renyi;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cusp-graph-test-{}-{}", std::process::id(), name));
        p
    }

    impl GraphSlice {
        /// The slice's `num_nodes + 1` offsets rebased to its first edge.
        pub(crate) fn local_offsets(&self) -> Vec<EdgeIdx> {
            let base = self.first_edge(self.node_lo);
            (self.node_lo..=self.node_hi).map(|v| self.first_edge(v) - base).collect()
        }
    }

    /// A hand-made version-1 file: `header_nodes`/`header_edges` go in the
    /// header as given, followed by `ends` and `dests`.
    fn raw_bgr(name: &str, header_nodes: u64, header_edges: u64, ends: &[u64], dests: &[u32]) -> std::path::PathBuf {
        let mut bytes = Vec::new();
        for field in [MAGIC, VERSION_UNWEIGHTED, header_nodes, header_edges] {
            wire::put_u64(&mut bytes, field);
        }
        ends.iter().for_each(|&e| wire::put_u64(&mut bytes, e));
        dests.iter().for_each(|&d| wire::put_u32(&mut bytes, d));
        let path = temp_path(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn assert_invalid_data<T>(r: io::Result<T>) {
        match r {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
            Ok(_) => panic!("accepted a corrupt file"),
        }
    }

    #[test]
    fn write_read_round_trip() {
        let g = erdos_renyi(200, 1500, 42);
        let path = temp_path("roundtrip.bgr");
        write_bgr(&path, &g).unwrap();
        let back = read_bgr(&path).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn range_reads_match_in_memory_slices() {
        let g = Arc::new(erdos_renyi(100, 700, 7));
        let path = temp_path("ranges.bgr");
        write_bgr(&path, &g).unwrap();
        let mut reader = RangeReader::open(&path).unwrap();
        for (lo, hi) in [(0u64, 30u64), (30, 77), (77, 100), (50, 50), (0, 100)] {
            let disk = reader.read_range(lo, hi).unwrap();
            let mem = GraphSlice::window(Arc::clone(&g), None, lo as Node, hi as Node);
            assert_eq!(disk.local_offsets(), mem.local_offsets(), "offsets for [{lo},{hi})");
            assert_eq!(disk.dests(), mem.dests(), "dests for [{lo},{hi})");
            assert_eq!(disk.first_edge(disk.node_lo), mem.first_edge(mem.node_lo));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slice_queries() {
        let g = Csr::from_edges(5, &[(0, 1), (0, 2), (1, 3), (3, 4), (3, 0), (3, 1)]);
        let s = GraphSlice::window(Arc::new(g), None, 1, 4);
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.num_edges(), 4);
        assert_eq!(s.out_degree(1), 1);
        assert_eq!(s.out_degree(2), 0);
        assert_eq!(s.out_degree(3), 3);
        assert_eq!(s.edges(3), &[4, 0, 1]);
        assert_eq!(s.first_edge(1), 2);
        assert_eq!(s.first_edge(3), 3);
    }

    #[test]
    fn a_window_shares_the_graph_and_owns_nothing_while_it_is_shared() {
        let g = Arc::new(erdos_renyi(50, 300, 4));
        let w: Arc<Vec<u32>> = Arc::new((0..g.num_edges() as u32).collect());
        let s = GraphSlice::window(Arc::clone(&g), Some(Arc::clone(&w)), 10, 40);
        for v in [10, 39] {
            let at = g.first_edge(v) as usize;
            assert!(std::ptr::eq(s.edges(v).as_ptr(), g.dests()[at..].as_ptr()));
            assert!(std::ptr::eq(s.edge_data(v).unwrap().as_ptr(), w[at..].as_ptr()));
        }
        assert_eq!(s.heap_bytes(), 0);
        let owned = g.heap_bytes() + w.capacity() as u64 * 4;
        drop((g, w));
        assert_eq!(s.heap_bytes(), owned);
    }

    #[test]
    #[should_panic(expected = "edge data length must match edge count")]
    fn a_window_rejects_edge_data_of_another_length() {
        let g = Arc::new(erdos_renyi(20, 60, 1));
        let _ = GraphSlice::window(g, Some(Arc::new(vec![0; 59])), 0, 20);
    }

    #[test]
    fn read_end_offsets_matches_graph() {
        let g = erdos_renyi(64, 300, 3);
        let path = temp_path("offsets.bgr");
        write_bgr(&path, &g).unwrap();
        let mut reader = RangeReader::open(&path).unwrap();
        let ends = reader.read_end_offsets().unwrap();
        assert_eq!(ends, g.offsets()[1..].to_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_range_into_recycles_buffers() {
        let g = erdos_renyi(120, 900, 21);
        let w: Vec<u32> = (0..g.num_edges() as u32).collect();
        let path = temp_path("recycle.bgr");
        write_bgr_weighted(&path, &g, &w).unwrap();
        let mut reader = RangeReader::open(&path).unwrap();
        let mut out = GraphSlice::empty();
        for (lo, hi) in [(0u64, 120u64), (10, 50), (50, 120), (0, 120)] {
            reader.read_range_into(lo, hi, &mut out).unwrap();
            let fresh = reader.read_range(lo, hi).unwrap();
            assert_eq!(out.local_offsets(), fresh.local_offsets(), "[{lo},{hi})");
            assert_eq!(out.dests(), fresh.dests(), "[{lo},{hi})");
            assert_eq!(out.weights(), fresh.weights(), "[{lo},{hi})");
            assert_eq!(out.first_edge(out.node_lo), fresh.first_edge(fresh.node_lo));
        }
        // After the full-range read, smaller refills must not shrink the
        // retained capacity (that's what recycling buys).
        let full_bytes = out.heap_bytes();
        reader.read_range_into(10, 20, &mut out).unwrap();
        assert_eq!(out.heap_bytes(), full_bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_destination_past_the_node_count_is_invalid_data_on_ranged_and_chunked_reads() {
        let g = erdos_renyi(1000, 8000, 3);
        let e = 4321u64;
        // The node whose edge range holds edge `e`.
        let v = g.offsets().partition_point(|&o| o <= e) as u64 - 1;
        let offsets = g.offsets();
        let path = temp_path("bad-dest.bgr");
        for bad in [1000u32, 1010, 1070, u32::MAX] {
            write_bgr(&path, &g).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            let at = (HEADER_BYTES + 8 * 1000 + 4 * e) as usize;
            bytes[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
            let want = format!("edge {e} has destination {bad}, but the graph has 1000 nodes");
            let named = |r: io::Result<()>| match r {
                Err(err) => {
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
                    assert!(err.to_string().contains(&want), "{err}");
                }
                Ok(()) => panic!("accepted destination {bad}"),
            };
            // Ranged reads: the whole file, and the one node whose row holds
            // the edge; the rows before it read as written.
            named(read_bgr(&path).map(drop));
            let mut reader = RangeReader::open(&path).unwrap();
            named(reader.read_range(v, v + 1).map(drop));
            let before = reader.read_range(0, v).unwrap();
            assert_eq!(before.dests(), &g.dests()[..offsets[v as usize] as usize]);
            // A chunk stream's re-read, into the buffer of the chunk before.
            let mut out = GraphSlice::empty();
            let lo = v.saturating_sub(5) as Node;
            let chunk = |lo: Node, hi: Node| &offsets[lo as usize..=hi as usize];
            reader.read_chunk_into(0, lo, chunk(0, lo), 0, &mut out).unwrap();
            let (hi, edge_lo) = (v as Node + 1, offsets[lo as usize]);
            named(reader.read_chunk_into(lo, hi, chunk(lo, hi), edge_lo, &mut out));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = temp_path("bad.bgr");
        std::fs::write(&path, vec![0u8; 64]).unwrap();
        assert!(RangeReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_header_counts_the_file_length_does_not_match() {
        // 2^40 nodes in a 32-byte file: refused before any allocation.
        let path = raw_bgr("huge.bgr", 1 << 40, 0, &[], &[]);
        assert_invalid_data(RangeReader::open(&path));
        assert_invalid_data(read_bgr(&path));
        // Counts whose byte size overflows a u64.
        let path = raw_bgr("overflow.bgr", u64::MAX / 4, u64::MAX / 4, &[], &[]);
        assert_invalid_data(RangeReader::open(&path));
        // One byte too many, and one edge fewer than the header claims.
        let path = raw_bgr("long.bgr", 2, 2, &[1, 2], &[1, 0, 7]);
        assert_invalid_data(RangeReader::open(&path));
        let path = raw_bgr("short.bgr", 2, 3, &[1, 3], &[1, 0]);
        assert_invalid_data(RangeReader::open(&path));
        for name in ["huge.bgr", "overflow.bgr", "long.bgr", "short.bgr"] {
            std::fs::remove_file(temp_path(name)).ok();
        }
    }

    #[test]
    fn read_end_offsets_rejects_decreasing_offsets() {
        let path = raw_bgr("ends-decrease.bgr", 3, 5, &[3, 1, 5], &[0, 1, 2, 0, 1]);
        let mut reader = RangeReader::open(&path).unwrap();
        assert_invalid_data(reader.read_end_offsets());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_end_offsets_rejects_offsets_past_the_edge_count() {
        let path = raw_bgr("ends-past.bgr", 3, 2, &[1, 6, 2], &[0, 1]);
        let mut reader = RangeReader::open(&path).unwrap();
        assert_invalid_data(reader.read_end_offsets());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_range_rejects_decreasing_offsets() {
        let path = raw_bgr("range-decrease.bgr", 3, 5, &[3, 1, 5], &[0, 1, 2, 0, 1]);
        let mut reader = RangeReader::open(&path).unwrap();
        // The whole range, and one whose decrease is at its lo - 1 entry;
        // an error leaves the recycled slice empty, not half-filled.
        let mut out = reader.read_range(2, 3).unwrap();
        for (lo, hi) in [(0, 3), (1, 3)] {
            assert_invalid_data(reader.read_range_into(lo, hi, &mut out));
            assert_eq!((out.num_nodes(), out.num_edges()), (0, 0));
        }
        assert_invalid_data(read_bgr(&path));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_range_rejects_offsets_past_the_edge_count() {
        let path = raw_bgr("range-past.bgr", 3, 2, &[1, 6, 2], &[0, 1]);
        let mut reader = RangeReader::open(&path).unwrap();
        assert_invalid_data(reader.read_range(1, 2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_out_of_bounds_range() {
        let g = erdos_renyi(10, 20, 1);
        let path = temp_path("oob.bgr");
        write_bgr(&path, &g).unwrap();
        let mut reader = RangeReader::open(&path).unwrap();
        assert!(reader.read_range(5, 11).is_err());
        assert!(reader.read_range(7, 3).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Csr::from_edges(0, &[]);
        let path = temp_path("empty.bgr");
        write_bgr(&path, &g).unwrap();
        let back = read_bgr(&path).unwrap();
        assert_eq!(back.num_nodes(), 0);
        std::fs::remove_file(&path).ok();
    }
}
