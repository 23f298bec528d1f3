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

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

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

/// Reads an entire `.bgr` file into memory (any version; edge data, if
/// present, is dropped — use [`read_bgr_weighted`] to keep it).
pub fn read_bgr(path: &Path) -> io::Result<Csr> {
    let mut reader = RangeReader::open(path)?;
    let n = reader.num_nodes();
    let slice = reader.read_range(0, n)?;
    Ok(Csr::from_parts(slice.offsets, slice.dests))
}

/// Reads a version-2 `.bgr` file with its edge data.
pub fn read_bgr_weighted(path: &Path) -> io::Result<(Csr, Vec<u32>)> {
    let mut reader = RangeReader::open(path)?;
    if !reader.has_weights() {
        return Err(bad_data("file has no edge data section".into()));
    }
    let n = reader.num_nodes();
    let slice = reader.read_range(0, n)?;
    let weights = slice.weights.expect("weighted reader returns weights");
    Ok((Csr::from_parts(slice.offsets, slice.dests), weights))
}

/// A contiguous node-range slice of an on-disk graph.
///
/// `offsets` is rebased to the slice (first entry 0); `dests` holds global
/// destination ids. `first_edge_global` is the global index of the slice's
/// first edge, needed by edge-balanced master rules (`ContiguousEB`).
#[derive(Clone, Debug)]
pub struct GraphSlice {
    /// First node of the slice (global id).
    pub node_lo: Node,
    /// One past the last node (global id).
    pub node_hi: Node,
    /// Rebased offsets, `node_hi - node_lo + 1` entries.
    pub offsets: Vec<EdgeIdx>,
    /// Global destination ids.
    pub dests: Vec<Node>,
    /// Per-edge `u32` data aligned with `dests` (version-2 files only).
    pub weights: Option<Vec<u32>>,
    /// Global edge index of the first edge in the slice.
    pub first_edge_global: EdgeIdx,
}

impl GraphSlice {
    /// An empty slice, used as the seed of buffer-recycling fills
    /// ([`GraphSlice::fill_from_csr`], [`RangeReader::read_range_into`]).
    pub fn empty() -> Self {
        GraphSlice {
            node_lo: 0,
            node_hi: 0,
            offsets: vec![0],
            dests: Vec::new(),
            weights: None,
            first_edge_global: 0,
        }
    }

    /// Number of nodes in the slice.
    pub fn num_nodes(&self) -> usize {
        (self.node_hi - self.node_lo) as usize
    }

    /// Heap bytes backing the slice's buffers (capacities, not lengths).
    pub fn heap_bytes(&self) -> u64 {
        (self.offsets.capacity() * 8
            + self.dests.capacity() * 4
            + self.weights.as_ref().map_or(0, |w| w.capacity() * 4)) as u64
    }

    /// Number of edges in the slice.
    pub fn num_edges(&self) -> u64 {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Out-degree of global node `v` (must lie in the slice).
    #[inline]
    pub fn out_degree(&self, v: Node) -> u64 {
        let l = (v - self.node_lo) as usize;
        self.offsets[l + 1] - self.offsets[l]
    }

    /// Outgoing neighbors of global node `v` (must lie in the slice).
    #[inline]
    pub fn edges(&self, v: Node) -> &[Node] {
        let l = (v - self.node_lo) as usize;
        &self.dests[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }

    /// Edge data of global node `v`'s out-edges, if the input is weighted.
    #[inline]
    pub fn edge_data(&self, v: Node) -> Option<&[u32]> {
        let l = (v - self.node_lo) as usize;
        self.weights
            .as_ref()
            .map(|w| &w[self.offsets[l] as usize..self.offsets[l + 1] as usize])
    }

    /// Global index of the first outgoing edge of global node `v`.
    #[inline]
    pub fn first_edge(&self, v: Node) -> EdgeIdx {
        let l = (v - self.node_lo) as usize;
        self.first_edge_global + self.offsets[l]
    }

    /// Builds a slice directly from an in-memory graph (used by tests and
    /// by in-memory partitioning runs that skip the disk).
    pub fn from_csr(graph: &Csr, node_lo: Node, node_hi: Node) -> Self {
        let mut slice = Self::empty();
        slice.fill_from_csr(graph, node_lo, node_hi);
        slice
    }

    /// Builds a weighted slice from an in-memory graph plus edge data
    /// (aligned with the graph's CSR edge order).
    pub fn from_csr_weighted(graph: &Csr, weights: &[u32], node_lo: Node, node_hi: Node) -> Self {
        let mut slice = Self::empty();
        slice.fill_from_csr_weighted(graph, weights, node_lo, node_hi);
        slice
    }

    /// Refills `self` with the `[node_lo, node_hi)` window of `graph`,
    /// reusing the existing buffers. Content is identical to
    /// [`GraphSlice::from_csr`]; only the allocations are recycled.
    pub fn fill_from_csr(&mut self, graph: &Csr, node_lo: Node, node_hi: Node) {
        let base = graph.offsets()[node_lo as usize];
        let end = graph.offsets()[node_hi as usize];
        self.offsets.clear();
        self.offsets.extend(
            graph.offsets()[node_lo as usize..=node_hi as usize]
                .iter()
                .map(|&o| o - base),
        );
        self.dests.clear();
        self.dests
            .extend_from_slice(&graph.dests()[base as usize..end as usize]);
        self.weights = None;
        self.node_lo = node_lo;
        self.node_hi = node_hi;
        self.first_edge_global = base;
    }

    /// Weighted variant of [`GraphSlice::fill_from_csr`]; the recycled
    /// weights buffer survives the refill.
    pub fn fill_from_csr_weighted(
        &mut self,
        graph: &Csr,
        weights: &[u32],
        node_lo: Node,
        node_hi: Node,
    ) {
        assert_eq!(weights.len() as u64, graph.num_edges());
        let mut wbuf = self.weights.take().unwrap_or_default();
        self.fill_from_csr(graph, node_lo, node_hi);
        let base = graph.offsets()[node_lo as usize] as usize;
        let end = graph.offsets()[node_hi as usize] as usize;
        wbuf.clear();
        wbuf.extend_from_slice(&weights[base..end]);
        self.weights = Some(wbuf);
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
    /// Opens the file and validates the header.
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
        Ok(RangeReader {
            file,
            nodes: h.u64()?,
            edges: h.u64()?,
            weighted: version == VERSION_WEIGHTED,
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

    /// Fills `dst` with the array at byte offset `target` — `read` is
    /// `wire::read_u32s_into` or `wire::read_u64s_into` — through the
    /// position tracker.
    fn read_at<T>(
        &mut self,
        target: u64,
        dst: &mut [T],
        read: fn(&mut File, &mut [T], &mut [u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        self.seek_to(target)?;
        read(&mut self.file, dst, &mut self.scratch)?;
        self.pos += size_of_val(dst) as u64;
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
        Ok(out)
    }

    /// Reads the slice for nodes `[lo, hi)`.
    pub fn read_range(&mut self, lo: u64, hi: u64) -> io::Result<GraphSlice> {
        let mut out = GraphSlice::empty();
        self.read_range_into(lo, hi, &mut out)?;
        Ok(out)
    }

    /// Reads the slice for nodes `[lo, hi)` into `out`, recycling `out`'s
    /// buffers. Content is identical to [`RangeReader::read_range`]; this
    /// is the allocation-free fill for re-reading the same file over and
    /// over.
    pub fn read_range_into(&mut self, lo: u64, hi: u64, out: &mut GraphSlice) -> io::Result<()> {
        if lo > hi || hi > self.nodes {
            return Err(bad_data(format!(
                "range [{lo}, {hi}) out of bounds (nodes = {})",
                self.nodes
            )));
        }
        // End offsets for [lo, hi) behind the edge range's start — the end
        // offset of node lo-1, read in the same pass (0 if lo == 0) — then
        // rebased in place.
        let count = (hi - lo) as usize;
        out.offsets.clear();
        out.offsets.resize(count + 1, 0);
        if lo > 0 {
            self.read_at(HEADER_BYTES + (lo - 1) * 8, &mut out.offsets, wire::read_u64s_into)?;
        } else {
            self.read_at(HEADER_BYTES, &mut out.offsets[1..], wire::read_u64s_into)?;
        }
        let edge_lo = out.offsets[0];
        let edge_hi = out.offsets[count];
        for o in &mut out.offsets {
            // Wrapping: validated right below; a corrupt end < edge_lo is
            // reported as an error, not an overflow panic.
            *o = o.wrapping_sub(edge_lo);
        }
        if edge_hi < edge_lo || edge_hi > self.edges {
            return Err(bad_data(format!(
                "corrupt offsets: edge range [{edge_lo}, {edge_hi})"
            )));
        }
        self.read_edge_span_into(edge_lo, edge_hi - edge_lo, out)?;
        out.node_lo = lo as Node;
        out.node_hi = hi as Node;
        out.first_edge_global = edge_lo;
        Ok(())
    }

    /// Reads only the destination (and, for weighted files, edge-data)
    /// span of global edges `[edge_lo, edge_lo + count)` into `out.dests`
    /// / `out.weights`, recycling the buffers. `out`'s node fields and
    /// offsets are left untouched — the caller owns them.
    ///
    /// This is the chunk stream's fast path: the host's rebased offsets
    /// stay resident in [`crate::ChunkedSlice`], so per-chunk re-reads
    /// skip the offsets section entirely, and in-order walks of an
    /// unweighted file degenerate to pure sequential reads (the position
    /// tracker elides every seek).
    pub fn read_edge_span_into(
        &mut self,
        edge_lo: u64,
        count: u64,
        out: &mut GraphSlice,
    ) -> io::Result<()> {
        if edge_lo.checked_add(count).is_none_or(|h| h > self.edges) {
            return Err(bad_data(format!(
                "edge span [{edge_lo}, +{count}) out of bounds (edges = {})",
                self.edges
            )));
        }
        let dest_base = HEADER_BYTES + self.nodes * 8;
        out.dests.resize(count as usize, 0);
        self.read_at(dest_base + edge_lo * 4, &mut out.dests, wire::read_u32s_into)?;
        if self.weighted {
            let data_base = dest_base + self.edges * 4;
            let w = out.weights.get_or_insert_with(Vec::new);
            w.resize(count as usize, 0);
            self.read_at(data_base + edge_lo * 4, w, wire::read_u32s_into)?;
        } else {
            out.weights = None;
        }
        Ok(())
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
        let g = erdos_renyi(100, 700, 7);
        let path = temp_path("ranges.bgr");
        write_bgr(&path, &g).unwrap();
        let mut reader = RangeReader::open(&path).unwrap();
        for (lo, hi) in [(0u64, 30u64), (30, 77), (77, 100), (50, 50), (0, 100)] {
            let disk = reader.read_range(lo, hi).unwrap();
            let mem = GraphSlice::from_csr(&g, lo as Node, hi as Node);
            assert_eq!(disk.offsets, mem.offsets, "offsets for [{lo},{hi})");
            assert_eq!(disk.dests, mem.dests, "dests for [{lo},{hi})");
            assert_eq!(disk.first_edge_global, mem.first_edge_global);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slice_queries() {
        let g = Csr::from_edges(5, &[(0, 1), (0, 2), (1, 3), (3, 4), (3, 0), (3, 1)]);
        let s = GraphSlice::from_csr(&g, 1, 4);
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
            assert_eq!(out.offsets, fresh.offsets, "[{lo},{hi})");
            assert_eq!(out.dests, fresh.dests, "[{lo},{hi})");
            assert_eq!(out.weights, fresh.weights, "[{lo},{hi})");
            assert_eq!(out.first_edge_global, fresh.first_edge_global);
        }
        // After the full-range read, smaller refills must not shrink the
        // retained capacity (that's what recycling buys).
        let full_bytes = out.heap_bytes();
        reader.read_range_into(10, 20, &mut out).unwrap();
        assert_eq!(out.heap_bytes(), full_bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fill_from_csr_matches_from_csr() {
        let g = erdos_renyi(90, 650, 5);
        let w: Vec<u32> = (0..g.num_edges() as u32).map(|i| i * 3).collect();
        let mut recycled = GraphSlice::empty();
        for (lo, hi) in [(0u32, 90u32), (12, 40), (40, 90)] {
            recycled.fill_from_csr_weighted(&g, &w, lo, hi);
            let fresh = GraphSlice::from_csr_weighted(&g, &w, lo, hi);
            assert_eq!(recycled.offsets, fresh.offsets);
            assert_eq!(recycled.dests, fresh.dests);
            assert_eq!(recycled.weights, fresh.weights);
            assert_eq!(recycled.first_edge_global, fresh.first_edge_global);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let path = temp_path("bad.bgr");
        std::fs::write(&path, vec![0u8; 64]).unwrap();
        assert!(RangeReader::open(&path).is_err());
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
