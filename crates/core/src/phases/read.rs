//! Phase 1 — graph reading (paper §IV-B1).
//!
//! The edge array is divided "more or less equally among hosts so that
//! each host reads and processes a contiguous set of edges ... rounded off
//! so that the outgoing edges of a given node are not divided between
//! hosts." Each host loads only its slice of a `.bgr` file; later phases
//! read from memory. An in-memory source is read in place: each host's
//! [`GraphSlice`] is a window over the caller's `Arc<Csr>` (and its edge
//! data), and the splits are computed over the graph's own offsets, so a
//! memory-source run holds its input once.
//!
//! Either way the host's range comes out as one shape, a [`ChunkedSlice`]
//! with budget `CuspConfig::chunk_edges` (unbounded when `None`). A File
//! source reads the O(nodes) offsets of its range here; a one-chunk stream
//! also reads its edges here, so the range read stays in this phase, while
//! a stream of several chunks re-reads each chunk's edges from the file as
//! later phases walk it. A memory source's chunks are windows over the
//! shared graph, standing in for the page cache.
//!
//! This phase also derives the [`Setup`] every rule is built from: the
//! global node/edge counts, the reading split, and the edge-balanced
//! blocking used by `ContiguousEB`. All hosts compute identical values
//! because they all see the same offsets array.

use std::sync::Arc;

use cusp_graph::{reading_split, ChunkedSlice, EdgeIdx, Node, RangeReader, ReadSplit};
use cusp_net::Comm;

use crate::config::{CuspConfig, GraphSource};
use crate::policy::Setup;

/// Result of the reading phase on one host. For weighted (version-2)
/// files the slice carries the per-edge data of the host's range.
pub struct ReadOutcome {
    /// The contiguous node range this host reads, as a stream of chunks of
    /// at most `CuspConfig::chunk_edges` edges (one chunk when `None`).
    pub data: ChunkedSlice,
    /// Global facts identical on every host.
    pub setup: Setup,
}

/// Converts contiguous splits into a boundary array (`k + 1` entries).
fn splits_to_boundaries(splits: &[ReadSplit]) -> Vec<u64> {
    let mut b = Vec::with_capacity(splits.len() + 1);
    b.push(splits.first().map_or(0, |s| s.lo));
    for s in splits {
        b.push(s.hi);
    }
    b
}

/// The [`Setup`] of a graph of `num_nodes` nodes and `num_edges` edges
/// whose end offsets are `ends`, split across `k` hosts.
fn global_setup(ends: &[EdgeIdx], num_nodes: u64, num_edges: u64, k: usize, cfg: &CuspConfig) -> Setup {
    let read_splits = reading_split(ends, k, cfg.node_read_weight, cfg.edge_read_weight);
    let eb = reading_split(ends, k, 0, 1);
    Setup {
        num_nodes,
        num_edges,
        parts: k as u32,
        eb_boundaries: Arc::new(splits_to_boundaries(&eb)),
        read_splits: Arc::new(read_splits),
    }
}

/// Rebases the global end-offsets of range `[lo, hi)` into a local offset
/// array (`hi - lo + 1` entries, first entry 0) plus the range's first
/// global edge index.
fn rebase_offsets(ends: &[EdgeIdx], lo: u64, hi: u64) -> (Vec<EdgeIdx>, EdgeIdx) {
    let base = if lo == 0 { 0 } else { ends[lo as usize - 1] };
    let mut offsets = Vec::with_capacity((hi - lo) as usize + 1);
    offsets.push(0);
    offsets.extend(ends[lo as usize..hi as usize].iter().map(|&e| e - base));
    (offsets, base)
}

/// Executes the reading phase.
pub fn read_phase(comm: &Comm, source: &GraphSource, cfg: &CuspConfig) -> std::io::Result<ReadOutcome> {
    let (k, me) = (comm.num_hosts(), comm.host());
    let budget = cfg.chunk_edges.unwrap_or(u64::MAX);
    let (graph, weights) = match source {
        GraphSource::File(path) => {
            let mut reader = RangeReader::open(path)?;
            let ends = reader.read_end_offsets()?;
            let setup = global_setup(&ends, reader.num_nodes(), reader.num_edges(), k, cfg);
            let my = setup.read_splits[me];
            let (offsets, base) = rebase_offsets(&ends, my.lo, my.hi);
            let (lo, hi) = (my.lo as Node, my.hi as Node);
            let data = ChunkedSlice::from_file(reader, lo, hi, offsets, base, budget)?;
            return Ok(ReadOutcome { data, setup });
        }
        GraphSource::Memory(g) => (Arc::clone(g), None),
        GraphSource::MemoryWeighted(g, w) => (Arc::clone(g), Some(Arc::clone(w))),
    };
    let setup = global_setup(&graph.offsets()[1..], graph.num_nodes() as u64, graph.num_edges(), k, cfg);
    let my = setup.read_splits[me];
    let data = ChunkedSlice::from_csr(graph, weights, my.lo as Node, my.hi as Node, budget);
    Ok(ReadOutcome { data, setup })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::pipeline::{for_chunks_in, for_each_chunk};
    use cusp_graph::gen::uniform::erdos_renyi;
    use cusp_graph::GraphSlice;
    use cusp_net::Cluster;

    #[test]
    fn memory_source_slices_cover_graph() {
        let g = Arc::new(erdos_renyi(500, 4000, 1));
        let g2 = Arc::clone(&g);
        let out = Cluster::run(4, move |comm| {
            let cfg = CuspConfig::default();
            let r = read_phase(comm, &GraphSource::Memory(g2.clone()), &cfg).unwrap();
            (r.data.node_lo(), r.data.node_hi(), r.data.num_edges(), r.setup.num_edges)
        });
        let total: u64 = out.results.iter().map(|r| r.2).sum();
        assert_eq!(total, g.num_edges());
        assert_eq!(out.results[0].0, 0);
        assert_eq!(out.results[3].1 as usize, g.num_nodes());
        for w in out.results.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        assert!(out.results.iter().all(|r| r.3 == g.num_edges()));
    }

    /// `first_edge` of every node of the slice and of `node_hi`: its
    /// offsets, placed at its first global edge.
    fn first_edges(s: &GraphSlice) -> Vec<EdgeIdx> {
        (s.node_lo..=s.node_hi).map(|v| s.first_edge(v)).collect()
    }

    #[test]
    fn memory_sources_are_read_in_place() {
        let g = Arc::new(erdos_renyi(500, 4000, 5));
        let w: Arc<Vec<u32>> = Arc::new((0..g.num_edges() as u32).map(|e| e.wrapping_mul(7)).collect());
        for hosts in [1, 4] {
            for weighted in [false, true] {
                for chunk_edges in [None, Some(300)] {
                    let (g, w) = (Arc::clone(&g), Arc::clone(&w));
                    Cluster::run(hosts, move |comm| {
                        let source = if weighted {
                            GraphSource::MemoryWeighted(g.clone(), w.clone())
                        } else {
                            GraphSource::Memory(g.clone())
                        };
                        let cfg = CuspConfig { chunk_edges, ..CuspConfig::default() };
                        let mut r = read_phase(comm, &source, &cfg).unwrap();
                        let (lo, hi) = (r.data.node_lo(), r.data.node_hi());
                        let host = comm.host();
                        let shape = format!("host {host}/{hosts}, weighted {weighted}, chunks {chunk_edges:?}");
                        for v in [lo, hi - 1] {
                            for_chunks_in(&mut r.data, v..v + 1, |s, _| {
                                let at = g.first_edge(v) as usize;
                                let dests = s.edges(v).as_ptr();
                                assert!(std::ptr::eq(dests, g.dests()[at..].as_ptr()), "{shape}: node {v}");
                                let data = s.edge_data(v).map(<[u32]>::as_ptr);
                                let want = weighted.then(|| w[at..].as_ptr());
                                assert_eq!(data, want, "{shape}: node {v}");
                                assert_eq!(s.heap_bytes(), 0, "{shape}");
                            });
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn file_source_matches_memory_source() {
        let g = Arc::new(erdos_renyi(300, 2500, 9));
        let mut path = std::env::temp_dir();
        path.push(format!("cusp-read-phase-{}.bgr", std::process::id()));
        cusp_graph::write_bgr(&path, &g).unwrap();
        let g2 = Arc::clone(&g);
        let p2 = path.clone();
        let out = Cluster::run(3, move |comm| {
            let cfg = CuspConfig::default();
            let mut mem = read_phase(comm, &GraphSource::Memory(g2.clone()), &cfg).unwrap();
            let mut file = read_phase(comm, &GraphSource::File(p2.clone()), &cfg).unwrap();
            assert_eq!((mem.data.num_chunks(), file.data.num_chunks()), (1, 1));
            let (m, f) = (mem.data.load_chunk(0), file.data.load_chunk(0));
            assert_eq!(first_edges(m), first_edges(f));
            assert_eq!(m.dests(), f.dests());
            assert_eq!(*mem.setup.eb_boundaries, *file.setup.eb_boundaries);
            assert_eq!(*mem.setup.read_splits, *file.setup.read_splits);
        });
        drop(out);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_file_source_streams_the_same_edges() {
        let g = Arc::new(erdos_renyi(260, 2100, 33));
        let mut path = std::env::temp_dir();
        path.push(format!("cusp-read-chunked-{}.bgr", std::process::id()));
        cusp_graph::write_bgr(&path, &g).unwrap();
        let g2 = Arc::clone(&g);
        let p2 = path.clone();
        let out = Cluster::run(3, move |comm| {
            let whole_cfg = CuspConfig::default();
            let chunk_cfg = CuspConfig { chunk_edges: Some(50), ..CuspConfig::default() };
            let mut whole = read_phase(comm, &GraphSource::Memory(g2.clone()), &whole_cfg).unwrap();
            let ws = whole.data.load_chunk(0);
            for source in [GraphSource::Memory(g2.clone()), GraphSource::File(p2.clone())] {
                let mut chunked = read_phase(comm, &source, &chunk_cfg).unwrap();
                assert!(chunked.data.num_chunks() > 1);
                assert_eq!(chunked.data.num_edges(), ws.num_edges());
                let mut edges = 0u64;
                for_each_chunk(&mut chunked.data, |chunk| {
                    for v in chunk.node_lo..chunk.node_hi {
                        assert_eq!(chunk.edges(v), ws.edges(v), "node {v}");
                        assert_eq!(chunk.first_edge(v), ws.first_edge(v), "node {v}");
                        edges += chunk.out_degree(v);
                    }
                });
                assert_eq!(edges, ws.num_edges());
                assert!(chunked.data.peak_resident_edges() <= 50.max(max_degree(ws)));
            }
        });
        drop(out);
        std::fs::remove_file(&path).ok();
    }

    fn max_degree(s: &GraphSlice) -> u64 {
        (s.node_lo..s.node_hi).map(|v| s.out_degree(v)).max().unwrap_or(0)
    }

    #[test]
    fn eb_boundaries_are_edge_balanced() {
        let g = Arc::new(erdos_renyi(1000, 20_000, 2));
        let g2 = Arc::clone(&g);
        let out = Cluster::run(4, move |comm| {
            let cfg = CuspConfig {
                node_read_weight: 1,
                edge_read_weight: 0, // node-balanced reading...
                ..CuspConfig::default()
            };
            let r = read_phase(comm, &GraphSource::Memory(g2.clone()), &cfg).unwrap();
            // ...but eb_boundaries must stay edge-balanced regardless.
            r.setup.eb_boundaries.as_ref().clone()
        });
        let b = &out.results[0];
        assert_eq!(b.len(), 5);
        for w in b.windows(2) {
            let lo = if w[0] == 0 { 0 } else { g.offsets()[w[0] as usize] };
            let hi = g.offsets()[w[1] as usize];
            let edges = hi - lo;
            assert!(
                (edges as f64 - 5000.0).abs() < 1500.0,
                "block has {edges} edges"
            );
        }
    }
}
