//! The phase pipeline: the per-host context and harness the five
//! partitioning steps run under, plus the chunk-streaming slice they consume.
//!
//! The paper's Fig. 2 pipeline is five phases in a fixed order, so the
//! drivers are five calls in that order; what this module holds is what the
//! calls share:
//!
//! * [`PhaseCtx`] owns the per-host execution resources — comm handle,
//!   thread pool, config, and the per-phase wall-clock timers — and its
//!   [`PhaseCtx::run_phase`] harness tags communication, times the body,
//!   and places the inter-phase barrier, all keyed by a [`PhaseId`]. Because
//!   the tag is set by the harness itself, no phase traffic can ever land in
//!   the stats collector's `(untagged)` bucket.
//! * [`SliceData`] is what the reading phase hands to the edge-walking
//!   phases: either the monolithic resident [`GraphSlice`] (the
//!   `chunk_edges: None` identity case) or a [`ChunkedSlice`] stream of
//!   node-aligned bounded chunks, so peak resident edge state is O(chunk)
//!   instead of O(slice).
//! * [`ReplayReady`] is the structural form of the §IV-B4 replay
//!   invariant: `construct` takes the token where it would take the
//!   edge-rule state, and the token's only constructor resets that state —
//!   a driver that forgets the reset does not compile.

use std::time::Instant;

use cusp_galois::ThreadPool;
use cusp_graph::{ChunkedSlice, GraphSlice, Node};
use cusp_net::Comm;

use crate::config::{CuspConfig, PhaseId, PhaseTimes};
use crate::state::PartitionState;

/// The host's read range as the edge-walking phases consume it: one
/// resident slice, or a bounded-memory chunk stream over the same range.
pub enum SliceData {
    /// The whole slice is resident (`CuspConfig::chunk_edges = None`).
    Whole(GraphSlice),
    /// Only the offset array is resident; edge payloads are materialized
    /// one bounded chunk at a time. Boxed: the stream's bookkeeping
    /// (backing, recycled buffer, resident offsets) dwarfs the `Whole`
    /// variant, and the enum travels by value between phases.
    Chunked(Box<ChunkedSlice>),
}

impl SliceData {
    /// First node of the range (global id).
    pub fn node_lo(&self) -> Node {
        match self {
            SliceData::Whole(s) => s.node_lo,
            SliceData::Chunked(c) => c.node_lo(),
        }
    }

    /// One past the last node of the range (global id).
    pub fn node_hi(&self) -> Node {
        match self {
            SliceData::Whole(s) => s.node_hi,
            SliceData::Chunked(c) => c.node_hi(),
        }
    }

    /// Number of nodes in the range.
    pub fn num_nodes(&self) -> usize {
        (self.node_hi() - self.node_lo()) as usize
    }

    /// Number of edges in the range (across all chunks).
    pub fn num_edges(&self) -> u64 {
        match self {
            SliceData::Whole(s) => s.num_edges(),
            SliceData::Chunked(c) => c.num_edges(),
        }
    }

    /// Whether the range carries per-edge data.
    pub fn weighted(&self) -> bool {
        match self {
            SliceData::Whole(s) => s.weights().is_some(),
            SliceData::Chunked(c) => c.weighted(),
        }
    }

    /// True when the range streams as bounded chunks.
    pub fn is_chunked(&self) -> bool {
        matches!(self, SliceData::Chunked(_))
    }

    /// The resident slice of a monolithic range. Panics for chunked data —
    /// callers that need the whole slice at once (e.g. label propagation)
    /// do not support streaming and must run with `chunk_edges: None`.
    pub fn expect_whole(&self) -> &GraphSlice {
        match self {
            SliceData::Whole(s) => s,
            SliceData::Chunked(_) => {
                panic!("this code path needs the whole slice resident; run with chunk_edges: None")
            }
        }
    }

    /// Streams the chunks overlapping the global node range `[lo, hi)`, in
    /// ascending node order. `f` receives each chunk as a [`GraphSlice`]
    /// plus the sub-range of `nodes` it covers; for monolithic data it is
    /// called exactly once with the resident slice. Sequential chunk order
    /// is what keeps stateful rules' decision streams — and therefore the
    /// §IV-B4 replay — identical to the monolithic run.
    pub fn for_chunks_in(&mut self, nodes: std::ops::Range<Node>, mut f: impl FnMut(&GraphSlice, std::ops::Range<Node>)) {
        if nodes.start >= nodes.end {
            return;
        }
        match self {
            SliceData::Whole(s) => f(s, nodes),
            SliceData::Chunked(c) => {
                let first = c.chunk_index_of(nodes.start);
                let last = c.chunk_index_of(nodes.end - 1);
                for i in first..=last {
                    let (lo, hi) = c.chunk_bounds(i);
                    let sub = nodes.start.max(lo)..nodes.end.min(hi);
                    cusp_obs::span_begin_arg("chunk", i as u64);
                    f(c.load_chunk(i), sub);
                    cusp_obs::span_end("chunk");
                }
            }
        }
    }

    /// Streams every chunk of the range once, in ascending node order.
    pub fn for_each_chunk(&mut self, mut f: impl FnMut(&GraphSlice)) {
        let full = self.node_lo()..self.node_hi();
        self.for_chunks_in(full, |chunk, _| f(chunk));
    }

    /// Largest number of edges resident at once so far: the whole range for
    /// monolithic data, the measured chunk high-water mark when streaming.
    pub fn peak_resident_edges(&self) -> u64 {
        match self {
            SliceData::Whole(s) => s.num_edges(),
            SliceData::Chunked(c) => c.peak_resident_edges(),
        }
    }
}

/// Per-host execution context threaded through every phase: the comm
/// handle, the worker pool, the run config, and the per-phase timers that
/// [`PhaseTimes::breakdown`] later turns into the Fig. 4 table.
pub struct PhaseCtx<'a> {
    /// Communication endpoint of this host.
    pub comm: &'a Comm,
    /// Worker thread pool, created once and reused by every phase.
    pub pool: ThreadPool,
    /// The run configuration.
    pub cfg: &'a CuspConfig,
    /// Wall-clock time recorded per phase by [`PhaseCtx::run_phase`].
    pub times: PhaseTimes,
}

impl<'a> PhaseCtx<'a> {
    /// Creates the context (and the worker pool) for one partitioning run.
    pub fn new(comm: &'a Comm, cfg: &'a CuspConfig) -> Self {
        PhaseCtx {
            comm,
            pool: ThreadPool::new(cfg.threads_per_host.max(1)),
            cfg,
            times: PhaseTimes::default(),
        }
    }

    /// Runs one phase body: tags all communication with the phase's name,
    /// times the body, and — when [`PhaseId::barrier`] — barriers before
    /// stopping the clock so the per-phase times attribute cleanly across
    /// hosts.
    ///
    /// Contract: `body` consumes all of the phase's inbound traffic before
    /// it returns, so before the barrier. A checkpoint is taken at that
    /// barrier, and [`cusp_net::Comm::restore_net`]'s send-sequence jump is
    /// sound only because nothing sent before it is still unconsumed.
    pub fn run_phase<T>(&mut self, phase: PhaseId, body: impl FnOnce(&Self) -> T) -> T {
        let name = phase.name();
        self.comm.set_phase(name);
        if self.cfg.announce_phases {
            crate::distributed::announce_phase(name);
        }
        cusp_obs::span_begin(name);
        let t = Instant::now();
        let out = body(self);
        if phase.barrier() {
            self.comm.barrier();
        }
        self.times.record(phase, t.elapsed());
        cusp_obs::span_end(name);
        out
    }
}

/// Proof token that the edge-rule state has been reset for the §IV-B4
/// construction replay.
///
/// Graph construction re-evaluates `getEdgeOwner` for every locally read
/// edge and relies on the replay making *identical* decisions to edge
/// assignment — which for stateful rules requires resetting the state to
/// its pre-assignment value first. `construct` demands this token, and the
/// only way to mint one is [`ReplayReady::arm`], which performs the reset:
/// the invariant is enforced by construction, not by the driver
/// remembering a call.
pub struct ReplayReady<'s, S: PartitionState> {
    state: &'s S,
}

impl<'s, S: PartitionState> ReplayReady<'s, S> {
    /// Resets `state` to its initial value and certifies it replay-ready.
    pub fn arm(state: &'s S) -> Self {
        state.reset();
        ReplayReady { state }
    }

    /// The reset state, for the construction replay.
    pub fn state(&self) -> &'s S {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::LoadState;
    use cusp_graph::gen::uniform::erdos_renyi;
    use std::sync::Arc;

    fn whole_and_chunked(chunk: u64) -> (SliceData, SliceData) {
        let g = Arc::new(erdos_renyi(150, 1100, 13));
        let whole = SliceData::Whole(GraphSlice::window(Arc::clone(&g), None, 10, 140));
        let chunked = SliceData::Chunked(Box::new(ChunkedSlice::from_csr(g, None, 10, 140, chunk)));
        (whole, chunked)
    }

    #[test]
    fn chunked_stream_visits_same_edges_as_whole() {
        let (mut whole, mut chunked) = whole_and_chunked(40);
        assert_eq!(whole.num_edges(), chunked.num_edges());
        let walk = |d: &mut SliceData| {
            let mut seen: Vec<(Node, Vec<Node>)> = Vec::new();
            d.for_each_chunk(|chunk| {
                for v in chunk.node_lo..chunk.node_hi {
                    seen.push((v, chunk.edges(v).to_vec()));
                }
            });
            seen
        };
        assert_eq!(walk(&mut whole), walk(&mut chunked));
        assert!(chunked.peak_resident_edges() < whole.peak_resident_edges());
    }

    #[test]
    fn sub_ranges_clip_to_chunk_intersections() {
        let (mut whole, mut chunked) = whole_and_chunked(25);
        for range in [10u32..140, 37..91, 60..61, 90..90] {
            let collect = |d: &mut SliceData| {
                let mut nodes = Vec::new();
                d.for_chunks_in(range.clone(), |chunk, sub| {
                    assert!(sub.start >= chunk.node_lo && sub.end <= chunk.node_hi);
                    nodes.extend(sub.clone());
                });
                nodes
            };
            let expected: Vec<Node> = range.clone().collect();
            assert_eq!(collect(&mut whole), expected, "whole {range:?}");
            assert_eq!(collect(&mut chunked), expected, "chunked {range:?}");
        }
    }

    #[test]
    fn arming_replay_resets_state() {
        let state = LoadState::new(4);
        state.add_assignment(2, 7);
        assert_eq!(state.nodes(2), 1);
        let token = ReplayReady::arm(&state);
        assert_eq!(token.state().nodes(2), 0);
        assert_eq!(token.state().edges(2), 0);
    }

    #[test]
    #[should_panic(expected = "whole slice resident")]
    fn expect_whole_rejects_chunked_data() {
        let (_, chunked) = whole_and_chunked(16);
        let _ = chunked.expect_whole();
    }
}
