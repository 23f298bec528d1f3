//! The phase pipeline: the per-host context and harness the five
//! partitioning steps run under, plus the walk over the chunk stream they
//! consume.
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
//! * [`for_chunks_in`] and [`for_each_chunk`] are how the edge-walking
//!   phases stream the [`ChunkedSlice`] the reading phase hands them: chunk
//!   by chunk in node order, each chunk under a `chunk` span. A resident
//!   range (`chunk_edges: None`) is the one-chunk case, loaded once, so
//!   every walk sees one shape and peak resident edge state is O(chunk)
//!   whenever a budget is set.
//! * [`ReplayReady`] is the structural form of the §IV-B4 replay
//!   invariant: `construct` takes the token where it would take the
//!   edge-rule state, and the token's only constructor resets that state —
//!   a driver that forgets the reset does not compile.

use std::ops::Range;
use std::time::Instant;

use cusp_galois::ThreadPool;
use cusp_graph::{ChunkedSlice, GraphSlice, Node};
use cusp_net::Comm;

use crate::config::{CuspConfig, PhaseId, PhaseTimes};
use crate::state::PartitionState;

/// Streams the chunks of `data` overlapping the global node range `[lo,
/// hi)`, in ascending node order. `f` receives each chunk plus the
/// sub-range of `nodes` it covers. Sequential chunk order is what keeps
/// stateful rules' decision streams — and therefore the §IV-B4 replay —
/// identical at every chunk budget.
pub(crate) fn for_chunks_in(data: &mut ChunkedSlice, nodes: Range<Node>, mut f: impl FnMut(&GraphSlice, Range<Node>)) {
    if nodes.start >= nodes.end {
        return;
    }
    let first = data.chunk_index_of(nodes.start);
    let last = data.chunk_index_of(nodes.end - 1);
    for i in first..=last {
        let (lo, hi) = data.chunk_bounds(i);
        let sub = nodes.start.max(lo)..nodes.end.min(hi);
        cusp_obs::span_begin_arg("chunk", i as u64);
        f(data.load_chunk(i), sub);
        cusp_obs::span_end("chunk");
    }
}

/// Streams every chunk of `data` once, in ascending node order.
pub(crate) fn for_each_chunk(data: &mut ChunkedSlice, mut f: impl FnMut(&GraphSlice)) {
    let full = data.node_lo()..data.node_hi();
    for_chunks_in(data, full, |chunk, _| f(chunk));
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

    /// The range `[10, 140)` of one graph, resident (an unbounded budget)
    /// and streamed under `chunk`.
    fn whole_and_chunked(chunk: u64) -> (ChunkedSlice, ChunkedSlice) {
        let g = Arc::new(erdos_renyi(150, 1100, 13));
        let whole = ChunkedSlice::from_csr(Arc::clone(&g), None, 10, 140, u64::MAX);
        let chunked = ChunkedSlice::from_csr(g, None, 10, 140, chunk);
        (whole, chunked)
    }

    #[test]
    fn chunked_stream_visits_same_edges_as_whole() {
        let (mut whole, mut chunked) = whole_and_chunked(40);
        assert_eq!(whole.num_edges(), chunked.num_edges());
        let walk = |d: &mut ChunkedSlice| {
            let mut seen: Vec<(Node, Vec<Node>)> = Vec::new();
            for_each_chunk(d, |chunk| {
                for v in chunk.node_lo..chunk.node_hi {
                    seen.push((v, chunk.edges(v).to_vec()));
                }
            });
            seen
        };
        assert_eq!(walk(&mut whole), walk(&mut chunked));
        assert_eq!(whole.peak_resident_edges(), whole.num_edges());
        assert!(chunked.peak_resident_edges() < whole.peak_resident_edges());
    }

    #[test]
    fn sub_ranges_clip_to_chunk_intersections() {
        let (mut whole, mut chunked) = whole_and_chunked(25);
        for range in [10u32..140, 37..91, 60..61, 90..90] {
            let collect = |d: &mut ChunkedSlice| {
                let mut nodes = Vec::new();
                for_chunks_in(d, range.clone(), |chunk, sub| {
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
    fn an_unbounded_budget_is_one_chunk_even_for_an_empty_range() {
        // What label propagation relies on: chunk 0 is the whole range.
        let g = Arc::new(erdos_renyi(150, 1100, 13));
        for (lo, hi) in [(0u32, 150u32), (10, 140), (70, 70), (150, 150)] {
            let mut s = ChunkedSlice::from_csr(Arc::clone(&g), None, lo, hi, u64::MAX);
            assert_eq!(s.num_chunks(), 1, "[{lo}, {hi})");
            let chunk = s.load_chunk(0);
            assert_eq!((chunk.node_lo, chunk.node_hi), (lo, hi));
            assert_eq!(chunk.num_edges(), g.offsets()[hi as usize] - g.offsets()[lo as usize]);
            let mut walks = 0;
            for_each_chunk(&mut s, |_| walks += 1);
            assert_eq!(walks, usize::from(lo < hi), "[{lo}, {hi})");
        }
    }
}
