//! The phase pipeline: a first-class [`Phase`] abstraction over the five
//! partitioning steps, plus the chunk-streaming slice the phases consume.
//!
//! The paper's Fig. 2 pipeline used to be hard-wired into one monolithic
//! driver body: five function calls, each preceded by an ad-hoc
//! `comm.set_phase` + `Instant::now()` pair and followed by a barrier.
//! This module makes the seams explicit:
//!
//! * [`PhaseCtx`] owns the per-host execution resources — comm handle,
//!   thread pool, config, and the per-phase wall-clock timers — and its
//!   [`PhaseCtx::run_phase`] harness tags communication, times the body,
//!   and places the inter-phase barrier. Because the tag is set by the
//!   harness itself, no phase traffic can ever land in the stats
//!   collector's `(untagged)` bucket.
//! * [`Phase`] is the unit of pipeline structure: a name (which doubles as
//!   the comm accounting tag), a barrier policy, and a typed
//!   `Input -> Output` transition. The five concrete phases are
//!   [`ReadPhase`], [`MasterPhase`], [`EdgeAssignPhase`], [`AllocPhase`]
//!   and [`ConstructPhase`].
//! * [`SliceData`] is what the reading phase hands to the edge-walking
//!   phases: either the monolithic resident [`GraphSlice`] (the
//!   `chunk_edges: None` identity case) or a [`ChunkedSlice`] stream of
//!   node-aligned bounded chunks, so peak resident edge state is O(chunk)
//!   instead of O(slice).
//! * [`ReplayReady`] is the structural form of the §IV-B4 replay
//!   invariant: [`ConstructPhase`] cannot be built without the token, and
//!   the token's only constructor resets the edge-rule state — the reset
//!   can no longer be forgotten by a driver edit.

use std::time::Instant;

use cusp_galois::ThreadPool;
use cusp_graph::{ChunkedSlice, Csr, GraphSlice, Node};
use cusp_net::Comm;

use crate::config::{CuspConfig, PhaseTimes};
use crate::phases::alloc::{allocate, AllocOutcome, MasterSpec};
use crate::phases::construct::construct;
use crate::phases::edge_assign::{assign_edges, AllEdges, EdgeAssignOutcome};
use crate::phases::master::{assign_masters, pure_masters, ResolvedMasters};
use crate::phases::read::{read_phase, ReadOutcome};
use crate::policy::{EdgeRule, MasterRule, Setup};
use crate::state::PartitionState;
use crate::GraphSource;

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
            SliceData::Whole(s) => s.weights.is_some(),
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

    /// Runs one phase: tags all communication with [`Phase::NAME`], times
    /// the body, and — when [`Phase::BARRIER`] — barriers before stopping
    /// the clock so the per-phase times attribute cleanly across hosts.
    pub fn run_phase<P: Phase>(&mut self, phase: P, input: P::Input) -> P::Output {
        self.comm.set_phase(P::NAME);
        if self.cfg.announce_phases {
            // Line-buffered stdout flushes on the newline, so the launch
            // supervisor sees the marker before any phase work begins —
            // the anchor `--kill-seed` injection is timed against.
            println!("CUSP-WORKER-PHASE {}", P::NAME);
        }
        cusp_obs::span_begin(P::NAME);
        let t = Instant::now();
        let out = phase.run(self, input);
        if P::BARRIER {
            self.comm.barrier();
        }
        self.times.record(P::NAME, t.elapsed());
        cusp_obs::span_end(P::NAME);
        out
    }
}

/// One step of the partitioning pipeline.
///
/// A phase is consumed by [`PhaseCtx::run_phase`], which handles the
/// cross-cutting concerns (comm tagging, timing, barrier); `run` holds only
/// the phase's own logic. Rule references and other phase-lifetime
/// parameters live on the implementing struct; `Input`/`Output` carry the
/// data products that flow between phases.
pub trait Phase {
    /// Phase name — the comm accounting tag and the [`PhaseTimes`] key.
    const NAME: &'static str;
    /// Whether a barrier separates this phase from the next (true for all
    /// communicating phases; allocation is host-local and skips it).
    const BARRIER: bool = true;
    /// What the phase consumes.
    type Input;
    /// What the phase produces.
    type Output;
    /// Executes the phase body.
    fn run(self, ctx: &mut PhaseCtx<'_>, input: Self::Input) -> Self::Output;
}

/// Proof token that the edge-rule state has been reset for the §IV-B4
/// construction replay.
///
/// Graph construction re-evaluates `getEdgeOwner` for every locally read
/// edge and relies on the replay making *identical* decisions to edge
/// assignment — which for stateful rules requires resetting the state to
/// its pre-assignment value first. [`ConstructPhase`] demands this token,
/// and the only way to mint one is [`ReplayReady::arm`], which performs the
/// reset: the invariant is enforced by construction, not by the driver
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

/// Phase 1 — graph reading (§IV-B1). Yields the host's [`SliceData`]
/// (monolithic or chunk-streaming per `CuspConfig::chunk_edges`) and the
/// globally replicated [`Setup`].
pub struct ReadPhase<'a> {
    /// Where the input graph comes from.
    pub source: &'a GraphSource,
}

impl Phase for ReadPhase<'_> {
    const NAME: &'static str = "read";
    type Input = ();
    type Output = ReadOutcome;

    fn run(self, ctx: &mut PhaseCtx<'_>, _input: ()) -> ReadOutcome {
        read_phase(ctx.comm, self.source, ctx.cfg).expect("failed to read input graph")
    }
}

/// Phase 2 — master assignment (§IV-B2). Applies the §IV-D5 elision for
/// pure rules (unless the `force_stored_masters` ablation is on) and the
/// stored sync protocol otherwise.
pub struct MasterPhase<'a, MR: MasterRule> {
    /// Global facts the rule was built from.
    pub setup: &'a Setup,
    /// The `getMaster` half of the policy.
    pub rule: &'a MR,
    /// The rule's partitioning state (`()` when stateless).
    pub state: &'a MR::State,
}

impl<'a, MR: MasterRule> Phase for MasterPhase<'a, MR> {
    const NAME: &'static str = "master";
    type Input = &'a mut SliceData;
    type Output = ResolvedMasters;

    fn run(self, ctx: &mut PhaseCtx<'_>, data: &'a mut SliceData) -> ResolvedMasters {
        if self.rule.is_pure() && !ctx.cfg.force_stored_masters {
            pure_masters(self.rule, self.setup.parts)
        } else {
            assign_masters(ctx.comm, &ctx.pool, self.setup, data, self.rule, self.state, ctx.cfg)
        }
    }
}

/// Phase 3 — edge assignment (Algorithm 3, §IV-B3).
pub struct EdgeAssignPhase<'a, ER: EdgeRule> {
    /// Global facts the rule was built from.
    pub setup: &'a Setup,
    /// Resolved master locations from phase 2.
    pub masters: &'a ResolvedMasters,
    /// The `getEdgeOwner` half of the policy.
    pub rule: &'a ER,
    /// The rule's partitioning state (`()` when stateless).
    pub state: &'a ER::State,
}

impl<'a, ER: EdgeRule> Phase for EdgeAssignPhase<'a, ER> {
    const NAME: &'static str = "edge_assign";
    type Input = &'a mut SliceData;
    type Output = EdgeAssignOutcome;

    fn run(self, ctx: &mut PhaseCtx<'_>, data: &'a mut SliceData) -> EdgeAssignOutcome {
        assign_edges(ctx.comm, &ctx.pool, self.setup, data, self.masters, self.rule, self.state)
    }
}

/// Phase 4 — graph allocation (§IV-B4). Host-local: no communication, no
/// barrier (matching the monolithic driver, whose alloc step also ran
/// un-barriered straight into construction).
pub struct AllocPhase<'a> {
    /// Where this host's master set comes from (stored list or pure range).
    pub spec: MasterSpec<'a>,
    /// Whether per-edge data buffers must be allocated.
    pub weighted: bool,
}

impl<'a> Phase for AllocPhase<'a> {
    const NAME: &'static str = "alloc";
    const BARRIER: bool = false;
    type Input = &'a EdgeAssignOutcome;
    type Output = AllocOutcome;

    fn run(self, ctx: &mut PhaseCtx<'_>, outcome: &'a EdgeAssignOutcome) -> AllocOutcome {
        allocate(ctx.comm.host(), &ctx.pool, self.spec, outcome, self.weighted)
    }
}

/// Phase 5 — graph construction (Algorithm 4, §IV-B5). Requires the
/// [`ReplayReady`] token, making the state-reset seam between allocation
/// and construction part of the type signature.
pub struct ConstructPhase<'a, ER: EdgeRule> {
    /// Global facts the rule was built from.
    pub setup: &'a Setup,
    /// Resolved master locations from phase 2.
    pub masters: &'a ResolvedMasters,
    /// The `getEdgeOwner` half of the policy.
    pub rule: &'a ER,
    /// Reset edge-rule state for the §IV-B4 replay.
    pub replay: ReplayReady<'a, ER::State>,
    /// Edges this host will receive, from the edge-assignment exchange.
    pub to_receive: u64,
}

impl<'a, ER: EdgeRule> Phase for ConstructPhase<'a, ER> {
    const NAME: &'static str = "construct";
    type Input = (&'a mut SliceData, &'a mut AllocOutcome);
    type Output = (Csr, Option<Vec<u32>>);

    fn run(self, ctx: &mut PhaseCtx<'_>, (data, alloc): Self::Input) -> Self::Output {
        construct(
            ctx.comm,
            &ctx.pool,
            self.setup,
            data,
            self.masters,
            self.rule,
            self.replay.state(),
            alloc,
            self.to_receive,
            ctx.cfg,
            &AllEdges,
        )
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
        let whole = SliceData::Whole(GraphSlice::from_csr(&g, 10, 140));
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
