//! Incremental (delta) repartitioning: maintain a partition under a
//! mutation batch instead of rebuilding it from scratch.
//!
//! A partition produced by [`partition`] is a pure function of the input
//! graph and the policy. When the graph mutates (a [`GraphEvent`] batch
//! from the WAL), most of that function's inputs are unchanged, and
//! [`partition_delta`] re-runs master re-resolution, edge assignment and
//! construction only for the edges one of whose inputs changed; every other
//! edge is copied out of the previous partition by the host that already
//! owns it instead of being re-decided and re-shipped.
//!
//! # Structure
//!
//! This module holds only what is delta-specific: the dirty set, the tally
//! and the translate-copy of the kept edges (`Kept`), and the driver; it
//! sends and receives nothing itself. The rest is the full pipeline's:
//! `edge_assign::tally_edges` and `construct::construct` walk with the
//! [`DirtySet`] as their edge filter, so `getEdgeOwner` is evaluated,
//! routed and replayed by the same code a full run uses;
//! `edge_assign::exchange` sends the dirty tally in the full run's
//! positional messages, starting from the kept edges' outcome; and the
//! kept edges enter allocation's buffers through its one writer,
//! `alloc::Slots`.
//!
//! # Dirty by role
//!
//! `getEdgeOwner` sees an edge `(s, d)` through `prop`, which answers
//! structural queries for locally read nodes only — by contract the source
//! (§III-A) — and through the two masters. What a changed vertex drags along
//! therefore depends on the role it changed in, and [`DirtySet`] keeps one
//! bitset per role:
//!
//! * **sources** — every out-edge is re-decided: the **source of a batch
//!   event** (its out-degree or payload changed, and degree-sensitive rules
//!   like `Hybrid` may move *all* of its edges), a **new vertex**
//!   (`old_n..new_n`, it had no master before), a vertex whose **pure master
//!   moved** (edge-balanced boundaries shift with the edge distribution, so
//!   a mutation can re-home vertices far from the batch). These are the
//!   dirty *vertices* that [`DirtySet::contains`] and [`DirtySet::len`]
//!   report.
//! * **moved** ⊆ sources — the new and the master-shifted vertices, the only
//!   ones that change an edge *into* them.
//!
//! Edge `(s, d)` is re-decided iff `sources(s) || moved(d)`, which is
//! exactly "some input of `getEdgeOwner(out_degree(s), master(s),
//! master(d), parts)` changed": an edge into a vertex that was merely a
//! batch source keeps its owner and the mirror it induces. Both sides of
//! that agreement evaluate the same predicate over replicated inputs — the
//! previous owner to keep an edge, the new reader to skip it — so no
//! message says which edges stay.
//!
//! # The kept edges
//!
//! Rows of a [`DistGraph`] store *local* ids, and local ids shift whenever a
//! mirror appears or disappears or a master boundary moves, so a kept row
//! cannot be shared with the previous partition: the floor is one
//! translating pass, and `Kept` is held to it.
//!
//! * **Tests by previous local id.** Each host localises the two global
//!   bitsets once (one pass over `prev.local2global`). The tally then costs
//!   a bit test per row and, per edge, a sequential load of the stored id, a
//!   bit test and a plain `|=` into the worker's own `num_local`-bit
//!   destination row. The workers' rows are ORed together once the walk has
//!   joined; nothing is indexed by global id, and what the tally learned is
//!   globalised once per set bit.
//! * **Translate-copy.** After allocation `old2new` maps the previous local
//!   id of every proxy a kept edge touches to its new one (a hole anywhere
//!   else). A kept row reserves its tallied slots once and fills the window
//!   with one gather and one store per edge, weights beside. Tally and copy
//!   call one predicate, and the copy checks per row that it wrote exactly
//!   what was tallied.
//!
//! Under the phase spans the delta path records `delta.kept_tally` (the
//! kept-edge tally and its globalisation, in `edge_assign`, beside the
//! filtered `edge_assign.tally` and the `edge_assign.exchange`) and
//! `delta.kept_copy` (the translate-copy, in `construct`).
//!
//! The translation is monotone on kept proxies: neither endpoint of a kept
//! edge moved, so masters stay masters and mirrors stay mirrors, each
//! segment ascending by global id, masters first. A kept run thus arrives
//! in the order it was stored in, and the row's re-decided edges follow it
//! (construction reserves after the copy), at every thread count. `Kept`
//! reads rows keyed by source only: a previous CSC partition comes
//! transposed back on the pool's width (`construct::source_rows`; the ids
//! are borrowed), and the freeze transposes the result once, so a CSC
//! delta is the CSR delta's rows transposed.
//!
//! # Scope
//!
//! The delta path requires a **pure master rule** (re-resolution is
//! replicated computation, §IV-D5) and a **stateless edge rule** (per-edge
//! decisions independent of history) that keeps the contract above.
//! Stateful policies (HDRF, LDG, Fennel-family masters) fall back to a full
//! re-partition — still correct, and still fingerprint-identical, just not
//! incremental.
//!
//! The delta result is fingerprint-identical to a full re-partition of
//! the mutated graph: the per-host per-source edge multiset is reproduced
//! exactly (kept edges keep their owners, dirty edges are re-decided with
//! the same inputs a full run would use), allocation assigns local ids
//! deterministically from that multiset, and
//! [`crate::partition_fingerprint`] sees each row as a multiset. It is not byte-identical: a full row is the input row in
//! input order, a delta row the kept run followed by the re-decided run.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, Ordering};

use cusp_galois::{do_all, do_all_with_tid, ThreadPool, DEFAULT_GRAIN};
use cusp_graph::{Csr, GraphEvent, Node};
use cusp_net::Comm;

use crate::config::PhaseId;
use crate::dist_graph::DistGraph;
use crate::phases::alloc::{allocate, AllocOutcome};
use crate::phases::bitset::{NodeBitRows, ThreadRows};
use crate::phases::construct::{construct, source_rows, SourceRows};
use crate::phases::driver::{freeze_part, partition, PartitionOutput};
use crate::phases::edge_assign::{exchange, tally_edges, EdgeAssignOutcome, EdgeFilter};
use crate::phases::master::{owned_range, pure_masters, ResolvedMasters};
use crate::phases::pipeline::{PhaseCtx, ReplayReady};
use crate::phases::read::read_phase;
use crate::policy::{EdgeRule, MasterRule, Setup};
use crate::state::PartitionState;
use crate::{CuspConfig, GraphSource, PartId};

/// Rows of [`DirtySet::roles`].
const SOURCES: usize = 0;
const MOVED: usize = 1;

/// The vertices a batch dirtied, by the role they changed in (module docs):
/// two dense bitsets over global vertex ids, `moved` a subset of `sources`.
pub struct DirtySet {
    roles: NodeBitRows,
    n: u64,
    count: u64,
}

impl DirtySet {
    fn new(n: u64) -> Self {
        DirtySet { roles: NodeBitRows::new(2, n as usize), n, count: 0 }
    }

    /// Marks the vertices `vs` as dirty sources and, if `moved`, as moved.
    fn insert(&mut self, vs: impl IntoIterator<Item = Node>, moved: bool) {
        for v in vs {
            // `mark` would land a larger id in the next row.
            assert!((v as u64) < self.n, "dirty vertex {v} is not in the mutated graph");
            self.count += !self.roles.test(SOURCES, v) as u64;
            self.roles.mark(SOURCES, v);
            if moved {
                self.roles.mark(MOVED, v);
            }
        }
    }

    /// Is global vertex `v` dirty, i.e. is every one of its out-edges
    /// re-decided?
    #[inline]
    pub fn contains(&self, v: Node) -> bool {
        (v as u64) < self.n && self.roles.test(SOURCES, v)
    }

    /// Is `v` new or re-homed, so that the edges *into* it are re-decided
    /// too? Implies [`DirtySet::contains`].
    #[inline]
    pub fn moved(&self, v: Node) -> bool {
        (v as u64) < self.n && self.roles.test(MOVED, v)
    }

    /// Number of dirty vertices.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when no vertex is dirty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The delta walk: edge `(s, d)` is decided iff `s` is dirty or `d` moved.
impl EdgeFilter for DirtySet {
    #[inline]
    fn whole_source(&self, s: Node) -> bool {
        self.contains(s)
    }
    #[inline]
    fn edge(&self, whole_source: bool, d: Node) -> bool {
        whole_source || self.moved(d)
    }
}

/// Computes the dirty set for `batch` against the old/new pure master
/// rules (see the module docs for the rules and roles). Every host
/// computes an identical set — the inputs are all replicated. Panics if
/// either rule is not pure.
pub fn dirty_set<MR: MasterRule>(
    old_rule: &MR,
    new_rule: &MR,
    old_n: u64,
    new_n: u64,
    parts: PartId,
    batch: &[GraphEvent],
) -> DirtySet {
    debug_assert!(new_n >= old_n, "graphs never shrink under a WAL batch");
    let mut dirty = DirtySet::new(new_n);
    dirty.insert(batch.iter().map(GraphEvent::src), false);
    dirty.insert(old_n as Node..new_n as Node, true);
    // Master shifts: a vertex whose new owner differs from its old owner.
    // Both rules are range starts, so the shifted vertices are interval
    // differences — `new_range(p) \ old_range(p)` per part covers every
    // shifted vertex exactly once (each vertex has one new owner).
    // Vertices beyond `old_n` are already dirty via the range rule.
    let pure = "dirty_set needs pure master rules";
    let old_starts = old_rule.pure_starts().expect(pure);
    let new_starts = new_rule.pure_starts().expect(pure);
    for p in 0..parts {
        let old_r = owned_range(old_starts, p, old_n);
        let new_r = owned_range(new_starts, p, new_n);
        if old_r == new_r {
            continue;
        }
        dirty.insert(new_r.start..new_r.end.min(old_r.start.max(new_r.start)), true);
        dirty.insert(old_r.end.max(new_r.start).min(new_r.end)..new_r.end, true);
    }
    dirty
}

/// `old2new` of a previous proxy no kept edge touches.
const HOLE: u32 = u32::MAX;

/// The edges of the previous partition that keep their owner: tallied for
/// allocation and copied into it by previous local id (module docs, "The
/// kept edges").
struct Kept<'a> {
    /// The previous partition's proxies, by previous local id.
    local2global: &'a [Node],
    /// The previous partition as rows keyed by source, and their weights.
    graph: Cow<'a, Csr>,
    weights: Option<Cow<'a, [u32]>>,
    /// [`DirtySet`]'s rows, by previous local id: [`SOURCES`], rows that
    /// keep no edge; [`MOVED`], destinations whose edges drop.
    drops: NodeBitRows,
    /// One row, by previous local id: the destination proxies of kept
    /// edges, marked by the tally.
    dests: NodeBitRows,
    /// Kept edges per source proxy, each cell written by its row's task.
    counts: Vec<AtomicU32>,
}

impl<'a> Kept<'a> {
    /// Localises `dirty` and tallies the kept edges of `prev`, whose rows
    /// keyed by source (`construct::source_rows`) are `graph`.
    fn tally(pool: &ThreadPool, prev: &'a DistGraph, (graph, weights): SourceRows<'a>, dirty: &DirtySet) -> Self {
        let n = prev.num_local();
        let mut drops = NodeBitRows::new(2, n);
        for (l, &g) in prev.local2global.iter().enumerate() {
            if dirty.contains(g) {
                drops.mark(SOURCES, l as Node);
                if dirty.moved(g) {
                    drops.mark(MOVED, l as Node);
                }
            }
        }
        let mut kept = Kept {
            local2global: &prev.local2global,
            graph,
            weights,
            drops,
            // The union of the workers' rows, once the walk below has joined.
            dests: NodeBitRows::new(0, 0),
            counts: (0..n).map(|_| AtomicU32::new(0)).collect(),
        };
        let dests = ThreadRows::new(pool, 1, n);
        do_all_with_tid(pool, n, DEFAULT_GRAIN, |tid, row| {
            dests.with(tid, |dest| {
                let mut run = 0u32;
                kept.for_each_in_row(row, |_, d| {
                    run += 1;
                    dest.mark(0, d);
                });
                kept.counts[row].store(run, Ordering::Relaxed);
            });
        });
        kept.dests = dests.union();
        kept
    }

    /// The kept predicate: calls `f(edge index, destination)` for every edge
    /// of previous row `row` none of whose `getEdgeOwner` inputs changed.
    #[inline]
    fn for_each_in_row(&self, row: usize, mut f: impl FnMut(usize, u32)) {
        if self.drops.test(SOURCES, row as Node) {
            return;
        }
        let e0 = self.graph.first_edge(row as Node) as usize;
        for (i, &d) in self.graph.edges(row as Node).iter().enumerate() {
            if !self.drops.test(MOVED, d) {
                f(e0 + i, d);
            }
        }
    }

    /// Number of kept edges.
    fn reused_edges(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed) as u64).sum()
    }

    /// What allocation must know of the kept edges, globalised once per
    /// proxy: `(source, edges, master)` and the destinations mastered
    /// elsewhere. Previous local ids ascend by global id within the master
    /// and within the mirror segment, so each list is two ascending runs.
    fn outcome(&self, masters: &ResolvedMasters, me: usize) -> EdgeAssignOutcome {
        let global = |l: usize| self.local2global[l];
        let counts = self.counts.iter().enumerate().map(|(l, c)| (l, c.load(Ordering::Relaxed)));
        let incoming_srcs = counts
            .filter(|&(_, c)| c > 0)
            .map(|(l, c)| (global(l), c, masters.of(global(l))))
            .collect();
        let mirrors = self
            .dests
            .ones(0)
            .map(|l| (global(l as usize), masters.of(global(l as usize))))
            .filter(|&(_, m)| m as usize != me)
            .collect();
        EdgeAssignOutcome { incoming_srcs, mirrors, my_master_nodes: None, to_receive: 0 }
    }

    /// Previous local id → new local id for every proxy a kept edge touches,
    /// [`HOLE`] for the rest (which `alloc` need not know at all).
    fn old2new(&self, alloc: &AllocOutcome) -> Vec<u32> {
        let touched = |l: usize| {
            self.counts[l].load(Ordering::Relaxed) > 0 || self.dests.test(0, l as Node)
        };
        let global = self.local2global.iter().enumerate();
        global.map(|(l, &g)| if touched(l) { alloc.local_of(g) } else { HOLE }).collect()
    }

    /// Translate-copies every kept edge into the slots `alloc` holds for it,
    /// through allocation's one writer: pure memory movement, no rule and
    /// no wire. The tally is spent after.
    fn copy(self, pool: &ThreadPool, alloc: &mut AllocOutcome) {
        let weights = self.weights.as_deref();
        // Not a debug check: every weight window must be written.
        assert_eq!(weights.is_some(), alloc.edge_data.is_some(), "previous weights, new input");
        let old2new = self.old2new(alloc);
        let new_id = |l: u32| {
            let new = old2new[l as usize];
            // The predicate kept the edge, so the bit of `l` in the local
            // dirty rows is clear and the tally must have touched it.
            assert!(new != HOLE, "kept edge at previous proxy {l}, which the tally never touched");
            new
        };
        let slots = alloc.slots();
        do_all(pool, self.local2global.len(), DEFAULT_GRAIN, |row| {
            let cnt = self.counts[row].load(Ordering::Relaxed) as usize;
            let (dests, mut data) = match cnt {
                0 => (&mut [][..], None),
                _ => slots.reserve(new_id(row as u32), cnt),
            };
            let mut at = 0;
            self.for_each_in_row(row, |e, d| {
                let slot = dests.get_mut(at).expect("kept-edge copy wrote more edges than the tally counted");
                *slot = new_id(d);
                if let (Some(data), Some(w)) = (data.as_deref_mut(), weights) {
                    data[at] = w[e];
                }
                at += 1;
            });
            let short = cnt - at;
            assert!(short == 0, "previous row {row} was copied {short} edges short of its tally");
        });
    }
}

/// Incrementally repartitions a mutated graph against the previous run.
///
/// `source` must be the **mutated** graph (the previous input with `batch`
/// applied, e.g. via [`cusp_graph::Csr::apply_batch`]); `prev` is this
/// host's output from the previous [`partition`] (or `partition_delta`)
/// run over the pre-mutation graph, and `batch` the applied events —
/// identical on every host. `build` must be the same deterministic policy
/// constructor the previous run used; it is evaluated against both the old
/// and the new [`Setup`].
///
/// An edge `(src, dst)` is re-decided iff `src` is dirty or `dst` moved
/// (module docs); every other edge stays where `prev` has it. That rests on
/// the [`EdgeRule`] contract: a stateless rule handed to this function
/// decides from structural properties of `src`, the two masters and `parts`
/// only — `prop` refuses structural queries about any node but a locally
/// read one, which `dst` need not be — so a vertex that was merely the
/// source of a batch event changes no decision about the edges into it.
///
/// Policies with a stateful edge rule or a non-pure master rule (and runs
/// with `force_stored_masters`) fall back to a full re-partition; the
/// returned accounting (`dirty_vertices == num_nodes`,
/// `reused_edges == 0`) makes the fallback observable.
///
/// The result has the same [`crate::verify::partition_fingerprint`] as a
/// full re-partition of the mutated graph; its rows hold the same edges in
/// another order.
pub fn partition_delta<MR, ER>(
    comm: &Comm,
    source: GraphSource,
    cfg: &CuspConfig,
    build: impl Fn(&Setup) -> (MR, ER),
    prev: &PartitionOutput,
    batch: &[GraphEvent],
) -> PartitionOutput
where
    MR: MasterRule,
    ER: EdgeRule,
{
    // Delta needs pure masters (re-resolution is replicated computation)
    // and a stateless edge rule (decisions independent of history). The
    // probe runs against the old setup — identical on every host, so all
    // hosts take the same branch.
    let (old_rule, _) = build(&prev.setup);
    let pure = old_rule.pure_starts().is_some();
    if !<ER as EdgeRule>::State::STATELESS || !pure || cfg.force_stored_masters {
        return partition(comm, source, cfg, build);
    }

    let mut ctx = PhaseCtx::new(comm, cfg);

    // Phase 1: re-read the mutated graph (the slice is process memory, not
    // durable state — reading always re-runs, exactly as in the full driver).
    let read = ctx.run_phase(PhaseId::Read, |_| {
        read_phase(comm, &source, cfg).expect("failed to read input graph")
    });
    let setup = read.setup;
    let mut data = read.data;
    debug_assert_eq!(setup.parts, prev.setup.parts, "host count changed between runs");

    // Phase 2 (master re-resolution) is free: the rule is pure, so the new
    // assignment is replicated computation — no protocol, no barrier.
    let (master_rule, edge_rule) = build(&setup);
    let masters =
        pure_masters(&master_rule, setup.parts).expect("policy purity changed between runs");

    let dirty = dirty_set(
        &old_rule,
        &master_rule,
        prev.setup.num_nodes,
        setup.num_nodes,
        setup.parts,
        batch,
    );
    let estate = <ER as EdgeRule>::State::new(setup.parts);

    // Phase 3: the kept edges tallied locally, then the full phase's tally
    // under the dirty filter and its exchange, starting from what the kept
    // edges need. No input of a kept edge's decision changed, so neither did
    // its owner: it stays on this host, with the proxies it needs.
    let (ea, kept) = ctx.run_phase(PhaseId::EdgeAssign, |ctx| {
        let kept_span = cusp_obs::span("delta.kept_tally");
        let rows = source_rows(&prev.dist_graph, cfg.output, ctx.pool.threads());
        let kept = Kept::tally(&ctx.pool, &prev.dist_graph, rows, &dirty);
        let held = kept.outcome(&masters, comm.host());
        drop(kept_span);
        let tally = tally_edges(&ctx.pool, &setup, &mut data, &masters, &edge_rule, &estate, &dirty);
        (exchange(comm, &setup, &masters, tally, held), kept)
    });

    // Phase 4: allocation — unchanged; the outcome feeds the exact same
    // deterministic local-id layout a full run would compute, and is
    // consumed by it.
    let to_receive = ea.to_receive;
    let weighted = data.weighted();
    let mut alloc = ctx.run_phase(PhaseId::Alloc, |ctx| {
        allocate(comm.host(), &ctx.pool, &masters, setup.num_nodes, ea, weighted)
    });

    // Phase 5: the kept edges copied out of the previous partition (no
    // decision, no communication), then the full construction phase under
    // the dirty filter, so only dirty edges are re-decided and shipped.
    let reused_edges = kept.reused_edges();
    let dist_graph = ctx.run_phase(PhaseId::Construct, |ctx| {
        {
            let _span = cusp_obs::span("delta.kept_copy");
            kept.copy(&ctx.pool, &mut alloc);
        }
        let replay = ReplayReady::arm(&estate);
        let built = construct(
            comm,
            &ctx.pool,
            &setup,
            &mut data,
            &masters,
            &edge_rule,
            replay,
            &mut alloc,
            to_receive,
            cfg,
            &dirty,
        );
        freeze_part(comm.host(), ER::CLASS, &setup, alloc, built)
    });

    PartitionOutput {
        dirty_vertices: dirty.len(),
        reused_edges,
        ..PartitionOutput::assemble(ctx, setup, &data, dist_graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OutputFormat;
    use crate::policies::masters::Contiguous;
    use cusp_graph::ChunkedSlice;
    use cusp_graph::ReadSplit;
    use std::sync::Arc;

    fn setup(n: u64, parts: PartId) -> Setup {
        Setup {
            num_nodes: n,
            num_edges: 10 * n,
            parts,
            eb_boundaries: Arc::new(
                (0..=parts as u64).map(|p| p * n / parts as u64).collect(),
            ),
            read_splits: Arc::new(vec![ReadSplit { lo: 0, hi: n }]),
        }
    }

    #[test]
    fn dirty_set_marks_sources_growth_and_shifts() {
        let old = Contiguous::new(&setup(100, 4)); // blocks of 25
        let new = Contiguous::new(&setup(110, 4)); // blocks of 28
        let batch = [
            GraphEvent::AddEdge { src: 3, dst: 7, weight: None },
            GraphEvent::RemoveEdge { src: 90, dst: 1 },
        ];
        let d = dirty_set(&old, &new, 100, 110, 4, &batch);
        let (old, new) = (pure_masters(&old, 4).unwrap(), pure_masters(&new, 4).unwrap());
        // Event sources.
        assert!(d.contains(3) && d.contains(90));
        // Grown range.
        for v in 100..110 {
            assert!(d.contains(v), "grown node {v} must be dirty");
        }
        // Shifted masters: old blocks 25, new blocks 28 → e.g. node 25
        // moved from part 1 to part 0; node 26 likewise.
        assert_eq!(old.of(25), 1);
        assert_eq!(new.of(25), 0);
        assert!(d.contains(25));
        // A node with unchanged inputs stays clean: node 5 is in part 0
        // both before and after and is not an event source.
        assert_eq!(old.of(5), new.of(5));
        assert!(!d.contains(5));
        assert!(d.len() >= 12);
        assert!(!d.is_empty());
        // Roles: an event source drags only its own out-edges; a re-homed
        // or a new vertex also the edges into it.
        assert_eq!(old.of(90), new.of(90));
        assert!(!d.moved(3) && !d.moved(90), "an event source did not move");
        assert!(d.moved(25) && (100..110).all(|v| d.moved(v)));
        assert!((0..120).all(|v| !d.moved(v) || d.contains(v)), "moved is a subset of sources");
        assert_eq!((0..110).filter(|&v| d.contains(v)).count() as u64, d.len());
    }

    #[test]
    fn dirty_set_is_empty_for_identity() {
        let rule = Contiguous::new(&setup(64, 4));
        let d = dirty_set(&rule, &rule, 64, 64, 4, &[]);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        for v in 0..64 {
            assert!(!d.contains(v));
        }
    }

    #[test]
    fn all_dirty_set_tallies_like_all_edges_on_chunked_data() {
        use crate::phases::edge_assign::AllEdges;
        use crate::policies::edges::CartesianEdge;
        use cusp_graph::gen::uniform::erdos_renyi;

        let g = Arc::new(erdos_renyi(150, 1100, 13));
        let setup = setup(150, 4);
        let masters = pure_masters(&Contiguous::new(&setup), setup.parts).unwrap();
        let rule = CartesianEdge::new(&setup);
        let pool = cusp_galois::ThreadPool::new(2);
        for budget in [u64::MAX, 40] {
            let chunked = || ChunkedSlice::from_csr(g.clone(), None, 10, 140, budget);
            let all = tally_edges(&pool, &setup, &mut chunked(), &masters, &rule, &(), &AllEdges);
            let mut dirty = DirtySet::new(150);
            let none = tally_edges(&pool, &setup, &mut chunked(), &masters, &rule, &(), &dirty);
            assert!(none.0.iter().all(|&c| c == 0) && none.1.iter().all(Vec::is_empty));
            dirty.insert(0..150, false);
            let every = tally_edges(&pool, &setup, &mut chunked(), &masters, &rule, &(), &dirty);
            assert_eq!(all, every, "budget {budget}");
            let in_range = g.offsets()[140] - g.offsets()[10];
            assert_eq!(all.0.iter().map(|&c| c as u64).sum::<u64>(), in_range);
            assert!(all.1.iter().any(|m| !m.is_empty()), "no mirrors: the comparison is vacuous");
        }
    }

    /// Host 0 of 2 over globals `0..10` — masters `0..5`, mirrors {6, 7, 9} —
    /// holding 1→6 (10), 1→7 (11), 3→1 (12), 3→9 (13), 4→7 (14), 7→2 (15),
    /// as CSR rows or transposed to CSC. 4 and 7 were batch sources and 6 was
    /// re-homed, so row 1 loses its edge into the moved 6 and keeps the one
    /// into 7, which is only an event source: 1→7, 3→1 and 3→9 stay.
    fn hand_built(output: OutputFormat) -> (DistGraph, DirtySet) {
        let graph = Csr::from_edges(8, &[(1, 5), (1, 6), (3, 1), (3, 7), (4, 6), (6, 2)]);
        let csr = DistGraph {
            part_id: 0,
            num_parts: 2,
            global_nodes: 10,
            global_edges: 6,
            num_masters: 5,
            local2global: vec![0, 1, 2, 3, 4, 6, 7, 9],
            master_of: vec![0, 0, 0, 0, 0, 1, 1, 1],
            graph,
            edge_data: Some(vec![10, 11, 12, 13, 14, 15]),
            class: crate::PartitionClass::GeneralVertexCut,
        };
        let prev = match output {
            OutputFormat::Csr => csr,
            OutputFormat::Csc => csr.transposed(),
        };
        let mut dirty = DirtySet::new(10);
        dirty.insert([4, 7], false);
        dirty.insert([6], true);
        (prev, dirty)
    }

    /// Tallies `prev`, built as `output`, and allocates for its kept edges
    /// alone.
    fn tally_and_allocate<'a>(
        pool: &cusp_galois::ThreadPool,
        prev: &'a DistGraph,
        output: OutputFormat,
        dirty: &DirtySet,
        bump: Option<usize>,
    ) -> (Kept<'a>, EdgeAssignOutcome, AllocOutcome) {
        let masters = pure_masters(&Contiguous::new(&setup(10, 2)), 2).unwrap();
        let kept = Kept::tally(pool, prev, source_rows(prev, output, pool.threads()), dirty);
        if let Some(l) = bump {
            kept.counts[l].fetch_add(1, Ordering::Relaxed);
        }
        let ea = kept.outcome(&masters, 0);
        let alloc = allocate(0, pool, &masters, 10, ea.clone(), true);
        (kept, ea, alloc)
    }

    #[test]
    fn kept_edges_follow_roles_and_translate_in_both_orientations() {
        let pool = cusp_galois::ThreadPool::new(2);
        for output in [OutputFormat::Csr, OutputFormat::Csc] {
            let (prev, dirty) = hand_built(output);
            let (kept, ea, mut alloc) = tally_and_allocate(&pool, &prev, output, &dirty, None);
            assert_eq!(kept.reused_edges(), 3, "{output:?}");
            assert_eq!(ea.incoming_srcs, vec![(1, 1, 0), (3, 2, 0)], "{output:?}");
            assert_eq!(ea.mirrors, vec![(7, 1), (9, 1)], "{output:?}");
            // Mirror 6 is gone, so 7 and 9 shift down by one: holes exactly
            // at the proxies no kept edge touches, increasing on the rest.
            assert_eq!(alloc.local2global, vec![0, 1, 2, 3, 4, 7, 9]);
            let old2new = kept.old2new(&alloc);
            assert_eq!(old2new, vec![HOLE, 1, HOLE, 3, HOLE, HOLE, 5, 6], "{output:?}");
            assert_eq!(alloc.offsets, vec![0, 0, 1, 1, 3, 3, 3, 3]);
            kept.copy(&pool, &mut alloc);
            // The kept edges are all this allocation holds, so the copy
            // alone must bring every cursor to its row's end, each kept run
            // in its stored order.
            let (csr, weights) = alloc.take_filled();
            let (dests, weights) = (csr.dests(), weights.expect("weighted input"));
            let rows: Vec<_> = dests.iter().copied().zip(weights).collect();
            assert_eq!(rows, vec![(5, 11), (1, 12), (6, 13)], "{output:?}: 1→7, 3→1, 3→9");
        }
    }

    #[test]
    #[should_panic(expected = "previous row 1 was copied 1 edges short of its tally")]
    fn a_tally_the_copy_does_not_fill_panics_before_the_buffers_get_a_length() {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        let pool = cusp_galois::ThreadPool::new(2);
        let (prev, dirty) = hand_built(OutputFormat::Csr);
        // Row 1 is tallied, and allocated, one edge more than it keeps.
        let (kept, _, mut alloc) = tally_and_allocate(&pool, &prev, OutputFormat::Csr, &dirty, Some(1));
        let copied = catch_unwind(AssertUnwindSafe(|| kept.copy(&pool, &mut alloc)));
        assert!(alloc.dests.is_empty(), "short-copied destination buffer got a length");
        assert!(alloc.edge_data.as_ref().is_some_and(Vec::is_empty), "short-copied weight buffer");
        if let Err(panic) = copied {
            resume_unwind(panic);
        }
    }
}
