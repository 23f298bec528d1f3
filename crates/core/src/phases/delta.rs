//! Incremental (delta) repartitioning: maintain a partition under a
//! mutation batch instead of rebuilding it from scratch.
//!
//! A partition produced by [`partition`] is a pure function of the input
//! graph and the policy. When the graph mutates (a [`GraphEvent`] batch
//! from the WAL), most of that function's inputs are unchanged: a vertex
//! whose out-edges, master, and weights did not move keeps exactly the
//! partition-side state it had. [`partition_delta`] exploits this by
//! re-running only master re-resolution, edge assignment, and construction
//! for the *dirty* vertices, while every clean vertex keeps its master,
//! its mirrors, and its CSR slots — clean edges are copied out of the
//! previous partition instead of being re-decided and re-shipped.
//!
//! # Structure
//!
//! This module holds only what is delta-specific: the dirty set, the
//! kept-edge tally and kept-edge copy out of the previous partition, the
//! sparse `(src, count)` metadata exchange, and the driver. The per-edge
//! walk is the full pipeline's: `delta_assign` calls
//! `edge_assign::tally_edges` and `delta_construct` calls
//! `construct::construct` with the [`DirtySet`] as their edge filter, so `getEdgeOwner` is evaluated, routed and replayed by the
//! same code a full run uses.
//!
//! # Dirty-set rules
//!
//! A vertex is dirty when any of its partitioning inputs changed:
//!
//! * it is the **source of a batch event** (its out-degree or out-edge
//!   payload changed, so degree-sensitive rules like `Hybrid` may re-decide
//!   *all* of its edges);
//! * it is a **new vertex** (`old_n..new_n` — it had no master before);
//! * its **pure master moved** (edge-balanced boundaries shift with the
//!   edge distribution, so a mutation can re-home vertices far from the
//!   batch).
//!
//! An *edge* is dirty iff either endpoint is dirty. This is sound because
//! every stateless edge rule in the catalog is a function of
//! `(out_degree(src), src_master, dst_master, parts)` only — all four are
//! unchanged for a clean edge, so its owner (and the mirrors it induces)
//! cannot move.
//!
//! # Scope
//!
//! The delta path requires a **pure master rule** (re-resolution is
//! replicated computation, §IV-D5) and a **stateless edge rule** (per-edge
//! decisions independent of history). Stateful policies (HDRF, LDG,
//! Fennel-family masters) fall back to a full re-partition — still
//! correct, and under `deterministic_sync` still fingerprint-identical,
//! just not incremental.
//!
//! Under `CuspConfig::deterministic_sync` the delta result is
//! bit-identical to a full re-partition of the mutated graph: the per-host
//! per-source edge multiset is reproduced exactly (kept edges keep their
//! owners, dirty edges are re-decided with the same inputs a full run
//! would use), allocation assigns local ids deterministically from that
//! multiset, and the canonical adjacency sort erases insertion order.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use cusp_galois::{do_all_with_tid, PerThread, DEFAULT_GRAIN};
use cusp_graph::{Csr, GraphEvent, Node};
use cusp_net::{Comm, WireReader, WireWriter};

use crate::config::{OutputFormat, PhaseId};
use crate::dist_graph::{DistGraph, PartitionClass};
use crate::phases::alloc::{allocate, AllocOutcome, MasterSpec};
use crate::phases::bitset::NodeBitRows;
use crate::phases::construct::{construct, insert_record, slot_ptrs};
use crate::phases::driver::{partition, PartitionOutput};
use crate::phases::edge_assign::{tally_edges, EdgeAssignOutcome, EdgeFilter};
use crate::phases::master::{pure_masters, ResolvedMasters};
use crate::phases::pipeline::{PhaseCtx, ReplayReady, SliceData};
use crate::phases::read::read_phase;
use crate::policy::{EdgeRule, MasterRule, Setup};
use crate::state::PartitionState;
use crate::tags::{META_EMPTY, META_FULL, TAG_EDGE_META};
use crate::{CuspConfig, GraphSource, PartId};

/// Dense bitset over global vertex ids marking the dirty set.
pub struct DirtySet {
    bits: Vec<u64>,
    count: u64,
}

impl DirtySet {
    fn new(n: u64) -> Self {
        DirtySet { bits: vec![0u64; (n as usize).div_ceil(64)], count: 0 }
    }

    fn insert(&mut self, v: Node) {
        let (w, b) = (v as usize / 64, v as usize % 64);
        if self.bits[w] & (1 << b) == 0 {
            self.bits[w] |= 1 << b;
            self.count += 1;
        }
    }

    fn insert_range(&mut self, r: std::ops::Range<Node>) {
        for v in r {
            self.insert(v);
        }
    }

    /// Is global vertex `v` dirty?
    #[inline]
    pub fn contains(&self, v: Node) -> bool {
        let (w, b) = (v as usize / 64, v as usize % 64);
        w < self.bits.len() && self.bits[w] & (1 << b) != 0
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

/// The delta walk: an edge is decided iff either endpoint is dirty.
impl EdgeFilter for DirtySet {
    #[inline]
    fn whole_source(&self, s: Node) -> bool {
        self.contains(s)
    }
    #[inline]
    fn edge(&self, whole_source: bool, d: Node) -> bool {
        whole_source || self.contains(d)
    }
}

/// Computes the dirty set for `batch` against the old/new pure master
/// rules (see the module docs for the three dirty-set rules). Every host
/// computes an identical set — the inputs are all replicated.
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
    for ev in batch {
        dirty.insert(ev.src());
    }
    dirty.insert_range(old_n as Node..new_n as Node);
    // Master shifts: a vertex whose new owner differs from its old owner.
    // Both rules assign contiguous per-part ranges, so the shifted vertices
    // are interval differences — `new_range(p) \ old_range(p)` per part
    // covers every shifted vertex exactly once (each vertex has one new
    // owner). Vertices beyond `old_n` are already dirty via the range rule.
    for p in 0..parts {
        let old_r = old_rule.pure_owned_range(p);
        let new_r = new_rule.pure_owned_range(p);
        if old_r == new_r {
            continue;
        }
        dirty.insert_range(new_r.start..new_r.end.min(old_r.start.max(new_r.start)));
        dirty.insert_range(old_r.end.max(new_r.start).min(new_r.end)..new_r.end);
    }
    dirty
}

/// Output of the delta edge-assignment phase: the synthesized
/// [`EdgeAssignOutcome`] plus the number of clean edges this host reuses
/// from its previous partition.
struct DeltaAssignOutcome {
    ea: EdgeAssignOutcome,
    reused_edges: u64,
}

/// What both delta phases work from: the new run's rules and masters, the
/// previous partition, and the dirty set.
struct DeltaCx<'a, ER: EdgeRule> {
    setup: &'a Setup,
    masters: &'a ResolvedMasters,
    rule: &'a ER,
    estate: &'a ER::State,
    prev: &'a DistGraph,
    prev_csc: bool,
    dirty: &'a DirtySet,
}

/// Delta edge assignment: tallies kept (clean) edges from the previous
/// partition locally, runs the full phase's tally under the dirty filter,
/// and exchanges only that dirty-edge metadata — sparse `(src, count)`
/// pairs instead of the full positional count vectors.
fn delta_assign<ER: EdgeRule>(
    ctx: &PhaseCtx<'_>,
    cx: &DeltaCx<'_, ER>,
    data: &mut SliceData,
) -> DeltaAssignOutcome {
    let DeltaCx { setup, masters, rule, estate, prev, prev_csc: csc, dirty } = *cx;
    let comm = ctx.comm;
    let me = comm.host();
    let k = comm.num_hosts();
    let lo = data.node_lo();
    let local_n = data.num_nodes();

    // --- Kept (clean) edges from the previous partition. -------------
    // Both endpoints clean ⇒ the edge's owner is unchanged ⇒ it stays
    // on this host. Positional tallies sized by the (replicated) global
    // node count keep the walk a lock-free parallel pass: `incoming[v]`
    // counts kept edges sourced at `v`, `dest_bits` marks every destination
    // proxy (deduplication by construction — no sort); which of them are
    // mirrors is decided once per set bit, in the scan at the end.
    let n_glob = setup.num_nodes as usize;
    let incoming: Vec<AtomicU32> = (0..n_glob).map(|_| AtomicU32::new(0)).collect();
    let dest_bits = NodeBitRows::new(1, n_glob);
    let mark_dest = |v: Node| dest_bits.mark(0, v);
    let reused_total = AtomicU64::new(0);
    do_all_with_tid(&ctx.pool, prev.num_local(), DEFAULT_GRAIN, |_tid, row| {
        let edges = prev.graph.edges(row as Node);
        if edges.is_empty() {
            return;
        }
        let g_row = prev.local2global[row];
        if dirty.contains(g_row) {
            return; // every edge of a dirty row has a dirty endpoint
        }
        let mut kept = 0u32;
        if !csc {
            // Row is the source: one tally update covers the whole run.
            for &other in edges {
                let g_other = prev.local2global[other as usize];
                if dirty.contains(g_other) {
                    continue;
                }
                kept += 1;
                mark_dest(g_other);
            }
            if kept > 0 {
                incoming[g_row as usize].fetch_add(kept, Ordering::Relaxed);
            }
        } else {
            // Row is the destination: tally each stored source; the
            // row itself is the proxy, marked once.
            for &other in edges {
                let g_other = prev.local2global[other as usize];
                if dirty.contains(g_other) {
                    continue;
                }
                kept += 1;
                incoming[g_other as usize].fetch_add(1, Ordering::Relaxed);
            }
            if kept > 0 {
                mark_dest(g_row);
            }
        }
        if kept > 0 {
            reused_total.fetch_add(kept as u64, Ordering::Relaxed);
        }
    });
    let reused_edges = reused_total.load(Ordering::Relaxed);

    // --- Dirty edges from the mutated slice. ---------------------------
    // The full phase's tally, deciding only edges with a dirty endpoint.
    let (counts, mirrors_for) = tally_edges(&ctx.pool, setup, data, masters, rule, estate, dirty);

    // --- Exchange dirty-edge metadata (sparse pairs + mirror ids). ----
    // Masters are pure, so receivers recompute them; only ids travel.
    for peer in 0..k {
        if peer == me {
            continue;
        }
        let mut pairs: Vec<u32> = Vec::new();
        for (i, &c) in counts[peer * local_n..(peer + 1) * local_n].iter().enumerate() {
            if c > 0 {
                pairs.extend([lo + i as Node, c]);
            }
        }
        if pairs.is_empty() && mirrors_for[peer].is_empty() {
            let mut w = WireWriter::with_capacity(1);
            w.put_u8(META_EMPTY);
            comm.send_bytes(peer, TAG_EDGE_META, w.finish());
            continue;
        }
        let mut w = WireWriter::with_capacity(pairs.len() * 4 + mirrors_for[peer].len() * 4 + 32);
        w.put_u8(META_FULL);
        w.put_u64((pairs.len() / 2) as u64);
        w.put_u32_raw_slice(&pairs);
        w.put_u64(mirrors_for[peer].len() as u64);
        w.put_u32_raw_slice(&mirrors_for[peer]);
        comm.send_bytes(peer, TAG_EDGE_META, w.finish());
    }

    // --- Local dirty contributions (h == me). -------------------------
    for (i, &c) in counts[me * local_n..(me + 1) * local_n].iter().enumerate() {
        if c > 0 {
            incoming[(lo + i as Node) as usize].fetch_add(c, Ordering::Relaxed);
        }
    }
    for &d in &mirrors_for[me] {
        mark_dest(d);
    }

    // --- Receive peer dirty metadata. ---------------------------------
    let mut to_receive = 0u64;
    for _ in 0..k.saturating_sub(1) {
        let (_src, payload) = comm.recv_any(TAG_EDGE_META);
        let mut r = WireReader::new(payload);
        let kind = r.get_u8().expect("empty delta metadata message");
        if kind == META_EMPTY {
            continue;
        }
        let np = r.get_u64().expect("malformed delta pair count") as usize;
        let mut pairs = vec![0u32; np * 2];
        r.get_u32_into(&mut pairs).expect("malformed delta pairs");
        for pair in pairs.chunks_exact(2) {
            let (s, c) = (pair[0], pair[1]);
            incoming[s as usize].fetch_add(c, Ordering::Relaxed);
            to_receive += c as u64;
        }
        let nm = r.get_u64().expect("malformed delta mirror count") as usize;
        let mut run = vec![0u32; nm];
        r.get_u32_into(&mut run).expect("malformed delta mirrors");
        for d in run {
            mark_dest(d);
        }
    }

    // --- Synthesize the outcome allocation consumes. ------------------
    // Both tallies are positional, so scanning them yields the sorted
    // vectors directly — no hash drain, no sort, no dedup.
    let mut incoming_srcs: Vec<(Node, u32, PartId)> = Vec::new();
    for (v, c) in incoming.iter().enumerate() {
        let c = c.load(Ordering::Relaxed);
        if c > 0 {
            incoming_srcs.push((v as Node, c, masters.of(v as Node)));
        }
    }
    let mirrors: Vec<(Node, PartId)> = dest_bits
        .ones(0)
        .map(|v| (v, masters.of(v)))
        .filter(|&(_, m)| m as usize != me)
        .collect();

    DeltaAssignOutcome {
        ea: EdgeAssignOutcome {
            incoming_srcs,
            mirrors,
            my_master_nodes: None,
            to_receive,
        },
        reused_edges,
    }
}

/// Invokes `f(src, dst, edge_index)` (global ids, previous-partition edge
/// index) for every edge of `prev` whose endpoints are both clean.
///
/// `csc` says the previous partition stores in-edges
/// (`OutputFormat::Csc`), in which case each row is the edge's
/// *destination* and each stored id its source.
fn for_each_kept_edge(
    prev: &DistGraph,
    csc: bool,
    dirty: &DirtySet,
    mut f: impl FnMut(Node, Node, usize),
) {
    for row in 0..prev.num_local() {
        let edges = prev.graph.edges(row as Node);
        if edges.is_empty() {
            continue;
        }
        let g_row = prev.local2global[row];
        if dirty.contains(g_row) {
            continue; // every edge of a dirty row has a dirty endpoint
        }
        let e0 = prev.graph.first_edge(row as Node) as usize;
        for (i, &other) in edges.iter().enumerate() {
            let g_other = prev.local2global[other as usize];
            if dirty.contains(g_other) {
                continue;
            }
            let (src, dst) = if csc { (g_other, g_row) } else { (g_row, g_other) };
            f(src, dst, e0 + i);
        }
    }
}

/// Delta construction: copies kept edges out of the previous partition
/// (no decision, no communication), then runs the full construction phase
/// under the dirty filter, so only dirty edges are re-decided and shipped.
fn delta_construct<ER: EdgeRule>(
    ctx: &PhaseCtx<'_>,
    cx: &DeltaCx<'_, ER>,
    data: &mut SliceData,
    alloc: &mut AllocOutcome,
    to_receive: u64,
) -> (Csr, Option<Vec<u32>>) {
    let DeltaCx { setup, masters, rule, estate, prev, prev_csc, dirty } = *cx;
    let weighted = data.weighted();
    debug_assert_eq!(weighted, prev.edge_data.is_some());
    let (dest_ptr, data_ptr) = slot_ptrs(alloc);
    let alloc_ref: &AllocOutcome = alloc;

    // --- 1. Copy kept edges from the previous partition. --------------
    // Pure memory movement: globalize the destination, carry the weight,
    // insert into the freshly reserved slots. No rule, no wire.
    if !prev_csc {
        // Rows are sources: each clean row's kept run is one record,
        // and the atomic cursors make the inserts safe to parallelize.
        let scratch: PerThread<(Vec<Node>, Vec<u32>)> =
            PerThread::new(&ctx.pool, |_| (Vec::new(), Vec::new()));
        do_all_with_tid(&ctx.pool, prev.num_local(), DEFAULT_GRAIN, |tid, row| {
            let edges = prev.graph.edges(row as Node);
            if edges.is_empty() {
                return;
            }
            let g_row = prev.local2global[row];
            if dirty.contains(g_row) {
                return;
            }
            let e0 = prev.graph.first_edge(row as Node) as usize;
            scratch.with(tid, |(dsts, ws)| {
                dsts.clear();
                ws.clear();
                for (i, &other) in edges.iter().enumerate() {
                    let g_other = prev.local2global[other as usize];
                    if dirty.contains(g_other) {
                        continue;
                    }
                    dsts.push(g_other);
                    if let Some(d) = &prev.edge_data {
                        ws.push(d[e0 + i]);
                    }
                }
                if !dsts.is_empty() {
                    insert_record(
                        alloc_ref,
                        &dest_ptr,
                        &data_ptr,
                        g_row,
                        dsts,
                        weighted.then_some(ws.as_slice()),
                    );
                }
            });
        });
    } else {
        // CSC rows are destinations, so sources vary within a row —
        // keep the grouped sequential walk (runs are consecutive
        // same-source spans of the in-edge adjacency).
        let mut dsts: Vec<Node> = Vec::new();
        let mut ws: Vec<u32> = Vec::new();
        let mut run_src: Option<Node> = None;
        let flush =
            |src: Option<Node>, dsts: &mut Vec<Node>, ws: &mut Vec<u32>| {
                if let Some(s) = src {
                    if !dsts.is_empty() {
                        insert_record(
                            alloc_ref,
                            &dest_ptr,
                            &data_ptr,
                            s,
                            dsts,
                            weighted.then_some(ws.as_slice()),
                        );
                    }
                }
                dsts.clear();
                ws.clear();
            };
        for_each_kept_edge(prev, prev_csc, dirty, |src, dst, e| {
            if run_src != Some(src) {
                flush(run_src, &mut dsts, &mut ws);
                run_src = Some(src);
            }
            dsts.push(dst);
            if let Some(d) = &prev.edge_data {
                ws.push(d[e]);
            }
        });
        flush(run_src, &mut dsts, &mut ws);
    }

    // --- 2. Dirty edges: the full phase, re-deciding only those. --------
    construct(
        ctx.comm,
        &ctx.pool,
        setup,
        data,
        masters,
        rule,
        ReplayReady::arm(estate),
        alloc,
        to_receive,
        ctx.cfg,
        dirty,
    )
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
/// Policies with a stateful edge rule or a non-pure master rule (and runs
/// with `force_stored_masters`) fall back to a full re-partition; the
/// returned accounting (`dirty_vertices == num_nodes`,
/// `reused_edges == 0`) makes the fallback observable.
///
/// Under `deterministic_sync` the result is bit-identical (same
/// [`crate::verify::partition_fingerprint`]) to a full re-partition of the
/// mutated graph.
pub fn partition_delta<MR, ER>(
    comm: &Comm,
    source: GraphSource,
    cfg: &CuspConfig,
    class: PartitionClass,
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
    if !<ER as EdgeRule>::State::STATELESS || !old_rule.is_pure() || cfg.force_stored_masters {
        return partition(comm, source, cfg, class, build);
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
    debug_assert!(master_rule.is_pure(), "policy purity changed between runs");
    let masters = pure_masters(&master_rule, setup.parts);

    let dirty = dirty_set(
        &old_rule,
        &master_rule,
        prev.setup.num_nodes,
        setup.num_nodes,
        setup.parts,
        batch,
    );
    let estate = <ER as EdgeRule>::State::new(setup.parts);

    // Phase 3: delta edge assignment (dirty edges decided, clean tallied).
    let cx = DeltaCx {
        setup: &setup,
        masters: &masters,
        rule: &edge_rule,
        estate: &estate,
        prev: &prev.dist_graph,
        prev_csc: cfg.output == OutputFormat::Csc,
        dirty: &dirty,
    };
    let d = ctx.run_phase(PhaseId::EdgeAssign, |ctx| delta_assign(ctx, &cx, &mut data));

    // Phase 4: allocation — unchanged; the synthesized outcome feeds the
    // exact same deterministic local-id layout a full run would compute.
    let spec = MasterSpec::PureRange(master_rule.pure_owned_range(comm.host() as PartId));
    let weighted = data.weighted();
    let mut alloc = ctx.run_phase(PhaseId::Alloc, |ctx| {
        allocate(comm.host(), &ctx.pool, spec, &d.ea, weighted)
    });

    // Phase 5: delta construction (kept edges copied, dirty edges shipped).
    let built = ctx.run_phase(PhaseId::Construct, |ctx| {
        delta_construct(ctx, &cx, &mut data, &mut alloc, d.ea.to_receive)
    });

    PartitionOutput {
        dirty_vertices: dirty.len(),
        reused_edges: d.reused_edges,
        ..PartitionOutput::assemble(ctx, class, setup, &data, alloc, built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::masters::Contiguous;
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
        // Event sources.
        assert!(d.contains(3) && d.contains(90));
        // Grown range.
        for v in 100..110 {
            assert!(d.contains(v), "grown node {v} must be dirty");
        }
        // Shifted masters: old blocks 25, new blocks 28 → e.g. node 25
        // moved from part 1 to part 0; node 26 likewise.
        assert_eq!(old.pure_master(25), 1);
        assert_eq!(new.pure_master(25), 0);
        assert!(d.contains(25));
        // A node with unchanged inputs stays clean: node 5 is in part 0
        // both before and after and is not an event source.
        assert_eq!(old.pure_master(5), new.pure_master(5));
        assert!(!d.contains(5));
        assert!(d.len() >= 12);
        assert!(!d.is_empty());
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
        use cusp_graph::ChunkedSlice;

        let g = Arc::new(erdos_renyi(150, 1100, 13));
        let setup = setup(150, 4);
        let masters = pure_masters(&Contiguous::new(&setup), setup.parts);
        let rule = CartesianEdge::new(&setup);
        let pool = cusp_galois::ThreadPool::new(2);
        let chunked =
            || SliceData::Chunked(Box::new(ChunkedSlice::from_csr(g.clone(), None, 10, 140, 40)));
        let all = tally_edges(&pool, &setup, &mut chunked(), &masters, &rule, &(), &AllEdges);
        let mut dirty = DirtySet::new(150);
        let none = tally_edges(&pool, &setup, &mut chunked(), &masters, &rule, &(), &dirty);
        assert!(none.0.iter().all(|&c| c == 0) && none.1.iter().all(Vec::is_empty));
        dirty.insert_range(0..150);
        let every = tally_edges(&pool, &setup, &mut chunked(), &masters, &rule, &(), &dirty);
        assert_eq!(all, every);
        let in_range = g.offsets()[140] - g.offsets()[10];
        assert_eq!(all.0.iter().map(|&c| c as u64).sum::<u64>(), in_range);
        assert!(all.1.iter().any(|m| !m.is_empty()), "no mirrors: the comparison is vacuous");
    }

    #[test]
    fn kept_edge_walk_respects_orientation() {
        use crate::dist_graph::PartitionClass;
        // Partition over globals {2, 5, 9}: edges 2->5, 2->9, 5->9.
        let graph = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let prev = DistGraph {
            part_id: 0,
            num_parts: 1,
            global_nodes: 10,
            global_edges: 3,
            num_masters: 3,
            local2global: vec![2, 5, 9],
            master_of: vec![0, 0, 0],
            graph,
            edge_data: Some(vec![20, 21, 22]),
            class: PartitionClass::OutEdgeCut,
        };
        let mut dirty = DirtySet::new(10);
        dirty.insert(5);
        // CSR orientation: rows are sources; only 2->9 survives (5 dirty).
        let mut seen = Vec::new();
        for_each_kept_edge(&prev, false, &dirty, |s, d, e| seen.push((s, d, e)));
        assert_eq!(seen, vec![(2, 9, 1)]);
        // CSC orientation: rows are destinations, so the same stored edges
        // read as 5->2, 9->2, 9->5; with 5 dirty the kept set is {9->2}.
        let mut seen = Vec::new();
        for_each_kept_edge(&prev, true, &dirty, |s, d, e| seen.push((s, d, e)));
        assert_eq!(seen, vec![(9, 2, 1)]);
    }
}
