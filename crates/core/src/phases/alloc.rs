//! Phase 4 — graph allocation (paper §IV-B4).
//!
//! "When the edge assignment phase is complete, a host has a complete
//! picture of how many vertices and edges it will have in its partition."
//! This phase assigns deterministic local ids (masters first, then
//! mirrors, each ascending by global id), builds the global↔local maps,
//! and allocates the partition CSR so that construction can insert edges
//! in parallel as they arrive.
//!
//! It is host-local and single-threaded between two parallel phases, so it
//! is held to the cost of its output: the mirror list is a merge of the
//! ascending runs edge assignment delivered (no sort), the global→local
//! index is one zeroed `u32` per id of the proxies' span, scattered
//! straight from `local2global` (ids without a proxy cost address space,
//! not pages), and the edge buffers are reserved, not zero-filled.
//!
//! The reserved buffers have one writer, `Slots`: construction's local
//! and received records and the delta path's kept-edge copy all take their
//! windows from `Slots::reserve`, which advances the row's cursor and
//! asserts the row's end, and `AllocOutcome::take_filled` gives the
//! buffers their length only after checking that every cursor reached its
//! row's end. This module and the bitset's zeroed allocation are the
//! phases' only raw-pointer code.
//!
//! It also consumes what edge assignment handed it, so the outcome never
//! sits beside the partition it became: the reported mirrors are freed
//! once merged into the mirror proxies, the incoming sources once their
//! edge counts are in place, and a stored master list is moved into
//! `local2global` as its masters segment rather than copied. Row counts go
//! straight into `offsets[l + 1]` and one in-place prefix sum turns them
//! into offsets, with no degree array beside them.

use std::sync::atomic::{AtomicU64, Ordering};

use cusp_galois::{inclusive_prefix_sum_in_place, ThreadPool};
use cusp_graph::{Csr, EdgeIdx, Node};

use crate::dist_graph::vec_bytes;
use crate::phases::edge_assign::{merge_runs, EdgeAssignOutcome};
use crate::PartId;

/// The allocated (but not yet filled) partition.
pub struct AllocOutcome {
    /// Local id → global id (masters segment then mirrors segment).
    pub local2global: Vec<Node>,
    /// Number of master proxies.
    pub num_masters: usize,
    /// Local id → partition of the vertex's master.
    pub master_of: Vec<PartId>,
    /// CSR offsets (`num_local + 1`).
    pub offsets: Vec<EdgeIdx>,
    /// Destination buffer (local ids), written only through [`Slots`]:
    /// capacity for every edge, length 0 until
    /// [`AllocOutcome::take_filled`] has checked every row.
    pub(crate) dests: Vec<Node>,
    /// Per-edge data buffer, same slots and same length rule as `dests`
    /// (weighted inputs only).
    pub(crate) edge_data: Option<Vec<u32>>,
    /// Per-row insertion cursors, each starting at its row's offset and
    /// advanced only by [`Slots::reserve`].
    cursors: Vec<AtomicU64>,
    /// First global id `index` covers.
    index_lo: Node,
    /// Global → local over the proxies' id span: `index[v - index_lo]`
    /// holds `local + 1`, and 0 means `v` has no proxy here.
    index: Vec<u32>,
}

impl AllocOutcome {
    /// Heap bytes of every buffer the outcome holds (capacities, not
    /// lengths): the output arrays construction fills and freezes, plus the
    /// cursors and the global→local index that construction alone needs.
    pub fn heap_bytes(&self) -> u64 {
        vec_bytes(&self.local2global)
            + vec_bytes(&self.master_of)
            + vec_bytes(&self.offsets)
            + vec_bytes(&self.dests)
            + self.edge_data.as_ref().map_or(0, vec_bytes)
            + vec_bytes(&self.cursors)
            + vec_bytes(&self.index)
    }

    /// Builds the global→local index over a finished `local2global` map:
    /// one zeroed `u32` per id of the proxies' span, so the pages of ids
    /// without a proxy are never touched.
    fn build_index(local2global: &[Node]) -> (Node, Vec<u32>) {
        let (Some(&lo), Some(&hi)) = (local2global.iter().min(), local2global.iter().max()) else {
            return (0, Vec::new());
        };
        let mut index = vec![0u32; (hi - lo) as usize + 1];
        for (l, &g) in local2global.iter().enumerate() {
            index[(g - lo) as usize] = l as u32 + 1;
        }
        (lo, index)
    }

    /// Local id of global vertex `v` (must exist in this partition).
    /// Construction calls it once per edge.
    #[inline]
    pub fn local_of(&self, v: Node) -> u32 {
        match self.index.get(v.wrapping_sub(self.index_lo) as usize) {
            Some(&l) if l != 0 => l - 1,
            _ => panic!("global vertex {v} has no proxy in this partition"),
        }
    }

    /// The one writer into this allocation's reserved buffers. It holds
    /// the allocation for as long as it lives, so nothing else reads, moves
    /// or gives a length to the buffers while windows of them are out.
    pub(crate) fn slots(&mut self) -> Slots<'_> {
        self.reserved_slots();
        let dests = self.dests.as_mut_ptr();
        let data = self.edge_data.as_mut().map_or(std::ptr::null_mut(), |d| d.as_mut_ptr());
        Slots { alloc: self, dests, data }
    }

    /// The number of slots the offsets span. Not a debug check: it panics
    /// unless both buffers have capacity for all of them, which every store
    /// into a window and the final `set_len` rely on.
    fn reserved_slots(&self) -> usize {
        let total = *self.offsets.last().expect("offsets are never empty") as usize;
        let (dests, data) = (self.dests.capacity(), self.edge_data.as_ref().map_or(total, Vec::capacity));
        assert!(dests >= total && data >= total, "allocation reserved fewer slots than its offsets span");
        total
    }

    /// The filled CSR and its per-edge data. Panics, before either buffer
    /// gets a length, unless every row's cursor reached the row's end.
    pub(crate) fn take_filled(&mut self) -> (Csr, Option<Vec<u32>>) {
        for (l, cursor) in self.cursors.iter().enumerate() {
            assert_eq!(
                cursor.load(Ordering::Relaxed),
                self.offsets[l + 1],
                "node with local id {l} is missing edges after construction"
            );
        }
        let total = self.reserved_slots();
        let (mut dests, mut data) = (std::mem::take(&mut self.dests), self.edge_data.take());
        // SAFETY: both buffers have capacity `total` (just checked), and
        // every slot below it lies in exactly one row's `offsets[l]..
        // offsets[l + 1]`. Each cursor started at its row's `offsets[l]`
        // and only `Slots::reserve` advances it, handing out the window it
        // passed over to one caller, which writes the whole window — both
        // buffers' windows whenever the weight buffer exists — or panics;
        // a panic unwinds past this call. Every cursor reached
        // `offsets[l + 1]` (checked above), so slots `0..total` of both
        // buffers are initialized.
        unsafe {
            dests.set_len(total);
            if let Some(d) = &mut data {
                d.set_len(total);
            }
        }
        (Csr::from_parts(std::mem::take(&mut self.offsets), dests), data)
    }
}

/// The writer into an allocation's reserved buffers, shared by every
/// thread that inserts edges ([`AllocOutcome::slots`]).
pub(crate) struct Slots<'a> {
    alloc: &'a AllocOutcome,
    dests: *mut Node,
    /// Null when the input carries no weights.
    data: *mut u32,
}

// SAFETY: the buffers behind the two pointers are written only through
// windows `reserve` hands out, which its cursors keep disjoint across
// threads; everything else is read through the shared `alloc`.
unsafe impl Sync for Slots<'_> {}

impl Slots<'_> {
    /// Local id of global vertex `v` ([`AllocOutcome::local_of`]).
    #[inline]
    pub(crate) fn local_of(&self, v: Node) -> u32 {
        self.alloc.local_of(v)
    }

    /// Reserves the next `cnt` slots of local row `row` and returns their
    /// destination window and, when the input is weighted, their weight
    /// window. The caller must write all of both. A reservation past the
    /// row's end panics, naming the row, before anything is written.
    #[inline]
    #[allow(clippy::mut_from_ref)] // one window per reservation, disjoint by the cursor
    pub(crate) fn reserve(&self, row: u32, cnt: usize) -> (&mut [Node], Option<&mut [u32]>) {
        let l = row as usize;
        let at = self.alloc.cursors[l].fetch_add(cnt as u64, Ordering::Relaxed);
        let end = self.alloc.offsets[l + 1];
        assert!(
            at + cnt as u64 <= end,
            "{cnt} slot(s) from {at} overflow local id {row}, whose row ends at {end}: \
             assignment and construction disagree"
        );
        let at = at as usize;
        // SAFETY: `at..at + cnt` lies in row `row`'s `offsets` range (just
        // asserted), hence in `0..total`, for which both buffers have
        // capacity (asserted by `AllocOutcome::slots`); the `fetch_add`
        // handed it to this call alone, so no other window overlaps it.
        unsafe {
            let dests = std::slice::from_raw_parts_mut(self.dests.add(at), cnt);
            let data = (!self.data.is_null()).then(|| std::slice::from_raw_parts_mut(self.data.add(at), cnt));
            (dests, data)
        }
    }
}

/// Where the master list of a host comes from: either the stored list the
/// edge-assignment exchange carried, or — for pure master rules — the
/// closed-form owned range, which never had to be materialized or shipped.
///
/// Both feed the same allocation path; the spec only decides how the sorted
/// master-global list is produced.
pub enum MasterSpec {
    /// Masters were stored and exchanged: the outcome's sorted
    /// `my_master_nodes`, which becomes the masters segment of
    /// `local2global` without a copy.
    Stored,
    /// Pure master rule: this host's masters are exactly the range.
    PureRange(std::ops::Range<Node>),
}

/// Runs the allocation phase for host `me`, consuming what edge assignment
/// handed it.
pub fn allocate(
    me: usize,
    pool: &ThreadPool,
    spec: MasterSpec,
    mut outcome: EdgeAssignOutcome,
    weighted: bool,
) -> AllocOutcome {
    let master_globals: Vec<Node> = match spec {
        MasterSpec::Stored => outcome
            .my_master_nodes
            .take()
            .expect("stored master assignment produced no master list"),
        MasterSpec::PureRange(range) => range.collect(),
    };
    let alloc = build(me, pool, master_globals, outcome, weighted);
    cusp_obs::counter("mem.alloc", alloc.heap_bytes());
    alloc
}

fn build(
    me: usize,
    pool: &ThreadPool,
    mut local2global: Vec<Node>,
    outcome: EdgeAssignOutcome,
    weighted: bool,
) -> AllocOutcome {
    let EdgeAssignOutcome { incoming_srcs, mirrors, .. } = outcome;
    let masters = &local2global[..];
    debug_assert!(masters.windows(2).all(|w| w[0] < w[1]));
    let num_masters = masters.len();
    let in_masters = |v: Node| masters.binary_search(&v).is_ok();

    // --- Mirror proxies: incoming sources with remote masters plus the
    // destination mirrors reported by edge assignment. ---------------------
    let mut mirror_pairs: Vec<(Node, PartId)> =
        Vec::with_capacity(mirrors.len() + incoming_srcs.len() / 2);
    for (d, dm) in mirrors {
        debug_assert_ne!(dm as usize, me);
        debug_assert!(!in_masters(d), "mirror {d} is also a master here");
        mirror_pairs.push((d, dm));
    }
    for &(s, _, sm) in &incoming_srcs {
        if sm as usize != me {
            mirror_pairs.push((s, sm));
        } else {
            debug_assert!(in_masters(s), "locally mastered source {s} missing from master set");
        }
    }
    // Ascending runs — the deduplicated mirrors, then one block of sources
    // per sender — that may repeat a node between them.
    let mut mirror_pairs = merge_runs(mirror_pairs);
    mirror_pairs.dedup();
    debug_assert!(
        mirror_pairs.windows(2).all(|w| w[0].0 != w[1].0),
        "a mirror was reported with two different master locations"
    );

    // --- Local id maps: the masters segment is the master list itself. ----
    let num_local = num_masters + mirror_pairs.len();
    local2global.reserve_exact(mirror_pairs.len());
    let mut master_of = Vec::with_capacity(num_local);
    master_of.extend(std::iter::repeat_n(me as PartId, num_masters));
    for (v, m) in mirror_pairs {
        local2global.push(v);
        master_of.push(m);
    }

    // --- CSR skeleton. -----------------------------------------------------
    let (index_lo, index) = AllocOutcome::build_index(&local2global);
    let alloc = AllocOutcome {
        local2global,
        num_masters,
        master_of,
        offsets: Vec::new(),
        dests: Vec::new(),
        edge_data: None,
        cursors: Vec::new(),
        index_lo,
        index,
    };
    // Row counts go straight into `offsets[l + 1]`, and one in-place
    // parallel prefix sum (§IV-C2) turns them into offsets.
    let mut offsets = vec![0u64; num_local + 1];
    for &(s, c, _) in &incoming_srcs {
        offsets[alloc.local_of(s) as usize + 1] += c as u64;
    }
    drop(incoming_srcs);
    let total = inclusive_prefix_sum_in_place(pool, &mut offsets[1..]);
    let cursors: Vec<AtomicU64> = offsets[..num_local]
        .iter()
        .map(|&o| AtomicU64::new(o))
        .collect();

    // Capacity only: zero-filling would write (and fault in) every page of
    // the output once before construction writes it again.
    AllocOutcome {
        offsets,
        dests: Vec::with_capacity(total as usize),
        edge_data: weighted.then(|| Vec::with_capacity(total as usize)),
        cursors,
        ..alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    fn outcome() -> EdgeAssignOutcome {
        EdgeAssignOutcome {
            // srcs: node 2 (master here=part 0), node 7 (master on 1)
            incoming_srcs: vec![(2, 3, 0), (7, 2, 1)],
            // dest mirrors: 9 (master on 2)
            mirrors: vec![(9, 2)],
            my_master_nodes: Some(vec![2, 4]),
            to_receive: 2,
        }
    }

    #[test]
    fn allocation_layout() {
        let pool = ThreadPool::new(2);
        let o = outcome();
        let a = allocate(0, &pool, MasterSpec::Stored, o, false);
        // masters {2, 4}, mirrors {7, 9}
        assert_eq!(a.local2global, vec![2, 4, 7, 9]);
        assert_eq!(a.num_masters, 2);
        assert_eq!(a.master_of, vec![0, 0, 1, 2]);
        // degrees: node 2 → 3, node 7 → 2, others 0.
        assert_eq!(a.offsets, vec![0, 3, 3, 5, 5]);
        assert!(a.dests.capacity() >= 5 && a.dests.is_empty(), "capacity only until construction");
        assert_eq!(a.local_of(2), 0);
        assert_eq!(a.local_of(9), 3);
    }

    #[test]
    fn pure_range_allocation() {
        let pool = ThreadPool::new(2);
        let o = EdgeAssignOutcome {
            incoming_srcs: vec![(5, 1, 0)],
            mirrors: vec![(20, 1)],
            my_master_nodes: None,
            to_receive: 0,
        };
        let a = allocate(0, &pool, MasterSpec::PureRange(5..8), o, true);
        assert_eq!(a.local2global, vec![5, 6, 7, 20]);
        assert_eq!(a.num_masters, 3);
        assert_eq!(a.master_of, vec![0, 0, 0, 1]);
        assert_eq!(a.offsets, vec![0, 1, 1, 1, 1]);
        assert!(a.edge_data.as_ref().is_some_and(|d| d.capacity() >= 1 && d.is_empty()));
    }

    #[test]
    fn scattered_proxy_ids_resolve_through_the_zeroed_index() {
        // Ids scattered over a span far wider than the proxy count: the
        // index covers the whole span (under 2^24 ids here), and only the
        // pages holding a proxy are written.
        let pool = ThreadPool::new(1);
        let o = EdgeAssignOutcome {
            incoming_srcs: vec![(0, 1, 0), (5_000_000, 2, 1)],
            mirrors: vec![(16_000_000, 2)],
            my_master_nodes: Some(vec![0, 1]),
            to_receive: 2,
        };
        let a = allocate(0, &pool, MasterSpec::Stored, o, false);
        assert_eq!(a.local2global, vec![0, 1, 5_000_000, 16_000_000]);
        assert_eq!(a.local_of(0), 0);
        assert_eq!(a.local_of(1), 1);
        assert_eq!(a.local_of(5_000_000), 2);
        assert_eq!(a.local_of(16_000_000), 3);
        assert_eq!(a.offsets, vec![0, 1, 1, 3, 3]);
        assert_eq!(a.index.len(), 16_000_001);
    }

    /// The message a panic carried.
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic message")
    }

    #[test]
    fn a_reservation_past_its_rows_end_panics_naming_the_row_before_any_write() {
        let pool = ThreadPool::new(1);
        let mut a = allocate(0, &pool, MasterSpec::Stored, outcome(), false);
        assert_eq!(a.offsets, vec![0, 3, 3, 5, 5]);
        // An initialised stand-in for the reserved buffer, so the slots can
        // be read back without `take_filled` giving it a length.
        a.dests = vec![u32::MAX; 5];
        let slots = a.slots();
        slots.reserve(0, 2).0.fill(7);
        // Two more would run into row 2's slots.
        let overflow = catch_unwind(AssertUnwindSafe(|| slots.reserve(0, 2).0.fill(8)));
        let msg = panic_message(overflow.expect_err("row 0 holds three slots"));
        assert!(msg.contains("overflow local id 0"), "{msg}");
        assert_eq!(a.dests, [7, 7, u32::MAX, u32::MAX, u32::MAX], "a slot past row 0 was written");
    }

    #[test]
    fn two_threads_reserving_one_row_get_disjoint_windows_that_fill_it() {
        const WINDOWS: usize = 500;
        const WIDTH: usize = 3;
        let pool = ThreadPool::new(2);
        let o = EdgeAssignOutcome {
            incoming_srcs: vec![(2, (2 * WINDOWS * WIDTH) as u32, 0)],
            mirrors: vec![],
            my_master_nodes: None,
            to_receive: 0,
        };
        let mut a = allocate(0, &pool, MasterSpec::PureRange(0..4), o, true);
        let slots = a.slots();
        // Both threads reserve from the first window on, not one after the
        // other.
        let barrier = Barrier::new(2);
        pool.run(|tid| {
            barrier.wait();
            for i in 0..WINDOWS {
                let (dests, data) = slots.reserve(2, WIDTH);
                dests.fill(tid as u32);
                data.expect("weighted allocation").fill(i as u32);
            }
        });
        let (csr, data) = a.take_filled();
        let data = data.expect("weighted allocation");
        let row = csr.edges(2);
        assert_eq!(row.len(), 2 * WINDOWS * WIDTH);
        // Each window is whole and one thread's; each thread's windows
        // follow in the order it reserved them.
        let mut next = [0u32; 2];
        for (dests, weights) in row.chunks(WIDTH).zip(data.chunks(WIDTH)) {
            let tid = dests[0] as usize;
            assert!(dests.iter().all(|&d| d as usize == tid), "windows overlap: {dests:?}");
            assert!(weights.iter().all(|&w| w == next[tid]), "thread {tid}: {weights:?}");
            next[tid] += 1;
        }
        assert_eq!(next, [WINDOWS as u32; 2]);
    }

    #[test]
    #[should_panic(expected = "no proxy in this partition")]
    fn local_of_rejects_absent_vertex() {
        let pool = ThreadPool::new(1);
        let a = allocate(
            0,
            &pool,
            MasterSpec::PureRange(0..2),
            EdgeAssignOutcome {
                incoming_srcs: vec![],
                mirrors: vec![],
                my_master_nodes: None,
                to_receive: 0,
            },
            false,
        );
        let _ = a.local_of(99);
    }

    /// Every order `0..n` can be arranged in.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        permutations(n - 1)
            .into_iter()
            .flat_map(|p| {
                (0..n).map(move |at| {
                    let mut q = p.clone();
                    q.insert(at, n - 1);
                    q
                })
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// `allocate` against a `BTreeMap` build of the same layout, over
        /// random outcomes: an own block and one block of sources per peer
        /// in every arrival order, nodes that are both a reported mirror
        /// and a remote-master source, empty master ranges, stored and
        /// range master specs, and id strides from blanketing to
        /// scattered (a 16,000,000-id index span).
        #[test]
        fn allocate_matches_a_btreemap_build(
            k in 1usize..5,
            me_pick in 0usize..4,
            stride in prop_oneof![Just(1u32), Just(3), Just(40), Just(100_000)],
            (m_lo, m_len) in (0u32..60, 0u32..40),
            stored in any::<bool>(),
            weighted in any::<bool>(),
            // (node, sender (≥ k: not a source), edges, reported as a mirror)
            nodes in proptest::collection::vec((0u32..160, 0usize..6, 1u32..5, any::<bool>()), 0..120),
        ) {
            let me = me_pick % k;
            let in_masters = |v: u32| (m_lo..m_lo + m_len).contains(&v);
            let master = |v: u32| -> Option<usize> {
                if in_masters(v) {
                    Some(me)
                } else {
                    (k > 1).then(|| (me + 1 + v as usize % (k - 1)) % k)
                }
            };
            let mut roles: BTreeMap<u32, (usize, u32, bool)> = BTreeMap::new();
            for &(v, sender, c, mirror) in &nodes {
                roles.entry(v).or_insert((sender, c, mirror));
            }
            // Blocks and mirrors ascend because `roles` iterates in id order.
            let mut blocks: Vec<Vec<(Node, u32, PartId)>> = vec![Vec::new(); k];
            let mut mirrors: Vec<(Node, PartId)> = Vec::new();
            for (&v, &(sender, c, mirror)) in &roles {
                let Some(m) = master(v) else { continue };
                if sender < k {
                    blocks[sender].push((v * stride, c, m as PartId));
                }
                if mirror && m != me {
                    mirrors.push((v * stride, m as PartId));
                }
            }
            let master_ids: Vec<Node> = (m_lo..m_lo + m_len).map(|v| v * stride).collect();
            let peers: Vec<usize> = (0..k).filter(|&h| h != me).collect();

            // The reference layout, independent of arrival order.
            let mut mirror_map: BTreeMap<Node, PartId> = mirrors.iter().copied().collect();
            for &(s, _, sm) in blocks.iter().flatten() {
                if sm as usize != me {
                    mirror_map.insert(s, sm);
                }
            }
            let want_l2g: Vec<Node> =
                master_ids.iter().copied().chain(mirror_map.keys().copied()).collect();
            let want_master_of: Vec<PartId> = std::iter::repeat_n(me as PartId, master_ids.len())
                .chain(mirror_map.values().copied())
                .collect();
            let want_local: BTreeMap<Node, u32> =
                want_l2g.iter().enumerate().map(|(l, &g)| (g, l as u32)).collect();
            let mut degrees = vec![0u64; want_l2g.len()];
            for &(s, c, _) in blocks.iter().flatten() {
                degrees[want_local[&s] as usize] += c as u64;
            }
            let mut want_offsets = vec![0u64];
            for d in &degrees {
                want_offsets.push(want_offsets.last().unwrap() + d);
            }
            let total = *want_offsets.last().unwrap() as usize;

            let pool = ThreadPool::new(2);
            for order in permutations(peers.len()) {
                let mut incoming_srcs = blocks[me].clone();
                for &i in &order {
                    incoming_srcs.extend_from_slice(&blocks[peers[i]]);
                }
                let stored = stored || stride > 1;
                let outcome = EdgeAssignOutcome {
                    incoming_srcs,
                    mirrors: mirrors.clone(),
                    my_master_nodes: stored.then(|| master_ids.clone()),
                    to_receive: 0,
                };
                let spec = if stored {
                    MasterSpec::Stored
                } else {
                    MasterSpec::PureRange(m_lo..m_lo + m_len)
                };
                let a = allocate(me, &pool, spec, outcome, weighted);
                prop_assert_eq!(&a.local2global, &want_l2g);
                prop_assert_eq!(a.num_masters, master_ids.len());
                prop_assert_eq!(&a.master_of, &want_master_of);
                prop_assert_eq!(&a.offsets, &want_offsets);
                let cursors: Vec<u64> =
                    a.cursors.iter().map(|c| c.load(std::sync::atomic::Ordering::Relaxed)).collect();
                prop_assert_eq!(&cursors[..], &want_offsets[..want_l2g.len()]);
                prop_assert!(a.dests.is_empty() && a.dests.capacity() >= total);
                prop_assert_eq!(a.edge_data.is_some(), weighted);
                prop_assert!(a.edge_data.as_ref().is_none_or(|d| d.is_empty() && d.capacity() >= total));
                for (&g, &l) in &want_local {
                    prop_assert_eq!(a.local_of(g), l);
                }
                // Absent ids: a hole between two proxies, and past the last.
                let hole = want_l2g.iter().map(|&g| g + 1).find(|g| !want_local.contains_key(g));
                let past = want_l2g.iter().max().map_or(0, |&g| g + 2);
                for absent in hole.into_iter().chain([past]) {
                    let looked_up = catch_unwind(AssertUnwindSafe(|| a.local_of(absent)));
                    prop_assert!(looked_up.is_err(), "absent id {} resolved", absent);
                }
            }
        }
    }
}
