//! Phase 2 — master assignment (paper §IV-B2, §IV-D4/5).
//!
//! Each host assigns the master partition for every vertex in its read
//! range. Depending on the rule's capabilities, CuSP applies the paper's
//! three synchronization regimes:
//!
//! * **pure** rules (no state, no neighbor queries): assignment is a pure
//!   function — nothing is stored or communicated; later phases replicate
//!   the computation on demand ([`ResolvedMasters::Pure`]). Every pure rule
//!   owns contiguous node ranges ([`MasterRule::pure_owned_range`]), so the
//!   replicated computation is a count over the `k − 1` interior range
//!   starts. The elision only pays while that stays a few instructions
//!   *inside* the per-edge loops, so [`ResolvedMasters::of`] is forced
//!   inline with its rare paths kept out of line (as a call it cost more
//!   than the count; a block table in front of the count was measured and
//!   lost to it at `k = 4` — DESIGN.md §8);
//! * **stateful, neighbor-blind** rules: the loop runs without rounds and
//!   partitioning state is reconciled once, after the phase;
//! * **neighbor-aware** rules (Fennel-family): the local range is processed
//!   in `sync_rounds` chunks; after each chunk the host sends every peer
//!   one SYNC (its state delta and the newly assigned masters that peer
//!   requested) and blocking-receives one SYNC from each peer, in host
//!   order.
//!
//! Every round is lockstep, bulk-synchronous in the sense of §IV-D4: each
//! round assigns its node range in node order on the host's own thread,
//! and the final reconciliation drains each peer through its FINAL in host
//! order. A partition is therefore a function of the input, the policy,
//! `k` and `sync_rounds` at every thread count and chunk size, and a run
//! over `k` hosts sends `k(k−1)` requests and `sync_rounds · k(k−1)`
//! SYNC/FINAL messages (`k(k−1)` for neighbour-blind rules, which run one
//! round). This departs from §IV-D5, where a host drains whatever has
//! arrived — "if a host finds it has received no data, it will continue
//! onto the next round" — and assignment within a round runs in parallel.
//! The reason is a measurement: on SVC over kron (`svc_kron`, 2 vCPUs, six
//! alternated pairs) the asynchronous drain with a parallel round bought
//! nothing — median `partition_s` 0.410 s against 0.408 s lockstep, master
//! phase 0.118 s against 0.116 s — and lockstep's replication factor was
//! lower in all six pairs.
//!
//! The masters map is demand-driven (§IV-D5): a host only ever receives
//! assignments for nodes it asked for — the destinations of its locally
//! read edges — so the map touches memory in proportion to its slice, not
//! the graph. The request set is marked per edge, one plain `|=` into the
//! worker's own dense bitset (`ThreadRows`), and the workers' bitsets are
//! ORed together and read back sorted and duplicate-free; the answers land
//! in one table:
//!
//! * **one table** — a [`MasterTable`] per host, a `u8` per node id over
//!   `0..n` up to 255 partitions and a `u16` beyond, holding `p + 1` for
//!   partition `p` (`0`: unknown), allocated zeroed before the first
//!   request: the rounds store their own decisions into it, answers are
//!   written into it in place, [`MasterView`] reads it during the rounds,
//!   and [`ResolvedMasters::Stored`] is the same table, frozen, when the
//!   phase ends — every lookup, a neighbour's or an edge's, local or
//!   remote, is one one- or two-byte load. Ids the host never touches cost
//!   address space, not pages; a run over `parts ≥ u16::MAX` partitions is
//!   refused before a message is sent ([`MAX_STORED_PARTS`]). The phase
//!   ends with one `mem.master_table` counter, the table's
//!   [`MasterTable::heap_bytes`];
//! * **one run per peer** — hosts read contiguous ascending node ranges, so
//!   the sorted set splits into `k` consecutive runs, run `p` being what is
//!   asked of host `p` (`Requests`);
//! * **positional answers** — a responder answers each peer's run strictly
//!   in order (its `sent_cursor`), and a channel is FIFO per (peer, tag),
//!   replayed restarts included, so a SYNC/FINAL carries only the masters of
//!   *the next `n` requested ids* (§IV-D2's reduced metadata, applied to
//!   this map): 4 bytes an answer, decoded in bulk into the run at the
//!   requester's mirror cursor. The cursors also make completeness a
//!   compare: a run longer than what is outstanding, or a FINAL that leaves
//!   a request open, panics at the message that shows it.
//!
//! Under the `master` phase span the phase records, through `cusp-obs`,
//! `master.requests` (building the request set and exchanging it; inside,
//! one `master.requested` instant per peer carrying the id count asked of
//! it), one `master.round` per round (argument: nodes assigned) whose
//! `master.sync` child covers the SYNCs sent and the wait for the peers',
//! and `master.final` (the last flush plus the time blocked in
//! reconciliation); every `master.sync` and the `master.final` close with
//! the counters `master.answered` and `master.received` (ids, summed over
//! peers).

use std::fmt;
use std::sync::atomic::{AtomicU16, AtomicU8, Ordering};

use cusp_galois::{do_all_with_tid, ThreadPool, DEFAULT_GRAIN};
use cusp_graph::{ChunkedSlice, Node, ReadSplit};
use cusp_net::{Bytes, Comm, WireReader, WireWriter};

use crate::config::CuspConfig;
use crate::phases::bitset::{zeroed, ThreadRows};
use crate::phases::pipeline::{for_chunks_in, for_each_chunk};
use crate::policy::{MasterRule, MasterView, Setup};
use crate::props::LocalProps;
use crate::state::PartitionState;
use crate::tags::{MSG_FINAL, MSG_SYNC, TAG_MASTER_REQ, TAG_MASTER_SYNC};
use crate::PartId;

/// The most partitions a [`MasterTable`] can name: its widest slot holds
/// `p + 1` in a `u16`, so partitions `0..=65_533` are storable and a
/// stored-master run over `u16::MAX` or more partitions is refused, never
/// truncated.
pub const MAX_STORED_PARTS: PartId = u16::MAX as PartId - 1;

/// One host's stored masters: a slot per node id over `0..n`, holding
/// `p + 1` for partition `p` and `0` while the master is unknown. A slot is
/// one byte when `p + 1` always fits in one (at most 255 partitions) and
/// two bytes otherwise; `MasterTable::new` picks the width from the
/// partition count, and nothing else does.
///
/// One table from the first request to the last lookup. It is allocated
/// zeroed before the first request, so the ids a host never touches cost
/// address space, not pages; the rounds store the host's own decisions
/// into it, the protocol writes each peer's positional answers into it in
/// place, the rules' neighbour lookups read it while the rounds run
/// ([`MasterView`]), and the edge-assignment and construction walks read
/// the same table afterwards, once per edge ([`ResolvedMasters::of`]).
/// Every lookup is a bounds check and one
/// one- or two-byte load, and the table is `n` or `2n` bytes of address
/// space per host ([`MasterTable::heap_bytes`]), of which only the touched
/// pages are memory. The edge walks load it at random (a destination has
/// no locality), so the narrower table is the one more of them find in
/// cache.
pub struct MasterTable {
    parts: PartId,
    slots: Slots,
}

/// A [`MasterTable`]'s slots, in the width its partition count needs.
enum Slots {
    Narrow(Vec<AtomicU8>),
    Wide(Vec<AtomicU16>),
}

/// Runs `$body` with `$s` bound to the slots as a slice of their width.
macro_rules! with_slots {
    ($slots:expr, $s:ident => $body:expr) => {
        match $slots {
            Slots::Narrow($s) => $body,
            Slots::Wide($s) => $body,
        }
    };
}

/// One slot of a [`MasterTable`]: `p + 1` for partition `p`, `0` unknown.
/// Relaxed: a slot publishes no other data.
trait Slot {
    fn read(&self) -> u32;
    fn write(&self, m: u32);
}

impl Slot for AtomicU8 {
    #[inline(always)]
    fn read(&self) -> u32 {
        self.load(Ordering::Relaxed) as u32
    }
    #[inline(always)]
    fn write(&self, m: u32) {
        self.store(m as u8, Ordering::Relaxed)
    }
}

impl Slot for AtomicU16 {
    #[inline(always)]
    fn read(&self) -> u32 {
        self.load(Ordering::Relaxed) as u32
    }
    #[inline(always)]
    fn write(&self, m: u32) {
        self.store(m as u16, Ordering::Relaxed)
    }
}

impl MasterTable {
    /// Every master of `0..n` unknown, for a run over `parts` partitions:
    /// one byte per node up to 255 partitions, two bytes beyond. Panics —
    /// naming the limit — when `parts` exceeds [`MAX_STORED_PARTS`].
    pub(crate) fn new(n: usize, parts: PartId) -> Self {
        assert!(
            parts <= MAX_STORED_PARTS,
            "stored masters support at most {MAX_STORED_PARTS} partitions (a u16 per node); \
             this run has {parts}"
        );
        let slots = if parts <= u8::MAX as PartId {
            Slots::Narrow(zeroed(n))
        } else {
            Slots::Wide(zeroed(n))
        };
        MasterTable { parts, slots }
    }

    /// Records `p` as the master of `v`. One thread per host writes (the
    /// master phase's rounds, or a checkpoint restore); the slots are
    /// atomics so that `set` takes `&self` while [`MasterView`] reads the
    /// same table, and so the pool's threads can read it by shared
    /// reference in the edge walks afterwards. A master that names no
    /// partition panics rather than being stored truncated.
    #[inline]
    pub(crate) fn set(&self, v: Node, p: PartId) {
        if p >= self.parts {
            no_such_partition(v, p, self.parts);
        }
        with_slots!(&self.slots, s => s[v as usize].write(p + 1))
    }

    /// The master of `v`, or `None` while it is unknown (never requested,
    /// not answered yet, or past the node count).
    #[inline]
    pub fn get(&self, v: Node) -> Option<PartId> {
        with_slots!(&self.slots, s => s.get(v as usize)?.read().checked_sub(1))
    }

    /// The node count `n` the table spans.
    pub fn num_nodes(&self) -> usize {
        with_slots!(&self.slots, s => s.len())
    }

    /// Bytes of the table's one allocation: `n` with one-byte slots, `2n`
    /// with two-byte ones. Address space, of which only the pages of
    /// touched ids are resident.
    pub fn heap_bytes(&self) -> u64 {
        with_slots!(&self.slots, s => std::mem::size_of_val(s.as_slice()) as u64)
    }

    /// Iterates the known `(node, master)` pairs in ascending node order —
    /// a scan of the whole table, for checkpoints and tests.
    pub fn iter(&self) -> impl Iterator<Item = (Node, PartId)> + '_ {
        (0..self.num_nodes() as Node).filter_map(|v| Some((v, self.get(v)?)))
    }
}

impl PartialEq for MasterTable {
    fn eq(&self, other: &Self) -> bool {
        self.parts == other.parts && self.num_nodes() == other.num_nodes() && self.iter().eq(other.iter())
    }
}

impl Eq for MasterTable {}

impl fmt::Debug for MasterTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MasterTable(n = {}, parts = {}) ", self.num_nodes(), self.parts)?;
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Master assignments as visible to the later phases on one host.
#[derive(Debug, PartialEq, Eq)]
pub enum ResolvedMasters {
    /// Assignment is a replicated pure function: partition `p` owns the
    /// contiguous node range from `starts[p - 1]` (0 for `p = 0`) up to
    /// `starts[p]` (the node count for the last partition).
    Pure {
        /// First node of partitions `1..k`, ascending (`k − 1` entries).
        starts: Vec<Node>,
    },
    /// Assignments are stored: phase 2's [`MasterTable`], frozen — every
    /// node of the read range and every requested destination is known.
    Stored(MasterTable),
}

impl ResolvedMasters {
    /// The master partition of `v`. Panics if the protocol did not deliver
    /// it (which would be a driver bug, not a user error).
    ///
    /// Called up to twice per edge by both edge walks, so it is forced
    /// inline — as a call it costs more than the lookup — and the
    /// unknown-master panic sits in a cold function of its own: a stored
    /// master is one one- or two-byte load.
    #[inline(always)]
    pub fn of(&self, v: Node) -> PartId {
        match self {
            // The owner is the number of range starts at or below `v`. A
            // branch-free count over the few starts beats a binary search
            // with its unpredictable branches, and vectorizes.
            ResolvedMasters::Pure { starts } => starts.iter().map(|&b| (b <= v) as PartId).sum(),
            ResolvedMasters::Stored(table) => table.get(v).unwrap_or_else(|| unknown_master(v)),
        }
    }

    /// Is pure.
    pub fn is_pure(&self) -> bool {
        matches!(self, ResolvedMasters::Pure { .. })
    }
}

#[cold]
#[inline(never)]
fn unknown_master(v: Node) -> PartId {
    panic!("master of {v} unknown on this host")
}

#[cold]
#[inline(never)]
fn no_such_partition(v: Node, p: PartId, parts: PartId) -> ! {
    panic!("master {p} of node {v} names no partition; there are {parts}")
}

/// The requester's half of the positional answer stream: what this host
/// asked of each peer, and how far each peer has answered. The answers
/// themselves go straight into the [`MasterTable`].
struct Requests {
    /// The sorted request set: answers carry no ids, so these are what
    /// names them.
    ids: Vec<Node>,
    /// Request `bounds[p]..bounds[p + 1]` of the sorted set went to host
    /// `p`: hosts read contiguous ascending node ranges, so the set splits
    /// into one consecutive run per reader.
    bounds: Vec<usize>,
    /// How many ids of host `p`'s run it has answered. Answers carry no
    /// ids, so this cursor is all that says whose masters a run holds.
    answered: Vec<usize>,
    /// Decode scratch, reused across messages.
    run: Vec<PartId>,
}

impl Requests {
    /// Splits the strictly ascending request set `ids` by reader.
    fn new(ids: Vec<Node>, read_splits: &[ReadSplit]) -> Self {
        let mut bounds = Vec::with_capacity(read_splits.len() + 1);
        bounds.push(0);
        bounds.extend(read_splits.iter().map(|s| ids.partition_point(|&v| (v as u64) < s.hi)));
        assert_eq!(bounds.last(), Some(&ids.len()), "requested a node no host reads");
        Requests { ids, answered: vec![0; read_splits.len()], bounds, run: Vec::new() }
    }

    /// The ids asked of `peer`, ascending — the order it answers them in.
    fn of_peer(&self, peer: usize) -> &[Node] {
        &self.ids[self.bounds[peer]..self.bounds[peer + 1]]
    }

    /// Ids asked of `peer` and not yet answered.
    fn outstanding(&self, peer: usize) -> usize {
        self.bounds[peer + 1] - self.bounds[peer] - self.answered[peer]
    }

    /// Ids answered so far, over all peers.
    fn received(&self) -> usize {
        self.answered.iter().sum()
    }

    /// Decodes the rest of a SYNC/FINAL from `src` — `n`, then the masters
    /// of the next `n` ids asked of it — into `table`.
    /// The bytes come from another host: `n` is bounded by what is still
    /// outstanding before anything is sized or indexed by it, the run is
    /// decoded in one piece, nothing may follow it, and a master must name
    /// a partition — there is one per host — since the scored rules index
    /// their counts by it. Nothing is written before all of that holds.
    fn apply_run(&mut self, src: usize, round: usize, r: &mut WireReader, table: &MasterTable) {
        let parts = self.answered.len() as PartId;
        let n = r.get_u64().expect("truncated sync message: no answer count");
        let outstanding = self.outstanding(src);
        assert!(
            n <= outstanding as u64,
            "host {src} answered {n} master(s) in round {round} but only {outstanding} of its {} \
             requested id(s) are outstanding",
            self.of_peer(src).len()
        );
        let n = n as usize;
        self.run.resize(n, 0);
        r.get_u32_into(&mut self.run)
            .unwrap_or_else(|e| panic!("host {src} announced {n} master(s) in round {round}: {e}"));
        assert!(
            r.is_exhausted(),
            "host {src} sent {} byte(s) after its {n} master(s) in round {round}",
            r.remaining()
        );
        let at = self.answered[src];
        let ids = &self.of_peer(src)[at..at + n];
        if let Some(i) = self.run.iter().position(|&p| p >= parts) {
            panic!("host {src} answered master {} for node {}; there are {parts} partitions", self.run[i], ids[i]);
        }
        for (&v, &p) in ids.iter().zip(&self.run) {
            table.set(v, p);
        }
        self.answered[src] += n;
    }
}

/// Runs the master assignment phase for a non-pure rule.
///
/// `sends_counter` style accounting is inherited from `comm` (the driver
/// sets the phase label before calling).
pub fn assign_masters<MR: MasterRule>(
    comm: &Comm,
    pool: &ThreadPool,
    setup: &Setup,
    data: &mut ChunkedSlice,
    rule: &MR,
    state: &MR::State,
    cfg: &CuspConfig,
) -> ResolvedMasters {
    // Note: pure rules may run through here when the §IV-D5 elision is
    // disabled (`CuspConfig::force_stored_masters` ablation).
    let me = comm.host();
    let k = comm.num_hosts();
    let lo = data.node_lo();
    let local_n = data.num_nodes();
    // The one table, before anything is sent: a run it cannot hold is
    // refused here.
    let table = MasterTable::new(setup.num_nodes as usize, setup.parts);

    // --- Step 1: request the masters of my edges' destinations. --------
    let requests_span = cusp_obs::span("master.requests");
    let mut requests = Requests::new(remote_dests(pool, data, setup), &setup.read_splits);
    debug_assert!(requests.of_peer(me).is_empty());
    for peer in 0..k {
        if peer == me {
            continue;
        }
        let ids = requests.of_peer(peer);
        cusp_obs::instant("master.requested", ids.len() as u64);
        let mut w = WireWriter::with_capacity(8 + ids.len() * 4);
        w.put_u32_slice(ids);
        comm.send_bytes(peer, TAG_MASTER_REQ, w.finish());
    }
    // requested_by[peer]: nodes of MY range that `peer` wants, ascending —
    // the order its answers are sent in and the only thing that names them.
    let mut requested_by: Vec<Vec<Node>> = vec![Vec::new(); k];
    for _ in 0..k - 1 {
        let (src, payload) = comm.recv_any(TAG_MASTER_REQ);
        let mut r = WireReader::new(payload);
        let ids = r.get_u32_vec().expect("malformed master request");
        assert!(
            ids.windows(2).all(|w| w[0] < w[1])
                && ids.first().is_none_or(|&v| v >= lo)
                && ids.last().is_none_or(|&v| ((v - lo) as usize) < local_n),
            "host {src} requested masters outside this host's read range or out of order"
        );
        requested_by[src] = ids;
    }
    drop(requests_span);

    // --- Step 2: assignment loop with lockstep sync rounds. -------------
    let rounds = if rule.uses_neighbor_masters() {
        cfg.sync_rounds.max(1) as usize
    } else {
        1
    };
    let chunk = local_n.div_ceil(rounds).max(1);
    let peers = (0..k).filter(|&peer| peer != me);
    // Cursor into requested_by[peer] for masters already sent.
    let mut sent_cursor = vec![0usize; k];
    let mut delta_buf: Vec<u64> = Vec::new();
    let mut run_buf: Vec<PartId> = Vec::new();
    // One lockstep exchange. Sends every peer one `kind` message — this
    // host's state delta since the last one, then the masters of the
    // peer's requests below `assigned_below`, in request order — and
    // blocking-receives one from every peer, in host order. Per-channel
    // FIFO makes that the peer's message of the same round, so the state
    // every round observes, and the order remote deltas fold in, are the
    // same on every run.
    let mut exchange = |kind: u8, round: usize, assigned_below: Node, requests: &mut Requests| {
        state.take_delta(&mut delta_buf);
        let mut answered = 0usize;
        for peer in peers.clone() {
            let upto = requested_by[peer].partition_point(|&v| v < assigned_below);
            let ids = &requested_by[peer][sent_cursor[peer]..upto];
            run_buf.clear();
            run_buf.extend(ids.iter().map(|&v| table.get(v).unwrap_or_else(|| unknown_master(v))));
            sent_cursor[peer] = upto;
            comm.send_bytes(peer, TAG_MASTER_SYNC, encode_sync(kind, &delta_buf, &run_buf));
            answered += ids.len();
        }
        cusp_obs::counter("master.answered", answered as u64);
        let received = requests.received();
        for peer in peers.clone() {
            let payload = comm.recv_from(peer, TAG_MASTER_SYNC);
            let is_final = apply_sync::<MR>(payload, peer, round, state, requests, &table);
            assert_eq!(is_final, kind == MSG_FINAL, "host {peer} broke lockstep in round {round}");
        }
        cusp_obs::counter("master.received", (requests.received() - received) as u64);
    };

    let view = MasterView::new(&table);
    let mut start = 0usize;
    for round in 0..rounds {
        let end = (start + chunk).min(local_n);
        let _round_span = cusp_obs::span_arg("master.round", (end - start) as u64);
        // Stream the round's node range chunk by chunk, in node order; for
        // monolithic data this is a single pass over the resident slice.
        for_chunks_in(data, lo + start as Node..lo + end as Node, |chunk, sub| {
            let prop = LocalProps::new(setup.num_nodes, setup.num_edges, setup.parts, chunk);
            for v in sub {
                table.set(v, rule.get_master(&prop, v, state, &view));
            }
        });
        start = end;
        if round + 1 == rounds {
            break;
        }
        let _sync_span = cusp_obs::span("master.sync");
        exchange(MSG_SYNC, round, lo + start as Node, &mut requests);
    }

    // --- Step 3: final flush and blocking reconciliation. --------------
    // The rounds have covered the whole range: the FINAL answers the rest.
    let final_span = cusp_obs::span("master.final");
    exchange(MSG_FINAL, rounds, lo + start as Node, &mut requests);
    drop(final_span);
    cusp_obs::counter("mem.master_table", table.heap_bytes());

    // Every peer's FINAL was checked against its run as it arrived, so the
    // table is complete: later phases read it as it stands.
    ResolvedMasters::Stored(table)
}

/// Builds the pure resolver for a pure rule over `parts` partitions (no
/// communication at all).
pub fn pure_masters<MR: MasterRule>(rule: &MR, parts: PartId) -> ResolvedMasters {
    debug_assert!(rule.is_pure());
    let starts: Vec<Node> = (1..parts).map(|p| rule.pure_owned_range(p).start).collect();
    debug_assert!(starts.windows(2).all(|w| w[0] <= w[1]), "pure owned ranges out of order");
    ResolvedMasters::Pure { starts }
}

/// Sorted, deduplicated destinations of the local slice that fall outside
/// the local read range (the nodes whose masters this host must request).
/// Every destination is marked, in the worker's own row; the local ones are
/// dropped once per set bit in the scan of the union, not once per edge.
fn remote_dests(pool: &ThreadPool, data: &mut ChunkedSlice, setup: &Setup) -> Vec<Node> {
    let local = data.node_lo()..data.node_hi();
    let dests = ThreadRows::new(pool, 1, setup.num_nodes as usize);
    for_each_chunk(data, |chunk| {
        do_all_with_tid(pool, chunk.num_nodes(), DEFAULT_GRAIN, |tid, i| {
            dests.with(tid, |row| {
                for &d in chunk.edges(chunk.node_lo + i as Node) {
                    row.mark(0, d);
                }
            });
        });
    });
    dests.union().ones(0).filter(|d| !local.contains(d)).collect()
}

/// A SYNC/FINAL: `kind`, the length-prefixed state delta, then the count
/// and the masters of the receiver's next `run.len()` requested ids — the
/// ids themselves are not sent ([`Requests`]).
fn encode_sync(kind: u8, delta: &[u64], run: &[PartId]) -> Bytes {
    let mut w = WireWriter::with_capacity(1 + 8 + delta.len() * 8 + 8 + run.len() * 4);
    w.put_u8(kind);
    w.put_u64_slice(delta);
    w.put_u64(run.len() as u64);
    w.put_u32_raw_slice(run);
    w.finish()
}

/// Applies a SYNC/FINAL from host `src`; returns true if it was the FINAL
/// — which must leave none of `src`'s requests open, or a missing answer
/// would only surface phases later as an unknown master.
fn apply_sync<MR: MasterRule>(
    payload: Bytes,
    src: usize,
    round: usize,
    state: &MR::State,
    requests: &mut Requests,
    table: &MasterTable,
) -> bool {
    let mut r = WireReader::new(payload);
    let kind = r.get_u8().expect("empty sync message");
    assert!(kind == MSG_SYNC || kind == MSG_FINAL, "host {src} sent sync message kind {kind}");
    let delta = r.get_u64_vec().expect("malformed sync delta");
    if !delta.is_empty() {
        state.apply_remote(&delta);
    }
    requests.apply_run(src, round, &mut r, table);
    let is_final = kind == MSG_FINAL;
    if is_final {
        assert_eq!(
            requests.outstanding(src),
            0,
            "host {src} sent its FINAL in round {round} having answered {} of {} requested id(s)",
            requests.answered[src],
            requests.of_peer(src).len()
        );
    }
    is_final
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphSource;
    use crate::phases::read::read_phase;
    use crate::policies::masters::{Contiguous, ContiguousEB, FennelEB};
    use crate::state::LoadState;
    use cusp_graph::gen::uniform::erdos_renyi;
    use cusp_net::Cluster;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};
    use std::ops::Range;
    use std::sync::Arc;

    /// A trivially non-pure rule for protocol tests: master = node % k.
    #[derive(Clone)]
    struct ModRule;
    impl MasterRule for ModRule {
        type State = ();
        fn get_master(
            &self,
            prop: &LocalProps,
            node: Node,
            _s: &(),
            _m: &MasterView,
        ) -> PartId {
            node % prop.num_partitions()
        }
    }

    /// Each host's read range and the table `assign_masters` left it.
    fn run_assignment<MR: MasterRule>(
        k: usize,
        rule_of: impl Fn(&Setup) -> MR + Sync,
        rounds: u32,
    ) -> Vec<(Range<Node>, MasterTable)> {
        let g = Arc::new(erdos_renyi(300, 3000, 17));
        let out = Cluster::run(k, |comm| {
            let cfg = CuspConfig {
                sync_rounds: rounds,
                threads_per_host: 2,
                ..CuspConfig::default()
            };
            let pool = ThreadPool::new(cfg.threads_per_host);
            let mut r = read_phase(comm, &GraphSource::Memory(g.clone()), &cfg).unwrap();
            let rule = rule_of(&r.setup);
            let state = MR::State::new(r.setup.parts);
            let range = r.data.node_lo()..r.data.node_hi();
            match assign_masters(comm, &pool, &r.setup, &mut r.data, &rule, &state, &cfg) {
                ResolvedMasters::Stored(table) => (range, table),
                _ => unreachable!(),
            }
        });
        out.results
    }

    #[test]
    fn stateless_rule_assignments_are_consistent_across_hosts() {
        for (range, table) in run_assignment(4, |_s| ModRule, 1) {
            assert_eq!(table.num_nodes(), 300);
            // The read range is complete, something beyond it was asked
            // for, and every entry is what its owner computed.
            assert!(range.clone().all(|v| table.get(v).is_some()));
            assert!(table.iter().any(|(v, _)| !range.contains(&v)));
            for (v, p) in table.iter() {
                assert_eq!(p, v % 4, "master of {v} wrong");
            }
        }
    }

    #[test]
    fn fennel_assignments_complete_and_agree() {
        for rounds in [1u32, 4, 32] {
            let results = run_assignment(4, FennelEB::new, rounds);
            // Build the global truth from the read ranges.
            let mut truth: HashMap<Node, PartId> = HashMap::new();
            for (range, table) in &results {
                for v in range.clone() {
                    let m = table.get(v).expect("own range complete");
                    assert!(m < 4);
                    truth.insert(v, m);
                }
            }
            assert_eq!(truth.len(), 300);
            // What each host was answered agrees with the truth.
            for (_, table) in &results {
                for (v, p) in table.iter() {
                    assert_eq!(p, truth[&v], "rounds={rounds}: master of {v} diverged");
                }
            }
        }
    }

    #[test]
    fn master_table_answers_what_was_set_and_nothing_else() {
        fn check(n: usize, pairs: &BTreeMap<Node, PartId>) {
            let table = MasterTable::new(n, 5);
            for (&v, &p) in pairs {
                table.set(v, p);
            }
            assert_eq!(table.num_nodes(), n);
            assert_eq!(table.iter().collect::<BTreeMap<_, _>>(), *pairs);
            let last = n as Node;
            let probes = pairs.keys().flat_map(|&v| [v.wrapping_sub(1), v, v + 1]);
            for v in probes.chain([0, last.wrapping_sub(1), last, last + 1, Node::MAX]) {
                assert_eq!(table.get(v), pairs.get(&v).copied(), "n = {n}: get({v})");
            }
        }
        // Contiguous-ish ids, ids scattered over tens of millions, ids at
        // both ends of the table.
        check(500, &(100u32..400).filter(|v| v % 3 != 0).map(|v| (v, v % 5)).collect());
        check(20_000_000, &(0u32..8).map(|i| (i * 2_499_999 + 7, i % 5)).collect());
        check(64, &[(0, 4), (63, 0)].into_iter().collect());
        // The empty set, over a table and over no nodes at all.
        check(1000, &BTreeMap::new());
        check(0, &BTreeMap::new());
    }

    #[test]
    fn partitions_past_a_byte_round_trip_up_to_the_named_limit() {
        let table = MasterTable::new(8, MAX_STORED_PARTS);
        let parts = [0, 255, 256, 65_533];
        for (v, &p) in parts.iter().enumerate() {
            table.set(v as Node * 2, p);
        }
        let want: Vec<(Node, PartId)> = parts.iter().enumerate().map(|(v, &p)| (v as Node * 2, p)).collect();
        assert_eq!(table.iter().collect::<Vec<_>>(), want);
        for (v, p) in want {
            assert_eq!(table.get(v), Some(p));
            assert_eq!(table.get(v + 1), None);
        }
        assert_eq!(MAX_STORED_PARTS, 65_534);
    }

    #[test]
    #[should_panic(expected = "stored masters support at most 65534 partitions (a u16 per node); this run has 65535")]
    fn a_table_over_u16_max_partitions_is_refused() {
        MasterTable::new(1, u16::MAX as PartId);
    }

    #[test]
    #[should_panic(expected = "master 4 of node 2 names no partition; there are 4")]
    fn a_master_that_names_no_partition_is_not_stored() {
        MasterTable::new(3, 4).set(2, 4);
    }

    /// Up to 255 partitions a slot is one byte, from 256 on two; the
    /// partitions at the top of a byte round-trip through both widths.
    #[test]
    fn the_width_is_one_byte_up_to_255_partitions_and_two_beyond() {
        for (parts, width) in [(255, 1), (256, 2)] {
            let table = MasterTable::new(10, parts);
            assert_eq!(table.heap_bytes(), 10 * width, "{parts} partitions");
            let want = [(1, 0), (4, 253), (9, 254)];
            for (v, p) in want {
                table.set(v, p);
            }
            assert_eq!(table.iter().collect::<Vec<_>>(), want, "{parts} partitions");
            for v in 0..11 {
                let p = want.iter().find(|&&(u, _)| u == v).map(|&(_, p)| p);
                assert_eq!(table.get(v), p, "{parts} partitions: get({v})");
            }
        }
        assert_eq!(MasterTable::new(10, 1).heap_bytes(), 10);
        assert_eq!(MasterTable::new(10, MAX_STORED_PARTS).heap_bytes(), 20);
    }

    /// A stored-master run over more partitions than a slot can name stops
    /// at the limit on every host, before a byte of the phase is sent.
    #[test]
    fn a_stored_run_past_the_limit_panics_before_any_message() {
        let g = Arc::new(erdos_renyi(200, 1000, 5));
        let out = Cluster::run(2, |comm| {
            let cfg = CuspConfig::default();
            let pool = ThreadPool::new(1);
            let mut r = read_phase(comm, &GraphSource::Memory(g.clone()), &cfg).unwrap();
            comm.set_phase("master");
            r.setup.parts = u16::MAX as PartId;
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                assign_masters(comm, &pool, &r.setup, &mut r.data, &ModRule, &(), &cfg)
            }))
            .expect_err("65535 partitions stored");
            err.downcast_ref::<String>().cloned().expect("formatted panic")
        });
        for msg in &out.results {
            assert!(msg.contains("at most 65534 partitions"), "{msg}");
        }
        assert_eq!(out.stats.phase("master").unwrap().total_bytes(), 0);
    }

    /// Read ranges `[0, 100) [100, 100) [100, 250) [250, 400)` × `stride`:
    /// host 1 reads nothing, as a host of a skewed split may.
    fn splits(stride: u64) -> Vec<ReadSplit> {
        [(0u64, 100u64), (100, 100), (100, 250), (250, 400)]
            .iter()
            .map(|&(lo, hi)| ReadSplit { lo: lo * stride, hi: hi * stride })
            .collect()
    }

    /// What host `src` would send for `run`, through the real encoder.
    fn sync_from(kind: u8, run: &[PartId]) -> Bytes {
        encode_sync(kind, &[], run)
    }

    fn apply(req: &mut Requests, table: &MasterTable, src: usize, round: usize, payload: Bytes) -> bool {
        apply_sync::<ModRule>(payload, src, round, &(), req, table)
    }

    #[test]
    fn answers_land_on_the_ids_of_their_peer_in_request_order() {
        let needed: Vec<Node> = vec![3, 40, 99, 100, 180, 249, 250, 399];
        let mut req = Requests::new(needed, &splits(1));
        let table = MasterTable::new(400, 4);
        assert_eq!(req.of_peer(0), [3, 40, 99]);
        assert_eq!(req.of_peer(1), [0u32; 0]);
        assert_eq!(req.of_peer(2), [100, 180, 249]);
        assert_eq!(req.of_peer(3), [250, 399]);
        // Host 3 answers first, then host 0 in two messages, one of them empty.
        assert!(!apply(&mut req, &table, 3, 0, sync_from(MSG_SYNC, &[1])));
        assert!(!apply(&mut req, &table, 0, 0, sync_from(MSG_SYNC, &[])));
        assert!(!apply(&mut req, &table, 0, 1, sync_from(MSG_SYNC, &[2, 3])));
        assert_eq!(req.received(), 3);
        let got: Vec<Option<PartId>> = [3, 40, 99, 100, 250, 399].iter().map(|&v| table.get(v)).collect();
        assert_eq!(got, [Some(2), Some(3), None, None, Some(1), None]);
        assert!(apply(&mut req, &table, 0, 2, sync_from(MSG_FINAL, &[0])));
        assert!(apply(&mut req, &table, 1, 2, sync_from(MSG_FINAL, &[])));
        assert!(apply(&mut req, &table, 2, 2, sync_from(MSG_FINAL, &[0, 1, 2])));
        assert!(apply(&mut req, &table, 3, 2, sync_from(MSG_FINAL, &[3])));
        let all: Vec<(Node, PartId)> = table.iter().collect();
        assert_eq!(all, [(3, 2), (40, 3), (99, 0), (100, 0), (180, 1), (249, 2), (250, 1), (399, 3)]);
    }

    #[test]
    #[should_panic(expected = "host 2 sent its FINAL in round 7 having answered 2 of 3 requested id(s)")]
    fn a_responder_that_answers_one_too_few_is_caught_at_its_final() {
        let mut req = Requests::new(vec![100, 180, 249], &splits(1));
        let table = MasterTable::new(400, 4);
        apply(&mut req, &table, 2, 0, sync_from(MSG_SYNC, &[1]));
        apply(&mut req, &table, 2, 7, sync_from(MSG_FINAL, &[1]));
    }

    #[test]
    fn a_responder_that_answers_one_too_many_is_caught_before_a_slot_is_written() {
        let mut req = Requests::new(vec![3, 100, 180, 249], &splits(1));
        let table = MasterTable::new(400, 4);
        apply(&mut req, &table, 2, 0, sync_from(MSG_SYNC, &[1]));
        let before: Vec<(Node, PartId)> = table.iter().collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            apply(&mut req, &table, 2, 5, sync_from(MSG_SYNC, &[2, 2, 2]))
        }))
        .expect_err("three answers for two outstanding requests");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains("host 2 answered 3 master(s) in round 5 but only 2 of its 3 requested id(s)"),
            "{msg}"
        );
        assert_eq!(table.iter().collect::<Vec<_>>(), before);
        assert_eq!(req.answered, [0, 0, 1, 0]);
    }

    /// `apply_sync` reads bytes another host produced: every malformed
    /// shape is refused by name, none indexes or sizes anything first.
    #[test]
    fn malformed_sync_messages_are_refused() {
        fn refused(payload: Vec<u8>, expect: &str) {
            let mut req = Requests::new(vec![100, 180, 249], &splits(1));
            let table = MasterTable::new(400, 4);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                apply(&mut req, &table, 2, 1, Bytes::from(payload))
            }))
            .expect_err(expect);
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("panic message");
            assert!(msg.contains(expect), "expected {expect:?} in {msg:?}");
            assert_eq!(table.iter().count(), 0, "{expect}: a slot was written");
        }
        let good = sync_from(MSG_SYNC, &[1, 2]).to_vec();
        refused(Vec::new(), "empty sync message");
        refused(vec![9], "sync message kind 9");
        refused(good[..good.len() - 1].to_vec(), "announced 2 master(s)");
        refused([&good[..], &[0]].concat(), "1 byte(s) after its 2 master(s)");
        // A count far past the payload and the request list (would size a
        // buffer of 2^61 elements if trusted).
        let mut huge = sync_from(MSG_SYNC, &[]).to_vec();
        let at = huge.len() - 8;
        huge[at..].copy_from_slice(&(1u64 << 61).to_le_bytes());
        refused(huge, "answered 2305843009213693952 master(s)");
        // A master that names no partition (four hosts, four partitions),
        // also one that a `u16` slot would truncate to a valid one.
        refused(sync_from(MSG_SYNC, &[1, 4]).to_vec(), "answered master 4 for node 180");
        refused(sync_from(MSG_SYNC, &[65_536 + 1]).to_vec(), "for node 100");
        refused(sync_from(MSG_SYNC, &[u32::MAX]).to_vec(), "for node 100");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The table and the positional stream against a `BTreeMap` of
        /// what has been answered, after every message: random request
        /// sets — stride 1 packs them, stride 50,000 spreads them over a
        /// 20,000,000-node table — answered by each peer in order but cut
        /// into messages of arbitrary (also zero) length, the peers'
        /// messages interleaved arbitrarily. A cursor that advanced by
        /// messages rather than by ids would misplace the first run that
        /// follows a run of length ≠ 1.
        #[test]
        fn positional_answers_match_a_btreemap(
            stride in prop_oneof![Just(1u32), Just(50_000)],
            picks in proptest::collection::vec(any::<bool>(), 400),
            cuts in proptest::collection::vec(0usize..40, 1..60),
            order in proptest::collection::vec(0usize..4, 0..200),
        ) {
            let splits = splits(stride as u64);
            let n = 400 * stride;
            let needed: Vec<Node> =
                (0u32..400).filter(|&v| picks[v as usize]).map(|v| v * stride).collect();
            let master = |v: Node| (v / stride) % 4;
            let mut req = Requests::new(needed.clone(), &splits);
            let table = MasterTable::new(n as usize, 4);
            let mut reference: BTreeMap<Node, PartId> = BTreeMap::new();
            let check = |table: &MasterTable, reference: &BTreeMap<Node, PartId>| {
                // Requested and answered, requested and not yet answered,
                // never requested: between, on and beside the keys, and
                // the table's first and last id.
                let probes = (0u32..400).flat_map(|v| [v * stride, v * stride + 1]);
                for probe in probes.chain([0, n - 1]) {
                    assert_eq!(table.get(probe), reference.get(&probe).copied(), "get({probe})");
                }
            };
            check(&table, &reference);

            let mut sent = [0usize; 4];
            let mut cut = cuts.iter().copied().cycle();
            let mut send = |peer: usize, kind: u8, req: &mut Requests, reference: &mut BTreeMap<Node, PartId>| {
                let ids = req.of_peer(peer).to_vec();
                let n = match kind {
                    MSG_FINAL => ids.len() - sent[peer],
                    _ => cut.next().expect("cycled").min(ids.len() - sent[peer]),
                };
                let run: Vec<PartId> = ids[sent[peer]..sent[peer] + n].iter().map(|&v| master(v)).collect();
                reference.extend(ids[sent[peer]..sent[peer] + n].iter().map(|&v| (v, master(v))));
                sent[peer] += n;
                assert_eq!(apply(req, &table, peer, 0, sync_from(kind, &run)), kind == MSG_FINAL);
                assert_eq!(req.received(), sent.iter().sum::<usize>());
                check(&table, reference);
            };
            for &peer in &order {
                send(peer, MSG_SYNC, &mut req, &mut reference);
            }
            // FINALs arrive in an order of their own.
            let first = order.first().copied().unwrap_or(0);
            for i in 0..4 {
                send((first + i) % 4, MSG_FINAL, &mut req, &mut reference);
            }
            prop_assert_eq!(table.iter().collect::<Vec<_>>(),
                needed.iter().map(|&v| (v, master(v))).collect::<Vec<_>>());
        }
    }

    proptest! {
        /// A one-byte and a two-byte table given the same `(v, p)` sets
        /// answer alike: per id and in a scan.
        #[test]
        fn narrow_and_wide_tables_agree(
            pairs in proptest::collection::vec((0u32..3000, 0u32..255), 0..200),
            probes in proptest::collection::vec(0u32..3000, 0..50),
        ) {
            let (narrow, wide) = (MasterTable::new(3000, 255), MasterTable::new(3000, 1000));
            prop_assert_eq!((narrow.heap_bytes(), wide.heap_bytes()), (3000, 6000));
            for &(v, p) in &pairs {
                narrow.set(v, p);
                wide.set(v, p);
            }
            prop_assert!(narrow.iter().eq(wide.iter()));
            for &v in probes.iter().chain(pairs.iter().map(|(v, _)| v)) {
                prop_assert_eq!(narrow.get(v), wide.get(v));
            }
        }
    }

    #[test]
    fn state_deltas_converge_across_hosts() {
        let g = Arc::new(erdos_renyi(400, 4000, 23));
        let out = Cluster::run(4, |comm| {
            let cfg = CuspConfig {
                sync_rounds: 8,
                ..CuspConfig::default()
            };
            let pool = ThreadPool::new(2);
            let mut r = read_phase(comm, &GraphSource::Memory(g.clone()), &cfg).unwrap();
            let rule = FennelEB::new(&r.setup);
            let state = LoadState::new(r.setup.parts);
            let _ = assign_masters(comm, &pool, &r.setup, &mut r.data, &rule, &state, &cfg);
            comm.barrier();
            (0..4u32).map(|p| (state.nodes(p), state.edges(p))).collect::<Vec<_>>()
        });
        // After the final flush, every host holds the same global state.
        for host in 1..4 {
            assert_eq!(out.results[host], out.results[0], "host {host} state diverged");
        }
        // Total nodes across partitions = nodes that went through the
        // scored path (≤ 400; high-degree nodes bypass to ContiguousEB).
        let total: u64 = out.results[0].iter().map(|&(n, _)| n).sum();
        assert!(total > 0 && total <= 400);
    }

    #[test]
    fn remote_dests_are_the_off_range_destinations_once_each_in_order() {
        let n = 20_000u64;
        let g = Arc::new(erdos_renyi(n as usize, 200_000, 17));
        let setup = Setup {
            num_nodes: n,
            num_edges: g.num_edges(),
            parts: 1,
            eb_boundaries: Arc::new(vec![0, n]),
            read_splits: Arc::new(vec![cusp_graph::ReadSplit { lo: 0, hi: n }]),
        };
        // Far more rows than `DEFAULT_GRAIN`, so a pool's workers split it.
        let (lo, hi) = (4_000, 14_000);
        assert!((hi - lo) as usize > DEFAULT_GRAIN);
        let want: Vec<Node> = (lo..hi)
            .flat_map(|s| g.edges(s).iter().copied())
            .filter(|d| !(lo..hi).contains(d))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert!(want.iter().any(|&d| d < lo) && want.iter().any(|&d| d >= hi));
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            for budget in [u64::MAX, 50] {
                let mut data = ChunkedSlice::from_csr(g.clone(), None, lo, hi, budget);
                let got = remote_dests(&pool, &mut data, &setup);
                assert_eq!(got, want, "threads {threads} budget {budget}");
            }
        }
    }

    #[test]
    fn pure_resolver_agrees_with_the_rule_on_every_node() {
        fn setup(n: u64, parts: PartId, eb_boundaries: Vec<u64>) -> Setup {
            Setup {
                num_nodes: n,
                num_edges: 0,
                parts,
                eb_boundaries: Arc::new(eb_boundaries),
                read_splits: Arc::new(vec![cusp_graph::ReadSplit { lo: 0, hi: n }]),
            }
        }
        fn check<MR: MasterRule>(rule: &MR, n: u64, parts: PartId) {
            let resolved = pure_masters(rule, parts);
            assert!(resolved.is_pure());
            for v in 0..n as Node {
                assert_eq!(resolved.of(v), rule.pure_master(v), "n={n} k={parts} v={v}");
            }
            // Past the node count, beyond the last start, everything belongs
            // to the last partition.
            for v in [n as Node, n as Node + 1, (n as Node).saturating_mul(3), Node::MAX] {
                assert_eq!(resolved.of(v), parts - 1, "n={n} k={parts} v={v}");
            }
        }
        // n < k, n == k, k = 1, k = 64, and blocks that do not divide n.
        for (n, k) in [(10u64, 3u32), (7, 7), (5, 8), (3, 64), (100, 16), (50, 1), (640, 64), (1000, 64)] {
            let even: Vec<u64> = (0..=k as u64).map(|p| p * n / k as u64).collect();
            check(&Contiguous::new(&setup(n, k, even.clone())), n, k);
            check(&ContiguousEB::new(&setup(n, k, even)), n, k);
        }
        // k > 255 (the count must not be a byte) and k in the thousands.
        for (n, k) in [(70_001u64, 300u32), (9_000, 5000)] {
            let even: Vec<u64> = (0..=k as u64).map(|p| p * n / k as u64).collect();
            check(&Contiguous::new(&setup(n, k, even.clone())), n, k);
            check(&ContiguousEB::new(&setup(n, k, even)), n, k);
        }
        // Edge-balanced boundaries with empty owned ranges: leading,
        // interior, trailing, and one partition owning everything.
        for b in [
            vec![0u64, 0, 3, 10],
            vec![0, 4, 4, 4, 9],
            vec![0, 2, 9, 9],
            vec![0, 0, 0, 6],
            vec![0, 6, 6, 6],
            vec![0, 1, 2, 3, 3, 3, 3, 3, 3],
        ] {
            let (n, k) = (*b.last().unwrap(), b.len() as PartId - 1);
            check(&ContiguousEB::new(&setup(n, k, b)), n, k);
        }
    }

    #[test]
    fn pure_resolver_never_communicates() {
        let g = Arc::new(erdos_renyi(200, 1000, 3));
        let out = Cluster::run(3, |comm| {
            comm.set_phase("master");
            let cfg = CuspConfig::default();
            let r = read_phase(comm, &GraphSource::Memory(g.clone()), &cfg).unwrap();
            let rule = ContiguousEB::new(&r.setup);
            let resolved = pure_masters(&rule, r.setup.parts);
            // Every host can resolve every node.
            (0..200u32).map(|v| resolved.of(v)).collect::<Vec<_>>()
        });
        for host in 1..3 {
            assert_eq!(out.results[host], out.results[0]);
        }
        assert_eq!(out.stats.phase("master").unwrap().total_bytes(), 0);
    }
}
