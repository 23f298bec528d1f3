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
//!   in `sync_rounds` chunks; after each chunk the host *asynchronously*
//!   sends state deltas and newly assigned masters to the peers that
//!   requested them, and drains whatever has arrived without blocking —
//!   "at the end of a round, if a host finds it has received no data,
//!   it will continue onto the next round" (§IV-D5).
//!
//! The masters map is demand-driven (§IV-D5): a host only ever receives
//! assignments for nodes it asked for — the destinations of its locally
//! read edges — keeping the map proportional to its slice, not the graph.
//! The request set is marked per edge in a dense bitset
//! ([`NodeBitRows`]) and read back sorted and duplicate-free.

// The explicit `for i in 0..n` indexing in the SPMD/scan loops below is
// deliberate (it mirrors per-host/per-block protocol structure).
#![allow(clippy::needless_range_loop)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

use cusp_galois::{do_all, ThreadPool, DEFAULT_GRAIN};
use cusp_graph::Node;
use cusp_net::{Comm, WireReader, WireWriter};

use crate::config::CuspConfig;
use crate::phases::bitset::NodeBitRows;
use crate::phases::pipeline::SliceData;
use crate::policy::{MasterRule, MasterView, Setup, UNASSIGNED};
use crate::props::LocalProps;
use crate::state::PartitionState;
use crate::tags::{MSG_FINAL, MSG_SYNC, TAG_MASTER_REQ, TAG_MASTER_SYNC};
use crate::PartId;

/// Dense lookup table for the masters of requested remote nodes.
///
/// Built once from the sparse protocol-time map after master resolution.
/// The edge-assignment and construction inner loops call
/// [`ResolvedMasters::of`] up to twice *per edge*, so the `HashMap` the sync
/// protocol accumulates into is frozen here: when the requested ids span a
/// window comparable to their count, lookup is a bounds check plus an array
/// load (holes hold [`UNASSIGNED`]); for pathologically sparse id sets it
/// falls back to binary search over the sorted ids.
#[derive(Debug, PartialEq, Eq)]
pub struct RemoteMasters {
    /// Requested node ids, sorted ascending.
    keys: Vec<Node>,
    /// Master of `keys[i]`.
    vals: Vec<PartId>,
    /// First id covered by `window` (meaningful only when non-empty).
    window_lo: Node,
    /// Dense id → master table covering `window_lo..window_lo + len`.
    window: Vec<PartId>,
}

impl RemoteMasters {
    /// Freezes a protocol-time map into the dense lookup form.
    pub fn from_map(map: &HashMap<Node, PartId>) -> Self {
        let mut pairs: Vec<(Node, PartId)> = map.iter().map(|(&v, &p)| (v, p)).collect();
        pairs.sort_unstable_by_key(|&(v, _)| v);
        let (keys, vals) = pairs.into_iter().unzip();
        Self::from_sorted(keys, vals)
    }

    /// Builds the lookup form from strictly ascending `keys` and their
    /// masters (what [`RemoteMasters::iter`] yields — the checkpoint's
    /// durable form).
    pub(crate) fn from_sorted(keys: Vec<Node>, vals: Vec<PartId>) -> Self {
        debug_assert!(keys.len() == vals.len() && keys.windows(2).all(|w| w[0] < w[1]));
        let (window_lo, window) = match (keys.first(), keys.last()) {
            (Some(&lo), Some(&hi)) => {
                let span = (hi - lo) as usize + 1;
                // Remote dests of a contiguous read range tend to blanket
                // the id space, so the dense form almost always applies; the
                // cap only guards against degenerate sparse sets (a few ids
                // scattered across billions).
                if span <= keys.len().saturating_mul(4).saturating_add(1024) {
                    let mut window = vec![UNASSIGNED; span];
                    for (&v, &p) in keys.iter().zip(&vals) {
                        window[(v - lo) as usize] = p;
                    }
                    (lo, window)
                } else {
                    (0, Vec::new())
                }
            }
            _ => (0, Vec::new()),
        };
        RemoteMasters { keys, vals, window_lo, window }
    }

    /// The master of `v`, or `None` if the protocol never delivered it.
    #[inline]
    pub fn get(&self, v: Node) -> Option<PartId> {
        if !self.window.is_empty() {
            let off = v.wrapping_sub(self.window_lo) as usize;
            return self.window.get(off).copied().filter(|&m| m != UNASSIGNED);
        }
        self.search(v)
    }

    /// The sparse fallback of [`RemoteMasters::get`], out of line so the
    /// window load is all that inlines into the per-edge loops.
    #[inline(never)]
    fn search(&self, v: Node) -> Option<PartId> {
        self.keys.binary_search(&v).ok().map(|i| self.vals[i])
    }

    /// Number of stored assignments.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no remote assignments were requested.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates `(node, master)` pairs in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (Node, PartId)> + '_ {
        self.keys.iter().copied().zip(self.vals.iter().copied())
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
    /// Assignments are stored: dense for the local read range, dense-window
    /// (or sorted-array) for the requested remote nodes.
    Stored {
        /// First node of the locally read range.
        lo: Node,
        /// Master of each node in the local range.
        local: Vec<PartId>,
        /// Masters of the requested remote nodes.
        remote: RemoteMasters,
    },
}

impl ResolvedMasters {
    /// The master partition of `v`. Panics if the protocol did not deliver
    /// it (which would be a driver bug, not a user error).
    ///
    /// Called up to twice per edge by both edge walks, so it is forced
    /// inline — as a call it costs more than the lookup, and a plain
    /// `#[inline]` hint loses against the size of the stored arm — and what
    /// is neither the count nor a window load (the sparse search, the panic)
    /// sits in a function of its own.
    #[inline(always)]
    pub fn of(&self, v: Node) -> PartId {
        match self {
            // The owner is the number of range starts at or below `v`. A
            // branch-free count over the few starts beats a binary search
            // with its unpredictable branches, and vectorizes.
            ResolvedMasters::Pure { starts } => starts.iter().map(|&b| (b <= v) as PartId).sum(),
            ResolvedMasters::Stored { lo, local, remote } => {
                match local.get(v.wrapping_sub(*lo) as usize) {
                    Some(&m) => {
                        debug_assert_ne!(m, UNASSIGNED);
                        m
                    }
                    None => remote.get(v).unwrap_or_else(|| unknown_master(v)),
                }
            }
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

/// Runs the master assignment phase for a non-pure rule.
///
/// `sends_counter` style accounting is inherited from `comm` (the driver
/// sets the phase label before calling).
pub fn assign_masters<MR: MasterRule>(
    comm: &Comm,
    pool: &ThreadPool,
    setup: &Setup,
    data: &mut SliceData,
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

    // --- Step 1: request the masters of my edges' destinations. --------
    let needed = remote_dests(pool, data, setup);
    let mut per_peer_requests: Vec<Vec<Node>> = vec![Vec::new(); k];
    for &d in &needed {
        per_peer_requests[setup.reader_of(d)].push(d);
    }
    for peer in 0..k {
        if peer == me {
            continue;
        }
        let mut w = WireWriter::with_capacity(8 + per_peer_requests[peer].len() * 4);
        w.put_u32_slice(&per_peer_requests[peer]);
        comm.send_bytes(peer, TAG_MASTER_REQ, w.finish());
    }
    // requested_by[peer]: nodes of MY range that `peer` wants, sorted.
    let mut requested_by: Vec<Vec<Node>> = vec![Vec::new(); k];
    for _ in 0..k - 1 {
        let (src, payload) = comm.recv_any(TAG_MASTER_REQ);
        let mut r = WireReader::new(payload);
        requested_by[src] = r.get_u32_vec().expect("malformed master request");
        debug_assert!(requested_by[src].windows(2).all(|w| w[0] < w[1]));
    }

    // --- Step 2: assignment loop with periodic asynchronous sync. ------
    let local: Vec<AtomicU32> = (0..local_n).map(|_| AtomicU32::new(UNASSIGNED)).collect();
    let mut remote: HashMap<Node, PartId> = HashMap::with_capacity(needed.len());

    let rounds = if rule.uses_neighbor_masters() {
        cfg.sync_rounds.max(1) as usize
    } else {
        1
    };
    let stateful = !MR::State::STATELESS;
    let chunk = local_n.div_ceil(rounds).max(1);
    // Cursor into requested_by[peer] for masters already sent.
    let mut sent_cursor = vec![0usize; k];
    let mut delta_buf: Vec<u64> = Vec::new();
    // FINAL messages may arrive while we are still in our round loop (a
    // fast peer); count them wherever they show up.
    let mut finals = 0usize;

    let mut start = 0usize;
    for round in 0..rounds {
        let end = (start + chunk).min(local_n);
        if start < end {
            let view = MasterView::Stored {
                lo,
                local: &local,
                remote: &remote,
            };
            let parallel =
                rule.uses_neighbor_masters() && pool.threads() > 1 && !cfg.deterministic_sync;
            // Stream the round's node range chunk by chunk; for monolithic
            // data this is a single pass over the resident slice.
            data.for_chunks_in(lo + start as Node..lo + end as Node, |chunk, sub| {
                let prop = LocalProps::new(setup.num_nodes, setup.num_edges, setup.parts, chunk);
                let base = (sub.start - lo) as usize;
                let n = (sub.end - sub.start) as usize;
                if parallel {
                    // Parallel within the chunk; neighbor lookups see fresh
                    // local assignments through the atomics (Galois-style
                    // thread-safe, non-deterministic streaming).
                    do_all(pool, n, DEFAULT_GRAIN, |j| {
                        let v = sub.start + j as Node;
                        let m = rule.get_master(&prop, v, state, &view);
                        debug_assert!(m < setup.parts);
                        local[base + j].store(m, Ordering::Relaxed);
                    });
                } else {
                    for j in 0..n {
                        let v = sub.start + j as Node;
                        let m = rule.get_master(&prop, v, state, &view);
                        debug_assert!(m < setup.parts);
                        local[base + j].store(m, Ordering::Relaxed);
                    }
                }
            });
        }
        start = end;
        let last = round + 1 == rounds;
        if last {
            break;
        }
        // Send SYNC: state delta + newly assignable requested masters.
        if stateful {
            state.take_delta(&mut delta_buf);
        } else {
            delta_buf.clear();
        }
        let assigned_below = lo + start as Node;
        for peer in 0..k {
            if peer == me {
                continue;
            }
            let reqs = &requested_by[peer];
            let mut pairs: Vec<(Node, PartId)> = Vec::new();
            let mut cur = sent_cursor[peer];
            while cur < reqs.len() && reqs[cur] < assigned_below {
                let idx = (reqs[cur] - lo) as usize;
                pairs.push((reqs[cur], local[idx].load(Ordering::Relaxed)));
                cur += 1;
            }
            sent_cursor[peer] = cur;
            if !cfg.deterministic_sync && pairs.is_empty() && delta_buf.iter().all(|&v| v == 0) {
                continue; // nothing new for this peer this round
            }
            comm.send_bytes(peer, TAG_MASTER_SYNC, encode_sync(MSG_SYNC, &delta_buf, &pairs));
        }
        if cfg.deterministic_sync {
            // Lockstep rounds: every host sent one SYNC to every peer above
            // (no skip-empty elision), so blocking-receive exactly one from
            // each peer, in host order. Per-channel FIFO guarantees this is
            // the peer's round-`round` SYNC, making the state every chunk
            // observes a pure function of the config and seed.
            for peer in 0..k {
                if peer == me {
                    continue;
                }
                let payload = comm.recv_from(peer, TAG_MASTER_SYNC);
                if apply_sync::<MR>(payload, state, &mut remote) {
                    finals += 1;
                }
            }
        } else {
            // Drain whatever peers have sent, without blocking.
            while let Some((_src, payload)) = comm.try_recv_any(TAG_MASTER_SYNC) {
                if apply_sync::<MR>(payload, state, &mut remote) {
                    finals += 1;
                }
            }
        }
    }

    // --- Step 3: final flush and blocking reconciliation. --------------
    if stateful {
        state.take_delta(&mut delta_buf);
    } else {
        delta_buf.clear();
    }
    for peer in 0..k {
        if peer == me {
            continue;
        }
        let reqs = &requested_by[peer];
        let pairs: Vec<(Node, PartId)> = reqs[sent_cursor[peer]..]
            .iter()
            .map(|&v| (v, local[(v - lo) as usize].load(Ordering::Relaxed)))
            .collect();
        comm.send_bytes(peer, TAG_MASTER_SYNC, encode_sync(MSG_FINAL, &delta_buf, &pairs));
    }
    if cfg.deterministic_sync {
        // Fixed-order reconciliation: drain each peer's channel through its
        // FINAL, in host order, so state folds apply in the same order on
        // every run.
        for peer in 0..k {
            if peer == me {
                continue;
            }
            loop {
                let payload = comm.recv_from(peer, TAG_MASTER_SYNC);
                if apply_sync::<MR>(payload, state, &mut remote) {
                    finals += 1;
                    break;
                }
            }
        }
        debug_assert_eq!(finals, k - 1);
    } else {
        while finals < k - 1 {
            let (_src, payload) = comm.recv_any(TAG_MASTER_SYNC);
            if apply_sync::<MR>(payload, state, &mut remote) {
                finals += 1;
            }
        }
    }

    debug_assert_eq!(remote.len(), needed.len(), "unanswered master requests");
    ResolvedMasters::Stored {
        lo,
        local: local.into_iter().map(|a| a.into_inner()).collect(),
        // Freeze the protocol-time map into the dense form the per-edge
        // lookups in edge assignment and construction read from.
        remote: RemoteMasters::from_map(&remote),
    }
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
fn remote_dests(pool: &ThreadPool, data: &mut SliceData, setup: &Setup) -> Vec<Node> {
    let local = data.node_lo()..data.node_hi();
    let remote = NodeBitRows::new(1, setup.num_nodes as usize);
    data.for_each_chunk(|chunk| {
        do_all(pool, chunk.num_nodes(), DEFAULT_GRAIN, |i| {
            for &d in chunk.edges(chunk.node_lo + i as Node) {
                if !local.contains(&d) {
                    remote.mark(0, d);
                }
            }
        });
    });
    remote.ones(0).collect()
}

fn encode_sync(kind: u8, delta: &[u64], pairs: &[(Node, PartId)]) -> bytes::Bytes {
    let mut w = WireWriter::with_capacity(1 + 8 + delta.len() * 8 + 8 + pairs.len() * 8);
    w.put_u8(kind);
    w.put_u64_slice(delta);
    w.put_u64(pairs.len() as u64);
    for &(v, p) in pairs {
        w.put_u32(v);
        w.put_u32(p);
    }
    w.finish()
}

/// Applies a SYNC/FINAL message; returns true if it was FINAL.
fn apply_sync<MR: MasterRule>(
    payload: bytes::Bytes,
    state: &MR::State,
    remote: &mut HashMap<Node, PartId>,
) -> bool {
    let mut r = WireReader::new(payload);
    let kind = r.get_u8().expect("empty sync message");
    let delta = r.get_u64_vec().expect("malformed sync delta");
    if !MR::State::STATELESS && !delta.is_empty() {
        state.apply_remote(&delta);
    }
    let n = r.get_u64().expect("malformed sync pairs") as usize;
    for _ in 0..n {
        let v = r.get_u32().expect("malformed pair");
        let p = r.get_u32().expect("malformed pair");
        remote.insert(v, p);
    }
    kind == MSG_FINAL
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

    fn run_assignment<MR: MasterRule>(
        k: usize,
        rule_of: impl Fn(&Setup) -> MR + Sync,
        rounds: u32,
    ) -> Vec<(Node, Vec<PartId>, RemoteMasters)> {
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
            match assign_masters(comm, &pool, &r.setup, &mut r.data, &rule, &state, &cfg) {
                ResolvedMasters::Stored { lo, local, remote } => (lo, local, remote),
                _ => unreachable!(),
            }
        });
        out.results
    }

    #[test]
    fn stateless_rule_assignments_are_consistent_across_hosts() {
        let results = run_assignment(4, |_s| ModRule, 1);
        // Every remote entry must equal what the owner computed locally.
        for (_, _, remote) in &results {
            assert!(!remote.is_empty());
            for (v, p) in remote.iter() {
                assert_eq!(p, v % 4, "remote master of {v} wrong");
                assert_eq!(remote.get(v), Some(p));
            }
        }
        // Local arrays complete.
        for (lo, local, _) in &results {
            for (i, &m) in local.iter().enumerate() {
                assert_eq!(m, (lo + i as u32) % 4);
            }
        }
    }

    #[test]
    fn fennel_assignments_complete_and_agree() {
        for rounds in [1u32, 4, 32] {
            let results = run_assignment(4, FennelEB::new, rounds);
            // Build the global truth from local arrays.
            let mut truth: HashMap<Node, PartId> = HashMap::new();
            for (lo, local, _) in &results {
                for (i, &m) in local.iter().enumerate() {
                    assert_ne!(m, UNASSIGNED);
                    assert!(m < 4);
                    truth.insert(lo + i as u32, m);
                }
            }
            assert_eq!(truth.len(), 300);
            // Remote views agree with the truth.
            for (_, _, remote) in &results {
                for (v, p) in remote.iter() {
                    assert_eq!(p, truth[&v], "rounds={rounds}: master of {v} diverged");
                }
            }
        }
    }

    #[test]
    fn remote_masters_dense_and_sparse_forms_agree() {
        // Dense: contiguous-ish ids → window form.
        let dense: HashMap<Node, PartId> =
            (100u32..400).filter(|v| v % 3 != 0).map(|v| (v, v % 5)).collect();
        let rm = RemoteMasters::from_map(&dense);
        assert_eq!(rm.len(), dense.len());
        for v in 0u32..500 {
            assert_eq!(rm.get(v), dense.get(&v).copied(), "dense get({v})");
        }
        // Sparse: ids scattered far beyond the dense-window cap → sorted
        // array + binary search.
        let sparse: HashMap<Node, PartId> =
            (0u32..8).map(|i| (i.wrapping_mul(100_000_003), i)).collect();
        let rm = RemoteMasters::from_map(&sparse);
        assert_eq!(rm.len(), sparse.len());
        for (&v, &p) in &sparse {
            assert_eq!(rm.get(v), Some(p));
            assert_eq!(rm.get(v ^ 1), sparse.get(&(v ^ 1)).copied());
        }
        // Empty map.
        let rm = RemoteMasters::from_map(&HashMap::new());
        assert!(rm.is_empty());
        assert_eq!(rm.get(0), None);
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
