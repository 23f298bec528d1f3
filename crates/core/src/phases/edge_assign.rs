//! Phase 3 — edge assignment (paper Algorithm 3, §IV-B3, §IV-D2).
//!
//! Each host walks its locally read edges, calls `getEdgeOwner` for every
//! edge, and tallies — per destination host — how many edges of each of
//! its source vertices will be sent there and which destination proxies
//! the receiver must create as mirrors. The tallies are exchanged as
//! *positional vectors* (index `i` ↦ the `i`-th node of the sender's read
//! range) so no node-id metadata is sent for sources (§IV-D2); hosts with
//! nothing to send transmit a one-byte "empty" message instead.
//!
//! The walk itself is `tally_edges`, generic over an `EdgeFilter`: this
//! phase runs it over `AllEdges`, `partition_delta` over its dirty set —
//! one `getEdgeOwner` call site for both. Its per-edge body is kept to a
//! few instructions, because for pure master rules it *is* the replicated
//! computation that stands in for master communication (§IV-D5): both
//! master lookups are forced inline ([`ResolvedMasters::of`]), the grid
//! rules read the owner from tables, the count goes into a per-thread
//! `k`-entry row that is stored once per source (chunks are node-aligned,
//! so one task finishes a source), and the destination is marked in its
//! owner's row of the worker's own `NodeBitRows` for every edge, one
//! plain `|=` — no division, no atomic read-modify-write and no
//! data-dependent branch per edge, no push list to flatten and sort
//! afterwards. The workers' rows are ORed together once the walk has
//! joined, and whether a marked destination is a *mirror* (mastered
//! elsewhere) is asked once per set bit when the union is scanned, not once
//! per edge.
//!
//! Both walks hand their tally to one exchange, `exchange`, which starts
//! from what the host already holds — nothing on a full run, the kept
//! edges on a delta run — so a delta run sends the full run's positional
//! messages. Each received message is decoded by one function, which
//! checks the frame's kind and shape against the sender's read range before
//! sizing anything from it.
//!
//! Under the `edge_assign` phase span the phase records, through
//! `cusp-obs`, `edge_assign.tally` (the walk and the scan of its rows) and
//! `edge_assign.exchange` (sending the tallies, receiving the peers' and
//! merging them), on the full and the delta path alike, and one
//! `mem.edge_assign_outcome` counter after them.
//!
//! Everything the exchange delivers arrives as one ascending run per sender
//! (positions, bitset scans), so the received lists are put in order with
//! `merge_runs`, not with a comparison sort.
//!
//! On top of Algorithm 3 the exchange also carries the master locations a
//! receiver cannot compute itself when the master rule is not pure: the
//! masters of incoming sources (compacted against the count vector), of
//! mirror destinations, and the list of nodes the receiver is master of
//! ("more master assignments are sent if the edge assigned to a host does
//! not contain the master proxies of its endpoints", §IV-D5).

use std::sync::atomic::{AtomicU32, Ordering};

use cusp_galois::{do_all_with_tid, PerThread, ThreadPool, DEFAULT_GRAIN};
use cusp_graph::{ChunkedSlice, Node, ReadSplit};
use cusp_net::{Bytes, Comm, WireReader, WireWriter};

use crate::dist_graph::vec_bytes;
use crate::phases::bitset::ThreadRows;
use crate::phases::master::ResolvedMasters;
use crate::phases::pipeline::for_each_chunk;
use crate::policy::{EdgeRule, Setup};
use crate::props::LocalProps;
use crate::state::PartitionState;
use crate::tags::{META_EMPTY, META_FULL, TAG_EDGE_META};
use crate::PartId;

/// Everything a host learns in the edge assignment phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeAssignOutcome {
    /// Sources whose edges land on this partition: `(global id, edges,
    /// master partition)`. Includes locally kept sources.
    pub incoming_srcs: Vec<(Node, u32, PartId)>,
    /// Destination proxies this partition must create whose master lives
    /// elsewhere: `(global id, master partition)`, deduplicated.
    pub mirrors: Vec<(Node, PartId)>,
    /// Nodes whose master proxy belongs on this partition. `None` when the
    /// master rule is pure (the owner range is computed, not communicated).
    pub my_master_nodes: Option<Vec<Node>>,
    /// Edges this host will receive from peers during construction.
    pub to_receive: u64,
}

impl EdgeAssignOutcome {
    /// Heap bytes of the outcome's lists (capacities, not lengths).
    pub fn heap_bytes(&self) -> u64 {
        vec_bytes(&self.incoming_srcs)
            + vec_bytes(&self.mirrors)
            + self.my_master_nodes.as_ref().map_or(0, vec_bytes)
    }
}

/// Which of a host's read edges a walk decides. Both edge-walking phases
/// take it as a generic parameter, so the full pipeline ([`AllEdges`])
/// monomorphises to an unfiltered loop and the delta path (a `DirtySet`)
/// skips clean edges in the same loop, with the source half of the test
/// hoisted out of the per-edge body.
pub(crate) trait EdgeFilter: Sync {
    /// Hoisted once per source: does `s` alone select all of its edges?
    fn whole_source(&self, s: Node) -> bool;
    /// Is the edge to `d` walked, given its source's `whole_source`?
    fn edge(&self, whole_source: bool, d: Node) -> bool;
}

/// The full pipeline's filter: every edge, decided at compile time.
pub(crate) struct AllEdges;

impl EdgeFilter for AllEdges {
    #[inline(always)]
    fn whole_source(&self, _s: Node) -> bool {
        true
    }
    #[inline(always)]
    fn edge(&self, _whole_source: bool, _d: Node) -> bool {
        true
    }
}

/// The local tally (Algorithm 3, lines 1–6) over the edges `filter`
/// selects: `counts[h * local_n + i]` edges of node `lo + i` owned by host
/// `h`, and per owner the sorted, deduplicated destinations it must create
/// as mirrors. The positional tally (host-major, so each peer's vector is
/// one contiguous run) and the mirror bitset cover the whole range
/// (O(nodes) resident); edge payloads stream through one bounded chunk at a
/// time.
pub(crate) fn tally_edges<ER: EdgeRule, F: EdgeFilter>(
    pool: &ThreadPool,
    setup: &Setup,
    data: &mut ChunkedSlice,
    masters: &ResolvedMasters,
    rule: &ER,
    estate: &ER::State,
    filter: &F,
) -> (Vec<u32>, Vec<Vec<Node>>) {
    let _span = cusp_obs::span("edge_assign.tally");
    let k = setup.parts as usize;
    let lo = data.node_lo();
    let local_n = data.num_nodes();
    // Atomic only so that tasks may share the table: every cell belongs to
    // one source, hence to one task, which stores it at most once.
    let counts: Vec<AtomicU32> = (0..k * local_n).map(|_| AtomicU32::new(0)).collect();
    // Row `h`: the destinations of the edges `h` owns, one copy per worker.
    let dest_bits = ThreadRows::new(pool, k, setup.num_nodes as usize);
    // Per-thread tally of the source being walked, all zero between sources.
    let rows: PerThread<Vec<u32>> = PerThread::new(pool, |_| vec![0u32; k]);

    for_each_chunk(data, |chunk| {
        let prop = LocalProps::new(setup.num_nodes, setup.num_edges, setup.parts, chunk);
        let base = (chunk.node_lo - lo) as usize;
        let process = |tid: usize, j: usize| {
            let s = chunk.node_lo + j as Node;
            let edges = chunk.edges(s);
            if edges.is_empty() {
                return;
            }
            let whole = filter.whole_source(s);
            let sm = masters.of(s);
            rows.with(tid, |row| {
                dest_bits.with(tid, |bits| {
                    for &d in edges {
                        if !filter.edge(whole, d) {
                            continue;
                        }
                        let dm = masters.of(d);
                        let h = rule.get_edge_owner(&prop, s, d, sm, dm, estate);
                        debug_assert!(h < setup.parts);
                        row[h as usize] += 1;
                        // Marked whether or not `h` masters `d`: under a 2D
                        // cut that test is a coin flip per edge, so it is
                        // made once per set bit in the scan below instead.
                        bits.mark(h as usize, d);
                    }
                });
                for (h, c) in row.iter_mut().enumerate() {
                    if *c != 0 {
                        counts[h * local_n + base + j].store(*c, Ordering::Relaxed);
                        *c = 0;
                    }
                }
            });
        };
        if ER::State::STATELESS {
            // Dynamic chunking absorbs the wildly uneven per-node cost of
            // power-law hubs (§IV-C1).
            do_all_with_tid(pool, chunk.num_nodes(), DEFAULT_GRAIN, process);
        } else {
            // Stateful edge rules replay during construction; sequential
            // node order (within and across chunks) keeps the decision
            // stream deterministic (see EdgeRule docs).
            for j in 0..chunk.num_nodes() {
                process(0, j);
            }
        }
    });

    // An owner's mirrors are its destinations mastered elsewhere. Every
    // marked `d` went through `masters.of` in the walk, so stored masters
    // know it too.
    let dest_bits = dest_bits.union();
    let mirrors_for = (0..k)
        .map(|h| dest_bits.ones(h).filter(|&d| masters.of(d) as usize != h).collect())
        .collect();
    (counts.into_iter().map(AtomicU32::into_inner).collect(), mirrors_for)
}

/// Sorts `items`, a concatenation of ascending runs, by merging
/// neighbouring runs until one is left — `O(len · log runs)`. What the
/// exchange delivers, and what allocation builds from it, arrives as a
/// handful of runs (one per sender, each in node order), which a comparison
/// sort would take apart and rediscover.
pub(crate) fn merge_runs<T: Copy + Ord>(mut items: Vec<T>) -> Vec<T> {
    // Run starts, closed by the total length.
    let mut bounds = vec![0];
    bounds.extend((1..items.len()).filter(|&i| items[i] < items[i - 1]));
    bounds.push(items.len());
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    while bounds.len() > 2 {
        let mut merged = vec![0];
        for w in bounds.windows(3).step_by(2) {
            let (mut a, mut b) = (&items[w[0]..w[1]], &items[w[1]..w[2]]);
            while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
                if y < x {
                    out.push(y);
                    b = &b[1..];
                } else {
                    out.push(x);
                    a = &a[1..];
                }
            }
            out.extend_from_slice(a);
            out.extend_from_slice(b);
            merged.push(out.len());
        }
        if out.len() < items.len() {
            // An odd run out: carried to the next round as it is.
            out.extend_from_slice(&items[out.len()..]);
            merged.push(out.len());
        }
        std::mem::swap(&mut items, &mut out);
        out.clear();
        bounds = merged;
    }
    items
}

/// Runs the edge assignment phase: the tally over every edge, exchanged
/// from an empty outcome.
pub fn assign_edges<ER: EdgeRule>(
    comm: &Comm,
    pool: &ThreadPool,
    setup: &Setup,
    data: &mut ChunkedSlice,
    masters: &ResolvedMasters,
    rule: &ER,
    estate: &ER::State,
) -> EdgeAssignOutcome {
    let tally = tally_edges(pool, setup, data, masters, rule, estate, &AllEdges);
    exchange(comm, setup, masters, tally, EdgeAssignOutcome::default())
}

/// Number of nonzero entries of a count vector.
fn nonzero(counts: &[u32]) -> usize {
    counts.iter().filter(|&&c| c > 0).count()
}

/// Algorithm 3's exchange (lines 7–14) of `tally`, this host's
/// [`tally_edges`] over its read range: sends every peer its positional
/// vector (or the one-byte empty message), then adds this host's own part
/// and every peer's to `held` — what the host holds before the exchange:
/// nothing on a full run, the kept edges' outcome on a delta run
/// ([`crate::phases::delta::partition_delta`]). Records the outcome's heap
/// as `mem.edge_assign_outcome`.
pub(crate) fn exchange(
    comm: &Comm,
    setup: &Setup,
    masters: &ResolvedMasters,
    (counts, mut mirrors_for): (Vec<u32>, Vec<Vec<Node>>),
    held: EdgeAssignOutcome,
) -> EdgeAssignOutcome {
    let span = cusp_obs::span("edge_assign.exchange");
    let me = comm.host();
    let k = comm.num_hosts();
    let lo = setup.read_splits[me].lo as Node;
    let local_n = setup.read_splits[me].len() as usize;
    debug_assert_eq!(counts.len(), k * local_n, "a tally covers the read range once per host");

    // Masters of my read range, bucketed by owning partition (stored only).
    let pure = masters.is_pure();
    let mut master_buckets: Vec<Vec<Node>> = vec![Vec::new(); k];
    if !pure {
        for i in 0..local_n {
            let v = lo + i as Node;
            master_buckets[masters.of(v) as usize].push(v);
        }
    }

    for peer in 0..k {
        if peer == me {
            continue;
        }
        let count_slice = &counts[peer * local_n..(peer + 1) * local_n];
        let sources = nonzero(count_slice);
        let empty = sources == 0 && mirrors_for[peer].is_empty() && master_buckets[peer].is_empty();
        if empty {
            let mut w = WireWriter::with_capacity(1);
            w.put_u8(META_EMPTY);
            comm.send_bytes(peer, TAG_EDGE_META, w.finish());
            continue;
        }
        // Every run's length is known here; sizing the buffer for all of
        // them spares regrowing (and copying) a multi-megabyte message.
        let stored_bytes = if pure {
            0
        } else {
            (8 + sources * 4) + mirrors_for[peer].len() * 4 + (8 + master_buckets[peer].len() * 4)
        };
        let mut w = WireWriter::with_capacity(
            1 + 8 + local_n * 4 + 8 + mirrors_for[peer].len() * 4 + stored_bytes,
        );
        w.put_u8(META_FULL);
        w.put_u64(local_n as u64);
        // Raw runs carry no length prefix: one codec pass per run.
        w.put_u32_raw_slice(count_slice);
        if !pure {
            // Compacted masters of nonzero-count sources, in position order.
            let compacted: Vec<u32> = (0..local_n)
                .filter(|&i| count_slice[i] > 0)
                .map(|i| masters.of(lo + i as Node))
                .collect();
            w.put_u32_slice(&compacted);
        }
        w.put_u64(mirrors_for[peer].len() as u64);
        if pure {
            w.put_u32_raw_slice(&mirrors_for[peer]);
        } else {
            let run: Vec<u32> = mirrors_for[peer].iter().flat_map(|&d| [d, masters.of(d)]).collect();
            w.put_u32_raw_slice(&run);
            w.put_u32_slice(&master_buckets[peer]);
        }
        comm.send_bytes(peer, TAG_EDGE_META, w.finish());
    }

    // This host's own part (h == me), after what it held.
    let EdgeAssignOutcome { mut incoming_srcs, mut mirrors, my_master_nodes, to_receive } = held;
    debug_assert!(my_master_nodes.is_none(), "a held outcome carries no master list");
    let my_counts = &counts[me * local_n..(me + 1) * local_n];
    incoming_srcs.reserve_exact(nonzero(my_counts));
    for (i, &c) in my_counts.iter().enumerate() {
        if c > 0 {
            let s = lo + i as Node;
            incoming_srcs.push((s, c, masters.of(s)));
        }
    }
    let mine = std::mem::take(&mut mirrors_for[me]);
    mirrors.reserve_exact(mine.len());
    mirrors.extend(mine.into_iter().map(|d| (d, masters.of(d))));
    let mut ea = EdgeAssignOutcome {
        incoming_srcs,
        mirrors,
        my_master_nodes: (!pure).then(|| std::mem::take(&mut master_buckets[me])),
        to_receive,
    };

    for _ in 0..k - 1 {
        let (src, payload) = comm.recv_any(TAG_EDGE_META);
        ea.add_peer_tally(src, &setup.read_splits[src], masters, payload);
    }

    // One ascending run per sender (the held lists two), and a mirror may
    // repeat across them.
    ea.mirrors = merge_runs(std::mem::take(&mut ea.mirrors));
    ea.mirrors.dedup();
    // Likewise one ascending list per reader; readers never share a node.
    ea.my_master_nodes = ea.my_master_nodes.map(merge_runs);
    if let Some(v) = &ea.my_master_nodes {
        debug_assert!(v.windows(2).all(|w| w[0] != w[1]), "duplicate master claims");
    }
    drop(span);
    cusp_obs::counter("mem.edge_assign_outcome", ea.heap_bytes());
    ea
}

impl EdgeAssignOutcome {
    /// Adds host `src`'s tally message, positional over its read range
    /// `sender`, to the outcome. The frame's kind, its vector's length and
    /// every announced run are checked before anything is sized from them
    /// or added; a frame that fails panics naming the peer.
    fn add_peer_tally(&mut self, src: usize, sender: &ReadSplit, masters: &ResolvedMasters, payload: Bytes) {
        let mut r = WireReader::new(payload);
        match r.get_u8() {
            Ok(META_EMPTY) => {
                let extra = r.remaining();
                assert!(extra == 0, "host {src} sent {extra} byte(s) after its empty tally");
                return;
            }
            Ok(META_FULL) => {}
            Ok(kind) => panic!("host {src} sent edge-assignment message kind {kind}"),
            Err(_) => panic!("host {src} sent an empty edge-assignment message"),
        }
        let pure = masters.is_pure();
        let n = r.get_u64().unwrap_or_else(|e| panic!("host {src} sent a tally without a length: {e}"));
        let want = sender.len();
        assert!(n == want, "host {src} sent a tally of {n} node(s) for its read range of {want}");
        let mut counts = vec![0u32; n as usize];
        r.get_u32_into(&mut counts)
            .unwrap_or_else(|e| panic!("host {src} announced a tally of {n} node(s): {e}"));
        let sources = nonzero(&counts);
        let compacted = (!pure).then(|| {
            let v = r.get_u32_vec().unwrap_or_else(|e| panic!("host {src} sent no source masters: {e}"));
            let got = v.len();
            assert!(got == sources, "host {src} sent {got} master(s) for its {sources} source(s)");
            v
        });
        let nm = r.get_u64().unwrap_or_else(|e| panic!("host {src} sent no mirror count: {e}"));
        let width = if pure { 1 } else { 2 };
        let left = r.remaining() as u64;
        assert!(
            nm.checked_mul(4 * width).is_some_and(|bytes| bytes <= left),
            "host {src} announced {nm} mirror(s) with {left} byte(s) left"
        );
        let mut mirror_run = vec![0u32; (nm * width) as usize];
        r.get_u32_into(&mut mirror_run).expect("the mirror run's bytes were counted");
        let master_list = (!pure).then(|| {
            r.get_u32_vec().unwrap_or_else(|e| panic!("host {src} sent no master list: {e}"))
        });
        let extra = r.remaining();
        assert!(extra == 0, "host {src} sent {extra} byte(s) after its tally");

        self.incoming_srcs.reserve(sources);
        let mut sms = compacted.iter().flatten();
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let s = (sender.lo + i as u64) as Node;
            let sm = sms.next().copied().unwrap_or_else(|| masters.of(s));
            self.incoming_srcs.push((s, c, sm));
            self.to_receive += c as u64;
        }
        if pure {
            self.mirrors.extend(mirror_run.into_iter().map(|d| (d, masters.of(d))));
        } else {
            self.mirrors.extend(mirror_run.chunks_exact(2).map(|p| (p[0], p[1])));
        }
        if let Some(list) = master_list {
            self.my_master_nodes.as_mut().expect("stored mode").extend(list);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CuspConfig, GraphSource};
    use crate::phases::master::{pure_masters, range_owner, MasterTable};
    use crate::phases::read::read_phase;
    use crate::policies::edges::{CartesianEdge, SourceEdge};
    use crate::policies::extensions::HdrfEdge;
    use crate::policies::masters::{Contiguous, ContiguousEB};
    use crate::policy::MasterRule;
    use cusp_graph::gen::powerlaw::{powerlaw, PowerLawConfig};
    use cusp_graph::gen::uniform::erdos_renyi;
    use cusp_graph::{GraphSlice, ReadSplit};
    use cusp_net::Cluster;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    fn run_eec(k: usize, n: usize, m: usize) -> (Arc<cusp_graph::Csr>, Vec<EdgeAssignOutcome>) {
        let g = Arc::new(erdos_renyi(n, m, 31));
        let g2 = Arc::clone(&g);
        let out = Cluster::run(k, move |comm| {
            let cfg = CuspConfig::default();
            let pool = ThreadPool::new(2);
            let mut r = read_phase(comm, &GraphSource::Memory(g2.clone()), &cfg).unwrap();
            let rule = ContiguousEB::new(&r.setup);
            let masters = pure_masters(&rule, r.setup.parts).unwrap();
            assign_edges(comm, &pool, &r.setup, &mut r.data, &masters, &SourceEdge, &())
        });
        (g, out.results)
    }

    #[test]
    fn eec_keeps_all_edges_local() {
        // EEC (ContiguousEB + Source with default edge-balanced reading):
        // owner == reading host for every edge, so nothing is received.
        let (g, outcomes) = run_eec(4, 400, 4000);
        let mut total_edges = 0u64;
        for o in &outcomes {
            assert_eq!(o.to_receive, 0, "EEC must not exchange edges");
            total_edges += o.incoming_srcs.iter().map(|&(_, c, _)| c as u64).sum::<u64>();
        }
        assert_eq!(total_edges, g.num_edges());
    }

    #[test]
    fn eec_mirror_masters_point_correctly() {
        let (_g, outcomes) = run_eec(4, 400, 4000);
        for (h, o) in outcomes.iter().enumerate() {
            for &(_, dm) in &o.mirrors {
                assert_ne!(dm as usize, h, "a mirror's master must be remote");
                assert!((dm as usize) < 4);
            }
            // incoming srcs for EEC are all locally mastered.
            for &(_, _, sm) in &o.incoming_srcs {
                assert_eq!(sm as usize, h);
            }
        }
    }

    #[test]
    fn counts_conserve_edges_for_remote_policy() {
        // Force all edges to host (src+1) % k via a custom rule.
        #[derive(Clone)]
        struct NextHost;
        impl EdgeRule for NextHost {
            type State = ();
            const CLASS: crate::PartitionClass = crate::PartitionClass::GeneralVertexCut;
            fn get_edge_owner(
                &self,
                prop: &LocalProps,
                _s: Node,
                _d: Node,
                src_master: PartId,
                _dm: PartId,
                _st: &(),
            ) -> PartId {
                (src_master + 1) % prop.num_partitions()
            }
        }
        let g = Arc::new(erdos_renyi(300, 2700, 5));
        let g2 = Arc::clone(&g);
        let out = Cluster::run(3, move |comm| {
            let cfg = CuspConfig::default();
            let pool = ThreadPool::new(2);
            let mut r = read_phase(comm, &GraphSource::Memory(g2.clone()), &cfg).unwrap();
            let rule = ContiguousEB::new(&r.setup);
            let masters = pure_masters(&rule, r.setup.parts).unwrap();
            assign_edges(comm, &pool, &r.setup, &mut r.data, &masters, &NextHost, &())
        });
        let total_recv: u64 = out.results.iter().map(|o| o.to_receive).sum();
        let total_incoming: u64 = out
            .results
            .iter()
            .flat_map(|o| o.incoming_srcs.iter().map(|&(_, c, _)| c as u64))
            .sum();
        assert_eq!(total_incoming, g.num_edges());
        // Every edge moved off its reading host (reading split == master
        // split under default config).
        assert_eq!(total_recv, g.num_edges());
    }

    /// The tally a naive walk produces for host range `lo..hi`: a map of
    /// `(owner, source) → edges` and the set of `(owner, mirror)` pairs,
    /// with masters taken from the edge-balanced boundaries themselves, not
    /// from `ResolvedMasters`.
    #[allow(clippy::type_complexity)]
    fn naive_tally<ER: EdgeRule>(
        g: &cusp_graph::Csr,
        setup: &Setup,
        (lo, hi): (Node, Node),
        rule: &ER,
    ) -> (BTreeMap<(PartId, Node), u32>, BTreeSet<(PartId, Node)>) {
        let slice = GraphSlice::window(Arc::new(g.clone()), None, lo, hi);
        let prop = LocalProps::new(setup.num_nodes, setup.num_edges, setup.parts, &slice);
        let estate = ER::State::new(setup.parts);
        let inner = &setup.eb_boundaries[1..setup.parts as usize];
        let master = |v: Node| inner.partition_point(|&b| b <= v as u64) as PartId;
        let (mut counts, mut mirrors) = (BTreeMap::new(), BTreeSet::new());
        for s in lo..hi {
            for &d in g.edges(s) {
                let (sm, dm) = (master(s), master(d));
                let h = rule.get_edge_owner(&prop, s, d, sm, dm, &estate);
                *counts.entry((h, s)).or_insert(0) += 1;
                if h != dm {
                    mirrors.insert((h, d));
                }
            }
        }
        (counts, mirrors)
    }

    fn check_tally_matches_naive<ER: EdgeRule>(make_rule: impl Fn(&Setup) -> ER) {
        check_tally_with_masters(make_rule, |_, mrule, parts, _| pure_masters(mrule, parts).unwrap());
    }

    /// `resolve(graph, master rule, parts, read range)` builds the masters
    /// the tally of that read range looks up. Pools of 1, 2 and 4 threads,
    /// whose workers mark rows of their own, give one output.
    fn check_tally_with_masters<ER: EdgeRule>(
        make_rule: impl Fn(&Setup) -> ER,
        resolve: impl Fn(&cusp_graph::Csr, &Contiguous, PartId, (Node, Node)) -> ResolvedMasters,
    ) {
        let n = 700usize;
        let g = Arc::new(powerlaw(PowerLawConfig::webcrawl(n, 9.0, 77)));
        let pools = [1, 2, 4].map(ThreadPool::new);
        let mut saw_mirrors = false;
        for parts in [1u32, 3, 4] {
            // Uneven master blocks (quadratic boundaries) over even read
            // ranges, so masters and readers disagree.
            let k = parts as u64;
            let setup = Setup {
                num_nodes: n as u64,
                num_edges: g.num_edges(),
                parts,
                eb_boundaries: Arc::new((0..=k).map(|p| p * p * n as u64 / (k * k)).collect()),
                read_splits: Arc::new(
                    (0..k)
                        .map(|p| ReadSplit { lo: p * n as u64 / k, hi: (p + 1) * n as u64 / k })
                        .collect(),
                ),
            };
            let mrule = ContiguousEB::new(&setup);
            let rule = make_rule(&setup);
            for split in setup.read_splits.iter() {
                let (lo, hi) = (split.lo as Node, split.hi as Node);
                let masters = resolve(&g, &mrule, parts, (lo, hi));
                let (want_counts, want_mirrors) = naive_tally(&g, &setup, (lo, hi), &rule);
                saw_mirrors |= !want_mirrors.is_empty();
                for budget in [u64::MAX, 50] {
                    let tally = |pool: &ThreadPool| {
                        let mut data = ChunkedSlice::from_csr(g.clone(), None, lo, hi, budget);
                        let estate = ER::State::new(parts);
                        tally_edges(pool, &setup, &mut data, &masters, &rule, &estate, &AllEdges)
                    };
                    let one = tally(&pools[0]);
                    for pool in &pools[1..] {
                        let label = format!("k={parts} lo={lo} budget={budget} threads={}", pool.threads());
                        assert!(tally(pool) == one, "{label}");
                    }
                    let (counts, mirrors_for) = one;
                    let local_n = (hi - lo) as usize;
                    let got_counts: BTreeMap<(PartId, Node), u32> = counts
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(i, &c)| (((i / local_n) as PartId, lo + (i % local_n) as Node), c))
                        .collect();
                    assert_eq!(got_counts, want_counts, "counts: k={parts} lo={lo} budget={budget}");
                    assert_eq!(mirrors_for.len(), parts as usize);
                    for (h, got) in mirrors_for.iter().enumerate() {
                        let want: Vec<Node> = want_mirrors
                            .iter()
                            .filter(|&&(o, _)| o as usize == h)
                            .map(|&(_, d)| d)
                            .collect();
                        assert_eq!(got, &want, "mirrors: k={parts} lo={lo} owner={h} budget={budget}");
                    }
                }
            }
        }
        assert!(saw_mirrors, "no mirrors anywhere: the comparison is vacuous");
    }

    #[test]
    fn tally_matches_naive_reference_for_a_stateless_rule() {
        check_tally_matches_naive(CartesianEdge::new);
    }

    #[test]
    fn tally_matches_naive_reference_for_a_stateful_rule() {
        // HDRF decides from its history: both walks are sequential in node
        // order from a fresh state, so the decision streams must agree.
        check_tally_matches_naive(HdrfEdge::new);
    }

    #[test]
    fn tally_matches_naive_reference_for_stored_masters() {
        // What `assign_masters` leaves on a host: its read range dense, and
        // of the rest only the destinations of its own edges. The mirror
        // filter runs in the scan after the walk and must neither ask for a
        // node outside that set nor read the pure table.
        check_tally_with_masters(CartesianEdge::new, |g, mrule, parts, (lo, hi)| {
            let table = MasterTable::new(g.num_nodes(), parts);
            for v in (lo..hi).chain((lo..hi).flat_map(|s| g.edges(s).iter().copied())) {
                table.set(v, range_owner(mrule.pure_starts().unwrap(), v));
            }
            ResolvedMasters::Stored(table)
        });
    }

    /// A stored table that lacks the master of a destination of the read
    /// range stops the walk at the lookup, naming the id.
    #[test]
    fn a_stored_walk_of_an_unknown_master_panics_naming_it() {
        let g = Arc::new(erdos_renyi(50, 400, 9));
        let setup = Setup {
            num_nodes: 50,
            num_edges: g.num_edges(),
            parts: 2,
            eb_boundaries: Arc::new(vec![0, 25, 50]),
            read_splits: Arc::new(vec![ReadSplit { lo: 0, hi: 25 }, ReadSplit { lo: 25, hi: 50 }]),
        };
        // Known: everything but one destination that host 0 does not read.
        let remote = (0..25).flat_map(|s| g.edges(s).iter().copied()).find(|&d| d >= 25);
        let missing = remote.expect("a remote edge");
        let table = MasterTable::new(50, 2);
        (0..50).filter(|&v| v != missing).for_each(|v| table.set(v, v % 2));
        let masters = ResolvedMasters::Stored(table);
        let pool = ThreadPool::new(2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut data = ChunkedSlice::from_csr(g.clone(), None, 0, 25, u64::MAX);
            let rule = CartesianEdge::new(&setup);
            tally_edges(&pool, &setup, &mut data, &masters, &rule, &(), &AllEdges)
        }))
        .expect_err("a destination's master is unknown");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert_eq!(msg, &format!("master of {missing} unknown on this host"));
    }

    #[test]
    fn merge_runs_sorts_any_run_structure() {
        for input in [
            vec![],
            vec![7],
            vec![1, 2, 3, 4],
            vec![5, 9, 1, 9, 12, 0, 0, 3],
            vec![4, 5, 6, 1, 2, 3, 7, 8, 0],
            (0..50u32).rev().collect(),
        ] {
            let mut want = input.clone();
            want.sort();
            assert_eq!(merge_runs(input), want);
        }
    }

    /// Host 1's tally message over a four-node read range: `counts`, then
    /// the compacted source masters (stored masters only), the mirrors
    /// (with their masters when stored) and the master list (stored only).
    fn tally_frame(n: u64, counts: &[u32], stored: bool, mirrors: &[u32]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u8(META_FULL);
        w.put_u64(n);
        w.put_u32_raw_slice(counts);
        if stored {
            w.put_u32_slice(&[1, 0]);
        }
        w.put_u64((mirrors.len() / if stored { 2 } else { 1 }) as u64);
        w.put_u32_raw_slice(mirrors);
        if stored {
            w.put_u32_slice(&[2]);
        }
        w.finish().to_vec()
    }

    #[test]
    fn malformed_tally_messages_are_refused() {
        let setup = Setup {
            num_nodes: 20,
            num_edges: 100,
            parts: 2,
            eb_boundaries: Arc::new(vec![0, 10, 20]),
            read_splits: Arc::new(vec![ReadSplit { lo: 0, hi: 10 }, ReadSplit { lo: 10, hi: 14 }]),
        };
        let pure = pure_masters(&ContiguousEB::new(&setup), 2).unwrap();
        let stored = ResolvedMasters::Stored(MasterTable::new(20, 2));
        let sender = setup.read_splits[1];
        let receive = |masters: &ResolvedMasters, payload: Vec<u8>| {
            let mut ea = EdgeAssignOutcome {
                my_master_nodes: (!masters.is_pure()).then(Vec::new),
                ..EdgeAssignOutcome::default()
            };
            let before = ea.clone();
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ea.add_peer_tally(1, &sender, masters, Bytes::from(payload))
            }));
            (got, ea, before)
        };
        let refused = |masters: &ResolvedMasters, payload: Vec<u8>, expect: &str| {
            let (got, ea, before) = receive(masters, payload);
            let err = got.expect_err(expect);
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("panic message");
            assert!(msg.contains(expect), "expected {expect:?} in {msg:?}");
            assert_eq!(ea, before, "{expect}: the outcome changed");
        };

        let good = tally_frame(4, &[0, 2, 0, 1], false, &[3, 5]);
        let (got, ea, _) = receive(&pure, good.clone());
        assert!(got.is_ok());
        assert_eq!(ea.incoming_srcs, vec![(11, 2, 1), (13, 1, 1)]);
        assert_eq!(ea.mirrors, vec![(3, 0), (5, 0)]);
        assert_eq!(ea.to_receive, 3);

        refused(&pure, Vec::new(), "host 1 sent an empty edge-assignment message");
        refused(&pure, vec![9], "host 1 sent edge-assignment message kind 9");
        refused(&pure, vec![META_EMPTY, 0], "host 1 sent 1 byte(s) after its empty tally");
        // A vector one node longer than the sender reads would credit node 14.
        refused(&pure, tally_frame(5, &[0, 2, 0, 1, 4], false, &[3]), "tally of 5 node(s) for its read range of 4");
        refused(&pure, tally_frame(3, &[0, 2, 0], false, &[3]), "tally of 3 node(s) for its read range of 4");
        // A length that would size a buffer of 2^61 counts if trusted.
        refused(&pure, tally_frame(1 << 61, &[], false, &[]), "tally of 2305843009213693952 node(s)");
        refused(&pure, good[..1 + 8 + 12].to_vec(), "announced a tally of 4 node(s)");
        refused(&pure, good[..good.len() - 4].to_vec(), "announced 2 mirror(s) with 4 byte(s) left");
        refused(&pure, [&good[..], &[0]].concat(), "host 1 sent 1 byte(s) after its tally");

        let good = tally_frame(4, &[0, 2, 0, 1], true, &[3, 1, 5, 0]);
        let (got, ea, _) = receive(&stored, good.clone());
        assert!(got.is_ok());
        assert_eq!(ea.incoming_srcs, vec![(11, 2, 1), (13, 1, 0)]);
        assert_eq!(ea.mirrors, vec![(3, 1), (5, 0)]);
        assert_eq!(ea.my_master_nodes, Some(vec![2]));
        refused(&stored, tally_frame(4, &[0, 2, 0, 0], true, &[]), "sent 2 master(s) for its 1 source(s)");
        // The master list gone and the second mirror pair cut short.
        refused(&stored, good[..good.len() - 21].to_vec(), "announced 2 mirror(s) with 7 byte(s) left");
    }

    #[test]
    fn mirrors_are_deduplicated() {
        let (_g, outcomes) = run_eec(4, 300, 6000);
        for o in &outcomes {
            let mut seen = std::collections::HashSet::new();
            for &(d, _) in &o.mirrors {
                assert!(seen.insert(d), "mirror {d} listed twice");
            }
        }
    }
}
