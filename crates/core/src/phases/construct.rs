//! Phase 5 — graph construction (paper Algorithm 4, §IV-B5, §IV-C3/D3).
//!
//! Each host re-walks its read edges, re-evaluating `getEdgeOwner`. The
//! replay must make the decisions edge assignment made, which for a
//! stateful rule needs its state reset first — so `construct` takes the
//! state only as a [`ReplayReady`] token, whose one constructor resets it.
//! Locally owned edges are inserted directly; remote edges are serialized
//! as `(src, count, dsts…)` records into per-destination buffers and
//! flushed once a buffer crosses the configured threshold (§IV-D3).
//! Because allocation reserved exact per-node slots, every record — local
//! or arrived — takes a window of its row from allocation's one writer,
//! `Slots::reserve`, a lock-free fetch-add cursor; no two records ever
//! contend for the same slots.
//!
//! The message stream is a function of the input, not of the thread
//! count. Each chunk is cut into node-aligned *send blocks* of at most
//! `SEND_BLOCK_EDGES` edges, by the chunk's offsets alone. The pool
//! walks one *wave* of blocks at a time; a block's local records go
//! straight into their slots and its remote records into the block's own
//! bytes, each record's peer and extent kept. The host thread then hands
//! the wave's records, in block order and one at a time, to the host's
//! one [`SendBuffers`], which flushes at threshold crossings and, after
//! the chunk's last wave, flushes what is left. So every channel carries
//! the records in source order, cut where one sequential walk would cut
//! them: the same messages at every thread count and block size, which is
//! what recovery's replay needs — a restarted host re-sends exactly the
//! messages its peers deduplicate. A stateful rule walks the same blocks,
//! a wave of one, one after another in node order.
//!
//! Records are inserted as they arrive, on every slice shape: before each
//! wave the host thread takes every record message already arrived, and
//! the wave's fork inserts them beside its walk; after the walk it takes
//! the rest, blocking, and inserts them over the pool. Both go through
//! one routine, `Drain::take`. A host thus consumes records as fast as it
//! produces them: what it has not sent is at most one wave of blocks, and
//! what waits in its receive queue at most what its peers sent during one
//! wave.
//!
//! Nothing is sorted, and the full pipeline needs no sort to be
//! deterministic. A source is read by one host and walked by one task,
//! which buckets all of its edges for owner `h` into one record, so each
//! row of a full run is filled by exactly one reservation, in input order:
//! the input row filtered to this host's edges and localised, whatever the
//! arrival order, thread count or chunking (the paper's Alg. 4 inserts
//! the same way).
//!
//! `construct` takes the same `EdgeFilter` as edge assignment's tally:
//! the full pipeline replays every edge, `partition_delta` — having copied
//! its kept edges into the allocation first — only the dirty ones, so a
//! delta row is its kept run followed by its re-decided run. Rows are
//! keyed by source up to the freeze, whose CSC transpose (Alg. 4, line 13)
//! is the one change of orientation; `source_rows` inverts it.
//!
//! Under the `construct` phase span the phase records, through
//! `cusp-obs`, `construct.wait` (blocking for the records still in flight
//! once the local walk is done) and `construct.freeze`
//! (`AllocOutcome::take_filled`'s cursor check, giving the buffers their
//! length and building the CSR, and, for CSC output, the transpose), and
//! two counters, `construct.drained_walk` and
//! `construct.drained_wait`: the record bytes inserted during the walk
//! and after it, together every byte the host received.
//!
//! The byte path is bulk end to end: destination/weight runs are encoded
//! with the wire codec's memcpy slice ops, incoming messages are sized by
//! skip-scanning record headers in O(records), and destination runs are
//! decoded straight from the received payload into the record's reserved
//! window (weights are a straight memcpy). The bytes are those of the
//! element-by-element encoding, a property the slice codec's own tests
//! (`cusp_graph::wire`) hold it to.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Mutex;

use cusp_galois::{do_all, do_all_items, ThreadPool};
use cusp_graph::{chunk_boundaries, ChunkedSlice, Csr, Node};
use cusp_net::{Bytes, Comm, HostId, SendBuffers, WireReader, WireWriter};

use crate::config::{CuspConfig, OutputFormat};
use crate::dist_graph::DistGraph;
use crate::phases::alloc::{AllocOutcome, Slots};
use crate::phases::edge_assign::EdgeFilter;
use crate::phases::master::ResolvedMasters;
use crate::phases::pipeline::{for_each_chunk, ReplayReady};
use crate::policy::{EdgeRule, Setup};
use crate::props::LocalProps;
use crate::state::PartitionState;
use crate::tags::TAG_EDGES;

/// The edge budget of a send block (a node of higher degree is a block of
/// its own). It sets how the walk is shared out, never where a message
/// ends.
const SEND_BLOCK_EDGES: u64 = 1 << 13;

/// Blocks in a wave, per pool thread: enough for the pool to balance a
/// wave, few enough that a wave's unsent records stay small.
const BLOCKS_PER_THREAD: usize = 4;

/// One send block's walk: the remote records it serialized, back to back,
/// and every record's peer and byte range, in walk order; plus the
/// per-destination bucket scratch. Kept across waves, so the buffers
/// retain their capacity, and a cache line apart, since the pool walks
/// neighbouring blocks at once.
#[repr(align(128))]
struct Block {
    out: WireWriter,
    records: Vec<(HostId, Range<usize>)>,
    buckets: Vec<Vec<Node>>,
    wbuckets: Vec<Vec<u32>>,
}

impl Block {
    fn new(hosts: usize) -> Self {
        Block {
            out: WireWriter::new(),
            records: Vec::new(),
            buckets: vec![Vec::new(); hosts],
            wbuckets: vec![Vec::new(); hosts],
        }
    }
}

/// The receiving half of construction: the record messages still
/// expected, counted in edges, and the payload bytes inserted so far.
struct Drain<'a> {
    comm: &'a Comm,
    weighted: bool,
    to_receive: u64,
    received: u64,
    inserted: u64,
}

impl Drain<'_> {
    fn pending(&self) -> bool {
        self.received < self.to_receive
    }

    /// Takes every record message that has already arrived for this host —
    /// with `wait`, blocking for the first — for the caller to insert
    /// (§IV-C3).
    fn take(&mut self, mut wait: bool) -> Vec<Bytes> {
        let mut batch = Vec::new();
        while self.pending() {
            let next = if wait {
                Some(self.comm.recv_any(TAG_EDGES))
            } else {
                self.comm.try_recv_any(TAG_EDGES)
            };
            let Some((_src, payload)) = next else { break };
            wait = false;
            self.received += count_edges_in(&payload, self.weighted);
            self.inserted += payload.len() as u64;
            batch.push(payload);
        }
        batch
    }
}

/// Runs the construction phase over the edges `filter` selects (every edge
/// for the full pipeline; the dirty ones for the delta path, which has
/// already copied the rest into `alloc`) and returns the local CSR (or CSC).
#[allow(clippy::too_many_arguments)]
pub(crate) fn construct<ER: EdgeRule, F: EdgeFilter>(
    comm: &Comm,
    pool: &ThreadPool,
    setup: &Setup,
    data: &mut ChunkedSlice,
    masters: &ResolvedMasters,
    rule: &ER,
    replay: ReplayReady<'_, ER::State>,
    alloc: &mut AllocOutcome,
    to_receive: u64,
    cfg: &CuspConfig,
    filter: &F,
) -> (Csr, Option<Vec<u32>>) {
    let me = comm.host();
    let k = comm.num_hosts();
    let estate = replay.state();
    let weighted = data.weighted();
    // Not a debug check: records carry a weight run exactly when the input
    // is weighted, and `insert_message` decodes one exactly when the
    // allocation has a weight buffer.
    assert_eq!(weighted, alloc.edge_data.is_some(), "weight buffer and input disagree");

    let slots = alloc.slots();
    let mut drain = Drain { comm, weighted, to_receive, received: 0, inserted: 0 };
    let mut sender = SendBuffers::new(k, cfg.buffer_threshold, TAG_EDGES);
    // A stateful rule decides in node order, so its waves are one block:
    // its blocks are walked one after another.
    let wave = if ER::State::STATELESS { BLOCKS_PER_THREAD * pool.threads() } else { 1 };
    let mut blocks: Vec<Mutex<Block>> = (0..wave).map(|_| Mutex::new(Block::new(k))).collect();

    // The source edges stream through one bounded chunk at a time (a whole
    // slice is a single chunk), flushed at its end, so resident edge state
    // stays O(chunk) end to end.
    for_each_chunk(data, |chunk| {
        let prop = LocalProps::new(setup.num_nodes, setup.num_edges, setup.parts, chunk);
        let walk = |nodes: Range<Node>, block: &mut Block| {
            let Block { out, records, buckets, wbuckets } = block;
            out.clear();
            records.clear();
            for s in nodes {
                let edges = chunk.edges(s);
                if edges.is_empty() {
                    continue;
                }
                let whole = filter.whole_source(s);
                let sm = masters.of(s);
                let edge_data = chunk.edge_data(s);
                buckets.iter_mut().for_each(Vec::clear);
                wbuckets.iter_mut().for_each(Vec::clear);
                for (i, &d) in edges.iter().enumerate() {
                    if !filter.edge(whole, d) {
                        continue;
                    }
                    let dm = masters.of(d);
                    let h = rule.get_edge_owner(&prop, s, d, sm, dm, estate) as usize;
                    buckets[h].push(d);
                    if let Some(data) = edge_data {
                        wbuckets[h].push(data[i]);
                    }
                }
                for (h, bucket) in buckets.iter().enumerate() {
                    if bucket.is_empty() {
                        continue;
                    }
                    let wbucket = weighted.then(|| wbuckets[h].as_slice());
                    if h == me {
                        insert_record(&slots, s, bucket, wbucket);
                        continue;
                    }
                    let start = out.len();
                    out.put_u32(s);
                    out.put_u32(bucket.len() as u32);
                    // Raw runs: one codec pass per run, not a call per edge.
                    out.put_u32_raw_slice(bucket);
                    if let Some(ws) = wbucket {
                        out.put_u32_raw_slice(ws);
                    }
                    records.push((h, start..out.len()));
                }
            }
        };

        let bounds = chunk_boundaries(chunk.offsets(), chunk.node_lo, SEND_BLOCK_EDGES);
        for first in (0..bounds.len() - 1).step_by(wave) {
            let here = &mut blocks[..wave.min(bounds.len() - 1 - first)];
            // What arrived while the previous wave was walked and sent,
            // inserted beside this wave's walk.
            let arrived = drain.take(false);
            do_all(pool, arrived.len() + here.len(), 1, |i| match i.checked_sub(arrived.len()) {
                None => insert_message(&slots, arrived[i].clone()),
                Some(b) => {
                    let mut block = here[b].lock().expect("a block is walked by one task");
                    walk(bounds[first + b]..bounds[first + b + 1], &mut block);
                }
            });
            for block in here.iter_mut() {
                let block = block.get_mut().expect("the wave has joined");
                for (h, range) in &block.records {
                    let bytes = &block.out.as_slice()[range.clone()];
                    sender.record(comm, *h, |w| w.put_raw(bytes));
                }
            }
        }
        sender.flush_all(comm);
    });
    drop(blocks);
    let walked = drain.inserted;
    cusp_obs::counter("construct.drained_walk", walked);

    // Block for the remaining edge records, one message at a time plus
    // whatever else arrived with it.
    let wait_span = cusp_obs::span("construct.wait");
    while drain.pending() {
        let arrived = drain.take(true);
        // `do_all_items` runs one- or two-message batches inline.
        do_all_items(pool, &arrived, 1, |payload| insert_message(&slots, payload.clone()));
    }
    assert_eq!(drain.received, to_receive, "received more edges than expected");
    drop(wait_span);
    cusp_obs::counter("construct.drained_wait", drain.inserted - walked);

    // The freeze, up to the returned (possibly transposed) graph.
    let _freeze_span = cusp_obs::span("construct.freeze");
    let (csr, data) = alloc.take_filled();
    match cfg.output {
        OutputFormat::Csr => (csr, data),
        // "each host performs an in-memory transpose of their CSR graph to
        // construct (without communication) their CSC graph" (Alg. 4).
        OutputFormat::Csc => csr.transpose_on(data.as_deref(), 1),
    }
}

/// A partition's rows keyed by source, and their edge data.
pub(crate) type SourceRows<'a> = (Cow<'a, Csr>, Option<Cow<'a, [u32]>>);

/// The freeze's inverse: the rows of `part`, built as `output`, keyed by
/// source; for CSC, transposed on at most `workers` threads.
pub(crate) fn source_rows(part: &DistGraph, output: OutputFormat, workers: usize) -> SourceRows<'_> {
    match output {
        OutputFormat::Csr => (Cow::Borrowed(&part.graph), part.edge_data.as_deref().map(Cow::Borrowed)),
        OutputFormat::Csc => {
            let (graph, data) = part.graph.transpose_on(part.edge_data.as_deref(), workers);
            (Cow::Owned(graph), data.map(Cow::Owned))
        }
    }
}

/// Inserts one record's destinations (and optional per-edge data) into a
/// window of its source's row, converting global destination ids to local
/// ids.
#[inline]
pub(crate) fn insert_record(slots: &Slots<'_>, src: Node, dsts: &[Node], weights: Option<&[u32]>) {
    let (dests, data) = slots.reserve(slots.local_of(src), dsts.len());
    for (slot, &d) in dests.iter_mut().zip(dsts) {
        *slot = slots.local_of(d);
    }
    if let Some(data) = data {
        let ws = weights.expect("a weighted allocation takes weighted records");
        assert_eq!(ws.len(), dsts.len(), "weight run shorter than its record");
        data.copy_from_slice(ws);
    }
}

/// Total edges carried by a message (sum of record counts): a skip-scan of
/// the record headers — O(records), not O(edges) — since the run lengths
/// alone determine the total.
pub(crate) fn count_edges_in(payload: &Bytes, weighted: bool) -> u64 {
    let mut r = WireReader::new(payload.clone());
    let per_edge = if weighted { 2 } else { 1 };
    let mut total = 0u64;
    while !r.is_exhausted() {
        let _src = r.get_u32().expect("malformed edge record");
        let cnt = r.get_u32().expect("malformed edge record") as u64;
        total += cnt;
        r.skip((cnt * per_edge) as usize * 4).expect("malformed edge record");
    }
    total
}

/// Deserializes a full message of records and inserts them, zero-copy:
/// each record's destination run is decoded from the payload directly into
/// its reserved window and localized in place, and the weight run is a
/// straight memcpy into the weight window — no intermediate `Vec` is
/// materialized. The records carry weights exactly when the allocation
/// has a weight buffer.
pub(crate) fn insert_message(slots: &Slots<'_>, payload: Bytes) {
    let mut r = WireReader::new(payload);
    while !r.is_exhausted() {
        let src = r.get_u32().expect("malformed edge record");
        let cnt = r.get_u32().expect("malformed edge record") as usize;
        let (dests, data) = slots.reserve(slots.local_of(src), cnt);
        r.get_u32_into(dests).expect("malformed edge record");
        for d in dests.iter_mut() {
            *d = slots.local_of(*d);
        }
        if let Some(data) = data {
            r.get_u32_into(data).expect("malformed edge record");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphSource;
    use crate::phases::alloc::allocate;
    use crate::phases::edge_assign::{assign_edges, AllEdges};
    use crate::phases::master::{pure_masters, MasterTable};
    use crate::phases::read::read_phase;
    use crate::policies::edges::SourceEdge;
    use crate::policies::masters::ContiguousEB;
    use cusp_graph::gen::uniform::erdos_renyi;
    use cusp_net::Cluster;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    #[should_panic(expected = "missing edges after construction")]
    fn an_unfilled_slot_panics_before_the_buffers_get_a_length() {
        let g = Arc::new(erdos_renyi(60, 400, 3));
        let weights = Arc::new((0..g.num_edges() as u32).collect::<Vec<u32>>());
        Cluster::run(1, move |comm| {
            let cfg = CuspConfig::default();
            let pool = ThreadPool::new(2);
            let source = GraphSource::MemoryWeighted(g.clone(), weights.clone());
            let mut r = read_phase(comm, &source, &cfg).unwrap();
            let mrule = ContiguousEB::new(&r.setup);
            let masters = pure_masters(&mrule, r.setup.parts).unwrap();
            let mut ea =
                assign_edges(comm, &pool, &r.setup, &mut r.data, &masters, &SourceEdge, &());
            // Reserve one slot more than the replay will fill.
            ea.incoming_srcs[0].1 += 1;
            let weighted = r.data.weighted();
            let mut alloc = allocate(0, &pool, &masters, r.setup.num_nodes, ea.clone(), weighted);
            let built = catch_unwind(AssertUnwindSafe(|| {
                construct(
                    comm,
                    &pool,
                    &r.setup,
                    &mut r.data,
                    &masters,
                    &SourceEdge,
                    ReplayReady::arm(&()),
                    &mut alloc,
                    ea.to_receive,
                    &cfg,
                    &AllEdges,
                )
            }));
            // The cursor check failed, so neither buffer may expose a slot.
            assert!(alloc.dests.is_empty(), "unfilled destination buffer got a length");
            assert!(alloc.edge_data.as_ref().is_none_or(Vec::is_empty), "unfilled weight buffer");
            if let Err(panic) = built {
                resume_unwind(panic);
            }
        });
    }

    /// Construction's walk looks each destination's stored master up as it
    /// decides the edge; one that is unknown stops it there, named. Node 5
    /// is a destination only, so no source lookup meets it.
    #[test]
    #[should_panic(expected = "master of 5 unknown on this host")]
    fn a_stored_walk_of_an_unknown_master_panics_naming_it() {
        let g = Arc::new(Csr::from_edges(6, &[(0, 1), (0, 5), (1, 2), (2, 5), (3, 4), (4, 0)]));
        Cluster::run(1, move |comm| {
            let cfg = CuspConfig::default();
            let pool = ThreadPool::new(2);
            let mut r = read_phase(comm, &GraphSource::Memory(g.clone()), &cfg).unwrap();
            let stored = |known: &dyn Fn(Node) -> bool| {
                let table = MasterTable::new(6, 1);
                (0..6).filter(|&v| known(v)).for_each(|v| table.set(v, 0));
                ResolvedMasters::Stored(table)
            };
            let all = stored(&|_| true);
            let ea = assign_edges(comm, &pool, &r.setup, &mut r.data, &all, &SourceEdge, &());
            let mut alloc = allocate(0, &pool, &all, r.setup.num_nodes, ea.clone(), false);
            construct(
                comm,
                &pool,
                &r.setup,
                &mut r.data,
                &stored(&|v| v != 5),
                &SourceEdge,
                ReplayReady::arm(&()),
                &mut alloc,
                ea.to_receive,
                &cfg,
                &AllEdges,
            );
        });
    }
}
