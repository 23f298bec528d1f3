//! Phase 5 — graph construction (paper Algorithm 4, §IV-B5, §IV-C3/D3).
//!
//! Each host re-walks its read edges, re-evaluating `getEdgeOwner`. The
//! replay must make the decisions edge assignment made, which for a
//! stateful rule needs its state reset first — so `construct` takes the
//! state only as a [`ReplayReady`] token, whose one constructor resets it.
//! Locally owned edges are inserted directly; remote edges are serialized —
//! per worker thread, into per-destination buffers — as
//! `(src, count, dsts…)` records and flushed once a buffer crosses the
//! configured threshold (§IV-D3). Because allocation reserved exact
//! per-node slots, every record — local or arrived — takes a window of its
//! row from allocation's one writer, [`Slots::reserve`], a lock-free
//! fetch-add cursor; no two records ever contend for the same slots.
//!
//! Records are inserted as they arrive, on every slice shape: the thread
//! whose `SendBuffers::record` has just flushed takes every record message
//! already arrived for this host and inserts it in place, and the host
//! thread drains again before each chunk and, blocking, after the walk.
//! All of it is one routine, `Drain::drain`, with one atomic `received` count.
//! A host thus consumes records as fast as it produces them, and the
//! receive queue is bounded by the flush threshold, not by the size of a
//! peer's slice. A worker that meets an aborted run there unwinds with the
//! cluster's own signal, which the pool re-raises on the host thread.
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
//! delta row is its kept run followed by its re-decided run.
//!
//! Under the `construct` phase span the phase records, through
//! `cusp-obs`, `construct.wait` (blocking for the records still in flight
//! once the local walk is done) and `construct.freeze`
//! ([`AllocOutcome::take_filled`]'s cursor check, giving the buffers their
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

use std::sync::atomic::{AtomicU64, Ordering};

use cusp_galois::{do_all_items, do_all_with_tid, PerThread, ThreadPool, DEFAULT_GRAIN};
use cusp_graph::{ChunkedSlice, Csr, Node};
use cusp_net::{Bytes, Comm, SendBuffers, WireReader};

use crate::config::{CuspConfig, OutputFormat};
use crate::phases::alloc::{AllocOutcome, Slots};
use crate::phases::edge_assign::EdgeFilter;
use crate::phases::master::ResolvedMasters;
use crate::phases::pipeline::{for_each_chunk, ReplayReady};
use crate::policy::{EdgeRule, Setup};
use crate::props::LocalProps;
use crate::state::PartitionState;
use crate::tags::TAG_EDGES;

/// The receiving half of construction, shared by the host thread and its
/// pool workers: the record messages still expected, counted in edges, and
/// the payload bytes inserted so far.
struct Drain<'a> {
    comm: &'a Comm,
    slots: &'a Slots<'a>,
    weighted: bool,
    to_receive: u64,
    received: AtomicU64,
    inserted: AtomicU64,
}

impl Drain<'_> {
    fn pending(&self) -> bool {
        self.received.load(Ordering::Relaxed) < self.to_receive
    }

    /// Takes every record message that has already arrived for this host —
    /// with `wait`, blocking for the first — and inserts it (§IV-C3): as a
    /// batch over `pool` between walks, or one message at a time, as it is
    /// taken, from inside a walk (`None`: a pool worker cannot fork the
    /// pool it runs on).
    fn drain(&self, pool: Option<&ThreadPool>, mut wait: bool) {
        let insert = |payload: &Bytes| {
            insert_message(self.slots, payload.clone());
            self.inserted.fetch_add(payload.len() as u64, Ordering::Relaxed);
        };
        let mut batch = Vec::new();
        while self.pending() {
            let next = if wait {
                Some(self.comm.recv_any(TAG_EDGES))
            } else {
                self.comm.try_recv_any(TAG_EDGES)
            };
            let Some((_src, payload)) = next else { break };
            wait = false;
            self.received.fetch_add(count_edges_in(&payload, self.weighted), Ordering::Relaxed);
            match pool {
                Some(_) => batch.push(payload),
                None => insert(&payload),
            }
        }
        if let Some(pool) = pool {
            // `do_all_items` runs one- or two-message batches inline.
            do_all_items(pool, &batch, 1, insert);
        }
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
    let drain = Drain {
        comm,
        slots: &slots,
        weighted,
        to_receive,
        received: AtomicU64::new(0),
        inserted: AtomicU64::new(0),
    };

    // Per-thread send buffers and per-destination bucket scratch,
    // allocated once for the whole phase (buckets are cleared per node,
    // buffers retain their capacity across flushes).
    struct ThreadState {
        buffers: SendBuffers,
        buckets: Vec<Vec<Node>>,
        wbuckets: Vec<Vec<u32>>,
    }
    let mut threads: PerThread<ThreadState> = PerThread::new(pool, |_| ThreadState {
        buffers: SendBuffers::new(k, cfg.buffer_threshold, TAG_EDGES),
        buckets: vec![Vec::new(); k],
        wbuckets: vec![Vec::new(); k],
    });

    // The source edges stream through one bounded chunk at a time (a whole
    // slice is a single chunk): replay and flush per chunk, so resident
    // edge state stays O(chunk) end to end. Whoever flushes a buffer also
    // takes what has arrived, so the receive queue stays O(threshold) too.
    for_each_chunk(data, |chunk| {
        // What arrived while the previous chunk was flushed.
        drain.drain(Some(pool), false);
        let prop = LocalProps::new(setup.num_nodes, setup.num_edges, setup.parts, chunk);
        let process = |tid: usize, j: usize| {
            let s = chunk.node_lo + j as Node;
            let edges = chunk.edges(s);
            if edges.is_empty() {
                return;
            }
            let whole = filter.whole_source(s);
            let sm = masters.of(s);
            let edge_data = chunk.edge_data(s);
            threads.with(tid, |ts| {
                for b in ts.buckets.iter_mut() {
                    b.clear();
                }
                for b in ts.wbuckets.iter_mut() {
                    b.clear();
                }
                for (i, &d) in edges.iter().enumerate() {
                    if !filter.edge(whole, d) {
                        continue;
                    }
                    let dm = masters.of(d);
                    let h = rule.get_edge_owner(&prop, s, d, sm, dm, estate);
                    ts.buckets[h as usize].push(d);
                    if let Some(data) = edge_data {
                        ts.wbuckets[h as usize].push(data[i]);
                    }
                }
                for (h, bucket) in ts.buckets.iter().enumerate() {
                    if bucket.is_empty() {
                        continue;
                    }
                    let wbucket = weighted.then(|| ts.wbuckets[h].as_slice());
                    if h == me {
                        insert_record(&slots, s, bucket, wbucket);
                    } else {
                        let flushed = ts.buffers.record(comm, h, |w| {
                            w.put_u32(s);
                            w.put_u32(bucket.len() as u32);
                            // Raw runs: one codec pass per run, not a call
                            // per edge.
                            w.put_u32_raw_slice(bucket);
                            if let Some(ws) = wbucket {
                                w.put_u32_raw_slice(ws);
                            }
                        });
                        if flushed {
                            drain.drain(None, false);
                        }
                    }
                }
            });
        };

        if ER::State::STATELESS {
            do_all_with_tid(pool, chunk.num_nodes(), DEFAULT_GRAIN, process);
        } else {
            // Deterministic replay for stateful edge rules (same node order
            // as edge assignment, within and across chunks).
            for j in 0..chunk.num_nodes() {
                process(0, j);
            }
        }

        // Flush residual buffers from every thread, so in-flight serialized
        // edges never accumulate beyond the chunk just processed.
        for ts in threads.iter_mut() {
            ts.buffers.flush_all(comm);
        }
    });
    drop(threads);
    let walked = drain.inserted.load(Ordering::Relaxed);
    cusp_obs::counter("construct.drained_walk", walked);

    // Block for the remaining edge records, one message at a time plus
    // whatever else arrived with it.
    let wait_span = cusp_obs::span("construct.wait");
    while drain.pending() {
        drain.drain(Some(pool), true);
    }
    assert_eq!(drain.received.into_inner(), to_receive, "received more edges than expected");
    drop(wait_span);
    cusp_obs::counter("construct.drained_wait", drain.inserted.into_inner() - walked);

    // The freeze, up to the returned (possibly transposed) graph.
    let _freeze_span = cusp_obs::span("construct.freeze");
    let (csr, data) = alloc.take_filled();
    match (cfg.output, data) {
        (OutputFormat::Csr, data) => (csr, data),
        // "each host performs an in-memory transpose of their CSR graph to
        // construct (without communication) their CSC graph" (Alg. 4).
        (OutputFormat::Csc, None) => (csr.transpose(), None),
        (OutputFormat::Csc, Some(data)) => {
            let (t, td) = csr.transpose_with_data(&data);
            (t, Some(td))
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
    use crate::phases::alloc::{allocate, MasterSpec};
    use crate::phases::edge_assign::{assign_edges, AllEdges};
    use crate::phases::master::pure_masters;
    use crate::phases::read::read_phase;
    use crate::policies::edges::SourceEdge;
    use crate::policies::masters::ContiguousEB;
    use crate::policy::MasterRule;
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
            let masters = pure_masters(&mrule, r.setup.parts);
            let mut ea =
                assign_edges(comm, &pool, &r.setup, &mut r.data, &masters, &SourceEdge, &());
            // Reserve one slot more than the replay will fill.
            ea.incoming_srcs[0].1 += 1;
            let spec = MasterSpec::PureRange(mrule.pure_owned_range(0));
            let weighted = r.data.weighted();
            let mut alloc = allocate(0, &pool, spec, ea.clone(), weighted);
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
}
