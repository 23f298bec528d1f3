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
//! per-node slots, arriving records are inserted with a lock-free
//! fetch-add cursor; no two records ever contend for the same slots.
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
//! once the local walk is done) and `construct.freeze` (the cursor check,
//! giving the buffers their length, building the CSR and, for CSC output,
//! the transpose).
//!
//! The byte path is bulk end to end: destination/weight runs are encoded
//! with the wire codec's memcpy slice ops, incoming messages are sized by
//! skip-scanning record headers in O(records), and destination runs are
//! decoded straight from the received payload into the record's reserved
//! CSR slots (weights are a straight memcpy). The bytes are those of the
//! element-by-element encoding, a property the slice codec's own tests
//! (`cusp_graph::wire`) hold it to.

use std::sync::atomic::Ordering;

use cusp_galois::{do_all_items, do_all_with_tid, PerThread, ThreadPool, DEFAULT_GRAIN};
use cusp_graph::{Csr, Node};
use cusp_net::{Bytes, Comm, SendBuffers, WireReader};

use crate::config::{CuspConfig, OutputFormat};
use crate::phases::alloc::AllocOutcome;
use crate::phases::edge_assign::EdgeFilter;
use crate::phases::master::ResolvedMasters;
use crate::phases::pipeline::{ReplayReady, SliceData};
use crate::policy::{EdgeRule, Setup};
use crate::props::LocalProps;
use crate::state::PartitionState;
use crate::tags::TAG_EDGES;

/// A raw-pointer window over the destination buffer so pool workers can
/// fill disjoint slot ranges concurrently.
pub(crate) struct DestPtr(pub(crate) *mut Node);
unsafe impl Send for DestPtr {}
unsafe impl Sync for DestPtr {}
impl DestPtr {
    #[inline]
    pub(crate) fn get(&self) -> *mut Node {
        self.0
    }
}

/// Same, for the optional per-edge data buffer (null when unweighted).
pub(crate) struct DataPtr(pub(crate) *mut u32);
unsafe impl Send for DataPtr {}
unsafe impl Sync for DataPtr {}
impl DataPtr {
    #[inline]
    pub(crate) fn get(&self) -> *mut u32 {
        self.0
    }
}

/// Raw windows over the preallocated CSR buffers of `alloc`, for
/// [`insert_record`] / [`insert_message`] to fill concurrently.
pub(crate) fn slot_ptrs(alloc: &mut AllocOutcome) -> (DestPtr, DataPtr) {
    let data = alloc.edge_data.as_mut().map_or(std::ptr::null_mut(), |d| d.as_mut_ptr());
    (DestPtr(alloc.dests.as_mut_ptr()), DataPtr(data))
}

/// Runs the construction phase over the edges `filter` selects (every edge
/// for the full pipeline; the dirty ones for the delta path, which has
/// already copied the rest into `alloc`) and returns the local CSR (or CSC).
#[allow(clippy::too_many_arguments)]
pub(crate) fn construct<ER: EdgeRule, F: EdgeFilter>(
    comm: &Comm,
    pool: &ThreadPool,
    setup: &Setup,
    data: &mut SliceData,
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
    // Not a debug check: the `set_len` below relies on the weight slots
    // being written exactly when they exist.
    assert_eq!(weighted, alloc.edge_data.is_some(), "weight buffer and input disagree");

    let (dest_ptr, data_ptr) = slot_ptrs(alloc);
    let alloc_ref: &AllocOutcome = alloc;

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

    let mut received = 0u64;
    let mut batch: Vec<Bytes> = Vec::new();
    // Takes every record message that already arrived, without blocking,
    // and deserializes and inserts the batch in parallel (§IV-C3;
    // `do_all_items` runs one- or two-message batches inline).
    let drain_arrived = |received: &mut u64, batch: &mut Vec<Bytes>| {
        while *received < to_receive {
            let Some((_src, p)) = comm.try_recv_any(TAG_EDGES) else { break };
            *received += count_edges_in(&p, weighted);
            batch.push(p);
        }
        do_all_items(pool, batch, 1, |payload| {
            insert_message(alloc_ref, &dest_ptr, &data_ptr, payload.clone(), weighted);
        });
        batch.clear();
    };

    // The source edges stream through one bounded chunk at a time (a whole
    // slice is a single chunk): replay, flush, and opportunistically drain
    // per chunk, so resident edge state stays O(chunk) end to end.
    data.for_each_chunk(|chunk| {
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
                        insert_record(alloc_ref, &dest_ptr, &data_ptr, s, bucket, wbucket);
                    } else {
                        ts.buffers.record(comm, h, |w| {
                            w.put_u32(s);
                            w.put_u32(bucket.len() as u32);
                            // Raw runs: one codec pass per run, not a call
                            // per edge.
                            w.put_u32_raw_slice(bucket);
                            if let Some(ws) = wbucket {
                                w.put_u32_raw_slice(ws);
                            }
                        });
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

        // Opportunistically drain records that already arrived, so the
        // receive queue cannot grow to hold a whole remote slice.
        drain_arrived(&mut received, &mut batch);
    });
    drop(threads);

    // Block for the remaining edge records, one message at a time plus
    // whatever else arrived with it.
    let wait_span = cusp_obs::span("construct.wait");
    while received < to_receive {
        let (_src, payload) = comm.recv_any(TAG_EDGES);
        received += count_edges_in(&payload, weighted);
        batch.push(payload);
        drain_arrived(&mut received, &mut batch);
    }
    assert_eq!(received, to_receive, "received more edges than expected");
    drop(wait_span);

    // The freeze, up to the returned (possibly transposed) graph.
    let _freeze_span = cusp_obs::span("construct.freeze");
    // Every reserved slot must be filled.
    for (l, cursor) in alloc.cursors.iter().enumerate() {
        assert_eq!(
            cursor.load(Ordering::Relaxed),
            alloc.offsets[l + 1],
            "node with local id {l} is missing edges after construction"
        );
    }

    let total = alloc.offsets[alloc.cursors.len()] as usize;
    let mut dests = std::mem::take(&mut alloc.dests);
    let mut data = alloc.edge_data.take();
    assert!(dests.capacity() >= total && data.as_ref().is_none_or(|d| d.capacity() >= total));
    // SAFETY: both buffers have capacity `total` (just checked) and come
    // from allocation with length 0 and each cursor at its node's
    // `offsets[l]`. Every write went through `reserve_slots`, which hands out
    // disjoint ranges of `offsets[l]..offsets[l + 1]` by advancing that
    // cursor, and `insert_record` / `insert_message` write a whole range
    // (its weight run too whenever the weight buffer exists) or panic. The
    // cursor assertion above — every cursor reached `offsets[l + 1]` — thus
    // proves that slots `0..total` of both buffers are initialized.
    unsafe {
        dests.set_len(total);
        if let Some(d) = &mut data {
            d.set_len(total);
        }
    }
    let csr = Csr::from_parts(std::mem::take(&mut alloc.offsets), dests);
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

/// Reserves `cnt` contiguous CSR slots for a record of `src` and returns
/// the first slot index.
#[inline]
pub(crate) fn reserve_slots(alloc: &AllocOutcome, src: Node, cnt: usize) -> usize {
    let ls = alloc.local_of(src) as usize;
    let slot = alloc.cursors[ls].fetch_add(cnt as u64, Ordering::Relaxed);
    assert!(
        slot + cnt as u64 <= alloc.offsets[ls + 1],
        "edge overflow for source {src}: assignment and construction disagree"
    );
    slot as usize
}

/// Inserts one record's destinations (and optional per-edge data) into the
/// preallocated CSR, converting global destination ids to local ids.
#[inline]
pub(crate) fn insert_record(
    alloc: &AllocOutcome,
    dest_ptr: &DestPtr,
    data_ptr: &DataPtr,
    src: Node,
    dsts: &[Node],
    weights: Option<&[u32]>,
) {
    let slot = reserve_slots(alloc, src, dsts.len());
    for (off, &d) in dsts.iter().enumerate() {
        let ld = alloc.local_of(d);
        // SAFETY: slots [slot, slot + len) were exclusively reserved by the
        // fetch_add above; no other thread writes them.
        unsafe {
            *dest_ptr.get().add(slot + off) = ld;
        }
    }
    if let Some(ws) = weights {
        assert_eq!(ws.len(), dsts.len(), "weight run shorter than its record");
        for (off, &x) in ws.iter().enumerate() {
            // SAFETY: same exclusively reserved slots as above.
            unsafe {
                *data_ptr.get().add(slot + off) = x;
            }
        }
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
/// its reserved CSR slots and localized in place, and the weight run is a
/// straight memcpy into the edge-data slots — no intermediate `Vec` is
/// materialized.
pub(crate) fn insert_message(
    alloc: &AllocOutcome,
    dest_ptr: &DestPtr,
    data_ptr: &DataPtr,
    payload: Bytes,
    weighted: bool,
) {
    let mut r = WireReader::new(payload);
    while !r.is_exhausted() {
        let src = r.get_u32().expect("malformed edge record");
        let cnt = r.get_u32().expect("malformed edge record") as usize;
        let slot = reserve_slots(alloc, src, cnt);
        // SAFETY: slots [slot, slot + cnt) were exclusively reserved by
        // reserve_slots; no other thread touches them.
        let dst_slots =
            unsafe { std::slice::from_raw_parts_mut(dest_ptr.get().add(slot), cnt) };
        r.get_u32_into(dst_slots).expect("malformed edge record");
        for d in dst_slots.iter_mut() {
            *d = alloc.local_of(*d);
        }
        if weighted {
            // SAFETY: same exclusively reserved slots, edge-data buffer.
            let data_slots =
                unsafe { std::slice::from_raw_parts_mut(data_ptr.get().add(slot), cnt) };
            r.get_u32_into(data_slots).expect("malformed edge record");
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
            let mut alloc = allocate(0, &pool, spec, &ea, weighted);
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
