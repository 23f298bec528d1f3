//! The bulk-synchronous min-propagation engine behind bfs, sssp, and cc.
//!
//! Each round: (1) locally relax out-edges of vertices whose value dropped
//! since they were last scattered, (2) reduce dirty mirrors to masters
//! (min), (3) broadcast dirty masters to subscribed mirrors, (4) globally
//! agree on termination. Dirty tracking is value-based — a proxy is
//! synchronized only when its value actually changed since it was last
//! sent — mirroring Gluon's bitset-tracked synchronization.
//!
//! Values only ever decrease, so `min` reconciliation is idempotent and
//! insensitive to message ordering, and "changed" is simply "lower than
//! the snapshot".

use cusp::DistGraph;
use cusp_galois::{do_all_items, ThreadPool};
use cusp_net::{all_reduce_u64, Comm, ReduceOp};

use crate::plan::SyncPlan;
use crate::values::U64Values;
use crate::INF;

/// Outcome of a propagation run on one host.
pub struct PropagateResult {
    /// Final per-proxy values (masters authoritative; subscribed mirrors
    /// converge to the same value, unsubscribed mirrors may be stale).
    pub values: Vec<u64>,
    /// Bulk-synchronous rounds executed.
    pub rounds: u32,
}

/// Runs min-propagation until global quiescence.
///
/// `init(gid)` seeds every proxy; `cost(gsrc, gdst)` is the edge
/// relaxation increment (0 for label propagation, 1 for bfs, a weight for
/// sssp).
pub fn min_propagate(
    comm: &Comm,
    pool: &ThreadPool,
    dg: &DistGraph,
    plan: &SyncPlan,
    init: impl Fn(u32) -> u64 + Sync,
    cost: impl Fn(u32, u32) -> u64 + Sync,
) -> PropagateResult {
    min_propagate_indexed(comm, pool, dg, plan, init, |l, _e, dl| {
        cost(dg.global_of(l), dg.global_of(dl))
    })
}

/// Like [`min_propagate`] but the cost closure receives `(local src,
/// local CSR edge index, local dst)` — the form needed to read stored
/// per-edge data (`DistGraph::edge_data`).
pub fn min_propagate_indexed(
    comm: &Comm,
    pool: &ThreadPool,
    dg: &DistGraph,
    plan: &SyncPlan,
    init: impl Fn(u32) -> u64 + Sync,
    cost: impl Fn(u32, usize, u32) -> u64 + Sync,
) -> PropagateResult {
    let n = dg.num_local();
    let vals = U64Values::new(n, |l| init(dg.global_of(l as u32)));
    // Value each proxy had when its out-edges were last relaxed.
    let scattered = U64Values::new(n, |_| INF);
    // Value each proxy had when it was last reduced/broadcast.
    let mut last_sent: Vec<u64> = vec![INF; n];

    let mut rounds = 0u32;
    loop {
        rounds += 1;
        // --- (1) Local scatter from proxies whose value dropped. ---------
        let active: Vec<u32> = (0..n as u32)
            .filter(|&l| vals.get(l as usize) < scattered.get(l as usize))
            .collect();
        do_all_items(pool, &active, 8, |&l| {
            let base = vals.get(l as usize);
            scattered.set(l as usize, base);
            let edge_base = dg.graph.first_edge(l) as usize;
            for (i, &dl) in dg.graph.edges(l).iter().enumerate() {
                let cand = base.saturating_add(cost(l, edge_base + i, dl));
                vals.min_in(dl as usize, cand);
            }
        });

        // --- (2) Reduce: dirty mirrors → masters. ------------------------
        let reduced = plan.reduce(comm, dg, |l| {
            let (v, sent) = (vals.get(l as usize), &mut last_sent[l as usize]);
            (v < *sent).then(|| {
                *sent = v;
                v
            })
        });
        for (l, v) in reduced {
            vals.min_in(l as usize, v);
        }

        // --- (3) Broadcast: dirty masters → subscribed mirrors. ----------
        // A master can appear in several hosts' subscription lists, so the
        // sent-snapshot is updated only after all destinations were served.
        let dirty = |l: u32| Some(vals.get(l as usize)).filter(|&v| v < last_sent[l as usize]);
        let received = plan.broadcast(comm, dg, dirty);
        for &l in plan.bcast_out.iter().flatten() {
            last_sent[l as usize] = last_sent[l as usize].min(vals.get(l as usize));
        }
        for (l, v) in received {
            vals.min_in(l as usize, v);
        }

        // --- (4) Global termination: anyone still below their scatter
        // snapshot keeps the computation alive. ---------------------------
        let changed = (0..n)
            .filter(|&l| vals.get(l) < scattered.get(l))
            .count() as u64;
        let total = all_reduce_u64(comm, ReduceOp::Sum, changed);
        if total == 0 {
            break;
        }
    }

    PropagateResult {
        values: vals.snapshot(),
        rounds,
    }
}
