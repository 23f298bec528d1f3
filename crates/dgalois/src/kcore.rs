//! k-core decomposition (extension app beyond the paper's four).
//!
//! Finds the k-core — the maximal subgraph in which every vertex has
//! degree ≥ k — by distributed peeling over a **symmetric** partitioned
//! graph: vertices below the threshold die; each of their proxies retracts
//! its local edges, decrements accumulate (sum-reduce) at the masters, and
//! updated degrees broadcast back, until no vertex dies anywhere. Exercises
//! a *sum*-style reduction over the same sync plan the min-propagation apps
//! use, demonstrating that the Gluon-style plan is reduction-agnostic.

use std::time::Instant;

use cusp::DistGraph;
use cusp_galois::ThreadPool;
use cusp_net::{all_reduce_u64, Comm, ReduceOp};

use crate::apps::AppRun;
use crate::plan::{global_out_degrees, SyncPlan};

/// Runs k-core peeling; master values are `1` (in the k-core) or `0`.
///
/// The partitions must come from the symmetrized graph, like `cc`.
pub fn kcore(comm: &Comm, pool: &ThreadPool, dg: &DistGraph, plan: &SyncPlan, k: u64) -> AppRun {
    comm.set_phase("app:kcore");
    let t = Instant::now();
    let n = dg.num_local();
    // Global (symmetric) degree of every proxy.
    let mut degree = global_out_degrees(comm, dg, plan);
    let mut alive = vec![true; n];
    // Local decrement accumulation since last reduce.
    let mut pending = vec![0u64; n];

    let mut rounds = 0u32;
    loop {
        rounds += 1;
        // --- Peel: proxies that just fell below k retract local edges. ---
        let mut died_here = 0u64;
        for l in 0..n as u32 {
            if alive[l as usize] && degree[l as usize] < k {
                alive[l as usize] = false;
                died_here += 1;
                for &dl in dg.graph.edges(l) {
                    pending[dl as usize] += 1;
                }
            }
        }

        // --- Reduce decrements (sum) to masters. -------------------------
        // Every mirror is on exactly one reduce list, so all of them were sent.
        let received = plan.reduce(comm, dg, |l| Some(pending[l as usize]).filter(|&d| d > 0));
        pending[dg.num_masters..].fill(0);
        for (l, d) in received {
            pending[l as usize] += d;
        }
        // Apply at masters (own pending + received).
        for l in 0..dg.num_masters {
            if pending[l] > 0 {
                degree[l] = degree[l].saturating_sub(pending[l]);
                pending[l] = 0;
            }
        }

        // --- Broadcast updated degrees to subscribed mirrors. ------------
        for (l, d) in plan.broadcast(comm, dg, |l| Some(degree[l as usize])) {
            degree[l as usize] = d;
        }

        // --- Terminate when nobody died anywhere this round. -------------
        let total = all_reduce_u64(comm, ReduceOp::Sum, died_here);
        if total == 0 {
            break;
        }
    }
    let _ = pool; // peeling is cheap; parallelism not worth the dispatch here

    AppRun {
        rounds,
        elapsed: t.elapsed(),
        master_values: (0..dg.num_masters as u32)
            .map(|l| (dg.global_of(l), u64::from(alive[l as usize])))
            .collect(),
    }
}

/// Full core decomposition: the core number of every master vertex (the
/// largest k such that the vertex survives k-core peeling). Runs the
/// peeling loop for increasing k over the same partitions, reusing the
/// degree state — O(k_max) rounds of [`kcore`]-style peeling.
pub fn core_numbers(
    comm: &Comm,
    pool: &ThreadPool,
    dg: &DistGraph,
    plan: &SyncPlan,
) -> Vec<(u32, u64)> {
    let mut core: std::collections::HashMap<u32, u64> =
        (0..dg.num_masters as u32).map(|l| (dg.global_of(l), 0)).collect();
    let mut k = 1u64;
    loop {
        let run = kcore(comm, pool, dg, plan, k);
        let mut survivors = 0u64;
        for (gid, alive) in &run.master_values {
            if *alive == 1 {
                *core.get_mut(gid).expect("master known") = k;
                survivors += 1;
            }
        }
        let total = cusp_net::all_reduce_u64(comm, cusp_net::ReduceOp::Sum, survivors);
        if total == 0 {
            break;
        }
        k += 1;
    }
    let mut out: Vec<(u32, u64)> = core.into_iter().collect();
    out.sort_unstable();
    out
}

/// Sequential oracle for [`core_numbers`].
pub fn core_numbers_ref(g: &cusp_graph::Csr, k_max_guess: u64) -> Vec<u64> {
    let n = g.num_nodes();
    let mut core = vec![0u64; n];
    for k in 1..=k_max_guess {
        let alive = kcore_ref(g, k);
        let mut any = false;
        for v in 0..n {
            if alive[v] == 1 {
                core[v] = k;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    core
}

/// Sequential oracle: 1 if the vertex survives k-core peeling, else 0.
pub fn kcore_ref(g: &cusp_graph::Csr, k: u64) -> Vec<u64> {
    let n = g.num_nodes();
    let mut degree: Vec<u64> = (0..n as u32).map(|v| g.out_degree(v)).collect();
    let mut alive = vec![true; n];
    loop {
        let mut died = false;
        for v in 0..n {
            if alive[v] && degree[v] < k {
                alive[v] = false;
                died = true;
                for &u in g.edges(v as u32) {
                    degree[u as usize] = degree[u as usize].saturating_sub(1);
                }
            }
        }
        if !died {
            break;
        }
    }
    alive.iter().map(|&a| u64::from(a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp_graph::Csr;

    #[test]
    fn oracle_on_known_graph() {
        // A triangle (3-clique) plus a pendant path: the 2-core is exactly
        // the triangle.
        let g = Csr::from_edges(
            5,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 0),
                (0, 2),
                (2, 3),
                (3, 2),
                (3, 4),
                (4, 3),
            ],
        );
        assert_eq!(kcore_ref(&g, 2), vec![1, 1, 1, 0, 0]);
        // Everything survives k=1; nothing survives k=3.
        assert_eq!(kcore_ref(&g, 1), vec![1; 5]);
        assert_eq!(kcore_ref(&g, 3), vec![0; 5]);
    }

    #[test]
    fn oracle_cascades() {
        // A path: 2-core is empty (peeling cascades end to end).
        let g = Csr::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]);
        assert_eq!(kcore_ref(&g, 2), vec![0; 4]);
    }
}
