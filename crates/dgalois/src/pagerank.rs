//! Distributed PageRank (push-style, synchronous).
//!
//! Per round each proxy with local out-edges pushes `rank(u) / outdeg(u)`
//! along its local edges (outdeg is the *global* out-degree — a
//! vertex-cut spreads a vertex's edges over hosts, so local degrees are
//! partial); accumulated contributions reduce (sum) to masters, which
//! apply `rank' = (1 − d)/N + d·Σ` and broadcast to subscribed mirrors.
//! Terminates when the global L1 rank change drops below the tolerance
//! (paper: 10⁻⁶) or after `max_iterations` (paper: 100).

// The explicit `for i in 0..n` indexing in the SPMD/scan loops below is
// deliberate (it mirrors per-host/per-block protocol structure).
#![allow(clippy::needless_range_loop)]

use std::time::{Duration, Instant};

use cusp::DistGraph;
use cusp_galois::{do_all, ThreadPool};
use cusp_net::{all_reduce_sum_f64, Comm};

use crate::plan::{global_out_degrees, SyncPlan};
use crate::values::F64Accum;

/// PageRank parameters (paper §V-A values by default).
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Damping factor d (paper: 0.85).
    pub damping: f64,
    /// Global L1 rank-change threshold for termination.
    pub tolerance: f64,
    /// Max iterations.
    pub max_iterations: u32,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            tolerance: 1e-6,
            max_iterations: 100,
        }
    }
}

/// Result of a pagerank run on one host.
pub struct PageRankRun {
    /// Iterations executed before convergence or the cap.
    pub rounds: u32,
    /// Wall-clock time of the run on this host.
    pub elapsed: Duration,
    /// `(global id, rank)` for every master on this host.
    pub master_ranks: Vec<(u32, f64)>,
}

/// Runs distributed pagerank over one partition.
pub fn pagerank(
    comm: &Comm,
    pool: &ThreadPool,
    dg: &DistGraph,
    plan: &SyncPlan,
    cfg: PageRankConfig,
) -> PageRankRun {
    comm.set_phase("app:pagerank");
    let t = Instant::now();
    let n_local = dg.num_local();
    let n_global = dg.global_nodes.max(1) as f64;
    let gdeg = global_out_degrees(comm, dg, plan);

    let mut ranks: Vec<f64> = vec![1.0 / n_global; n_local];
    let accum = F64Accum::new(n_local);

    let mut rounds = 0u32;
    while rounds < cfg.max_iterations {
        rounds += 1;
        accum.clear();

        // --- Scatter along local out-edges. ------------------------------
        {
            let ranks_ref: &[f64] = &ranks;
            do_all(pool, n_local, 16, |l| {
                let edges = dg.graph.edges(l as u32);
                if edges.is_empty() {
                    return;
                }
                let share = ranks_ref[l] / gdeg[l] as f64;
                for &dl in edges {
                    accum.add(dl as usize, share);
                }
            });
        }

        // --- Reduce mirror accumulations to masters (sum). ---------------
        let nonzero = |l: u32| {
            Some(accum.get(l as usize))
                .filter(|&a| a != 0.0)
                .map(f64::to_bits)
        };
        for (l, a) in plan.reduce(comm, dg, nonzero) {
            accum.add(l as usize, f64::from_bits(a));
        }

        // --- Apply at masters. --------------------------------------------
        let mut local_delta = 0.0f64;
        for l in 0..dg.num_masters {
            let next = (1.0 - cfg.damping) / n_global + cfg.damping * accum.get(l);
            local_delta += (next - ranks[l]).abs();
            ranks[l] = next;
        }

        // --- Broadcast fresh master ranks to subscribed mirrors. ----------
        for (l, r) in plan.broadcast(comm, dg, |l| Some(ranks[l as usize].to_bits())) {
            ranks[l as usize] = f64::from_bits(r);
        }

        // --- Convergence. ---------------------------------------------------
        let total_delta = all_reduce_sum_f64(comm, local_delta);
        if total_delta < cfg.tolerance {
            break;
        }
    }

    PageRankRun {
        rounds,
        elapsed: t.elapsed(),
        master_ranks: (0..dg.num_masters as u32)
            .map(|l| (dg.global_of(l), ranks[l as usize]))
            .collect(),
    }
}
