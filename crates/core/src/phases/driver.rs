//! Orchestrates the five partitioning phases on one host (paper Fig. 2).
//!
//! The driver is the five phase functions called in order, each under
//! [`PhaseCtx::run_phase`]; all cross-cutting machinery (comm tagging,
//! timing, barriers) lives in that harness, and the §IV-B4 state-reset
//! seam between allocation and construction is the [`ReplayReady`] token
//! `construct` takes rather than a free-floating call.
//!
//! # Crash recovery
//!
//! When `CuspConfig::checkpoint_dir` is set, the driver writes a durable
//! [`Checkpoint`] at the master and edge-assignment phase barriers, and a
//! restarted host (`Comm::restart_epoch() > 0`) resumes from the last one
//! it can load:
//!
//! * **Graph reading always re-runs** — the input slice is process memory,
//!   not durable state. Its re-sent traffic is deduplicated receiver-side
//!   and its barrier falls through (barrier arrivals are monotone).
//! * The transport state is restored *after* the re-read
//!   ([`Comm::restore_net`]), jumping send sequences, receive floors, and
//!   the barrier count to the checkpointed boundary.
//! * Checkpointed phases are **skipped**: their outputs are loaded from
//!   the checkpoint instead of re-communicated, so survivors parked in later
//!   phases never see re-driven protocol traffic for phases they finished.
//! * Allocation (host-local) and construction always re-run; the replay
//!   token resets the edge-rule state anyway, so a fresh state on the
//!   restarted host is bit-identical to the one a crash-free run resets.
//!
//! A corrupt or missing checkpoint falls back to full re-execution, which
//! the determinism contract makes equivalent (bit-identical partitions),
//! just slower.

use cusp_graph::{ChunkedSlice, Csr};
use cusp_net::Comm;

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::config::{CuspConfig, GraphSource, PhaseId, PhaseTimes};
use crate::dist_graph::{DistGraph, PartitionClass};
use crate::phases::alloc::{allocate, AllocOutcome};
use crate::phases::construct::construct;
use crate::phases::edge_assign::{assign_edges, AllEdges, EdgeAssignOutcome};
use crate::phases::master::{assign_masters, pure_masters, ResolvedMasters};
use crate::phases::pipeline::{PhaseCtx, ReplayReady};
use crate::phases::read::read_phase;
use crate::policy::{EdgeRule, MasterRule, Setup};
use crate::state::PartitionState;
use crate::PartId;

/// Result of partitioning on one host.
pub struct PartitionOutput {
    /// Dist graph.
    pub dist_graph: DistGraph,
    /// Per-phase wall-clock times on this host.
    pub times: PhaseTimes,
    /// High-water mark of source edges resident at once on this host: the
    /// whole read slice for monolithic runs, the largest materialized chunk
    /// when `CuspConfig::chunk_edges` streams the slice.
    pub peak_resident_edges: u64,
    /// The replicated [`Setup`] this partition was computed against —
    /// retained so [`crate::phases::delta::partition_delta`] can rebuild
    /// the previous run's rules and detect master shifts.
    pub setup: Setup,
    /// Number of vertices whose partition state was recomputed. A full run
    /// recomputes everything (`== setup.num_nodes`); a delta run recomputes
    /// only the dirty set.
    pub dirty_vertices: u64,
    /// Number of edges this host carried over from the previous partition
    /// without re-deciding or re-shipping them (0 for a full run).
    pub reused_edges: u64,
}

impl PartitionOutput {
    /// Assembles a host's result around the partition construction froze,
    /// accounted as a full run (everything recomputed, nothing reused) —
    /// `partition_delta` overrides those two counters.
    pub(crate) fn assemble(
        ctx: PhaseCtx<'_>,
        setup: Setup,
        data: &ChunkedSlice,
        dist_graph: DistGraph,
    ) -> Self {
        PartitionOutput {
            dist_graph,
            times: ctx.times,
            peak_resident_edges: data.peak_resident_edges(),
            dirty_vertices: setup.num_nodes,
            reused_edges: 0,
            setup,
        }
    }
}

/// Host `me`'s partition from what allocation and construction produced.
/// Called as the construction phase ends, so its span records the output's
/// size as `mem.output`.
pub(crate) fn freeze_part(
    me: usize,
    class: PartitionClass,
    setup: &Setup,
    alloc: AllocOutcome,
    (graph, edge_data): (Csr, Option<Vec<u32>>),
) -> DistGraph {
    let part = DistGraph {
        part_id: me as PartId,
        num_parts: setup.parts,
        global_nodes: setup.num_nodes,
        global_edges: setup.num_edges,
        num_masters: alloc.num_masters,
        local2global: alloc.local2global,
        master_of: alloc.master_of,
        graph,
        edge_data,
        class,
    };
    cusp_obs::counter("mem.output", part.heap_bytes());
    part
}

/// Partitions the input graph with a user-supplied policy.
///
/// `build` constructs the two rules from the [`Setup`]; it runs with
/// identical inputs on every host and must be deterministic, so all hosts
/// agree on the policy parameters. The partition's class is the edge
/// rule's [`EdgeRule::CLASS`].
///
/// Phases are separated by barriers so the per-phase wall-clock times
/// (paper Fig. 4) attribute cleanly; the barriers are negligible next to
/// the phases themselves.
pub fn partition<MR, ER>(
    comm: &Comm,
    source: GraphSource,
    cfg: &CuspConfig,
    build: impl FnOnce(&Setup) -> (MR, ER),
) -> PartitionOutput
where
    MR: MasterRule,
    ER: EdgeRule,
{
    let me = comm.host();
    let mut ctx = PhaseCtx::new(comm, cfg);

    // Crash recovery: open the per-host checkpoint store, wipe stale files
    // on the first incarnation, and on a restart load the last completed
    // phase boundary (a corrupt file loads as `None` — full re-run).
    let store = cfg
        .checkpoint_dir
        .as_deref()
        .and_then(|dir| CheckpointStore::new(dir, comm.num_hosts(), me).ok());
    if comm.restart_epoch() == 0 {
        if let Some(s) = &store {
            s.clear();
        }
    }
    let resume = if comm.restart_epoch() > 0 {
        store.as_ref().and_then(|s| s.load())
    } else {
        None
    };

    // Phase 1: graph reading — always runs; on a restart the re-sent
    // traffic dedupes receiver-side and the barrier falls through.
    let read = ctx.run_phase(PhaseId::Read, |_| {
        read_phase(comm, &source, cfg).expect("failed to read input graph")
    });
    let setup = read.setup;
    let mut data = read.data;
    let (master_rule, edge_rule) = build(&setup);
    let save = |masters: &ResolvedMasters, edge_assign: Option<&EdgeAssignOutcome>| {
        if let Some(s) = &store {
            let _ = s.save(&comm.net_checkpoint(), masters, edge_assign);
        }
    };

    // Phase 2: master assignment, with the §IV-D5 elision for pure rules
    // (unless the `force_stored_masters` ablation is on) — skipped on
    // resume (every checkpoint has its output). With the slice back in
    // memory, a resuming host first fast-forwards the transport to the
    // checkpointed boundary.
    let (masters, resumed_ea) = match resume {
        Some(Checkpoint { net, masters, edge_assign }) => {
            comm.restore_net(&net);
            cusp_obs::instant("ckpt_resume", net.barrier_calls);
            (masters, edge_assign)
        }
        None => {
            let mstate = <MR as MasterRule>::State::new(setup.parts);
            let masters = ctx.run_phase(PhaseId::Master, |ctx| {
                match pure_masters(&master_rule, setup.parts) {
                    Some(pure) if !cfg.force_stored_masters => pure,
                    _ => assign_masters(comm, &ctx.pool, &setup, &mut data, &master_rule, &mstate, cfg),
                }
            });
            save(&masters, None);
            (masters, None)
        }
    };

    // Phase 3: edge assignment (Algorithm 3) — skipped when the checkpoint
    // reached its boundary.
    let estate = <ER as EdgeRule>::State::new(setup.parts);
    let ea = resumed_ea.unwrap_or_else(|| {
        let ea = ctx.run_phase(PhaseId::EdgeAssign, |ctx| {
            assign_edges(comm, &ctx.pool, &setup, &mut data, &masters, &edge_rule, &estate)
        });
        save(&masters, Some(&ea));
        ea
    });

    // Phase 4: graph allocation (host-local, no barrier). It consumes the
    // outcome, freeing each part once read; construction needs only the
    // count of edges still to arrive.
    let to_receive = ea.to_receive;
    let weighted = data.weighted();
    let mut alloc = ctx.run_phase(PhaseId::Alloc, |ctx| {
        allocate(me, &ctx.pool, &masters, setup.num_nodes, ea, weighted)
    });

    // Phase 5: graph construction (Algorithm 4). Arming the replay token
    // resets the edge-rule state so construction replays the assignment
    // decisions.
    let replay = ReplayReady::arm(&estate);
    let dist_graph = ctx.run_phase(PhaseId::Construct, |ctx| {
        let built = construct(
            comm,
            &ctx.pool,
            &setup,
            &mut data,
            &masters,
            &edge_rule,
            replay,
            &mut alloc,
            to_receive,
            cfg,
            &AllEdges,
        );
        freeze_part(me, ER::CLASS, &setup, alloc, built)
    });

    PartitionOutput::assemble(ctx, setup, &data, dist_graph)
}
