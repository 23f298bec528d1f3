//! Orchestrates the five partitioning phases on one host (paper Fig. 2).
//!
//! The driver is now a thin composition of [`Phase`] values executed by
//! [`PhaseCtx::run_phase`]; all cross-cutting machinery (comm tagging,
//! timing, barriers) lives in the pipeline harness, and the §IV-B4
//! state-reset seam between allocation and construction is the
//! [`ReplayReady`] token rather than a free-floating call.
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
//! * Checkpointed phases are **skipped**: their outputs are rebuilt from
//!   the snapshot instead of re-communicated, so survivors parked in later
//!   phases never see re-driven protocol traffic for phases they finished.
//! * Allocation (host-local) and construction always re-run; the replay
//!   token resets the edge-rule state anyway, so a fresh state on the
//!   restarted host is bit-identical to the one a crash-free run resets.
//!
//! A corrupt or missing checkpoint falls back to full re-execution, which
//! the determinism contract makes equivalent (bit-identical partitions),
//! just slower.

use cusp_graph::Csr;
use cusp_net::Comm;

use crate::checkpoint::{
    Checkpoint, CheckpointStore, EdgeAssignSnapshot, MastersSnapshot, Stage,
};
use crate::config::{CuspConfig, GraphSource, PhaseTimes};
use crate::dist_graph::{DistGraph, PartitionClass};
use crate::phases::alloc::{AllocOutcome, MasterSpec};
use crate::phases::master::pure_masters;
use crate::phases::pipeline::{
    AllocPhase, ConstructPhase, EdgeAssignPhase, MasterPhase, PhaseCtx, ReadPhase, ReplayReady,
    SliceData,
};
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
    /// Assembles a host's result from what allocation and construction
    /// produced, accounted as a full run (everything recomputed, nothing
    /// reused) — `partition_delta` overrides those two counters.
    pub(crate) fn assemble(
        ctx: PhaseCtx<'_>,
        class: PartitionClass,
        setup: Setup,
        data: &SliceData,
        alloc: AllocOutcome,
        (graph, edge_data): (Csr, Option<Vec<u32>>),
    ) -> Self {
        PartitionOutput {
            dist_graph: DistGraph {
                part_id: ctx.comm.host() as PartId,
                num_parts: setup.parts,
                global_nodes: setup.num_nodes,
                global_edges: setup.num_edges,
                num_masters: alloc.num_masters,
                local2global: alloc.local2global,
                master_of: alloc.master_of,
                graph,
                edge_data,
                class,
            },
            times: ctx.times,
            peak_resident_edges: data.peak_resident_edges(),
            dirty_vertices: setup.num_nodes,
            reused_edges: 0,
            setup,
        }
    }
}

/// Partitions the input graph with a user-supplied policy.
///
/// `build` constructs the two rules from the [`Setup`]; it runs with
/// identical inputs on every host and must be deterministic, so all hosts
/// agree on the policy parameters.
///
/// Phases are separated by barriers so the per-phase wall-clock times
/// (paper Fig. 4) attribute cleanly; the barriers are negligible next to
/// the phases themselves.
pub fn partition<MR, ER>(
    comm: &Comm,
    source: GraphSource,
    cfg: &CuspConfig,
    class: PartitionClass,
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
    let read = ctx.run_phase(ReadPhase { source: &source }, ());
    let setup = read.setup;
    let mut data = read.data;

    // With the slice back in memory, fast-forward the transport to the
    // checkpointed boundary before skipping the phases it covers.
    if let Some(ck) = &resume {
        comm.restore_net(&ck.net);
        cusp_obs::instant("ckpt_resume", ck.net.barrier_calls);
    }

    let (master_rule, edge_rule) = build(&setup);

    // Phase 2: master assignment — skipped on resume (every checkpoint
    // stage has it); the snapshot rebuilds the resolved locations, with
    // pure rules re-deriving their replicated range starts from the rule.
    let masters = match resume.as_ref().map(|ck| &ck.masters) {
        Some(snap) => snap
            .to_stored()
            .unwrap_or_else(|| pure_masters(&master_rule, setup.parts)),
        None => {
            let mstate = <MR as MasterRule>::State::new(setup.parts);
            let masters = ctx.run_phase(
                MasterPhase { setup: &setup, rule: &master_rule, state: &mstate },
                &mut data,
            );
            if let Some(s) = &store {
                let _ = s.save(&Checkpoint {
                    stage: Stage::Master,
                    net: comm.net_checkpoint(),
                    masters: MastersSnapshot::of(&masters),
                    edge_assign: None,
                });
            }
            masters
        }
    };

    // Phase 3: edge assignment — skipped when the checkpoint reached its
    // boundary; rebuilt from the snapshot otherwise.
    let estate = <ER as EdgeRule>::State::new(setup.parts);
    let ea = match resume.as_ref().and_then(|ck| ck.edge_assign.as_ref()) {
        Some(snap) => snap.to_outcome(),
        None => {
            let ea = ctx.run_phase(
                EdgeAssignPhase { setup: &setup, masters: &masters, rule: &edge_rule, state: &estate },
                &mut data,
            );
            if let Some(s) = &store {
                let _ = s.save(&Checkpoint {
                    stage: Stage::EdgeAssign,
                    net: comm.net_checkpoint(),
                    masters: MastersSnapshot::of(&masters),
                    edge_assign: Some(EdgeAssignSnapshot::of(&ea)),
                });
            }
            ea
        }
    };

    // Phase 4: graph allocation (host-local, no barrier).
    let spec = if masters.is_pure() {
        MasterSpec::PureRange(master_rule.pure_owned_range(me as PartId))
    } else {
        MasterSpec::Stored(
            ea.my_master_nodes
                .as_deref()
                .expect("stored master assignment produced no master list"),
        )
    };
    let mut alloc = ctx.run_phase(AllocPhase { spec, weighted: data.weighted() }, &ea);

    // Phase 5: graph construction. Arming the replay token resets the
    // edge-rule state so construction replays the assignment decisions.
    let built = ctx.run_phase(
        ConstructPhase {
            setup: &setup,
            masters: &masters,
            rule: &edge_rule,
            replay: ReplayReady::arm(&estate),
            to_receive: ea.to_receive,
        },
        (&mut data, &mut alloc),
    );

    PartitionOutput::assemble(ctx, class, setup, &data, alloc, built)
}
