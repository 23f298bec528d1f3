//! # cusp: a Customizable Streaming edge Partitioner
//!
//! Reproduction of *CuSP: A Customizable Streaming Edge Partitioner for
//! Distributed Graph Analytics* (Hoang, Dathathri, Gill, Pingali — IPDPS
//! 2019).
//!
//! A graph partition is completely defined by (i) the assignment of edges
//! to partitions and (ii) the choice of master vertices (paper §II). CuSP
//! therefore asks the user for exactly two functions —
//! [`MasterRule::get_master`] and [`EdgeRule::get_edge_owner`] — and turns
//! them into a five-phase, parallel, distributed partitioning pipeline
//! (§IV-B):
//!
//! 1. **Graph reading** — each host range-reads a contiguous, edge-balanced
//!    slice of the on-disk CSR.
//! 2. **Master assignment** — each host assigns masters for its slice,
//!    with periodic lockstep synchronization of the masters map and any
//!    user partitioning state (§IV-D4/5).
//! 3. **Edge assignment** — each host computes, per peer, how many edges of
//!    each of its vertices it will send and which mirror proxies the peer
//!    must create (Algorithm 3), exchanging only positional vectors and
//!    compacted lists (§IV-D2).
//! 4. **Graph allocation** — every host now knows its exact vertex and
//!    edge counts; it builds global↔local id maps and allocates its CSR.
//! 5. **Graph construction** — edges stream to their owners in buffered
//!    messages (§IV-D3) and are inserted in parallel into the preallocated
//!    CSR (Algorithm 4), with an optional in-memory transpose to CSC.
//!
//! The six policies evaluated in the paper (Table II) are provided in
//! [`policies::catalog`]: EEC, HVC, CVC, FEC, GVC, and SVC — plus the
//! building blocks to compose new ones in a few lines.
//!
//! ```
//! use cusp::{partition_with_policy, CuspConfig, PolicyKind};
//! use cusp_graph::gen::uniform::erdos_renyi;
//! use cusp_net::Cluster;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(erdos_renyi(200, 1200, 42));
//! let out = Cluster::run(4, |comm| {
//!     let cfg = CuspConfig::default();
//!     partition_with_policy(comm, cusp::GraphSource::Memory(graph.clone()), PolicyKind::Cvc, &cfg)
//! });
//! let parts: Vec<_> = out.results.into_iter().map(|r| r.dist_graph).collect();
//! cusp::metrics::validate_partitioning(&graph, &parts).unwrap();
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod dist_graph;
pub mod distributed;
pub mod metrics;
pub mod orientation;
pub mod phases;
pub mod policies;
pub mod policy;
pub mod props;
pub mod state;
pub mod storage;
pub mod tags;
pub mod tracing;
pub mod verify;

pub use checkpoint::{Checkpoint, CheckpointStore};
pub use config::{CuspConfig, GraphSource, OutputFormat, PhaseId, PhaseTimes};
pub use distributed::{deterministic_for_comparison, partition_with_policy_tcp};
pub use dist_graph::{DistGraph, PartitionClass};
pub use phases::delta::{partition_delta, DirtySet};
pub use phases::driver::{partition, PartitionOutput};
pub use phases::pipeline::{PhaseCtx, ReplayReady};
pub use policies::catalog::{partition_delta_with_policy, partition_with_policy, PolicyKind};
pub use orientation::{partition_with_policy_oriented, Orientation};
pub use policy::{EdgeRule, MasterRule, MasterView, Setup};
pub use props::LocalProps;
pub use state::{LoadState, PartitionState};
pub use storage::{read_partition, write_partition};
pub use tracing::{phase_net_rows, phase_summary, render_phase_summary};
pub use verify::{
    check_all, check_comm_stats, check_delta_equivalence, check_partition, graph_fingerprint,
    merge_part_fingerprints, part_fingerprint, partition_fingerprint, Violation, ViolationKind,
};

/// A partition id; CuSP runs with as many hosts as partitions, so this is
/// interchangeable with `cusp_net::HostId` (which is a `usize`).
pub type PartId = u32;

/// Terminal partitioning failures a caller can react to (as opposed to
/// panics, which indicate bugs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// A simulated host kept crashing until its restart budget ran out
    /// (see [`cusp_net::RecoveryOptions::max_restarts`]); the cluster shut
    /// down cleanly instead of hanging. No partition was produced.
    HostLost {
        /// The host that could not be kept alive.
        host: usize,
        /// Restart attempts made before giving up.
        restarts: u32,
    },
}

impl From<cusp_net::ClusterError> for PartitionError {
    fn from(e: cusp_net::ClusterError) -> Self {
        match e {
            cusp_net::ClusterError::HostLost { host, restarts } => {
                PartitionError::HostLost { host, restarts }
            }
        }
    }
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::HostLost { host, restarts } => write!(
                f,
                "partitioning failed: host {host} lost after {restarts} restart attempt(s)"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}
