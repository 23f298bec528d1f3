//! Running the partitioner across real OS processes.
//!
//! [`partition_with_policy`] is already transport-agnostic — it only ever
//! talks to a [`cusp_net::Comm`] — so distributing it is a matter of
//! standing the five-phase pipeline on a [`TcpTransport`] instead of the
//! in-process simulator. This module is that plumbing: one worker process
//! per host, each calling [`partition_with_policy_tcp`] over an
//! established mesh, with every process reading the shared input graph
//! itself (range reads mean each host touches only its slice, exactly as
//! on a real cluster with a shared filesystem).
//!
//! Under [`CuspConfig::deterministic_sync`] the produced partitions are
//! bit-identical to a simulated run with the same configuration — the
//! cross-process oracle `tests/cross_process.rs` asserts merged
//! [`crate::partition_fingerprint`] equality end to end.

use cusp_net::{Cluster, ClusterOptions, TcpRunOutput, TcpTransport};

use crate::config::{CuspConfig, GraphSource};
use crate::phases::driver::PartitionOutput;
use crate::policies::catalog::{partition_with_policy, PolicyKind};
use crate::PartitionError;

/// Runs the five-phase pipeline as **one host of a multi-process
/// cluster**: the peers are other worker processes executing this same
/// function over their own ends of the TCP mesh.
///
/// A peer process dying mid-run surfaces as
/// [`PartitionError::HostLost`] — never a hang. The returned
/// [`TcpRunOutput`] carries this host's partition plus its local view of
/// the communication statistics (its send rows and receive rows); the
/// orchestrator merges those across workers for conservation checks.
pub fn partition_with_policy_tcp(
    transport: TcpTransport,
    source: GraphSource,
    kind: PolicyKind,
    cfg: &CuspConfig,
) -> Result<TcpRunOutput<PartitionOutput>, PartitionError> {
    Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
        partition_with_policy(comm, source, kind, cfg)
    })
    .map_err(PartitionError::from)
}

/// Pins `cfg` to the determinism contract required for cross-transport
/// fingerprint comparison: one worker thread per host and
/// [`CuspConfig::deterministic_sync`], so a TCP run and a simulated run
/// of the same input produce bit-identical partitions regardless of
/// arrival order.
pub fn deterministic_for_comparison(mut cfg: CuspConfig) -> CuspConfig {
    cfg.deterministic_sync = true;
    cfg.threads_per_host = 1;
    cfg
}
