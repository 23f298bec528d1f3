//! The user-facing partitioning interface (paper §III-A).
//!
//! "To specify the partitioning policy, users write two functions:
//! `getMaster(prop, nodeId, mstate, masters)` and `getEdgeOwner(prop,
//! srcId, dstId, srcMaster, dstMaster, estate)`." Here they are the two
//! trait methods [`MasterRule::get_master`] and
//! [`EdgeRule::get_edge_owner`]; each rule declares its own state type
//! (`()` when stateless), and every other fact of a policy belongs to the
//! one rule that decides it. The master rule states its own purity, as
//! its range starts ([`MasterRule::pure_starts`]), and whether it reads
//! neighbours' masters ([`MasterRule::uses_neighbor_masters`]); the edge
//! rule states the partition's Table I class ([`EdgeRule::CLASS`]). The
//! master rule's two facts drive the synchronization elisions of §IV-D5:
//!
//! * pure + stateless → master assignment is a pure function; CuSP
//!   replicates computation instead of communicating masters at all;
//! * stateful but neighbor-blind → state syncs only once, after the phase;
//! * neighbor-aware → periodic lockstep rounds during the phase.

use std::sync::Arc;

use cusp_graph::{Node, ReadSplit};

use crate::dist_graph::PartitionClass;
use crate::phases::master::MasterTable;
use crate::props::LocalProps;
use crate::state::PartitionState;
use crate::PartId;

/// Global, host-independent facts available when rules are constructed.
/// Every host computes an identical `Setup`, so rules built from it are
/// identical across hosts (required for replicated pure evaluation).
#[derive(Clone)]
pub struct Setup {
    /// Total number of vertices in the input graph.
    pub num_nodes: u64,
    /// Total number of edges in the input graph.
    pub num_edges: u64,
    /// Number of partitions (== number of hosts).
    pub parts: PartId,
    /// Node boundaries (`parts + 1` entries) of an edge-balanced contiguous
    /// blocking of the vertex set — the basis of `ContiguousEB`.
    pub eb_boundaries: Arc<Vec<u64>>,
    /// The contiguous node range each host reads from disk.
    pub read_splits: Arc<Vec<ReadSplit>>,
}

impl Setup {
    /// Which host reads node `v` from disk.
    pub fn reader_of(&self, v: Node) -> usize {
        let v = v as u64;
        debug_assert!(v < self.num_nodes);
        // Ranges are contiguous and ordered; find the first with hi > v.
        self.read_splits
            .partition_point(|s| s.hi <= v)
    }
}

/// The `getMaster` half of a policy.
pub trait MasterRule: Send + Sync {
    /// The `mstate` type tracked by this rule (`()` if stateless).
    type State: PartitionState;

    /// A pure rule's range starts: the first node of partitions `1..k`,
    /// ascending (`k − 1` entries), so that partition `p` masters the
    /// contiguous range from start `p − 1` (node 0 for `p = 0`) up to start
    /// `p` (the node count for the last partition). `None`, the default,
    /// for a rule that is not pure.
    ///
    /// A pure rule's master is a function of `(Setup, node)` alone, which
    /// enables the paper's strongest elision: no master communication,
    /// every host replicates the computation on demand as a count over
    /// these starts. Its `get_master` must answer the same count.
    fn pure_starts(&self) -> Option<&[Node]> {
        None
    }

    /// True if `get_master` consults the `masters` map of neighbors
    /// (Fennel-family rules). Forces periodic master synchronization.
    fn uses_neighbor_masters(&self) -> bool {
        false
    }

    /// Returns the partition that holds the master proxy of `node`.
    ///
    /// Called once per locally read node, in node order, on one thread per
    /// host. `state` is borrowed shared: record a decision through its
    /// `&self` methods.
    fn get_master(
        &self,
        prop: &LocalProps,
        node: Node,
        state: &Self::State,
        masters: &MasterView,
    ) -> PartId;
}

/// The `getEdgeOwner` half of a policy.
///
/// A rule sees an edge through `prop`, the endpoint ids, the two masters and
/// its own state. `prop` answers structural queries (out-degree, neighbours)
/// for locally read nodes only, which the edge walks guarantee for `src`
/// alone. A *stateless* rule handed to
/// [`partition_delta`](crate::phases::delta::partition_delta) is held to
/// exactly that: it decides from structural properties of `src`, the two
/// masters and `parts` only, so an edge is re-decided only when its source
/// changed or an endpoint's master moved — every rule in the catalog
/// qualifies.
pub trait EdgeRule: Send + Sync {
    /// The `estate` type tracked by this rule (`()` if stateless).
    ///
    /// Stateful edge rules are replayed during graph construction after a
    /// state reset (paper §IV-B4), so the decision stream must be
    /// deterministic: the driver runs stateful edge rules sequentially in
    /// node order to guarantee the replay matches.
    type State: PartitionState;

    /// The structural invariant class (paper Table I) of every partition
    /// this rule produces; the partition records it.
    const CLASS: PartitionClass;

    /// Returns the partition to which edge `(src, dst)` is assigned.
    /// `src` is always a locally read node; `src_master`/`dst_master` are
    /// the partitions holding the endpoints' master proxies.
    fn get_edge_owner(
        &self,
        prop: &LocalProps,
        src: Node,
        dst: Node,
        src_master: PartId,
        dst_master: PartId,
        state: &Self::State,
    ) -> PartId;
}

/// Read access to previously assigned masters — the `masters` argument of
/// `getMaster`: phase 2's [`MasterTable`], as far as this host's own
/// decisions and the sync rounds' answers have filled it. A lookup is one
/// one- or two-byte load, the same for a local node and a remote one.
pub struct MasterView<'a> {
    table: &'a MasterTable,
}

impl<'a> MasterView<'a> {
    /// A view over the host's master table.
    pub fn new(table: &'a MasterTable) -> Self {
        MasterView { table }
    }

    /// The master partition of `v`, or `None` if not (yet) known.
    #[inline]
    pub fn get(&self, v: Node) -> Option<PartId> {
        self.table.get(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup_4() -> Setup {
        Setup {
            num_nodes: 100,
            num_edges: 1000,
            parts: 4,
            eb_boundaries: Arc::new(vec![0, 25, 50, 75, 100]),
            read_splits: Arc::new(vec![
                ReadSplit { lo: 0, hi: 30 },
                ReadSplit { lo: 30, hi: 55 },
                ReadSplit { lo: 55, hi: 55 },
                ReadSplit { lo: 55, hi: 100 },
            ]),
        }
    }

    #[test]
    fn reader_of_uses_read_splits() {
        let s = setup_4();
        assert_eq!(s.reader_of(0), 0);
        assert_eq!(s.reader_of(29), 0);
        assert_eq!(s.reader_of(30), 1);
        assert_eq!(s.reader_of(54), 1);
        assert_eq!(s.reader_of(55), 3); // host 2's range is empty
        assert_eq!(s.reader_of(99), 3);
    }

    #[test]
    fn stored_view_reads_local_and_remote_alike() {
        let table = MasterTable::new(100, 4);
        for (v, p) in [(10, 2), (50, 3), (99, 0)] {
            table.set(v, p);
        }
        let view = MasterView::new(&table);
        assert_eq!(view.get(10), Some(2)); // local, assigned
        assert_eq!(view.get(11), None); // local, not assigned yet
        assert_eq!(view.get(50), Some(3)); // requested and answered
        assert_eq!(view.get(55), None); // not answered, or never requested
        assert_eq!(view.get(0), None);
        assert_eq!(view.get(99), Some(0)); // partition 0 is not "unknown"
        assert_eq!(view.get(100), None); // past the node count
    }
}
