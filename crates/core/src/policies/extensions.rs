//! Extension policies beyond Table II, demonstrating that the framework
//! covers the full streaming class of Table I.
//!
//! HDRF (High Degree Replicated First, Petroni et al. 2015) is a greedy
//! streaming *vertex-cut* whose edge rule is history-sensitive: it tracks
//! partial vertex degrees, per-partition edge load, and replica sets, and
//! prefers replicating the higher-degree endpoint of each edge. In CuSP
//! terms it is a stateful `getEdgeOwner` — exactly the case the paper's
//! `estate` exists for. As in distributed HDRF deployments, the greedy
//! state here is host-local (each host partitions its own edge stream);
//! the global structural invariants still hold and are validated by the
//! integration tests.

use std::collections::HashMap;
use std::sync::Mutex;

use cusp_graph::Node;

use crate::policies::masters::{best_partition, neighbor_counts};
use crate::policy::{EdgeRule, MasterRule, MasterView, Setup};
use crate::props::LocalProps;
use crate::state::{LoadState, PartitionState};
use crate::PartId;

/// Linear Deterministic Greedy [Stanton & Kliot, KDD'12] — the classic
/// streaming edge-cut heuristic of Table I: place each vertex with the
/// partition holding most of its already-placed neighbors, discounted by
/// fullness (`score(p) = |neighbors in p| · (1 − size(p)/capacity)`).
#[derive(Clone, Debug)]
pub struct Ldg {
    /// Per-partition vertex capacity (`n / k` by default).
    pub capacity: f64,
}

impl Ldg {
    /// Creates LDG with the standard `n / k` capacity.
    pub fn new(setup: &Setup) -> Self {
        Ldg {
            capacity: (setup.num_nodes as f64 / setup.parts as f64).max(1.0),
        }
    }
}

impl MasterRule for Ldg {
    type State = LoadState;

    fn uses_neighbor_masters(&self) -> bool {
        true
    }

    fn get_master(
        &self,
        prop: &LocalProps,
        node: Node,
        state: &LoadState,
        masters: &MasterView,
    ) -> PartId {
        let counts = neighbor_counts(prop, node, masters);
        let best = best_partition(counts.len(), |p| {
            let fill = state.nodes(p as PartId) as f64 / self.capacity;
            // tie-break toward the emptier partition
            counts[p] as f64 * (1.0 - fill) - fill * 1e-6
        });
        state.add_assignment(best, 0);
        best
    }
}

/// Mutable greedy state for [`HdrfEdge`].
///
/// Not synchronized across hosts (`sync_len` 0): HDRF's published
/// distributed variants run the heuristic independently per stream. Marked
/// stateful so the driver serializes the edge loop, making the
/// assignment/construction replay deterministic.
pub struct HdrfState {
    inner: Mutex<HdrfInner>,
    parts: PartId,
}

struct HdrfInner {
    partial_degree: HashMap<Node, u32>,
    replicas: ReplicaSets,
    load: Vec<u64>,
    max_load: u64,
    min_load: u64,
}

/// The partitions holding a replica of each seen vertex: one bit set per
/// vertex, `words` `u64`s long, so the sets are sized by the partition
/// count.
struct ReplicaSets {
    words: usize,
    /// Where each seen vertex's set starts in `bits`.
    start: HashMap<Node, usize>,
    bits: Vec<u64>,
}

impl ReplicaSets {
    fn new(parts: PartId) -> Self {
        ReplicaSets { words: (parts as usize).div_ceil(64), start: HashMap::new(), bits: Vec::new() }
    }

    /// `v`'s set, if `v` has been seen.
    fn of(&self, v: Node) -> Option<&[u64]> {
        self.start.get(&v).map(|&s| &self.bits[s..s + self.words])
    }

    /// Adds `p` to `v`'s set, giving `v` an empty one first if it has none.
    fn insert(&mut self, v: Node, p: PartId) {
        let fresh = self.bits.len();
        let s = *self.start.entry(v).or_insert(fresh);
        if s == fresh {
            self.bits.resize(fresh + self.words, 0);
        }
        self.bits[s + p as usize / 64] |= 1 << (p % 64);
    }

    fn clear(&mut self) {
        self.start.clear();
        self.bits.clear();
    }
}

/// Whether `set` holds partition `p` (no set holds nothing).
fn holds(set: Option<&[u64]>, p: PartId) -> bool {
    set.is_some_and(|words| words[p as usize / 64] >> (p % 64) & 1 == 1)
}

impl PartitionState for HdrfState {
    const STATELESS: bool = false;

    fn new(parts: PartId) -> Self {
        HdrfState {
            inner: Mutex::new(HdrfInner {
                partial_degree: HashMap::new(),
                replicas: ReplicaSets::new(parts),
                load: vec![0; parts as usize],
                max_load: 0,
                min_load: 0,
            }),
            parts,
        }
    }

    fn reset(&self) {
        let mut inner = self.inner.lock().expect("HDRF state is only ever held by panic-free bookkeeping");
        inner.partial_degree.clear();
        inner.replicas.clear();
        inner.load.iter_mut().for_each(|l| *l = 0);
        inner.max_load = 0;
        inner.min_load = 0;
    }
}

/// The HDRF edge rule. λ weighs the balance term (the original paper uses
/// λ ≥ 1; 1.1 is its recommended default), ε avoids division by zero.
#[derive(Clone, Debug)]
pub struct HdrfEdge {
    /// Balance-term weight λ (HDRF paper default 1.1).
    pub lambda: f64,
    /// Balance-term denominator guard ε.
    pub epsilon: f64,
}

impl HdrfEdge {
    /// Creates a new instance.
    pub fn new(_setup: &Setup) -> Self {
        HdrfEdge {
            lambda: 1.1,
            epsilon: 1.0,
        }
    }
}

impl EdgeRule for HdrfEdge {
    type State = HdrfState;

    fn get_edge_owner(
        &self,
        _prop: &LocalProps,
        src: Node,
        dst: Node,
        _src_master: PartId,
        _dst_master: PartId,
        state: &Self::State,
    ) -> PartId {
        let mut inner = state.inner.lock().expect("HDRF state is only ever held by panic-free bookkeeping");
        // Update partial degrees.
        let ds = {
            let e = inner.partial_degree.entry(src).or_insert(0);
            *e += 1;
            *e as f64
        };
        let dd = {
            let e = inner.partial_degree.entry(dst).or_insert(0);
            *e += 1;
            *e as f64
        };
        // θ: normalized degree share of src; g(v, p) favors placing the
        // edge where the *lower*-degree endpoint already has a replica
        // (replicating the high-degree endpoint instead).
        let theta_src = ds / (ds + dd);
        let theta_dst = 1.0 - theta_src;
        let rep_src = inner.replicas.of(src);
        let rep_dst = inner.replicas.of(dst);

        let mut best = 0 as PartId;
        let mut best_score = f64::NEG_INFINITY;
        for p in 0..state.parts {
            let mut c_rep = 0.0;
            if holds(rep_src, p) {
                c_rep += 1.0 + (1.0 - theta_src);
            }
            if holds(rep_dst, p) {
                c_rep += 1.0 + (1.0 - theta_dst);
            }
            let c_bal = self.lambda * (inner.max_load as f64 - inner.load[p as usize] as f64)
                / (self.epsilon + (inner.max_load - inner.min_load) as f64);
            let score = c_rep + c_bal;
            if score > best_score {
                best_score = score;
                best = p;
            }
        }

        // Update replica sets and load.
        inner.replicas.insert(src, best);
        inner.replicas.insert(dst, best);
        inner.load[best as usize] += 1;
        inner.max_load = inner.max_load.max(inner.load[best as usize]);
        inner.min_load = *inner.load.iter().min().expect("at least one partition");
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp_graph::{Csr, GraphSlice};
    use std::sync::Arc;

    fn props(g: &Csr, _k: PartId) -> (GraphSlice, u64, u64) {
        (
            GraphSlice::window(Arc::new(g.clone()), None, 0, g.num_nodes() as Node),
            g.num_nodes() as u64,
            g.num_edges(),
        )
    }

    #[test]
    fn balances_load_without_structure() {
        // A matching: no shared endpoints, so placement is purely balance.
        let g = Csr::from_edges(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]);
        let (s, n, m) = props(&g, 4);
        let prop = LocalProps::new(n, m, 4, &s);
        let rule = HdrfEdge {
            lambda: 1.1,
            epsilon: 1.0,
        };
        let state = HdrfState::new(4);
        let mut used = std::collections::HashSet::new();
        for (u, v) in g.iter_edges() {
            used.insert(rule.get_edge_owner(&prop, u, v, 0, 0, &state));
        }
        assert_eq!(used.len(), 4, "each edge should land on a fresh partition");
    }

    #[test]
    fn prefers_partitions_with_replicas() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let (s, n, m) = props(&g, 2);
        let prop = LocalProps::new(n, m, 2, &s);
        let rule = HdrfEdge {
            lambda: 0.0, // disable balance to isolate the replica term
            epsilon: 1.0,
        };
        let state = HdrfState::new(2);
        let first = rule.get_edge_owner(&prop, 0, 1, 0, 0, &state);
        // Subsequent edges of node 0 should chase its replica.
        let second = rule.get_edge_owner(&prop, 0, 2, 0, 0, &state);
        let third = rule.get_edge_owner(&prop, 0, 3, 0, 0, &state);
        assert_eq!(first, second);
        assert_eq!(first, third);
    }

    #[test]
    fn replay_after_reset_is_identical() {
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let (s, n, m) = props(&g, 3);
        let prop = LocalProps::new(n, m, 3, &s);
        let rule = HdrfEdge {
            lambda: 1.1,
            epsilon: 1.0,
        };
        let state = HdrfState::new(3);
        let run = |state: &HdrfState| -> Vec<PartId> {
            g.iter_edges()
                .map(|(u, v)| rule.get_edge_owner(&prop, u, v, 0, 0, state))
                .collect()
        };
        let a = run(&state);
        state.reset();
        let b = run(&state);
        assert_eq!(a, b, "deterministic replay after reset is required by CuSP");
    }

    #[test]
    fn replica_sets_are_sized_by_the_partition_count() {
        let mut sets = ReplicaSets::new(130);
        sets.insert(7, 129);
        sets.insert(7, 64);
        sets.insert(9, 0);
        let seven = sets.of(7);
        assert!(holds(seven, 129) && holds(seven, 64));
        assert!(!holds(seven, 63) && !holds(seven, 0) && !holds(seven, 128));
        assert!(holds(sets.of(9), 0) && !holds(sets.of(9), 129));
        assert!(!holds(sets.of(8), 0), "an unseen vertex holds no partition");
    }
}
