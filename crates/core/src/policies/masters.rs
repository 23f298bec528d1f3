//! `getMaster` rules from Algorithm 1 of the paper: `Contiguous`,
//! `ContiguousEB`, `Fennel`, and `FennelEB`.

use cusp_graph::Node;

use crate::phases::master::range_owner;
use crate::policy::{MasterRule, MasterView, Setup};
use crate::props::LocalProps;
use crate::state::LoadState;
use crate::PartId;

/// `Contiguous` and `ContiguousEB` (Algorithm 1): contiguous node chunks,
/// one per partition in node order. The rule is its `k − 1` range starts
/// ([`MasterRule::pure_starts`]), and the two differ only in how those are
/// computed: [`Contiguous::new`] cuts equal-sized chunks, and
/// [`ContiguousEB::new`] chunks with roughly equal *out-edge* counts.
///
/// The starts are computed once from [`Setup`], identical on every host,
/// so evaluation for any node — local or remote — is a count over them.
/// This realizes the paper's "replicate computation instead of
/// communication" elision (§IV-D5, §V-A).
#[derive(Clone, Debug)]
pub struct Contiguous {
    starts: Vec<Node>,
}

impl Contiguous {
    /// `Contiguous`: equal-sized chunks.
    ///
    /// ```text
    /// blockSize = ceil(numNodes / numPartitions)
    /// return floor(nodeId / blockSize)
    /// ```
    ///
    /// Partition `p ≥ 1` starts at `p · blockSize`, clamped to the node
    /// count, so the last partition also takes any remainder.
    pub fn new(setup: &Setup) -> Self {
        let block_size = setup.num_nodes.div_ceil(setup.parts as u64).max(1);
        let starts = (1..setup.parts as u64).map(|p| (p * block_size).min(setup.num_nodes) as Node);
        Contiguous { starts: starts.collect() }
    }
}

/// `ContiguousEB`'s constructor: a [`Contiguous`] rule over the
/// edge-balanced blocking [`Setup::eb_boundaries`].
pub enum ContiguousEB {}

impl ContiguousEB {
    /// `ContiguousEB`: partition `p` starts at the `p`-th interior node
    /// boundary of the edge-balanced blocking.
    #[allow(clippy::new_ret_no_self)] // Algorithm 1's name for one constructor of `Contiguous`
    pub fn new(setup: &Setup) -> Contiguous {
        let boundaries = &setup.eb_boundaries;
        assert_eq!(boundaries.len(), setup.parts as usize + 1, "eb_boundaries must have parts + 1 entries");
        let starts = &boundaries[1..boundaries.len() - 1];
        Contiguous { starts: starts.iter().map(|&b| b as Node).collect() }
    }
}

impl MasterRule for Contiguous {
    type State = ();

    fn pure_starts(&self) -> Option<&[Node]> {
        Some(&self.starts)
    }

    fn get_master(
        &self,
        _prop: &LocalProps,
        node: Node,
        _state: &Self::State,
        _masters: &MasterView,
    ) -> PartId {
        range_owner(&self.starts, node)
    }
}

/// `Fennel` (Algorithm 1): greedy streaming placement scoring each
/// partition by co-located neighbors minus a size penalty
/// (`score[p] = |neighbors already in p| − α·γ·numNodes[p]^(γ−1)`).
///
/// Uses the paper's evaluation constants by default: γ = 1.5 and
/// α = m·h^(γ−1)/n^γ (§V-A).
#[derive(Clone, Debug)]
pub struct Fennel {
    /// Fennel size-penalty coefficient α.
    pub alpha: f64,
    /// Fennel size-penalty exponent γ.
    pub gamma: f64,
}

impl Fennel {
    /// Creates a new instance.
    pub fn new(setup: &Setup) -> Self {
        Fennel {
            alpha: paper_alpha(setup),
            gamma: 1.5,
        }
    }

    /// `load^(γ−1)`, the growth term of the size penalty `α·γ·load^(γ−1)`
    /// that [`Fennel`] and [`FennelEB`] both subtract. It is evaluated for
    /// every partition of every node, and at the paper's γ = 1.5 the
    /// exponent is exactly ½: a square root (one instruction, correctly
    /// rounded) where `powf` is a libm call.
    #[inline]
    fn size_penalty(&self, load: f64) -> f64 {
        if self.gamma == 1.5 {
            load.sqrt()
        } else {
            load.powf(self.gamma - 1.0)
        }
    }

    /// The partition with the best `neighbours − α·γ·load^(γ−1)`.
    fn best(
        &self,
        prop: &LocalProps,
        node: Node,
        masters: &MasterView,
        load: impl Fn(PartId) -> f64,
    ) -> PartId {
        let weight = self.alpha * self.gamma;
        let counts = neighbor_counts(prop, node, masters);
        best_partition(counts.len(), |p| {
            counts[p] as f64 - weight * self.size_penalty(load(p as PartId))
        })
    }
}

/// α = m·h^(γ−1)/n^γ with γ = 1.5 (paper §V-A).
pub fn paper_alpha(setup: &Setup) -> f64 {
    let n = setup.num_nodes.max(1) as f64;
    let m = setup.num_edges.max(1) as f64;
    let h = setup.parts as f64;
    m * h.powf(0.5) / n.powf(1.5)
}

/// Counts, per partition, the out-neighbours of `node` whose master is
/// already known — the neighbour term of every scored rule.
pub(crate) fn neighbor_counts(prop: &LocalProps, node: Node, masters: &MasterView) -> Vec<u64> {
    let mut counts = vec![0u64; prop.num_partitions() as usize];
    for &n in prop.out_neighbors(node) {
        if let Some(m) = masters.get(n) {
            counts[m as usize] += 1;
        }
    }
    counts
}

/// The partition in `0..parts` with the highest score (lowest id wins
/// ties).
pub(crate) fn best_partition(parts: usize, score: impl Fn(usize) -> f64) -> PartId {
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for p in 0..parts {
        let s = score(p);
        if s > best_score {
            best_score = s;
            best = p;
        }
    }
    best as PartId
}

impl MasterRule for Fennel {
    type State = LoadState;

    fn uses_neighbor_masters(&self) -> bool {
        true
    }

    fn get_master(
        &self,
        prop: &LocalProps,
        node: Node,
        state: &Self::State,
        masters: &MasterView,
    ) -> PartId {
        let part = self.best(prop, node, masters, |p| state.nodes(p) as f64);
        state.add_assignment(part, 0);
        part
    }
}

/// `FennelEB` (Algorithm 1): the PowerLyra/Ginger variant of the Fennel
/// heuristic. High-degree nodes short-circuit to `ContiguousEB`; otherwise
/// the size penalty uses a blended node+edge load,
/// `load = (numNodes[p] + μ·numEdges[p]) / 2` with `μ = n/m`.
///
/// Note: Algorithm 1's pseudocode increments `numEdges[part]` by one; we
/// add the node's out-degree, since `numEdges[p]` tracks "the number of
/// outgoing edges of those nodes" (§III-B) and a unit increment would make
/// the edge term a node counter.
#[derive(Clone, Debug)]
pub struct FennelEB {
    /// The Fennel constants α and γ, and with them the size penalty.
    pub fennel: Fennel,
    /// Degree threshold above which placement degrades to ContiguousEB.
    pub degree_threshold: u64,
    eb: Contiguous,
    mu: f64,
}

impl FennelEB {
    /// Creates a new instance.
    pub fn new(setup: &Setup) -> Self {
        FennelEB {
            fennel: Fennel::new(setup),
            degree_threshold: 100,
            eb: ContiguousEB::new(setup),
            mu: setup.num_nodes.max(1) as f64 / setup.num_edges.max(1) as f64,
        }
    }

    /// With threshold.
    pub fn with_threshold(mut self, threshold: u64) -> Self {
        self.degree_threshold = threshold;
        self
    }
}

impl MasterRule for FennelEB {
    type State = LoadState;

    fn uses_neighbor_masters(&self) -> bool {
        true
    }

    fn get_master(
        &self,
        prop: &LocalProps,
        node: Node,
        state: &Self::State,
        masters: &MasterView,
    ) -> PartId {
        let degree = prop.out_degree(node);
        if degree > self.degree_threshold {
            return range_owner(&self.eb.starts, node);
        }
        let part = self.fennel.best(prop, node, masters, |p| {
            (state.nodes(p) as f64 + self.mu * state.edges(p) as f64) / 2.0
        });
        state.add_assignment(part, degree);
        part
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::master::{owned_range, MasterTable};
    use crate::state::PartitionState;
    use cusp_graph::{Csr, GraphSlice, ReadSplit};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn setup(n: u64, m: u64, k: PartId, eb: Vec<u64>) -> Setup {
        Setup {
            num_nodes: n,
            num_edges: m,
            parts: k,
            eb_boundaries: Arc::new(eb),
            read_splits: Arc::new(vec![ReadSplit { lo: 0, hi: n }]),
        }
    }

    /// The master of `v` and the range of `p` under a contiguous rule's starts.
    fn owner(rule: &Contiguous, v: Node) -> PartId {
        range_owner(rule.pure_starts().unwrap(), v)
    }
    fn range(rule: &Contiguous, p: PartId, n: u64) -> std::ops::Range<Node> {
        owned_range(rule.pure_starts().unwrap(), p, n)
    }

    #[test]
    fn contiguous_blocks() {
        let s = setup(10, 0, 3, vec![0, 4, 8, 10]);
        let c = Contiguous::new(&s);
        // blockSize = ceil(10/3) = 4
        assert_eq!(c.pure_starts(), Some(&[4, 8][..]));
        assert_eq!(owner(&c, 0), 0);
        assert_eq!(owner(&c, 3), 0);
        assert_eq!(owner(&c, 4), 1);
        assert_eq!(owner(&c, 7), 1);
        assert_eq!(owner(&c, 8), 2);
        assert_eq!(owner(&c, 9), 2);
        assert_eq!(range(&c, 0, 10), 0..4);
        assert_eq!(range(&c, 2, 10), 8..10);
    }

    #[test]
    fn contiguous_ranges_cover_everything() {
        for (n, k) in [(10u64, 3u32), (7, 7), (5, 8), (100, 16)] {
            let s = setup(n, 0, k, vec![0; k as usize + 1]);
            let c = Contiguous::new(&s);
            let mut covered = 0u64;
            for p in 0..k {
                let r = range(&c, p, n);
                for v in r.clone() {
                    assert_eq!(owner(&c, v), p, "n={n} k={k} v={v}");
                }
                covered += (r.end - r.start) as u64;
            }
            assert_eq!(covered, n, "n={n} k={k}");
        }
    }

    #[test]
    fn contiguous_eb_uses_boundaries() {
        let s = setup(10, 100, 3, vec![0, 2, 9, 10]);
        let c = ContiguousEB::new(&s);
        assert_eq!(c.pure_starts(), Some(&[2, 9][..]));
        assert_eq!(owner(&c, 0), 0);
        assert_eq!(owner(&c, 1), 0);
        assert_eq!(owner(&c, 2), 1);
        assert_eq!(owner(&c, 8), 1);
        assert_eq!(owner(&c, 9), 2);
        assert_eq!(range(&c, 1, 10), 2..9);
    }

    #[test]
    fn contiguous_eb_handles_empty_blocks() {
        let s = setup(4, 100, 3, vec![0, 4, 4, 4]);
        let c = ContiguousEB::new(&s);
        for v in 0..4 {
            assert_eq!(owner(&c, v), 0);
        }
        assert_eq!(range(&c, 1, 4), 4..4);
    }

    fn props_for(g: &Csr, _k: PartId) -> (GraphSlice, u64, u64) {
        let slice = GraphSlice::window(Arc::new(g.clone()), None, 0, g.num_nodes() as Node);
        (slice, g.num_nodes() as u64, g.num_edges())
    }

    #[test]
    fn fennel_prefers_partition_with_neighbors() {
        // Star: node 4 connects to 0..4; nodes 0..2 already on partition 1.
        let g = Csr::from_edges(5, &[(4, 0), (4, 1), (4, 2), (4, 3)]);
        let (slice, n, m) = props_for(&g, 2);
        let prop = LocalProps::new(n, m, 2, &slice);
        let state = LoadState::new(2);
        // Pre-place masters: 0,1,2 → partition 1; 3 → partition 0.
        let table = MasterTable::new(5, 2);
        for (v, p) in [(0, 1), (1, 1), (2, 1), (3, 0)] {
            table.set(v, p);
        }
        let view = MasterView::new(&table);
        let f = Fennel {
            alpha: 0.01,
            gamma: 1.5,
        };
        assert_eq!(f.get_master(&prop, 4, &state, &view), 1);
        assert_eq!(state.nodes(1), 1);
    }

    #[test]
    fn fennel_balances_when_no_neighbors_known() {
        // With no known neighbors, the size penalty should spread nodes.
        let g = Csr::from_edges(8, &[]);
        let (slice, n, m) = props_for(&g, 4);
        let prop = LocalProps::new(n, m.max(1), 4, &slice);
        let state = LoadState::new(4);
        let table = MasterTable::new(8, 4);
        let view = MasterView::new(&table);
        let f = Fennel {
            alpha: 1.0,
            gamma: 1.5,
        };
        for v in 0..8u32 {
            table.set(v, f.get_master(&prop, v, &state, &view));
        }
        for p in 0..4 {
            assert_eq!(state.nodes(p), 2, "partition {p} should get 2 nodes");
        }
    }

    #[test]
    fn fennel_eb_delegates_high_degree_to_eb() {
        let mut edges = Vec::new();
        for d in 0..50u32 {
            edges.push((0u32, d % 10));
        }
        edges.push((5, 1));
        let g = Csr::from_edges(10, &edges);
        let s = setup(10, g.num_edges(), 2, vec![0, 5, 10]);
        let (slice, n, m) = props_for(&g, 2);
        let prop = LocalProps::new(n, m, 2, &slice);
        let rule = FennelEB::new(&s).with_threshold(10);
        let state = LoadState::new(2);
        let table = MasterTable::new(10, 2);
        let view = MasterView::new(&table);
        // Node 0 has degree 51 > 10 → ContiguousEB says partition 0.
        assert_eq!(rule.get_master(&prop, 0, &state, &view), 0);
        // EB path must not touch state (per Algorithm 1).
        assert_eq!(state.nodes(0), 0);
        // Node 5 (degree 1) goes through the scored path and updates state.
        let p = rule.get_master(&prop, 5, &state, &view);
        assert_eq!(state.nodes(p), 1);
        assert_eq!(state.edges(p), 1);
    }

    #[test]
    fn paper_alpha_formula() {
        let s = setup(1000, 10_000, 4, vec![0, 0, 0, 0, 0]);
        let a = paper_alpha(&s);
        let expect = 10_000.0 * 2.0 / 1000.0f64.powf(1.5);
        assert!((a - expect).abs() < 1e-12);
    }

    #[test]
    fn ties_break_toward_lower_partition() {
        assert_eq!(best_partition(3, |p| [0.0, 0.0, 0.0][p]), 0);
        assert_eq!(best_partition(3, |p| [0.0, 1.0, 1.0][p]), 1);
    }

    #[test]
    fn scored_rules_count_remote_and_local_neighbours_alike() {
        // Node 2 points at 0, 1 (local) and 7, 8, 9 (remote; 9 unanswered).
        let g = Csr::from_edges(10, &[(2, 0), (2, 1), (2, 7), (2, 8), (2, 9)]);
        let slice = GraphSlice::window(Arc::new(g), None, 0, 4);
        let prop = LocalProps::new(10, 5, 3, &slice);
        let table = MasterTable::new(10, 3);
        for (v, p) in [(0, 2), (1, 0), (3, 0), (7, 2), (8, 2)] {
            table.set(v, p);
        }
        let view = MasterView::new(&table);
        assert_eq!(neighbor_counts(&prop, 2, &view), [1, 0, 3]);
        assert_eq!(neighbor_counts(&prop, 3, &view), [0, 0, 0]);
        let f = Fennel { alpha: 0.01, gamma: 1.5 };
        assert_eq!(f.get_master(&prop, 2, &LoadState::new(3), &view), 2);
    }

    /// Distance in units in the last place between two finite non-negative
    /// doubles.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn size_penalty_is_sqrt_at_the_papers_gamma_and_pow_elsewhere() {
        let paper = Fennel { alpha: 1.0, gamma: 1.5 };
        let other = Fennel { alpha: 1.0, gamma: 1.25 };
        let mut rng = StdRng::seed_from_u64(0x5EED_F0CA);
        for i in 0..1_000_000u32 {
            // Integer node counts, and FennelEB's fractional blended loads.
            let whole = rng.random_range(0u64..20_000_000) as f64;
            let load = if i % 2 == 0 { whole } else { whole + rng.random::<f64>() };
            let p = paper.size_penalty(load);
            assert_eq!(p.to_bits(), load.sqrt().to_bits(), "gamma 1.5 must take the sqrt path");
            assert!(ulps(p, load.powf(0.5)) <= 1, "load {load}: sqrt {p} vs powf {}", load.powf(0.5));
            if i % 1000 == 0 {
                assert_eq!(other.size_penalty(load).to_bits(), load.powf(0.25).to_bits());
            }
        }
        assert_ne!(other.size_penalty(16.0), 4.0, "gamma 1.25 must not take the sqrt path");
        assert_eq!(other.size_penalty(16.0), 2.0);
    }
}
