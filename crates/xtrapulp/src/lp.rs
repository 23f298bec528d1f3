//! Distributed multi-constraint label propagation.
//!
//! Labels are initialized to edge-balanced contiguous blocks, then refined
//! over `outer_iters` bulk-synchronous passes. Within a pass each host
//! processes its vertices in `rounds_per_iter` chunks; after each chunk
//! every host exchanges (a) the label changes its peers subscribed to and
//! (b) deltas of the global per-label vertex/edge counts, in lockstep —
//! XtraPulp is an MPI bulk-synchronous code, and the lockstep exchange
//! mirrors its structure.
//!
//! A vertex moves to the label maximizing
//! `count_of_neighbors_with_label × balance_weight`, where the weight
//! decays as a label approaches its vertex or edge capacity
//! (`(1 + ε) × ideal`), and moves into over-capacity labels are rejected —
//! Pulp's multi-constraint objective.

// The explicit `for i in 0..n` indexing in the SPMD/scan loops below is
// deliberate (it mirrors per-host/per-block protocol structure).
#![allow(clippy::needless_range_loop)]

use std::collections::HashMap;
use std::sync::Arc;

use cusp::policy::{MasterRule, MasterView, Setup};
use cusp::props::LocalProps;
use cusp::PartId;
use cusp_graph::{GraphSlice, Node};
use cusp_net::{Comm, Tag, WireReader, WireWriter};

/// Tag for the one-time ghost-subscription exchange.
pub const TAG_XP_SUB: Tag = Tag(15);
/// Tag for the per-round lockstep label/count exchange.
pub const TAG_XP_SYNC: Tag = Tag(16);

/// Label propagation parameters.
#[derive(Clone, Copy, Debug)]
pub struct LpParams {
    /// Full passes over the local vertex set.
    pub outer_iters: u32,
    /// Lockstep exchanges per pass.
    pub rounds_per_iter: u32,
    /// Allowed imbalance: capacity = (1 + eps) × ideal.
    pub balance_eps: f64,
}

impl Default for LpParams {
    /// XtraPulp's staged schedule (3 constraint stages × ~10 label-prop
    /// sweeps + refinement sweeps each) amounts to tens of full passes
    /// over the edge set; we model it with a flat 20 passes, each
    /// exchanged in 4 lockstep rounds, at the paper-typical 10% imbalance.
    fn default() -> Self {
        LpParams {
            outer_iters: 20,
            rounds_per_iter: 4,
            balance_eps: 0.10,
        }
    }
}

/// Per-label global load tracking (base + unsent local delta, signed).
struct Loads {
    nodes: Vec<i64>,
    edges: Vec<i64>,
    delta_nodes: Vec<i64>,
    delta_edges: Vec<i64>,
}

impl Loads {
    fn new(k: usize) -> Self {
        Loads {
            nodes: vec![0; k],
            edges: vec![0; k],
            delta_nodes: vec![0; k],
            delta_edges: vec![0; k],
        }
    }

    fn apply_move(&mut self, from: PartId, to: PartId, degree: i64) {
        self.delta_nodes[from as usize] -= 1;
        self.delta_nodes[to as usize] += 1;
        self.delta_edges[from as usize] -= degree;
        self.delta_edges[to as usize] += degree;
    }

    fn nodes_of(&self, l: usize) -> i64 {
        self.nodes[l] + self.delta_nodes[l]
    }

    fn edges_of(&self, l: usize) -> i64 {
        self.edges[l] + self.delta_edges[l]
    }
}

/// Runs label propagation; returns this host's labels for its read range.
pub fn label_propagation(
    comm: &Comm,
    setup: &Setup,
    slice: &GraphSlice,
    params: LpParams,
) -> Vec<PartId> {
    let k = comm.num_hosts();
    let me = comm.host();
    let lo = slice.node_lo;
    let local_n = slice.num_nodes();

    // --- Initial labels: edge-balanced contiguous blocks. ----------------
    let block_of = |v: Node| -> PartId {
        let inner = &setup.eb_boundaries[1..setup.eb_boundaries.len() - 1];
        inner.partition_point(|&b| b <= v as u64) as PartId
    };
    let mut labels: Vec<PartId> = (0..local_n).map(|i| block_of(lo + i as Node)).collect();

    // --- Ghost subscriptions: peers that read my dests send me updates. --
    let mut wanted: Vec<Vec<Node>> = vec![Vec::new(); k];
    {
        let mut all: Vec<Node> = slice.dests().to_vec();
        all.sort_unstable();
        all.dedup();
        for d in all {
            let owner = setup.reader_of(d);
            if owner != me {
                wanted[owner].push(d);
            }
        }
    }
    for peer in 0..k {
        if peer == me {
            continue;
        }
        let mut w = WireWriter::with_capacity(8 + wanted[peer].len() * 4);
        w.put_u32_slice(&wanted[peer]);
        comm.send_bytes(peer, TAG_XP_SUB, w.finish());
    }
    // subscribers[peer] = indices (into my range) peer wants updates for.
    let mut subscribers: Vec<Vec<u32>> = vec![Vec::new(); k];
    for peer in 0..k {
        if peer == me {
            continue;
        }
        let payload = comm.recv_from(peer, TAG_XP_SUB);
        let mut r = WireReader::new(payload);
        subscribers[peer] = r
            .get_u32_vec()
            .expect("malformed subscription")
            .into_iter()
            .map(|v| v - lo)
            .collect();
    }
    // Ghost labels, initialized by the same pure block function.
    let mut ghosts: HashMap<Node, PartId> = wanted
        .iter()
        .flatten()
        .map(|&d| (d, block_of(d)))
        .collect();

    // --- Global load counters, seeded from the initial labeling. ---------
    let mut loads = Loads::new(k);
    for (i, &l) in labels.iter().enumerate() {
        loads.delta_nodes[l as usize] += 1;
        loads.delta_edges[l as usize] += slice.out_degree(lo + i as Node) as i64;
    }
    exchange_round(comm, me, k, &mut loads, &labels, &subscribers, &mut ghosts, None, lo);

    let ideal_v = (setup.num_nodes as f64 / k as f64).max(1.0);
    let ideal_e = (setup.num_edges as f64 / k as f64).max(1.0);
    let cap_v = ideal_v * (1.0 + params.balance_eps);
    let cap_e = ideal_e * (1.0 + params.balance_eps);

    // --- Refinement passes. -----------------------------------------------
    let rounds = params.rounds_per_iter.max(1) as usize;
    let chunk = local_n.div_ceil(rounds).max(1);
    let mut counts = vec![0u32; k];
    let mut changed_this_round: Vec<u32> = Vec::new();
    // Hosts move vertices concurrently against counts that are only
    // reconciled at round boundaries, so each host may consume at most a
    // 1/k share of a label's remaining capacity per round — XtraPulp's
    // slack division, which bounds the global overshoot by the cap itself.
    let mut quota_v = vec![0i64; k];
    let mut quota_e = vec![0i64; k];
    for _iter in 0..params.outer_iters {
        let mut start = 0usize;
        for _round in 0..rounds {
            let end = (start + chunk).min(local_n);
            changed_this_round.clear();
            for l in 0..k {
                quota_v[l] = ((cap_v - loads.nodes_of(l) as f64) / k as f64).floor() as i64;
                quota_e[l] = ((cap_e - loads.edges_of(l) as f64) / k as f64).floor() as i64;
            }
            for i in start..end {
                let v = lo + i as Node;
                let degree = slice.out_degree(v) as i64;
                let current = labels[i];
                counts.iter_mut().for_each(|c| *c = 0);
                for &d in slice.edges(v) {
                    let l = if d >= lo && ((d - lo) as usize) < local_n {
                        labels[(d - lo) as usize]
                    } else {
                        ghosts[&d]
                    };
                    counts[l as usize] += 1;
                }
                let mut best = current;
                let mut best_score = f64::NEG_INFINITY;
                for l in 0..k {
                    if counts[l] == 0 && l as PartId != current {
                        continue;
                    }
                    // Hard capacity check for moves into l: this host's
                    // remaining round quota must cover the move.
                    if l as PartId != current && (quota_v[l] < 1 || quota_e[l] < degree) {
                        continue;
                    }
                    let wv = (1.0 - loads.nodes_of(l) as f64 / cap_v).max(0.0);
                    let we = (1.0 - loads.edges_of(l) as f64 / cap_e).max(0.0);
                    let score = counts[l] as f64 * (wv + we) + if l as PartId == current { 1e-9 } else { 0.0 };
                    if score > best_score {
                        best_score = score;
                        best = l as PartId;
                    }
                }
                if best != current {
                    loads.apply_move(current, best, degree);
                    quota_v[best as usize] -= 1;
                    quota_e[best as usize] -= degree;
                    labels[i] = best;
                    changed_this_round.push(i as u32);
                }
            }
            start = end;
            exchange_round(
                comm,
                me,
                k,
                &mut loads,
                &labels,
                &subscribers,
                &mut ghosts,
                Some(&changed_this_round),
                lo,
            );
        }
    }
    labels
}

/// One lockstep exchange: per-label count deltas plus the changed labels
/// each subscriber asked for. Every host sends to and receives from every
/// peer exactly once.
#[allow(clippy::too_many_arguments)]
fn exchange_round(
    comm: &Comm,
    me: usize,
    k: usize,
    loads: &mut Loads,
    labels: &[PartId],
    subscribers: &[Vec<u32>],
    ghosts: &mut HashMap<Node, PartId>,
    changed: Option<&[u32]>,
    lo: Node,
) {
    // `None` means the initial full exchange; `Some(list)` sends only the
    // labels that moved this round.
    let changed_set: Option<std::collections::HashSet<u32>> =
        changed.map(|c| c.iter().copied().collect());
    for peer in 0..k {
        if peer == me {
            continue;
        }
        let mut w = WireWriter::new();
        for l in 0..k {
            w.put_u64(loads.delta_nodes[l] as u64);
            w.put_u64(loads.delta_edges[l] as u64);
        }
        let to_send: Vec<(Node, PartId)> = subscribers[peer]
            .iter()
            .filter(|&&i| changed_set.as_ref().is_none_or(|set| set.contains(&i)))
            .map(|&i| (lo + i, labels[i as usize]))
            .collect();
        w.put_u64(to_send.len() as u64);
        for (v, l) in to_send {
            w.put_u32(v);
            w.put_u32(l);
        }
        comm.send_bytes(peer, TAG_XP_SYNC, w.finish());
    }
    // Fold own deltas into base.
    for l in 0..k {
        loads.nodes[l] += loads.delta_nodes[l];
        loads.edges[l] += loads.delta_edges[l];
        loads.delta_nodes[l] = 0;
        loads.delta_edges[l] = 0;
    }
    for peer in 0..k {
        if peer == me {
            continue;
        }
        let payload = comm.recv_from(peer, TAG_XP_SYNC);
        let mut r = WireReader::new(payload);
        for l in 0..k {
            loads.nodes[l] += r.get_u64().expect("malformed delta") as i64;
            loads.edges[l] += r.get_u64().expect("malformed delta") as i64;
        }
        let cnt = r.get_u64().expect("malformed labels") as usize;
        for _ in 0..cnt {
            let v = r.get_u32().expect("malformed label pair");
            let l = r.get_u32().expect("malformed label pair");
            ghosts.insert(v, l);
        }
    }
}

/// A CuSP master rule that reads off precomputed labels — how XtraPulp's
/// output enters the CuSP construction pipeline.
#[derive(Clone)]
pub struct LabelRule {
    /// First node of the label owner's read range.
    pub lo: Node,
    /// Labels for that range, indexed by `node - lo`.
    pub labels: Arc<Vec<PartId>>,
}

impl MasterRule for LabelRule {
    type State = ();

    fn get_master(
        &self,
        _prop: &LocalProps,
        node: Node,
        _state: &(),
        _masters: &MasterView,
    ) -> PartId {
        self.labels[(node - self.lo) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp::config::{CuspConfig, GraphSource};
    use cusp::phases::read::read_phase;
    use cusp_graph::gen::uniform::erdos_renyi;
    use cusp_net::Cluster;
    use std::sync::Arc as StdArc;

    fn run_lp(k: usize, n: usize, m: usize, params: LpParams) -> Vec<Vec<PartId>> {
        let g = StdArc::new(erdos_renyi(n, m, 77));
        let out = Cluster::run(k, move |comm| {
            let mut r = read_phase(comm, &GraphSource::Memory(g.clone()), &CuspConfig::default())
                .unwrap();
            label_propagation(comm, &r.setup, r.data.load_chunk(0), params)
        });
        out.results
    }

    #[test]
    fn labels_are_valid_partitions() {
        let per_host = run_lp(4, 400, 3200, LpParams::default());
        let all: Vec<PartId> = per_host.into_iter().flatten().collect();
        assert_eq!(all.len(), 400);
        assert!(all.iter().all(|&l| l < 4));
        // Every label used.
        for l in 0..4 {
            assert!(all.contains(&l), "label {l} unused");
        }
    }

    #[test]
    fn vertex_balance_respected() {
        let per_host = run_lp(4, 1000, 8000, LpParams::default());
        let all: Vec<PartId> = per_host.into_iter().flatten().collect();
        let mut sizes = [0usize; 4];
        for &l in &all {
            sizes[l as usize] += 1;
        }
        let cap = (1000.0 / 4.0 * 1.1 + 1.0) as usize;
        for (l, &s) in sizes.iter().enumerate() {
            assert!(s <= cap + 2, "label {l} oversize: {s} > {cap}");
        }
    }

    #[test]
    fn propagation_reduces_cut_edges() {
        // Two dense clusters with a thin bridge: LP should discover them.
        let mut edges = Vec::new();
        let mut rng = 12345u64;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as u32
        };
        for _ in 0..2000 {
            let (a, b) = (next() % 100, next() % 100);
            edges.push((a, b));
            let (c, d) = (100 + next() % 100, 100 + next() % 100);
            edges.push((c, d));
        }
        edges.push((50, 150));
        let g = StdArc::new(cusp_graph::Csr::from_edges(200, &edges));
        let cut_of = |labels: &[PartId]| -> usize {
            g.iter_edges()
                .filter(|&(u, v)| labels[u as usize] != labels[v as usize])
                .count()
        };
        let g2 = StdArc::clone(&g);
        let out = Cluster::run(2, move |comm| {
            let mut r = read_phase(comm, &GraphSource::Memory(g2.clone()), &CuspConfig::default())
                .unwrap();
            let initial: Vec<PartId> = (r.data.node_lo()..r.data.node_hi())
                .map(|v| {
                    let inner = &r.setup.eb_boundaries[1..r.setup.eb_boundaries.len() - 1];
                    inner.partition_point(|&b| b <= v as u64) as PartId
                })
                .collect();
            let refined = label_propagation(comm, &r.setup, r.data.load_chunk(0), LpParams::default());
            (initial, refined)
        });
        let initial: Vec<PartId> = out.results.iter().flat_map(|(i, _)| i.clone()).collect();
        let refined: Vec<PartId> = out.results.iter().flat_map(|(_, r)| r.clone()).collect();
        assert!(
            cut_of(&refined) <= cut_of(&initial),
            "refinement must not worsen the cut: {} -> {}",
            cut_of(&initial),
            cut_of(&refined)
        );
    }

    #[test]
    fn lp_is_deterministic() {
        // No RNG anywhere: identical runs give identical labelings.
        let a = run_lp(4, 500, 4000, LpParams::default());
        let b = run_lp(4, 500, 4000, LpParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn edge_balance_respected() {
        let per_host = run_lp(4, 800, 9600, LpParams::default());
        let g = StdArc::new(erdos_renyi(800, 9600, 77));
        let all: Vec<PartId> = per_host.into_iter().flatten().collect();
        let mut edge_load = [0u64; 4];
        for v in 0..800u32 {
            edge_load[all[v as usize] as usize] += g.out_degree(v);
        }
        let cap = (9600.0 / 4.0 * 1.1) as u64;
        for (l, &e) in edge_load.iter().enumerate() {
            assert!(e <= cap + 50, "label {l} edge-overloaded: {e} > {cap}");
        }
    }

    #[test]
    fn single_host_lp_is_trivial() {
        let per_host = run_lp(1, 50, 200, LpParams::default());
        assert_eq!(per_host[0].len(), 50);
        assert!(per_host[0].iter().all(|&l| l == 0));
    }
}
