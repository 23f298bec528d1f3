//! Partition-invariant oracle.
//!
//! [`check_partition`] asserts the full cross-host invariant set CuSP's
//! correctness argument rests on (paper §III-B, Table I) and returns
//! **every** violation it finds (`metrics::validate_partitioning` is this
//! check reduced to its first violation), so a corrupted partition can be
//! attributed to an invariant class:
//!
//! * **edge coverage** — every input edge is assigned to exactly one host
//!   (as a multiset: no loss, no duplication, no fabrication);
//! * **master assignment** — every vertex has exactly one master, and
//!   every host holding a proxy agrees where it is;
//! * **mirror symmetry** — mirror proxy lists are consistent with the
//!   master side (a mirror always points at a partition that actually
//!   hosts the vertex as a master, never at itself);
//! * **CSR well-formedness** — sorted offsets, in-bounds destinations,
//!   id maps sorted and duplicate-free with round-tripping lookups;
//! * **weight preservation** — per-edge data survives partitioning
//!   byte-for-byte (checked as a weighted edge multiset);
//! * **communication conservation** — per phase, bytes/messages sent equal
//!   bytes/messages received (the Table V accounting identity), via
//!   [`check_comm_stats`].
//!
//! The oracle is pure observation: it never mutates the partitions and is
//! safe to run from tests, benches, or debugging sessions.

use std::collections::HashMap;

use cusp_graph::wire::Fingerprint;
use cusp_graph::{Csr, Node};
use cusp_net::CommStats;

use crate::dist_graph::DistGraph;
use crate::PartId;

/// The invariant class a [`Violation`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// An input edge is missing, duplicated, or fabricated.
    EdgeCoverage,
    /// A vertex has zero or multiple masters, or a proxy disagrees about
    /// where the master lives.
    MasterAssignment,
    /// A mirror's master pointer is not symmetric with the master side.
    MirrorSymmetry,
    /// A partition's CSR or id map is structurally broken.
    CsrWellFormed,
    /// Per-edge data was altered by partitioning.
    WeightPreservation,
    /// A phase sent bytes/messages that were never received (or vice
    /// versa).
    CommConservation,
    /// An incremental (delta) repartition diverged from the full
    /// re-partition of the same mutated graph.
    DeltaDivergence,
}

/// One concrete invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The invariant class that failed.
    pub kind: ViolationKind,
    /// The partition the violation was observed on, when attributable.
    pub part: Option<PartId>,
    /// Human-readable description with the offending ids/values.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.part {
            Some(p) => write!(f, "[{:?}] part {}: {}", self.kind, p, self.detail),
            None => write!(f, "[{:?}] {}", self.kind, self.detail),
        }
    }
}

/// Detailed violations reported per kind before summarizing with a count
/// (keeps mutation tests readable when thousands of edges are corrupted).
const MAX_DETAILED: usize = 16;

struct Reporter {
    out: Vec<Violation>,
    counts: HashMap<ViolationKind, usize>,
}

impl Reporter {
    fn new() -> Self {
        Reporter { out: Vec::new(), counts: HashMap::new() }
    }

    fn push(&mut self, kind: ViolationKind, part: Option<PartId>, detail: String) {
        let n = self.counts.entry(kind).or_insert(0);
        *n += 1;
        if *n <= MAX_DETAILED {
            self.out.push(Violation { kind, part, detail });
        }
    }

    fn finish(mut self) -> Vec<Violation> {
        for (&kind, &n) in &self.counts {
            if n > MAX_DETAILED {
                self.out.push(Violation {
                    kind,
                    part: None,
                    detail: format!("...and {} more {kind:?} violations", n - MAX_DETAILED),
                });
            }
        }
        self.out
    }
}

/// Checks every partition-level invariant of `parts` against the original
/// graph, returning all violations (empty means the partition is valid).
///
/// `original_data` must be the per-edge data aligned with `original`'s edge
/// order for weighted inputs, or `None` for unweighted ones.
pub fn check_partition(
    original: &Csr,
    original_data: Option<&[u32]>,
    parts: &[DistGraph],
) -> Vec<Violation> {
    let mut r = Reporter::new();
    let n = original.num_nodes() as u64;
    let k = parts.len();

    // --- Per-part structural checks. -----------------------------------
    for (idx, p) in parts.iter().enumerate() {
        let pid = Some(p.part_id);
        if p.part_id as usize != idx {
            r.push(
                ViolationKind::CsrWellFormed,
                pid,
                format!("part_id {} at index {idx}", p.part_id),
            );
        }
        if p.num_parts as usize != k {
            r.push(
                ViolationKind::CsrWellFormed,
                pid,
                format!("num_parts {} but {} partitions exist", p.num_parts, k),
            );
        }
        if p.global_nodes != n || p.global_edges != original.num_edges() {
            r.push(
                ViolationKind::CsrWellFormed,
                pid,
                format!(
                    "global shape {}x{} disagrees with input {}x{}",
                    p.global_nodes,
                    p.global_edges,
                    n,
                    original.num_edges()
                ),
            );
        }
        if p.master_of.len() != p.num_local() {
            r.push(
                ViolationKind::CsrWellFormed,
                pid,
                format!("master_of has {} entries for {} proxies", p.master_of.len(), p.num_local()),
            );
        }
        if p.num_masters > p.num_local() {
            r.push(
                ViolationKind::CsrWellFormed,
                pid,
                format!("num_masters {} exceeds {} proxies", p.num_masters, p.num_local()),
            );
        }
        // Id map: both segments strictly ascending, all ids in range.
        for (name, seg) in [("master", p.master_globals()), ("mirror", p.mirror_globals())] {
            for w in seg.windows(2) {
                if w[0] >= w[1] {
                    r.push(
                        ViolationKind::CsrWellFormed,
                        pid,
                        format!("{name} segment not strictly ascending at {} >= {}", w[0], w[1]),
                    );
                }
            }
            for &g in seg {
                if g as u64 >= n {
                    r.push(
                        ViolationKind::CsrWellFormed,
                        pid,
                        format!("{name} proxy for nonexistent global vertex {g}"),
                    );
                }
            }
        }
        // CSR shape: offsets sorted, destinations in bounds, weights sized.
        let nl = p.num_local();
        if p.graph.num_nodes() != nl {
            r.push(
                ViolationKind::CsrWellFormed,
                pid,
                format!("CSR has {} nodes for {} proxies", p.graph.num_nodes(), nl),
            );
        }
        let offsets = p.graph.offsets();
        for w in offsets.windows(2) {
            if w[0] > w[1] {
                r.push(
                    ViolationKind::CsrWellFormed,
                    pid,
                    format!("offsets not sorted: {} > {}", w[0], w[1]),
                );
            }
        }
        for &d in p.graph.dests() {
            if d as usize >= nl {
                r.push(
                    ViolationKind::CsrWellFormed,
                    pid,
                    format!("edge destination local id {d} out of range ({nl} proxies)"),
                );
            }
        }
        match (&p.edge_data, original_data) {
            (Some(d), _) if d.len() as u64 != p.graph.num_edges() => {
                r.push(
                    ViolationKind::WeightPreservation,
                    pid,
                    format!("{} weights for {} edges", d.len(), p.graph.num_edges()),
                );
            }
            (Some(_), None) => {
                r.push(
                    ViolationKind::WeightPreservation,
                    pid,
                    "partition carries weights but the input had none".to_string(),
                );
            }
            (None, Some(_)) => {
                r.push(
                    ViolationKind::WeightPreservation,
                    pid,
                    "input weights were dropped by partitioning".to_string(),
                );
            }
            _ => {}
        }
    }

    // --- Master uniqueness, coverage, and proxy agreement. --------------
    // master_home[v] = the partition hosting v's master proxy.
    let mut master_home: Vec<Option<PartId>> = vec![None; original.num_nodes()];
    for p in parts {
        for &g in p.master_globals() {
            if (g as u64) >= n {
                continue; // already reported above
            }
            match master_home[g as usize] {
                None => master_home[g as usize] = Some(p.part_id),
                Some(prev) => r.push(
                    ViolationKind::MasterAssignment,
                    Some(p.part_id),
                    format!("vertex {g} has masters on partitions {prev} and {}", p.part_id),
                ),
            }
        }
    }
    for (v, home) in master_home.iter().enumerate() {
        if home.is_none() {
            r.push(
                ViolationKind::MasterAssignment,
                None,
                format!("vertex {v} has no master on any partition"),
            );
        }
    }
    for p in parts {
        for (l, (&g, &claimed)) in p.local2global.iter().zip(&p.master_of).enumerate() {
            if (g as u64) >= n {
                continue;
            }
            if claimed as usize >= parts.len() {
                r.push(
                    ViolationKind::MasterAssignment,
                    Some(p.part_id),
                    format!("proxy of {g} claims nonexistent master partition {claimed}"),
                );
                continue;
            }
            let is_master = l < p.num_masters;
            if is_master {
                if claimed != p.part_id {
                    r.push(
                        ViolationKind::MasterAssignment,
                        Some(p.part_id),
                        format!("master proxy of {g} points at part {claimed}, not itself"),
                    );
                }
            } else {
                // Mirror symmetry: the claimed master partition must host v
                // as a master, and a mirror never points at its own part.
                if claimed == p.part_id {
                    r.push(
                        ViolationKind::MirrorSymmetry,
                        Some(p.part_id),
                        format!("mirror of {g} claims master on its own partition"),
                    );
                } else if master_home[g as usize] != Some(claimed) {
                    r.push(
                        ViolationKind::MirrorSymmetry,
                        Some(p.part_id),
                        format!(
                            "mirror of {g} claims master on part {claimed}, but the master lives on {:?}",
                            master_home[g as usize]
                        ),
                    );
                }
            }
        }
    }

    // --- Edge multiset coverage (and weight preservation). --------------
    // balance > 0: the input edge is missing; < 0: extra/duplicated.
    let mut unweighted: HashMap<(Node, Node), i64> = HashMap::with_capacity(original.num_edges() as usize);
    for (u, v) in original.iter_edges() {
        *unweighted.entry((u, v)).or_insert(0) += 1;
    }
    let mut weighted: HashMap<(Node, Node, u32), i64> = HashMap::new();
    if let Some(data) = original_data {
        for ((u, v), &w) in original.iter_edges().zip(data) {
            *weighted.entry((u, v, w)).or_insert(0) += 1;
        }
    }
    for p in parts {
        for (e, (lu, lv)) in p.graph.iter_edges().enumerate() {
            let (Some(&gu), Some(&gv)) =
                (p.local2global.get(lu as usize), p.local2global.get(lv as usize))
            else {
                continue; // out-of-range local id, already reported
            };
            *unweighted.entry((gu, gv)).or_insert(0) -= 1;
            if let (Some(_), Some(data)) = (original_data, &p.edge_data) {
                if let Some(&w) = data.get(e) {
                    *weighted.entry((gu, gv, w)).or_insert(0) -= 1;
                }
            }
        }
    }
    let mut coverage_ok = true;
    for (&(u, v), &bal) in unweighted.iter() {
        if bal > 0 {
            coverage_ok = false;
            r.push(
                ViolationKind::EdgeCoverage,
                None,
                format!("edge {u}->{v} assigned to no host ({bal} copies missing)"),
            );
        } else if bal < 0 {
            coverage_ok = false;
            r.push(
                ViolationKind::EdgeCoverage,
                None,
                format!("edge {u}->{v} over-assigned ({} extra copies)", -bal),
            );
        }
    }
    // Weight mismatches only make sense to report when the (u, v) multiset
    // itself balances — otherwise they restate the coverage failure.
    if coverage_ok && original_data.is_some() {
        for (&(u, v, w), &bal) in weighted.iter() {
            if bal != 0 {
                r.push(
                    ViolationKind::WeightPreservation,
                    None,
                    format!("weighted edge {u}->{v} ({w}) duplicated or altered (balance {bal})"),
                );
            }
        }
    }

    r.finish()
}

/// Checks the per-phase communication conservation invariant: everything
/// sent was delivered to and consumed by the receiving application
/// (Table V accounting balances on both sides of the wire).
pub fn check_comm_stats(stats: &CommStats) -> Vec<Violation> {
    let mut r = Reporter::new();
    for (name, pairs) in stats.unconserved_phases() {
        for (src, dst) in pairs {
            let p = stats.phase(name).expect("phase exists");
            r.push(
                ViolationKind::CommConservation,
                None,
                format!(
                    "phase '{name}': {}->{} sent {}B/{} msgs, received {}B/{} msgs",
                    src,
                    dst,
                    p.bytes_between(src, dst),
                    p.messages_between(src, dst),
                    p.recv_bytes_between(src, dst),
                    p.recv_messages_between(src, dst),
                ),
            );
        }
    }
    r.finish()
}

/// Runs [`check_partition`] and [`check_comm_stats`] together.
pub fn check_all(
    original: &Csr,
    original_data: Option<&[u32]>,
    parts: &[DistGraph],
    stats: &CommStats,
) -> Vec<Violation> {
    let mut out = check_partition(original, original_data, parts);
    out.extend(check_comm_stats(stats));
    out
}

/// Incremental-equivalence oracle for `partition_delta` (ISSUE 8, paper
/// §V's determinism argument extended to mutation batches).
///
/// Asserts the delta-maintained partitions are (a) invariant-clean against
/// the **mutated** graph via [`check_partition`], and (b)
/// [`partition_fingerprint`]-identical to `full_parts`, a from-scratch
/// re-partition of the same mutated graph under the same policy and
/// config. Fingerprint-identical, not byte-identical: a delta row holds
/// its kept edges before its re-decided ones, which the fingerprint's
/// per-row multiset does not see. Divergence is reported as
/// [`ViolationKind::DeltaDivergence`] with both fingerprints in the detail.
pub fn check_delta_equivalence(
    mutated: &Csr,
    mutated_data: Option<&[u32]>,
    delta_parts: &[DistGraph],
    full_parts: &[DistGraph],
) -> Vec<Violation> {
    let mut out = check_partition(mutated, mutated_data, delta_parts);
    if delta_parts.len() != full_parts.len() {
        out.push(Violation {
            kind: ViolationKind::DeltaDivergence,
            part: None,
            detail: format!(
                "delta produced {} partitions, full re-partition {}",
                delta_parts.len(),
                full_parts.len()
            ),
        });
        return out;
    }
    let d = partition_fingerprint(delta_parts);
    let f = partition_fingerprint(full_parts);
    if d != f {
        out.push(Violation {
            kind: ViolationKind::DeltaDivergence,
            part: None,
            detail: format!("delta fingerprint {d:#018x} != full re-partition fingerprint {f:#018x}"),
        });
    }
    out
}

/// Fingerprint of one partition: every structural value of `p` through
/// one [`Fingerprint`], in this order —
///
/// 1. the scalars `part_id`, `num_parts`, `num_masters`, `global_nodes`,
///    `global_edges`, `class` (its discriminant);
/// 2. the arrays `local2global`, `master_of`, the CSR `offsets`, each
///    framed by its own length;
/// 3. each row as the multiset of its `(dest, weight)` pairs
///    ([`Fingerprint::rows`]), in row order;
/// 4. the weights-present word: `0` for `None`, `1` for one weight per
///    edge. A weight array of any other length is malformed; it is `2` and
///    then `edge_data` framed by its length, with the rows absorbed
///    unweighted, so `None` and `Some(vec![])` still differ.
///
/// Two parts share a fingerprint iff they are equal up to the order of
/// edges within a row (a single differing element always shows; anything
/// else collides with probability ≈ 2⁻⁶⁴). A full run's rows come out in
/// input order, so its parts are byte-identical across execution shapes;
/// a delta run orders a row differently and matches it by this value
/// alone. This is the unit the serve cache digests while it writes or
/// reads a `.part` file, and what `cusp-part launch`/`inspect` print per
/// host so that a mismatch names the host that differs.
pub fn part_fingerprint(p: &DistGraph) -> u64 {
    let mut h = Fingerprint::new();
    h.word(p.part_id as u64);
    h.word(p.num_parts as u64);
    h.word(p.num_masters as u64);
    h.word(p.global_nodes);
    h.word(p.global_edges);
    h.word(p.class as u64);
    h.array(&p.local2global);
    h.array(&p.master_of);
    let (offsets, dests) = (p.graph.offsets(), p.graph.dests());
    h.array(offsets);
    match p.edge_data.as_deref() {
        None => {
            h.rows(offsets, dests, None);
            h.word(0);
        }
        Some(ws) if ws.len() == dests.len() => {
            h.rows(offsets, dests, Some(ws));
            h.word(1);
        }
        Some(ws) => {
            h.rows(offsets, dests, None);
            h.word(2);
            h.array(ws);
        }
    }
    h.finish()
}

/// Fingerprint of a whole partitioning: the [`part_fingerprint`]s in
/// partition order, framed by the partition count, through one more
/// [`Fingerprint`] ([`merge_part_fingerprints`]). Two runs produce the
/// same value iff they built the same partitions (id maps, master
/// pointers, CSR offsets, each row's edges and weights as a multiset, and
/// class) in the same order — the quantity the determinism harness
/// compares.
pub fn partition_fingerprint(parts: &[DistGraph]) -> u64 {
    let per_part: Vec<u64> = parts.iter().map(part_fingerprint).collect();
    merge_part_fingerprints(&per_part)
}

/// The ordered combination [`partition_fingerprint`] is defined as, for a
/// caller that computed the [`part_fingerprint`]s itself (the serve cache
/// does, on the threads that write or read the part files).
pub fn merge_part_fingerprints(per_part: &[u64]) -> u64 {
    let mut h = Fingerprint::new();
    h.array(per_part);
    h.finish()
}

/// Fingerprint of an *input* graph: `num_nodes`, `num_edges`, then the
/// CSR `offsets` and `dests` each framed by its length, then the weights:
/// the word `0` for `None`, or `1` and then the weights framed by their
/// length — one [`Fingerprint`], that order. This is the graph-identity
/// half of a serving-layer cache key: two graphs share a fingerprint iff
/// their CSR representations are value-identical, so a cached partition
/// of one is valid for the other. Unlike [`part_fingerprint`] it sees the
/// order within a row, because that order is the order of the partition's
/// rows. Complements [`partition_fingerprint`], which hashes the *output*.
pub fn graph_fingerprint(graph: &Csr, weights: Option<&[u32]>) -> u64 {
    let mut h = Fingerprint::new();
    h.word(graph.num_nodes() as u64);
    h.word(graph.num_edges());
    h.array(graph.offsets());
    h.array(graph.dests());
    match weights {
        None => h.word(0),
        Some(ws) => {
            h.word(1);
            h.array(ws);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_graph::PartitionClass;

    /// A hand-built valid 2-partition of the 4-cycle 0->1->2->3->0.
    fn valid_parts() -> (Csr, Vec<DistGraph>) {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        // Part 0 masters {0,1}, mirrors {2}; holds edges 0->1, 1->2.
        // Part 1 masters {2,3}, mirrors {0}; holds edges 2->3, 3->0.
        let p0 = DistGraph {
            part_id: 0,
            num_parts: 2,
            global_nodes: 4,
            global_edges: 4,
            num_masters: 2,
            local2global: vec![0, 1, 2],
            master_of: vec![0, 0, 1],
            graph: Csr::from_edges(3, &[(0, 1), (1, 2)]),
            edge_data: None,
            class: PartitionClass::OutEdgeCut,
        };
        let p1 = DistGraph {
            part_id: 1,
            num_parts: 2,
            global_nodes: 4,
            global_edges: 4,
            num_masters: 2,
            local2global: vec![2, 3, 0],
            master_of: vec![1, 1, 0],
            graph: Csr::from_edges(3, &[(0, 1), (1, 2)]),
            edge_data: None,
            class: PartitionClass::OutEdgeCut,
        };
        (g, vec![p0, p1])
    }

    #[test]
    fn valid_partition_has_no_violations() {
        let (g, parts) = valid_parts();
        assert!(check_partition(&g, None, &parts).is_empty());
    }

    #[test]
    fn missing_edge_is_edge_coverage() {
        let (g, mut parts) = valid_parts();
        parts[0].graph = Csr::from_edges(3, &[(0, 1)]); // drops 1->2
        let v = check_partition(&g, None, &parts);
        assert!(v.iter().any(|v| v.kind == ViolationKind::EdgeCoverage), "{v:?}");
    }

    #[test]
    fn duplicate_master_is_master_assignment() {
        let (g, mut parts) = valid_parts();
        // Part 1 also claims vertex 0 as a master.
        parts[1].num_masters = 3;
        parts[1].local2global = vec![0, 2, 3];
        parts[1].master_of = vec![1, 1, 1];
        parts[1].graph = Csr::from_edges(3, &[(1, 2), (2, 0)]);
        let v = check_partition(&g, None, &parts);
        assert!(v.iter().any(|v| v.kind == ViolationKind::MasterAssignment), "{v:?}");
    }

    #[test]
    fn wrong_mirror_pointer_is_mirror_symmetry() {
        let (g, mut parts) = valid_parts();
        parts[0].master_of[2] = 0; // mirror of vertex 2 points at itself
        let v = check_partition(&g, None, &parts);
        assert!(v.iter().any(|v| v.kind == ViolationKind::MirrorSymmetry), "{v:?}");
    }

    #[test]
    fn out_of_range_dest_is_csr_well_formed() {
        let (g, mut parts) = valid_parts();
        // Destination local id 7 with only 3 proxies.
        parts[0].graph = Csr::from_parts(vec![0, 1, 2, 2], vec![1, 7]);
        let v = check_partition(&g, None, &parts);
        assert!(v.iter().any(|v| v.kind == ViolationKind::CsrWellFormed), "{v:?}");
    }

    #[test]
    fn graph_fingerprint_tracks_structure_and_weights() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let a = graph_fingerprint(&g, None);
        assert_eq!(a, graph_fingerprint(&g, None), "not deterministic");
        let shuffled = Csr::from_edges(4, &[(0, 1), (1, 3), (2, 3)]);
        assert_ne!(a, graph_fingerprint(&shuffled, None));
        // Weights change the identity; identical weights agree.
        let w = vec![5u32, 6, 7];
        assert_ne!(a, graph_fingerprint(&g, Some(&w)));
        assert_eq!(graph_fingerprint(&g, Some(&w)), graph_fingerprint(&g, Some(&w)));
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let (_, parts) = valid_parts();
        let a = partition_fingerprint(&parts);
        let (_, mut tweaked) = valid_parts();
        tweaked[1].master_of[2] = 1;
        assert_ne!(a, partition_fingerprint(&tweaked));
        let (_, same) = valid_parts();
        assert_eq!(a, partition_fingerprint(&same));
    }

    #[test]
    fn violation_reporting_is_capped() {
        let g = Csr::from_edges(2, &[(0, 1)]);
        // A single empty partition: every vertex lacks a master and the
        // edge is uncovered; with many vertices the report must stay small.
        let big = Csr::from_edges(1000, &(0..999).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let p = DistGraph {
            part_id: 0,
            num_parts: 1,
            global_nodes: 1000,
            global_edges: 999,
            num_masters: 0,
            local2global: vec![],
            master_of: vec![],
            graph: Csr::from_edges(0, &[]),
            edge_data: None,
            class: PartitionClass::GeneralVertexCut,
        };
        let v = check_partition(&big, None, &[p]);
        assert!(!v.is_empty());
        assert!(v.len() <= 2 * (MAX_DETAILED + 1) + 4, "report exploded: {} entries", v.len());
        let _ = g;
    }
}
