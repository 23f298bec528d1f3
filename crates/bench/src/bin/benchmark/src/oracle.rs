//! A linear-time partition oracle.
//!
//! `cusp::check_partition` proves edge coverage with a hash map holding
//! every edge: 14 s on `web-21m`, longer than the whole measurement, in
//! each of the driver's hundred-odd runs. This oracle checks the same
//! invariants in a few linear scans — structure, one master per vertex,
//! mirrors pointing at their master's partition, per-vertex out-degree,
//! and the edge multiset through two independent order-free 64-bit sums —
//! and runs on every workload's last iteration. The library's own oracle
//! still runs wherever it is affordable: on every partition of at most
//! [`LIBRARY_ORACLE_MAX_EDGES`] edges (the probe partition of each traced
//! pass, and everything in the runner's tests).

use cusp::DistGraph;
use cusp_graph::Csr;

/// Largest input the hash-map oracle is also run on (≈ 3 s here).
pub const LIBRARY_ORACLE_MAX_EDGES: u64 = 5_000_000;

/// At most this many violations are described; one is enough to fail.
const MAX_REPORTED: usize = 8;

fn mix(a: u64, mul: u64) -> u64 {
    let mut x = a.wrapping_mul(mul);
    x ^= x >> 32;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 29)
}

/// Two independent hashes of one directed edge.
fn edge_hashes(u: u32, v: u32) -> (u64, u64) {
    let key = (u as u64) << 32 | v as u64;
    (
        mix(key, 0x9E37_79B9_7F4A_7C15),
        mix(key ^ 0xA5A5_A5A5_5A5A_5A5A, 0xC2B2_AE3D_27D4_EB4F),
    )
}

struct Violations(Vec<String>);

impl Violations {
    fn push(&mut self, what: impl FnOnce() -> String) {
        if self.0.len() < MAX_REPORTED {
            self.0.push(what());
        }
    }
}

/// Every way `parts` fails to be a partition of `original` (empty: valid),
/// from this oracle and, for small inputs, the library's as well.
pub fn check(original: &Csr, parts: &[DistGraph]) -> Vec<String> {
    let mut out = check_linear(original, parts);
    if original.num_edges() <= LIBRARY_ORACLE_MAX_EDGES {
        out.extend(
            cusp::check_partition(original, None, parts)
                .iter()
                .map(|v| format!("{v:?}")),
        );
    }
    out
}

fn check_linear(original: &Csr, parts: &[DistGraph]) -> Vec<String> {
    let mut bad = Violations(Vec::new());
    let n = original.num_nodes();
    let k = parts.len();

    // Structure of each part; later scans index through these arrays, so a
    // part that fails here ends the check.
    for (idx, p) in parts.iter().enumerate() {
        let nl = p.num_local();
        if p.part_id as usize != idx || p.num_parts as usize != k {
            bad.push(|| format!("part {idx}: id {} of {} parts", p.part_id, p.num_parts));
        }
        if p.global_nodes != n as u64 || p.global_edges != original.num_edges() {
            bad.push(|| {
                format!(
                    "part {idx}: global shape {}x{}",
                    p.global_nodes, p.global_edges
                )
            });
        }
        if p.master_of.len() != nl || p.num_masters > nl || p.graph.num_nodes() != nl {
            bad.push(|| format!("part {idx}: id maps and CSR disagree on {nl} proxies"));
        }
        if p.graph.offsets().windows(2).any(|w| w[0] > w[1]) {
            bad.push(|| format!("part {idx}: offsets not sorted"));
        }
        if p.graph.dests().iter().any(|&d| d as usize >= nl) {
            bad.push(|| format!("part {idx}: edge destination out of range"));
        }
        for (name, seg) in [
            ("master", p.master_globals()),
            ("mirror", p.mirror_globals()),
        ] {
            if seg.windows(2).any(|w| w[0] >= w[1]) || seg.iter().any(|&g| g as usize >= n) {
                bad.push(|| format!("part {idx}: {name} ids not strictly ascending below {n}"));
            }
        }
        if p.master_of.iter().any(|&m| m as usize >= k) {
            bad.push(|| format!("part {idx}: proxy claims a nonexistent master partition"));
        }
    }
    if !bad.0.is_empty() {
        return bad.0;
    }

    // One master per vertex; every proxy names the partition that has it.
    const NONE: u8 = u8::MAX;
    assert!(
        k < NONE as usize,
        "oracle supports fewer than 255 partitions"
    );
    let mut home = vec![NONE; n];
    for p in parts {
        for &g in p.master_globals() {
            if home[g as usize] != NONE {
                bad.push(|| format!("vertex {g} has two masters"));
            }
            home[g as usize] = p.part_id as u8;
        }
    }
    if let Some(v) = home.iter().position(|&h| h == NONE) {
        bad.push(|| format!("vertex {v} has no master"));
    }
    for p in parts {
        for (l, (&g, &claimed)) in p.local2global.iter().zip(&p.master_of).enumerate() {
            let is_master = l < p.num_masters;
            if claimed as u8 != home[g as usize] || (claimed == p.part_id) != is_master {
                bad.push(|| format!("part {}: proxy of {g} points at part {claimed}", p.part_id));
            }
        }
    }

    // Edge multiset: out-degree per vertex, and two order-free sums over
    // all edges, must match the original's.
    let mut degree: Vec<i64> = (0..n)
        .map(|v| original.out_degree(v as u32) as i64)
        .collect();
    let (mut want_a, mut want_b) = (0u64, 0u64);
    for (u, v) in original.iter_edges() {
        let (a, b) = edge_hashes(u, v);
        want_a = want_a.wrapping_add(a);
        want_b = want_b.wrapping_add(b);
    }
    let (mut got_a, mut got_b, mut got_edges) = (0u64, 0u64, 0u64);
    for p in parts {
        for lu in 0..p.num_local() {
            let gu = p.local2global[lu];
            let edges = p.graph.edges(lu as u32);
            degree[gu as usize] -= edges.len() as i64;
            got_edges += edges.len() as u64;
            for &lv in edges {
                let (a, b) = edge_hashes(gu, p.local2global[lv as usize]);
                got_a = got_a.wrapping_add(a);
                got_b = got_b.wrapping_add(b);
            }
        }
    }
    if got_edges != original.num_edges() {
        bad.push(|| {
            format!(
                "{got_edges} edges assigned, the graph has {}",
                original.num_edges()
            )
        });
    }
    if let Some(v) = degree.iter().position(|&d| d != 0) {
        bad.push(|| format!("vertex {v}: out-degree off by {}", degree[v]));
    }
    if (got_a, got_b) != (want_a, want_b) {
        bad.push(|| "edge multiset differs from the graph's".to_string());
    }
    bad.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{sim_partition, HOSTS};
    use cusp::{CuspConfig, GraphSource, PolicyKind};
    use std::sync::Arc;

    fn partitioned() -> (Arc<Csr>, Vec<DistGraph>) {
        let graph = Arc::new(crate::inputs::web(2_000, 3));
        let src = GraphSource::Memory(Arc::clone(&graph));
        let parts =
            sim_partition(&src, PolicyKind::Cvc, &CuspConfig::default(), HOSTS, false).parts;
        (graph, parts)
    }

    #[test]
    fn accepts_a_real_partition() {
        let (graph, parts) = partitioned();
        assert_eq!(check(&graph, &parts), Vec::<String>::new());
    }

    #[test]
    fn rejects_a_rewired_edge_and_a_moved_master() {
        let (graph, mut parts) = partitioned();
        // Rewire one edge inside a part: same counts and degrees, other
        // multiset.
        let p = &mut parts[1];
        let mut dests = p.graph.dests().to_vec();
        let nl = p.num_local() as u32;
        dests[0] = (dests[0] + 1) % nl;
        p.graph = Csr::from_parts(p.graph.offsets().to_vec(), dests);
        let found = check_linear(&graph, &parts);
        assert!(found.iter().any(|v| v.contains("multiset")), "{found:?}");

        let (graph, mut parts) = partitioned();
        let mirror = parts[0].num_masters;
        parts[0].master_of[mirror] = 0;
        let found = check_linear(&graph, &parts);
        assert!(
            found.iter().any(|v| v.contains("points at part 0")),
            "{found:?}"
        );
    }
}
