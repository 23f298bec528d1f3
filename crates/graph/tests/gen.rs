//! Structural invariants of the synthetic graph generators: consistent
//! degree sums, in-range vertex ids, same-seed determinism, and each
//! generator's pinned stream.

use cusp_graph::gen::generate;
use cusp_graph::gen::kronecker::{kronecker, KroneckerConfig};
use cusp_graph::gen::powerlaw::{powerlaw, PowerLawConfig};
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_graph::Csr;

fn generators(seed: u64) -> Vec<(&'static str, Csr)> {
    vec![
        ("kronecker", kronecker(KroneckerConfig::graph500(8, 8, seed))),
        ("powerlaw", powerlaw(PowerLawConfig::webcrawl(400, 6.0, seed))),
        ("erdos_renyi", erdos_renyi(300, 1800, seed)),
    ]
}

/// Offsets must partition the destination array: the out-degree sum (the
/// last offset) equals |E|, per node and in total.
#[test]
fn degree_sum_equals_edge_count() {
    for (name, g) in generators(42) {
        let per_node: u64 = (0..g.num_nodes()).map(|v| g.out_degree(v as u32)).sum();
        assert_eq!(per_node, g.num_edges(), "{name}: degree sum != |E|");
        assert_eq!(
            *g.offsets().last().unwrap(),
            g.num_edges(),
            "{name}: final offset != |E|"
        );
        assert!(g.num_edges() > 0, "{name}: generated an empty graph");
    }
}

/// After symmetrization every edge has its reverse, so each undirected
/// edge contributes exactly 2 to the degree sum.
#[test]
fn symmetrized_degree_sum_is_twice_undirected_edges() {
    for (name, g) in generators(7) {
        let s = g.symmetrize();
        let degree_sum: u64 = (0..s.num_nodes()).map(|v| s.out_degree(v as u32)).sum();
        assert_eq!(degree_sum, s.num_edges(), "{name}: symmetrized degree sum");
        assert_eq!(degree_sum % 2, 0, "{name}: odd degree sum after symmetrize");
        // Every directed edge must appear in both directions.
        let mut edges: Vec<(u32, u32)> = s.iter_edges().collect();
        edges.sort_unstable();
        for &(u, v) in &edges {
            assert!(
                edges.binary_search(&(v, u)).is_ok(),
                "{name}: edge {u}->{v} has no reverse"
            );
        }
    }
}

/// Every destination id must name an existing vertex.
#[test]
fn no_out_of_range_ids() {
    for (name, g) in generators(99) {
        let n = g.num_nodes() as u32;
        for &d in g.dests() {
            assert!(d < n, "{name}: destination {d} out of range (n = {n})");
        }
    }
}

/// Same seed ⇒ bit-identical graph; different seed ⇒ different graph.
#[test]
fn seeds_are_deterministic_and_effective() {
    for ((name, a), (_, b)) in generators(1234).into_iter().zip(generators(1234)) {
        assert_eq!(a.offsets(), b.offsets(), "{name}: offsets differ for same seed");
        assert_eq!(a.dests(), b.dests(), "{name}: dests differ for same seed");
    }
    for ((name, a), (_, c)) in generators(1234).into_iter().zip(generators(4321)) {
        assert!(
            a.offsets() != c.offsets() || a.dests() != c.dests(),
            "{name}: different seeds produced identical graphs"
        );
    }
}

/// The CRC-32 of a graph's offsets (u64 LE) followed by its destinations
/// (u32 LE).
fn stream_crc(g: &Csr) -> u32 {
    let offsets = g.offsets().iter().flat_map(|o| o.to_le_bytes());
    let dests = g.dests().iter().flat_map(|d| d.to_le_bytes());
    cusp_graph::wire::crc32(&offsets.chain(dests).collect::<Vec<u8>>())
}

/// Every generator's stream is pinned: each point's graph hashes to the
/// value it had when the streams were fixed. A generator may get faster,
/// never different — a different stream is a different input to every
/// benchmark and exhibit.
#[test]
fn generator_streams_are_pinned() {
    // (kind, nodes, degree, seed, CRC-32 of offsets ++ dests)
    let points: [(&str, usize, f64, u64, u32); 20] = [
        ("uniform", 20_000, 8.0, 1, 0x6161_873c),
        ("uniform", 20_000, 8.0, 7, 0x75c7_6894),
        ("uniform", 20_000, 8.0, 42, 0xe145_49b7),
        ("uniform", 1, 3.0, 5, 0x2fd9_3a23),
        ("uniform", 2, 3.0, 5, 0xffed_5a91),
        ("webcrawl", 10_000, 12.0, 1, 0xe213_ed77),
        ("webcrawl", 10_000, 12.0, 7, 0x270d_8a1f),
        ("webcrawl", 10_000, 12.0, 42, 0x6513_71cd),
        ("webcrawl", 1, 3.0, 5, 0x2461_ef43),
        ("webcrawl", 2, 3.0, 5, 0x0093_c99e),
        // Seed 160's first three vertices dangle: the first edge has no
        // earlier edge to pick from.
        ("webcrawl", 50, 4.0, 160, 0xc24b_617d),
        ("kron", 8192, 16.0, 1, 0x02ba_b532),
        ("kron", 8192, 16.0, 7, 0x9ef2_341b),
        ("kron", 8192, 16.0, 42, 0x6652_02ef),
        ("kron", 5000, 16.5, 3, 0xfff8_4cdd),
        // Scale 0 (one node, every edge a self-loop) and scale 1.
        ("kron", 1, 16.0, 5, 0x6e38_0628),
        ("kron", 2, 3.0, 5, 0x1f50_808e),
        ("kron", 3, 3.0, 6, 0x4951_0c3f),
        // No nodes: one zero offset and nothing drawn.
        ("uniform", 0, 3.0, 5, 0x6522_df69),
        ("webcrawl", 0, 3.0, 5, 0x6522_df69),
    ];
    let mut wrong = Vec::new();
    for (kind, nodes, degree, seed, crc) in points {
        let g = generate(kind, nodes, degree, seed).unwrap();
        if kind == "webcrawl" && seed == 160 {
            assert!(
                (0..3).all(|v| g.out_degree(v) == 0),
                "the first vertices must dangle"
            );
        }
        let got = stream_crc(&g);
        if got != crc {
            let point = format!("({kind:?}, {nodes}, {degree:?}, {seed}, {got:#010x})");
            wrong.push(format!("{point} != {crc:#010x}"));
        }
    }
    // c = d = 0 makes c / (c + d) NaN: a comparison that never holds.
    let quadrants = |a, b, c, seed| KroneckerConfig {
        a,
        b,
        c,
        ..KroneckerConfig::graph500(12, 16, seed)
    };
    let unpermuted = KroneckerConfig {
        permute: false,
        ..KroneckerConfig::graph500(12, 16, 3)
    };
    let configs = [
        (quadrants(0.5, 0.5, 0.0, 3), 0x155f_864c),
        (unpermuted, 0xe59c_b500),
        (quadrants(0.25, 0.25, 0.25, 4), 0xf2e5_b886),
    ];
    for (cfg, crc) in configs {
        let got = stream_crc(&kronecker(cfg));
        if got != crc {
            wrong.push(format!("{cfg:?}: {got:#010x} != {crc:#010x}"));
        }
    }
    assert!(wrong.is_empty(), "streams changed:\n{}", wrong.join("\n"));
}
