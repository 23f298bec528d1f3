//! Graph500 Kronecker / RMAT generator.
//!
//! The paper's `kron30` input is generated with the Graph500 reference
//! weights a=0.57, b=0.19, c=0.19, d=0.05 (§V-A). This module implements
//! the same recursive quadrant-sampling scheme at configurable scale, with
//! the Graph500 vertex permutation to destroy the locality artifacts of the
//! recursion.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

use super::draw_blocks;
use crate::csr::Csr;
use crate::Node;

/// Parameters for the Kronecker generator.
#[derive(Clone, Copy, Debug)]
pub struct KroneckerConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Edges per vertex (Graph500 uses 16; kron30 in the paper ≈ 17).
    pub edge_factor: u32,
    /// Top-left quadrant probability (a + b + c + d = 1).
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
    /// Shuffle vertex ids (Graph500 does; keeps hubs off low ids).
    pub permute: bool,
}

impl KroneckerConfig {
    /// Graph500 weights from the paper: 0.57 / 0.19 / 0.19 / 0.05.
    pub fn graph500(scale: u32, edge_factor: u32, seed: u64) -> Self {
        KroneckerConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
            permute: true,
        }
    }
}

/// Generates a directed Kronecker graph as an edge list, then packs it into
/// CSR. Self-loops and parallel edges are kept, as in Graph500.
pub fn kronecker(cfg: KroneckerConfig) -> Csr {
    kronecker_on(cfg, crate::workers())
}

/// [`kronecker`] on at most `workers` threads; the graph does not depend on
/// how many.
pub(crate) fn kronecker_on(cfg: KroneckerConfig, workers: usize) -> Csr {
    assert!(cfg.scale < 31, "scale too large for u32 node ids");
    let d = 1.0 - cfg.a - cfg.b - cfg.c;
    assert!(d >= -1e-9, "quadrant probabilities exceed 1");
    let n = 1usize << cfg.scale;
    let m = n * cfg.edge_factor as usize;
    let draws_per_edge = 2 * cfg.scale as u64;
    let rng = StdRng::seed_from_u64(cfg.seed);

    // The permutation is drawn from the stream after every edge's draws, so
    // it is drawn first, from there, and each block relabelled once drawn.
    let perm = cfg.permute.then(|| {
        let mut after = rng.clone();
        after.advance(m as u64 * draws_per_edge);
        let mut perm: Vec<Node> = (0..n as Node).collect();
        perm.shuffle(&mut after);
        perm
    });

    // Per level: the source bit when a draw exceeds a + b, then the destination
    // bit when the next exceeds a/(a + b), or c/(c + d) below a set source bit.
    let src_at = least_above(cfg.a + cfg.b);
    let dst_at = [cfg.a / (cfg.a + cfg.b), cfg.c / (cfg.c + d)].map(least_above);
    let mut edges = vec![(0, 0); m];
    draw_blocks(&rng, draws_per_edge, &mut edges, workers, |rng, block| {
        for edge in block.iter_mut() {
            let (mut src, mut dst, mut level) = (0, 0, 1);
            for _ in 0..cfg.scale {
                let src_bit = rng.next_u64() >> 11 >= src_at;
                let dst_bit = rng.next_u64() >> 11 >= dst_at[src_bit as usize];
                src |= level & 0u32.wrapping_sub(src_bit as u32);
                dst |= level & 0u32.wrapping_sub(dst_bit as u32);
                level <<= 1;
            }
            *edge = (src, dst);
        }
        // A whole block at a time, while it is in cache: its lookups overlap,
        // where an edge's own would wait at the end of its draws.
        if let Some(perm) = &perm {
            for (src, dst) in block {
                (*src, *dst) = (perm[*src as usize], perm[*dst as usize]);
            }
        }
    });
    Csr::from_edges_on(n, &edges, workers)
}

/// The least `y` in `0..=2⁵³` with `y·2⁻⁵³ > p`, so `x >> 11 >= least_above(p)`
/// is the vendored `rand`'s `random::<f64>() > p`, `(x >> 11) as f64 · 2⁻⁵³ > p`.
/// That product and `q = p·2⁵³` are exact (power-of-two scalings), so for an
/// integer `y`, `y > q ⇔ y ≥ ⌊q⌋ + 1`; for `p < 0` the cast saturates it to 0,
/// and a `p ≥ 1` or NaN (`c = d = 0` makes one) is exceeded by no draw.
fn least_above(p: f64) -> u64 {
    if p < 1.0 {
        ((p * (1u64 << 53) as f64).floor() + 1.0) as u64
    } else {
        1 << 53
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_parameters() {
        let g = kronecker(KroneckerConfig::graph500(10, 8, 1));
        assert_eq!(g.num_nodes(), 1024);
        assert_eq!(g.num_edges(), 1024 * 8);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = kronecker(KroneckerConfig::graph500(8, 4, 99));
        let b = kronecker(KroneckerConfig::graph500(8, 4, 99));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = kronecker(KroneckerConfig::graph500(8, 4, 1));
        let b = kronecker(KroneckerConfig::graph500(8, 4, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // Kronecker graphs are power-law-ish: the max degree should be far
        // above the mean (paper Table III: kron30 max out-degree 3.2M vs
        // mean 16.6).
        let g = kronecker(KroneckerConfig::graph500(12, 16, 5));
        let mean = g.num_edges() as f64 / g.num_nodes() as f64;
        let max = (0..g.num_nodes() as Node)
            .map(|v| g.out_degree(v))
            .max()
            .unwrap() as f64;
        assert!(
            max > mean * 10.0,
            "expected skew: max {max} vs mean {mean}"
        );
    }

    #[test]
    fn permutation_preserves_multiset_degrees() {
        let base = KroneckerConfig {
            permute: false,
            ..KroneckerConfig::graph500(8, 4, 7)
        };
        let permuted = KroneckerConfig {
            permute: true,
            ..base
        };
        // The permutation draws from the stream only after every edge, so
        // both runs draw the same edges and the permuted graph is the
        // unpermuted one relabelled: equal sorted degree sequences.
        let sorted_degrees = |g: &Csr| {
            let mut d: Vec<u64> = (0..g.num_nodes() as Node)
                .map(|v| g.out_degree(v))
                .collect();
            d.sort_unstable();
            d
        };
        let (g1, g2) = (kronecker(base), kronecker(permuted));
        assert_ne!(g1, g2);
        assert_eq!(sorted_degrees(&g1), sorted_degrees(&g2));
        assert_eq!(
            sorted_degrees(&g1.transpose()),
            sorted_degrees(&g2.transpose())
        );
    }

    #[test]
    fn the_graph_does_not_depend_on_the_worker_count() {
        // 2¹⁴ · 9 edges: two full blocks and part of a third.
        let cfg = KroneckerConfig::graph500(14, 9, 11);
        for cfg in [cfg, KroneckerConfig { permute: false, ..cfg }] {
            let one = kronecker_on(cfg, 1);
            for workers in [2, 3, 8] {
                assert_eq!(kronecker_on(cfg, workers), one, "{workers} workers");
            }
        }
    }

    #[test]
    fn integer_thresholds_decide_as_the_float_draw() {
        let unit = 1.0 / (1u64 << 53) as f64;
        let ps = [0.0, 0.25, 0.76, 1.0 - unit, 1.0, 1.5, -0.1, f64::NAN];
        let mut rng = StdRng::seed_from_u64(3);
        for p in ps {
            let t = least_above(p);
            let mut ys = vec![0, 1, (1 << 53) - 1, (1 << 53) - 2];
            if (0.0..1.0).contains(&p) {
                let q = (p / unit) as u64;
                ys.extend(
                    [q.saturating_sub(1), q, q + 1]
                        .into_iter()
                        .filter(|&y| y < 1 << 53),
                );
            }
            ys.extend((0..10_000).map(|_| rng.next_u64() >> 11));
            for y in ys {
                assert_eq!(y >= t, y as f64 * unit > p, "p = {p}, y = {y}");
            }
        }
    }
}
