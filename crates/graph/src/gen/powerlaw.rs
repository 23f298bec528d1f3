//! Preferential-attachment web-crawl analogue.
//!
//! The paper's evaluation inputs gsh15, clueweb12, uk14, and wdc12 are web
//! crawls: dense (34–60 edges/vertex), with a *bounded* out-degree tail
//! (pages link to at most tens of thousands of URLs) but an enormous
//! in-degree tail (popular pages are linked from tens of millions) — see
//! Table III. This generator reproduces that asymmetry:
//!
//! * out-degrees are drawn from a truncated Pareto with mean matched to the
//!   requested density (plus a fraction of dangling, zero-out-degree
//!   pages);
//! * an edge takes, with probability `pref_prob`, the destination of a
//!   uniformly chosen earlier edge (the first edge has none), else a
//!   uniform vertex, producing a heavy in-degree power law.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csr::Csr;
use crate::{EdgeIdx, Node};

/// Parameters for the power-law generator.
#[derive(Clone, Copy, Debug)]
pub struct PowerLawConfig {
    /// Number of vertices.
    pub nodes: usize,
    /// Target mean out-degree (graph density).
    pub avg_out_degree: f64,
    /// Pareto shape for out-degrees (>1; larger = lighter tail).
    pub alpha: f64,
    /// Cap on a single vertex's out-degree.
    pub max_out: u32,
    /// Probability a destination is chosen preferentially.
    pub pref_prob: f64,
    /// Fraction of dangling vertices (out-degree 0).
    pub dangling_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl PowerLawConfig {
    /// A web-crawl-like preset with the given density.
    pub fn webcrawl(nodes: usize, avg_out_degree: f64, seed: u64) -> Self {
        PowerLawConfig {
            nodes,
            avg_out_degree,
            alpha: 1.8,
            max_out: 20_000,
            pref_prob: 0.7,
            dangling_frac: 0.15,
            seed,
        }
    }
}

/// Generates a directed scale-free graph.
pub fn powerlaw(cfg: PowerLawConfig) -> Csr {
    assert!(cfg.alpha > 1.0, "alpha must exceed 1 for a finite mean");
    assert!(cfg.nodes < u32::MAX as usize, "too many nodes for u32 ids");
    let n = cfg.nodes;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Pareto minimum x_m chosen so E[out] ≈ avg_out_degree after accounting
    // for dangling pages: E[Pareto(α, x_m)] = x_m·α/(α−1).
    let live_frac = 1.0 - cfg.dangling_frac;
    let x_m = (cfg.avg_out_degree / live_frac) * (cfg.alpha - 1.0) / cfg.alpha;
    let x_m = x_m.max(1.0);

    // Rows come in source order, and the destinations so far are the pool.
    let expected_edges = (n as f64 * cfg.avg_out_degree) as usize;
    let mut offsets: Vec<EdgeIdx> = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut dests: Vec<Node> = Vec::with_capacity(expected_edges + n);
    for _ in 0..n {
        let d_out = if rng.random::<f64>() < cfg.dangling_frac {
            0
        } else {
            let u: f64 = rng.random::<f64>().max(1e-12);
            ((x_m / u.powf(1.0 / cfg.alpha)) as u32).clamp(1, cfg.max_out)
        };
        for _ in 0..d_out {
            let e = dests.len();
            let dst = if e > 0 && rng.random::<f64>() < cfg.pref_prob {
                dests[rng.random_range(0..e)]
            } else {
                rng.random_range(0..n as Node)
            };
            dests.push(dst);
        }
        offsets.push(dests.len() as EdgeIdx);
    }
    dests.shrink_to_fit();
    Csr { offsets, dests }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_is_approximately_matched() {
        let cfg = PowerLawConfig::webcrawl(20_000, 30.0, 11);
        let g = powerlaw(cfg);
        let density = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            (density - 30.0).abs() < 10.0,
            "density {density} too far from 30"
        );
    }

    #[test]
    fn in_degree_tail_dominates_out_degree_tail() {
        // The signature of Table III's web crawls: max in-degree is orders
        // of magnitude above max out-degree.
        let g = powerlaw(PowerLawConfig::webcrawl(20_000, 30.0, 5));
        let t = g.transpose();
        let max_out = (0..g.num_nodes() as Node)
            .map(|v| g.out_degree(v))
            .max()
            .unwrap();
        let max_in = (0..t.num_nodes() as Node)
            .map(|v| t.out_degree(v))
            .max()
            .unwrap();
        assert!(
            max_in > max_out * 3,
            "expected in-degree skew: max_in {max_in} vs max_out {max_out}"
        );
    }

    #[test]
    fn deterministic() {
        let cfg = PowerLawConfig::webcrawl(5_000, 10.0, 42);
        assert_eq!(powerlaw(cfg), powerlaw(cfg));
    }

    #[test]
    fn dangling_pages_exist() {
        let g = powerlaw(PowerLawConfig::webcrawl(10_000, 20.0, 3));
        let dangling = (0..g.num_nodes() as Node)
            .filter(|&v| g.out_degree(v) == 0)
            .count();
        let frac = dangling as f64 / g.num_nodes() as f64;
        assert!(frac > 0.05 && frac < 0.30, "dangling fraction {frac}");
    }

    #[test]
    fn out_degree_is_capped() {
        let mut cfg = PowerLawConfig::webcrawl(5_000, 15.0, 9);
        cfg.max_out = 100;
        let g = powerlaw(cfg);
        assert!((0..g.num_nodes() as Node).all(|v| g.out_degree(v) <= 100));
    }

    #[test]
    fn empty_graph() {
        let g = powerlaw(PowerLawConfig::webcrawl(0, 10.0, 1));
        assert_eq!(g.num_nodes(), 0);
    }
}
