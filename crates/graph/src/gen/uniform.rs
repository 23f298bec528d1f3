//! Erdős–Rényi G(n, m) generator — flat degree distribution, used mainly by
//! tests that want structure-free random graphs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::draw_blocks;
use crate::csr::Csr;
use crate::Node;

/// Generates a directed G(n, m) graph: exactly `m` edges drawn uniformly at
/// random (with replacement, so parallel edges and self-loops may occur).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Csr {
    erdos_renyi_on(n, m, seed, crate::workers())
}

/// [`erdos_renyi`] on at most `workers` threads; the graph does not depend
/// on how many.
pub(crate) fn erdos_renyi_on(n: usize, m: usize, seed: u64, workers: usize) -> Csr {
    assert!(n < u32::MAX as usize, "too many nodes for u32 ids");
    if n == 0 {
        assert_eq!(m, 0, "edges require nodes");
        return Csr::from_edges(0, &[]);
    }
    // `random_range` is one widening multiply of one draw: two draws an edge.
    let mut edges = vec![(0, 0); m];
    let rng = StdRng::seed_from_u64(seed);
    draw_blocks(&rng, 2, &mut edges, workers, |rng, block| {
        for edge in block {
            *edge = (rng.random_range(0..n as Node), rng.random_range(0..n as Node));
        }
    });
    Csr::from_edges_on(n, &edges, workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_edge_count() {
        let g = erdos_renyi(100, 555, 1);
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 555);
    }

    #[test]
    fn deterministic() {
        assert_eq!(erdos_renyi(50, 200, 9), erdos_renyi(50, 200, 9));
    }

    #[test]
    fn the_graph_does_not_depend_on_the_worker_count() {
        // Three full blocks and part of a fourth.
        let m = 3 * crate::BLOCK + 777;
        let one = erdos_renyi_on(50_000, m, 3, 1);
        for workers in [2, 3, 8] {
            assert_eq!(erdos_renyi_on(50_000, m, 3, workers), one, "{workers} workers");
        }
    }

    #[test]
    fn empty() {
        let g = erdos_renyi(0, 0, 1);
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    #[should_panic(expected = "edges require nodes")]
    fn edges_without_nodes_rejected() {
        let _ = erdos_renyi(0, 5, 1);
    }
}
