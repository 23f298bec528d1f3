//! Deterministic synthetic graph generators.
//!
//! All generators are seeded and reproducible: the same `(parameters,
//! seed)` pair yields the same graph on every run and platform, which keeps
//! the benchmark exhibits comparable across machines.
//!
//! The two whose draws per edge are fixed, [`kronecker()`] and
//! [`erdos_renyi`], draw in blocks on every core (`draw_blocks`) and emit
//! the bytes of one serial stream whatever the worker count.

pub mod kronecker;
pub mod powerlaw;
pub mod uniform;

pub use kronecker::{kronecker, KroneckerConfig};
pub use powerlaw::{powerlaw, PowerLawConfig};
pub use uniform::erdos_renyi;

use std::sync::Mutex;

use rand::rngs::{Jump, StdRng};

use crate::csr::Csr;
use crate::{Node, BLOCK};

/// The generator names [`generate`] takes: the one vocabulary of
/// `cusp-part gen` and the daemon's `gen` request.
pub const KINDS: [&str; 3] = ["uniform", "webcrawl", "kron"];

/// Builds the graph `kind` names with `seed`, `degree` out-edges per node
/// on average:
///
/// * `uniform` — Erdős–Rényi, `nodes` nodes and `nodes · degree` edges;
/// * `webcrawl` — the scale-free web-crawl stand-in,
///   [`PowerLawConfig::webcrawl`] over `nodes` nodes;
/// * `kron` — Graph500 Kronecker at scale ⌊log₂ nodes⌋ and edge factor
///   ⌊degree⌋: never more nodes or edges than `nodes` and `degree` ask for.
///
/// Any other `kind` is an error naming it.
pub fn generate(kind: &str, nodes: usize, degree: f64, seed: u64) -> Result<Csr, String> {
    match kind {
        "uniform" => Ok(erdos_renyi(nodes, (nodes as f64 * degree) as usize, seed)),
        "webcrawl" => Ok(powerlaw(PowerLawConfig::webcrawl(nodes, degree, seed))),
        "kron" => {
            let scale = nodes.max(1).ilog2();
            Ok(kronecker(KroneckerConfig::graph500(scale, degree as u32, seed)))
        }
        other => Err(format!("unknown generator kind '{other}' (one of {})", KINDS.join(", "))),
    }
}

/// The threads [`generate`] builds `kind` on: one for `webcrawl`, whose
/// draws depend on earlier output, every core for the others.
pub fn generate_workers(kind: &str) -> usize {
    if kind == "webcrawl" {
        1
    } else {
        crate::workers()
    }
}

/// Fills `edges` as one stream from `rng` would, on up to `workers` threads.
/// The list is cut into blocks of [`BLOCK`] edges, and `draw` fills a block
/// from its start state, taking exactly `draws_per_edge` draws an edge.
/// Block `b` starts from `rng` advanced `draws_per_edge · BLOCK · b` draws,
/// reached from the block before by one [`Jump`]; the threads claim the
/// blocks in order.
pub(crate) fn draw_blocks(
    rng: &StdRng,
    draws_per_edge: u64,
    edges: &mut [(Node, Node)],
    workers: usize,
    draw: impl Fn(&mut StdRng, &mut [(Node, Node)]) + Sync,
) {
    let blocks = edges.chunks_mut(BLOCK);
    let threads = workers.min(blocks.len());
    let jump = (blocks.len() > 1).then(|| Jump::new(draws_per_edge * BLOCK as u64));
    let next = Mutex::new((rng.clone(), blocks));
    crate::on_threads(vec![(); threads], |()| loop {
        let (mut rng, block) = {
            let mut next = next.lock().expect("a drawing thread panicked");
            let Some(block) = next.1.next() else { return };
            let rng = next.0.clone();
            if let Some(jump) = &jump {
                next.0.jump(jump);
            }
            (rng, block)
        };
        draw(&mut rng, block);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_generates_and_no_other() {
        for kind in KINDS {
            assert!(generate(kind, 100, 4.0, 1).is_ok(), "{kind}");
        }
        for kind in ["powerlaw", "kronecker", "Kron", ""] {
            let err = generate(kind, 100, 4.0, 1).unwrap_err();
            assert!(err.starts_with(&format!("unknown generator kind '{kind}'")), "{err}");
        }
    }

    #[test]
    fn kron_never_exceeds_the_request() {
        for nodes in [1usize, 2, 3, 1000, 1024, 3000] {
            let g = generate("kron", nodes, 6.0, 9).unwrap();
            assert!(g.num_nodes() <= nodes && g.num_nodes() * 2 > nodes, "{nodes}: {}", g.num_nodes());
            assert_eq!(g.num_edges(), g.num_nodes() as u64 * 6);
        }
    }
}
