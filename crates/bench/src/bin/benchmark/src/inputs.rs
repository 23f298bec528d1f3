//! Inputs, generated from the seed and nothing else. The program under
//! test receives only what is generated here: a `.bgr` file, an
//! `Arc<Csr>`, a mutation batch, request bytes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use cusp_graph::gen::kronecker::{kronecker, KroneckerConfig};
use cusp_graph::gen::powerlaw::{powerlaw, PowerLawConfig};
use cusp_graph::{Csr, GraphEvent};

use crate::spans;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xC05B;

/// Input sizes. `full` is what the benchmark measures; `tiny` exists so
/// that the runner's own tests finish in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Nodes of `web-21m`, the power-law web-crawl stand-in.
    pub web_nodes: usize,
    /// Scale (log2 nodes) of the Kronecker graph `kron-19`. Not the issue's
    /// `kron-20`: see the README ("Sizes").
    pub kron_scale: u32,
    /// Nodes of `web-8m`, the graph the server holds.
    pub serve_nodes: usize,
    /// Nodes of the graph the micro-probes read, partition and mutate.
    pub probe_nodes: usize,
    /// Reader chunk bound of the streaming workload.
    pub chunk_edges: u64,
    /// Memory-tier hits per client per serve round.
    pub hits_per_client: usize,
    /// Elements of the galois and codec probes' arrays.
    pub probe_items: usize,
    /// Ping-pongs and barriers per network probe.
    pub probe_msgs: usize,
}

impl Sizes {
    pub const fn full() -> Sizes {
        Sizes {
            web_nodes: 500_000,
            kron_scale: 19,
            serve_nodes: 200_000,
            probe_nodes: 100_000,
            chunk_edges: 65_536,
            hits_per_client: 200,
            probe_items: 1 << 24,
            probe_msgs: 20_000,
        }
    }

    #[cfg(test)]
    pub const fn tiny() -> Sizes {
        Sizes {
            web_nodes: 2_000,
            kron_scale: 11,
            serve_nodes: 2_000,
            probe_nodes: 2_000,
            chunk_edges: 4_096,
            hits_per_client: 10,
            probe_items: 1 << 14,
            probe_msgs: 100,
        }
    }
}

/// Mean out-degree of the web-crawl graphs (≈ 2.1×10⁷ edges at 500 000
/// nodes).
const WEB_DEGREE: f64 = 43.0;

/// Independent sub-seeds from the one `--seed` (SplitMix64 finalizer).
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn web(nodes: usize, seed: u64) -> Csr {
    let _s = spans::span("generate");
    powerlaw(PowerLawConfig::webcrawl(nodes, WEB_DEGREE, seed))
}

pub fn kron(scale: u32, seed: u64) -> Csr {
    let _s = spans::span("generate");
    kronecker(KroneckerConfig::graph500(scale, 16, seed))
}

pub fn write_bgr(path: &Path, graph: &Csr) -> std::io::Result<()> {
    let _s = spans::span("write_bgr");
    cusp_graph::write_bgr(path, graph)
}

/// A mutation batch touching `frac` of the graph's edges.
pub fn batch(graph: &Csr, frac: f64, seed: u64) -> Vec<GraphEvent> {
    let events = ((graph.num_edges() as f64 * frac) as usize).max(16);
    cusp_graph::wal::seeded_batch(graph, false, seed, events)
}

/// The per-run scratch directory inside the checkout, removed on drop.
/// Files in it are written and then read back at once, so they are
/// page-cache hot: disk is not what this benchmark measures.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(base: &Path, workload: &str) -> std::io::Result<Scratch> {
        // Process id and a counter: concurrent runs, and the concurrent
        // tests of one process, each get a directory of their own.
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!("{workload}-{}-{unique}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
