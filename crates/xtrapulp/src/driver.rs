//! XtraPulp driver: label propagation plus DistGraph assembly.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cusp::config::{CuspConfig, GraphSource};
use cusp::phases::driver::{partition, PartitionOutput};
use cusp::phases::read::read_phase;
use cusp::policies::edges::SourceEdge;
use cusp_net::Comm;

use crate::lp::{label_propagation, LabelRule, LpParams};

/// XtraPulp configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct XpConfig {
    /// Label-propagation schedule and balance parameters.
    pub lp: LpParams,
}

/// Result of an XtraPulp partitioning run on one host.
pub struct XpOutput {
    /// The constructed partition (assembled through the CuSP pipeline with
    /// the labels as masters and `Source` edge placement — XtraPulp is an
    /// out-edge-cut).
    pub partition: PartitionOutput,
    /// What the paper reports as XtraPulp's partitioning time: graph
    /// reading plus label computation (§V-A: "partitioning time for
    /// XtraPulp only includes graph reading and master assignment").
    pub partition_time: Duration,
}

/// Runs XtraPulp: read, iterative label propagation, then construction.
pub fn xtrapulp_partition(comm: &Comm, source: GraphSource, cfg: &XpConfig) -> XpOutput {
    // --- Timed section: read + label propagation. -----------------------
    comm.set_phase("xp:read");
    let t0 = Instant::now();
    // Label propagation iterates over the whole range repeatedly, so it
    // reads it resident (chunk_edges: None — the default it passes here):
    // the range is the stream's one chunk, which even an empty range has.
    let mut read = read_phase(comm, &source, &CuspConfig::default()).expect("failed to read graph");
    comm.set_phase("xp:lp");
    debug_assert_eq!(read.data.num_chunks(), 1);
    let labels = label_propagation(comm, &read.setup, read.data.load_chunk(0), cfg.lp);
    comm.barrier();
    let partition_time = t0.elapsed();

    // --- Untimed assembly via CuSP (XtraPulp has no built-in
    // construction; D-Galois loads its label file and builds partitions).
    let lo = read.data.node_lo();
    let labels = Arc::new(labels);
    let partition = partition(
        comm,
        source,
        &CuspConfig::default(),
        move |_setup| {
            (
                LabelRule {
                    lo,
                    labels: Arc::try_unwrap(labels).unwrap_or_else(|a| (*a).clone()).into(),
                },
                SourceEdge,
            )
        },
    );

    XpOutput {
        partition,
        partition_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp::metrics;
    use cusp_graph::gen::powerlaw;
    use cusp_graph::gen::PowerLawConfig;
    use cusp_net::Cluster;

    #[test]
    fn xtrapulp_produces_valid_edge_cut() {
        let g = Arc::new(powerlaw(PowerLawConfig::webcrawl(600, 8.0, 99)));
        let g2 = Arc::clone(&g);
        let out = Cluster::run(4, move |comm| {
            let x = xtrapulp_partition(comm, GraphSource::Memory(g2.clone()), &XpConfig::default());
            x.partition.dist_graph
        });
        let parts = out.results;
        metrics::validate_partitioning(&g, &parts).unwrap();
        // Out-edge-cut invariant: mirrors have no out-edges.
        for p in &parts {
            for l in p.num_masters as u32..p.num_local() as u32 {
                assert_eq!(p.graph.out_degree(l), 0, "mirror with out-edges in an edge-cut");
            }
        }
    }

    #[test]
    fn partition_time_is_reported() {
        let g = Arc::new(cusp_graph::gen::uniform::erdos_renyi(200, 1600, 3));
        let out = Cluster::run(2, move |comm| {
            let x = xtrapulp_partition(comm, GraphSource::Memory(g.clone()), &XpConfig::default());
            x.partition_time
        });
        assert!(out.results.iter().all(|t| t.as_nanos() > 0));
    }
}
