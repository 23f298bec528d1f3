//! Shared run helpers for the `exhibits` binary.
//!
//! Timing methodology (documented in DESIGN.md §4): phase wall-clock is
//! real (the parallelism is real), but thread channels are far faster than
//! a cluster interconnect, so every result also carries the α–β modeled
//! network time computed from the exact byte/message counts. The headline
//! number for shape comparisons is `combined = wall + modeled_net`.

use std::sync::Arc;
use std::time::Duration;

use cusp::metrics::{self, QualityReport};
use cusp::{partition_with_policy, CuspConfig, DistGraph, GraphSource, PhaseTimes, PolicyKind};
use cusp_dgalois::{bfs, cc, pagerank, sssp, PageRankConfig, SyncPlan};
use cusp_galois::ThreadPool;
use cusp_graph::{Csr, Node};
use cusp_net::{Cluster, ClusterOptions, CommStats, NetworkModel};
use cusp_xtrapulp::{xtrapulp_partition, XpConfig};

/// Which partitioner to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Partitioner {
    Cusp(PolicyKind),
    XtraPulp,
}

impl Partitioner {
    pub fn name(self) -> &'static str {
        match self {
            Partitioner::Cusp(k) => k.name(),
            Partitioner::XtraPulp => "XtraPulp",
        }
    }

    /// The seven partitioners of Fig. 3 (XtraPulp + six CuSP policies).
    pub fn figure3_set() -> Vec<Partitioner> {
        let mut v = vec![Partitioner::XtraPulp];
        v.extend(cusp::policies::ALL_POLICIES.map(Partitioner::Cusp));
        v
    }
}

/// Result of one partitioning run, without the partitions themselves:
/// everything an exhibit row reads.
pub struct PartitionRun {
    /// Per-phase wall times of each host, indexed by host.
    pub host_times: Vec<PhaseTimes>,
    /// Local edges of each host's partition, indexed by host.
    pub host_edges: Vec<u64>,
    /// The partitioning time as the paper reports it: for CuSP the whole
    /// pipeline; for XtraPulp reading + label propagation only.
    pub reported: Duration,
    pub stats: CommStats,
    /// α–β modeled network seconds for the reported portion.
    pub modeled_net: f64,
    /// Modeled disk seconds for the per-host range read (the benchmark
    /// inputs are small enough to live in the page cache, so real disk
    /// time is invisible; the paper's Lustre reads are not).
    pub modeled_disk: f64,
    /// Max over hosts of the per-host peak resident source edges (the
    /// whole read slice monolithic, the largest chunk when streaming).
    pub peak_resident_edges: u64,
    pub quality: QualityReport,
}

impl PartitionRun {
    /// Per-phase wall times, max across hosts.
    pub fn times(&self) -> PhaseTimes {
        max_times(&self.host_times)
    }

    /// Headline seconds for shape comparisons.
    pub fn combined_secs(&self) -> f64 {
        self.reported.as_secs_f64() + self.modeled_net + self.modeled_disk
    }
}

fn max_times(host_times: &[PhaseTimes]) -> PhaseTimes {
    host_times
        .iter()
        .fold(PhaseTimes::default(), |a, t| a.max(t))
}

/// Default cost model for all exhibits.
pub fn model() -> NetworkModel {
    NetworkModel::omni_path()
}

/// Effective per-host sequential read bandwidth of a parallel file system
/// (Stampede2's Lustre sustains on this order per client).
pub const DISK_BYTES_PER_SEC: f64 = 500e6;

/// Modeled per-host disk time: every host reads the full offsets array
/// (`n × 8` bytes, to compute the split) plus its `1/k` share of the
/// destination array.
fn modeled_disk_secs(nodes: u64, edges: u64, k: usize) -> f64 {
    let per_host = nodes as f64 * 8.0 + edges as f64 * 4.0 / k as f64;
    per_host / DISK_BYTES_PER_SEC
}

/// Runs one partitioner over `source` on `k` simulated hosts; returns the
/// run's summary and its partitions, indexed by host.
pub fn run_partition(
    source: GraphSource,
    k: usize,
    p: Partitioner,
    cfg: &CuspConfig,
) -> (PartitionRun, Vec<DistGraph>) {
    let (run, parts, _) = run_partition_opts(source, k, p, cfg, ClusterOptions::default());
    (run, parts)
}

/// Like [`run_partition`], with explicit cluster options — used by the
/// tracing-overhead ablation (traced vs. untraced run of the same
/// configuration) and anywhere a bench wants the event [`cusp_obs::Trace`]
/// back.
pub fn run_partition_opts(
    source: GraphSource,
    k: usize,
    p: Partitioner,
    cfg: &CuspConfig,
    opts: ClusterOptions,
) -> (PartitionRun, Vec<DistGraph>, Option<cusp_obs::Trace>) {
    // Per host: partition, phase times, XtraPulp's own reported time, peak.
    let out = match p {
        Partitioner::Cusp(kind) => {
            let cfg = cfg.clone();
            Cluster::run_with(k, opts, move |comm| {
                let r = partition_with_policy(comm, source.clone(), kind, &cfg);
                (r.dist_graph, r.times, None, r.peak_resident_edges)
            })
        }
        Partitioner::XtraPulp => {
            let xp = XpConfig::default();
            Cluster::run_with(k, opts, move |comm| {
                let r = xtrapulp_partition(comm, source.clone(), &xp);
                let peak = r.partition.peak_resident_edges;
                (
                    r.partition.dist_graph,
                    r.partition.times,
                    Some(r.partition_time),
                    peak,
                )
            })
        }
    };
    let mut parts = Vec::with_capacity(k);
    let mut host_times = Vec::with_capacity(k);
    let mut xp_reported = Duration::ZERO;
    let mut peak = 0;
    for (dg, t, reported, p) in out.results {
        parts.push(dg);
        host_times.push(t);
        xp_reported = xp_reported.max(reported.unwrap_or_default());
        peak = peak.max(p);
    }
    let (reported, modeled_net) = match p {
        Partitioner::Cusp(_) => (
            max_times(&host_times).total(),
            PhaseTimes::NAMES
                .iter()
                .filter_map(|p| out.stats.phase(p))
                .map(|ph| ph.modeled_time(&model()))
                .sum(),
        ),
        Partitioner::XtraPulp => (
            xp_reported,
            out.stats.modeled_time_with_prefix(&model(), "xp:"),
        ),
    };
    let run = PartitionRun {
        host_edges: parts.iter().map(DistGraph::num_local_edges).collect(),
        host_times,
        reported,
        stats: out.stats,
        modeled_net,
        modeled_disk: modeled_disk_secs(parts[0].global_nodes, parts[0].global_edges, k),
        peak_resident_edges: peak,
        quality: metrics::quality(&parts),
    };
    (run, parts, out.trace)
}

/// Runs the partition-invariant oracle over a finished run's partitions:
/// every input edge on exactly one host, one master per vertex with
/// symmetric mirror pointers, well-formed CSRs, and conserved per-phase
/// communication. Returns all violations (empty means the run is valid).
///
/// The `exhibits` binary calls this on every partition it reports before
/// any row reads it, so a partitioner bug surfaces as a loud failure
/// instead of a silently wrong figure.
pub fn verify_run(graph: &Csr, run: &PartitionRun, parts: &[DistGraph]) -> Vec<cusp::Violation> {
    let mut v = cusp::check_partition(graph, None, parts);
    v.extend(cusp::check_comm_stats(&run.stats));
    v
}

/// The four evaluation applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppKind {
    Bfs,
    Cc,
    Pagerank,
    Sssp,
}

impl AppKind {
    pub const ALL: [AppKind; 4] = [AppKind::Bfs, AppKind::Cc, AppKind::Pagerank, AppKind::Sssp];

    pub fn name(self) -> &'static str {
        match self {
            AppKind::Bfs => "bfs",
            AppKind::Cc => "cc",
            AppKind::Pagerank => "pr",
            AppKind::Sssp => "sssp",
        }
    }

    fn phase(self) -> &'static str {
        match self {
            AppKind::Bfs => "app:bfs",
            AppKind::Cc => "app:cc",
            AppKind::Pagerank => "app:pagerank",
            AppKind::Sssp => "app:sssp",
        }
    }
}

/// Result of one application run over freshly built partitions.
#[derive(Clone, Copy)]
pub struct AppRun {
    pub elapsed: Duration,
    pub rounds: u32,
    pub comm_bytes: u64,
    pub modeled_net: f64,
}

impl AppRun {
    pub fn combined_secs(&self) -> f64 {
        self.elapsed.as_secs_f64() + self.modeled_net
    }
}

/// Partitions `graph` (pass the symmetrized graph for `Cc`) and runs one
/// application; `sync_rounds` tunes the CuSP master phase (Table VII).
pub fn run_app(
    graph: &Arc<Csr>,
    k: usize,
    p: Partitioner,
    app: AppKind,
    cusp_cfg: &CuspConfig,
) -> AppRun {
    let source_node = graph.max_out_degree_node().unwrap_or(0);
    let g = Arc::clone(graph);
    let cfg = cusp_cfg.clone();
    let out = Cluster::run(k, move |comm| {
        let dg = match p {
            Partitioner::Cusp(kind) => {
                partition_with_policy(comm, GraphSource::Memory(g.clone()), kind, &cfg).dist_graph
            }
            Partitioner::XtraPulp => {
                xtrapulp_partition(comm, GraphSource::Memory(g.clone()), &XpConfig::default())
                    .partition
                    .dist_graph
            }
        };
        let pool = ThreadPool::new(cfg.threads_per_host);
        let plan = SyncPlan::build(comm, &dg);
        comm.barrier();
        match app {
            AppKind::Bfs => {
                let r = bfs(comm, &pool, &dg, &plan, source_node as Node);
                (r.elapsed, r.rounds)
            }
            AppKind::Sssp => {
                let r = sssp(comm, &pool, &dg, &plan, source_node as Node);
                (r.elapsed, r.rounds)
            }
            AppKind::Cc => {
                let r = cc(comm, &pool, &dg, &plan);
                (r.elapsed, r.rounds)
            }
            AppKind::Pagerank => {
                let r = pagerank(comm, &pool, &dg, &plan, PageRankConfig::default());
                (r.elapsed, r.rounds)
            }
        }
    });
    let elapsed = out.results.iter().map(|r| r.0).max().unwrap();
    let rounds = out.results[0].1;
    let phase = out.stats.phase(app.phase());
    AppRun {
        elapsed,
        rounds,
        comm_bytes: phase.map_or(0, |p| p.total_bytes()),
        modeled_net: phase.map_or(0.0, |p| p.modeled_time(&model())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp_graph::gen::uniform::erdos_renyi;

    /// Oracle-backed smoke: the whole Fig. 3 partitioner set (XtraPulp +
    /// six CuSP policies) produces oracle-clean partitions on the bench
    /// path.
    #[test]
    fn figure3_set_is_oracle_clean() {
        let graph = Arc::new(erdos_renyi(120, 700, 17));
        let cfg = CuspConfig::default();
        for p in Partitioner::figure3_set() {
            let (run, parts) = run_partition(GraphSource::Memory(graph.clone()), 4, p, &cfg);
            let v = verify_run(&graph, &run, &parts);
            assert!(v.is_empty(), "{}: oracle violations: {v:#?}", p.name());
        }
    }
}
