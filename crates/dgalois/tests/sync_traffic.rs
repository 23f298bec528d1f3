//! The shape of app traffic: every reduce and broadcast sends exactly one
//! message to each peer on a non-empty list, every round, so an app's
//! message count is the plan's fan-out per round plus the termination
//! all-reduce's `2(k − 1)` (gather at host 0, then its reply).

use std::sync::Arc;

use cusp::{
    deterministic_for_comparison, partition_with_policy, CuspConfig, GraphSource, PolicyKind,
};
use cusp_dgalois::plan::global_out_degrees;
use cusp_dgalois::{bfs, pagerank, PageRankConfig, SyncPlan};
use cusp_galois::ThreadPool;
use cusp_graph::gen::{powerlaw, PowerLawConfig};
use cusp_net::Cluster;

/// What one host's plan predicts and its apps report.
struct HostRun {
    /// Non-empty reduce plus broadcast lists: messages per exchange pair.
    fan: u64,
    /// `Σ (8 + 12·len)` over those lists: one full-list exchange pair.
    full_bytes: u64,
    bfs_rounds: u32,
    pagerank_rounds: u32,
}

#[test]
fn sync_traffic_is_the_plans_fan_out() {
    let graph = Arc::new(powerlaw(PowerLawConfig::webcrawl(1500, 8.0, 17)));
    let source = graph.max_out_degree_node().expect("non-empty graph");
    let cfg = deterministic_for_comparison(CuspConfig::default());
    for kind in [PolicyKind::Eec, PolicyKind::Cvc, PolicyKind::Hvc] {
        for k in [4usize, 6] {
            let (g, cfg) = (Arc::clone(&graph), cfg.clone());
            let out = Cluster::run(k, move |comm| {
                let p = partition_with_policy(comm, GraphSource::Memory(g.clone()), kind, &cfg);
                let dg = &p.dist_graph;
                let pool = ThreadPool::new(1);
                let plan = SyncPlan::build(comm, dg);
                let lists = plan
                    .reduce_out
                    .iter()
                    .chain(&plan.bcast_out)
                    .filter(|l| !l.is_empty());
                let (fan, full_bytes) =
                    lists.fold((0, 0), |(n, b), l| (n + 1, b + 8 + 12 * l.len() as u64));
                comm.set_phase("global_out_degrees");
                global_out_degrees(comm, dg, &plan);
                let bfs_rounds = bfs(comm, &pool, dg, &plan, source).rounds;
                let pr = PageRankConfig {
                    max_iterations: 10,
                    ..PageRankConfig::default()
                };
                let pagerank_rounds = pagerank(comm, &pool, dg, &plan, pr).rounds;
                HostRun {
                    fan,
                    full_bytes,
                    bfs_rounds,
                    pagerank_rounds,
                }
            });
            let hosts = &out.results;
            let fan: u64 = hosts.iter().map(|h| h.fan).sum();
            let full_bytes: u64 = hosts.iter().map(|h| h.full_bytes).sum();
            let (bfs_rounds, pr_rounds) =
                (hosts[0].bfs_rounds as u64, hosts[0].pagerank_rounds as u64);
            assert!(
                hosts.iter().all(|h| h.bfs_rounds as u64 == bfs_rounds),
                "{kind} k={k}"
            );
            let collective = 2 * (k as u64 - 1);
            let phase = |name: &str| {
                out.stats
                    .phase(name)
                    .unwrap_or_else(|| panic!("phase {name}"))
            };

            let degrees = phase("global_out_degrees");
            assert_eq!(
                degrees.total_messages(),
                fan,
                "{kind} k={k}: degree messages"
            );
            assert_eq!(
                degrees.total_bytes(),
                full_bytes,
                "{kind} k={k}: degree bytes"
            );
            assert_eq!(
                phase("app:bfs").total_messages(),
                bfs_rounds * (fan + collective),
                "{kind} k={k}: bfs messages over {bfs_rounds} rounds"
            );
            assert_eq!(
                phase("app:pagerank").total_messages(),
                fan + pr_rounds * (fan + collective),
                "{kind} k={k}: pagerank messages over {pr_rounds} rounds"
            );
        }
    }
}
