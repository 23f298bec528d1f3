//! Allocation's footprint grows with proxies, not edges.
//!
//! The partition allocation hands to construction is its output arrays —
//! the local-id maps, the CSR offsets and the reserved edge buffers — plus
//! what only construction needs: one 8-byte insertion cursor per local
//! proxy and the global→local index. The traced `mem.alloc` counter is all
//! of it and `mem.output` the finished part, so their difference is that
//! scaffolding. The index is a dense window over the proxies' id span (4 B
//! per id, so O(n) and never more than the 4× cap `alloc.rs` allows) or,
//! past the cap, 8 B per proxy. Partitioning one node set at 2×, 4× and 8×
//! the edges per node must leave exactly cursors plus index, and so the same
//! cost per local proxy once the id-span window is set aside: nothing
//! allocation keeps beside its output is sized by edges.

use std::sync::Arc;

use cusp::{partition_with_policy, CuspConfig, DistGraph, GraphSource, PolicyKind};
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_net::{Cluster, ClusterOptions, TraceConfig};
use cusp_obs::EventKind;

const HOSTS: usize = 4;
const NODES: usize = 20_000;

/// Bytes of the global→local index allocation builds for `part`'s proxies.
fn index_bytes(part: &DistGraph) -> u64 {
    let ids = &part.local2global;
    let (lo, hi) = (ids.iter().min().unwrap(), ids.iter().max().unwrap());
    let span = (hi - lo) as u64 + 1;
    if span <= ids.len() as u64 * 4 + 1024 {
        4 * span
    } else {
        8 * ids.len() as u64
    }
}

/// Per host: (`mem.alloc` − `mem.output` − the index, local proxies).
fn scaffolding_beside_the_index(kind: PolicyKind, edges_per_node: usize) -> Vec<(u64, usize)> {
    let graph = Arc::new(erdos_renyi(NODES, NODES * edges_per_node, 5));
    let cfg = CuspConfig { chunk_edges: Some(4096), ..CuspConfig::default() };
    let opts = ClusterOptions { trace: Some(TraceConfig::default()), ..ClusterOptions::default() };
    let out = Cluster::run_with(HOSTS, opts, move |comm| {
        partition_with_policy(comm, GraphSource::Memory(graph.clone()), kind, &cfg)
    });
    let trace = out.trace.expect("trace requested");
    assert_eq!(trace.dropped_events, 0, "ring too small for this test");
    (0..HOSTS as u32)
        .map(|host| {
            let counter = |which: &str| -> u64 {
                let values: Vec<u64> = trace
                    .events
                    .iter()
                    .filter(|e| e.host == host)
                    .filter_map(|e| match e.kind {
                        EventKind::Counter { name, value } if name == which => Some(value),
                        _ => None,
                    })
                    .collect();
                assert_eq!(values.len(), 1, "host {host}: one {which}");
                values[0]
            };
            let part = &out.results[host as usize].dist_graph;
            assert_eq!(counter("mem.output"), part.heap_bytes(), "host {host}");
            let index = index_bytes(part);
            assert!(index <= 4 * NODES as u64, "host {host}: index of {index} B");
            (counter("mem.alloc") - counter("mem.output") - index, part.num_local())
        })
        .collect()
}

#[test]
fn allocation_scaffolding_per_proxy_is_flat_in_density() {
    for kind in [PolicyKind::Cvc, PolicyKind::Hvc] {
        for density in [2, 4, 8] {
            let hosts = scaffolding_beside_the_index(kind, density);
            for (host, (bytes, proxies)) in hosts.into_iter().enumerate() {
                // Exact count: one u64 cursor per proxy and nothing else, so
                // 8 B per proxy at every density.
                assert_eq!(bytes, 8 * proxies as u64, "{kind:?} {density}x host {host}");
            }
        }
    }
}
