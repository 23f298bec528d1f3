//! Construction drains while it walks.
//!
//! A worker whose send buffer has just flushed takes every record message
//! already arrived for its host and inserts it in place, so a host
//! consumes records as fast as it produces them on every slice shape. At
//! `buffer_threshold: 0` every record is its own message, so every one of
//! them flushes and drains inline, on both workers of every host while
//! the walk is still running. The partition must be the one the default
//! threshold builds, bit for bit by fingerprint.

use std::sync::Arc;

use cusp::{
    check_all, partition_fingerprint, partition_with_policy, CuspConfig, GraphSource,
    OutputFormat, PolicyKind,
};
use cusp_graph::gen::uniform::erdos_renyi;

const HOSTS: usize = 4;

#[test]
fn every_record_drained_inline_builds_the_default_partition() {
    // 250 sources a host: enough that both pool workers walk, not the
    // inline shortcut for tiny ranges. Uniform destinations at a mean
    // degree above HVC's threshold of 100, so most records cross hosts
    // under every policy.
    let graph = Arc::new(erdos_renyi(1000, 120_000, 23));
    let weights: Arc<Vec<u32>> =
        Arc::new((0..graph.num_edges() as u32).map(|e| e.wrapping_mul(2_654_435_761)).collect());
    let weighted = GraphSource::MemoryWeighted(graph.clone(), weights.clone());
    let sources = [
        ("unweighted", GraphSource::Memory(graph.clone()), None),
        ("weighted", weighted, Some(&weights[..])),
    ];
    // CVC and HVC walk on the pool; HDRF's stateful rule replays on the
    // host thread, which then drains after its own flushes.
    for kind in [PolicyKind::Cvc, PolicyKind::Hvc, PolicyKind::Hdrf] {
        for (input, source, data) in &sources {
            for output in [OutputFormat::Csr, OutputFormat::Csc] {
                let run = |buffer_threshold: usize| {
                    let cfg = CuspConfig {
                        threads_per_host: 2,
                        buffer_threshold,
                        output,
                        ..CuspConfig::default()
                    };
                    let source = source.clone();
                    let out = cusp_net::Cluster::run(HOSTS, move |comm| {
                        partition_with_policy(comm, source.clone(), kind, &cfg).dist_graph
                    });
                    (out.results, out.stats)
                };
                let label = format!("{kind:?}, {input}, {output:?}");
                let (reference, ref_stats) = run(CuspConfig::default().buffer_threshold);
                let (drained, stats) = run(0);
                if output == OutputFormat::Csr {
                    let v = check_all(&graph, *data, &drained, &stats);
                    assert!(v.is_empty(), "{label}: {v:#?}");
                }
                assert_eq!(
                    partition_fingerprint(&drained),
                    partition_fingerprint(&reference),
                    "{label}: draining every record inline changed the partition"
                );
                // The same bytes crossed the wire, one record at a time.
                let construct = |s: &cusp_net::CommStats| {
                    let p = s.phase("construct").expect("construction ran");
                    (p.total_bytes(), p.total_messages())
                };
                let (bytes, msgs) = construct(&stats);
                let (ref_bytes, ref_msgs) = construct(&ref_stats);
                assert_eq!(bytes, ref_bytes, "{label}");
                assert!(msgs > 10 * ref_msgs, "{label}: {msgs} messages against {ref_msgs}");
            }
        }
    }
}
