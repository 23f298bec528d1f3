//! Table V's claim, pinned on a small Kronecker graph at the exhibits'
//! 16 hosts: CVC confines every host's construction traffic to its grid
//! row of `grid_factors(16)`, HVC's edge assignment reaches every peer,
//! and HVC sends more edge-assignment bytes than CVC.

use std::sync::Arc;

use cusp::policies::edges::grid_factors;
use cusp::{CuspConfig, GraphSource, PolicyKind};
use cusp_bench::runner::{run_partition, Partitioner};
use cusp_bench::MAX_HOSTS;
use cusp_graph::gen::{kronecker, KroneckerConfig};
use cusp_net::{CommStats, PhaseSnapshot};

fn phase<'a>(stats: &'a CommStats, name: &str) -> &'a PhaseSnapshot {
    stats.phase(name).expect("the phase ran")
}

#[test]
fn cvc_talks_along_its_grid_row_and_hvc_to_every_peer() {
    let k = MAX_HOSTS;
    let graph = Arc::new(kronecker(KroneckerConfig::graph500(12, 16, 0xC05B)));
    let stats = |kind| -> CommStats {
        let source = GraphSource::Memory(graph.clone());
        run_partition(source, k, Partitioner::Cusp(kind), &CuspConfig::default())
            .0
            .stats
    };
    let (cvc, hvc) = (stats(PolicyKind::Cvc), stats(PolicyKind::Hvc));

    let (_, cols) = grid_factors(k as _);
    let cols = cols as usize;
    let construct = phase(&cvc, "construct");
    for h in 0..k {
        for peer in (0..k).filter(|&d| construct.messages_between(h, d) > 0) {
            assert_eq!(
                peer / cols,
                h / cols,
                "CVC host {h} sent construct records to {peer}"
            );
        }
    }
    assert!(
        (0..k).any(|h| construct.fanout(h) == cols - 1),
        "no CVC host reaches its whole grid row"
    );

    let (cvc_assign, hvc_assign) = (phase(&cvc, "edge_assign"), phase(&hvc, "edge_assign"));
    assert!(
        (0..k).any(|h| hvc_assign.fanout(h) == k - 1),
        "no HVC host reaches all {} peers in edge assignment",
        k - 1
    );
    assert!(
        hvc_assign.total_bytes() > cvc_assign.total_bytes(),
        "HVC assign {} B <= CVC assign {} B",
        hvc_assign.total_bytes(),
        cvc_assign.total_bytes()
    );
}
