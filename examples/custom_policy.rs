//! Writing a *new* partitioning policy — the paper's headline feature
//! (§III: "the user can implement any streaming edge-cut or vertex-cut
//! policy using only a few lines of code").
//!
//! This example implements two rules that are **not** in the built-in
//! catalog and composes them:
//!
//! * `Ldg` — Linear Deterministic Greedy [Stanton & Kliot, KDD'12], a
//!   streaming master rule the paper cites in Table I (the library also
//!   ships one as `cusp::policies::Ldg`; writing it here from scratch is
//!   the point of the example):
//!   `score(p) = |neighbors already in p| · (1 − size(p)/capacity)`;
//! * `DestinationEdge` — an *incoming* edge-cut: every edge follows its
//!   destination's master (the CSC-flavored mirror of `Source`).
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use std::sync::Arc;

use cusp::policy::{EdgeRule, MasterRule, MasterView};
use cusp::props::LocalProps;
use cusp::state::LoadState;
use cusp::{metrics, CuspConfig, GraphSource, PartId, PartitionClass};
use cusp_graph::gen::{powerlaw, PowerLawConfig};
use cusp_graph::Node;
use cusp_net::Cluster;

/// Linear Deterministic Greedy master placement.
#[derive(Clone)]
struct Ldg {
    capacity: f64,
}

impl MasterRule for Ldg {
    // LDG tracks how many nodes each partition holds — CuSP synchronizes
    // this LoadState across hosts automatically.
    type State = LoadState;

    // LDG scores partitions by already-placed neighbors.
    fn uses_neighbor_masters(&self) -> bool {
        true
    }

    fn get_master(
        &self,
        prop: &LocalProps,
        node: Node,
        state: &LoadState,
        masters: &MasterView,
    ) -> PartId {
        let k = prop.num_partitions();
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for p in 0..k {
            let mut neighbors = 0u64;
            for &n in prop.out_neighbors(node) {
                if masters.get(n) == Some(p) {
                    neighbors += 1;
                }
            }
            let fill = state.nodes(p) as f64 / self.capacity;
            let score = neighbors as f64 * (1.0 - fill);
            if score > best_score {
                best_score = score;
                best = p;
            }
        }
        state.add_assignment(best, 0);
        best
    }
}

/// Incoming edge-cut: the edge lives with its destination's master.
#[derive(Clone, Copy)]
struct DestinationEdge;

impl EdgeRule for DestinationEdge {
    type State = ();
    // Destination-cut: all *in*-edges of a vertex are co-located, which is
    // an edge-cut on the transposed graph — i.e. a general vertex-cut from
    // the out-edge perspective.
    const CLASS: PartitionClass = PartitionClass::GeneralVertexCut;

    fn get_edge_owner(
        &self,
        _prop: &LocalProps,
        _src: Node,
        _dst: Node,
        _src_master: PartId,
        dst_master: PartId,
        _state: &(),
    ) -> PartId {
        dst_master
    }
}

fn main() {
    let graph = Arc::new(powerlaw(PowerLawConfig::webcrawl(20_000, 15.0, 7)));
    let hosts = 4;
    println!(
        "partitioning {} vertices / {} edges with LDG + DestinationEdge on {hosts} hosts",
        graph.num_nodes(),
        graph.num_edges()
    );

    let g = Arc::clone(&graph);
    let out = Cluster::run(hosts, move |comm| {
        // The policy is just the pair of rules; `cusp::partition` does the
        // five-phase pipeline, state sync, and construction.
        cusp::partition(
            comm,
            GraphSource::Memory(g.clone()),
            &CuspConfig {
                sync_rounds: 32, // LDG benefits from fresher neighbor info
                ..CuspConfig::default()
            },
            |setup| {
                (
                    Ldg {
                        capacity: setup.num_nodes as f64 / setup.parts as f64,
                    },
                    DestinationEdge,
                )
            },
        )
    });

    let parts: Vec<_> = out.results.into_iter().map(|r| r.dist_graph).collect();
    metrics::validate_partitioning(&graph, &parts).expect("custom policy must still be valid");
    let q = metrics::quality(&parts);
    for p in &parts {
        println!(
            "host {}: {} masters, {} mirrors, {} edges",
            p.part_id,
            p.num_masters,
            p.num_mirrors(),
            p.num_local_edges()
        );
    }
    println!(
        "replication factor {:.3}, edge balance {:.3}, node balance {:.3}",
        q.replication_factor, q.edge_balance, q.node_balance
    );
    // The destination-cut invariant: every in-edge of a vertex is on its
    // master's host, i.e. a vertex's local in-degree elsewhere is 0.
    for p in &parts {
        let t = p.graph.transpose();
        for l in p.num_masters as u32..p.num_local() as u32 {
            assert_eq!(t.out_degree(l), 0, "mirror with in-edges under destination cut");
        }
    }
    println!("destination-cut invariant verified: mirrors hold no in-edges");
}
