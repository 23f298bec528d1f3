//! Glue between the network layer's measured statistics and the
//! `cusp-obs` analysis layer.
//!
//! `cusp-obs` is a leaf crate — it cannot see [`CommStats`] — so the
//! conversion from measured traffic to the neutral [`PhaseNet`] rows its
//! summary consumes lives here, next to the pipeline that produces both
//! the spans and the traffic. The cost model is `cusp-obs`'s own
//! ([`NetworkModel`] is a re-export), so both sides price a host alike.

use cusp_net::{CommStats, NetworkModel};
use cusp_obs::{PhaseNet, PhaseRow, Trace};

/// Converts a [`CommStats`] snapshot into per-phase traffic rows for the
/// `cusp-obs` summary, skipping the synthetic `(untagged)` phase (the
/// pipeline harness tags all real traffic, so that bucket is empty by
/// construction).
pub fn phase_net_rows(stats: &CommStats) -> Vec<PhaseNet> {
    stats
        .iter()
        .filter(|(name, _)| *name != "(untagged)")
        .map(|(name, snap)| PhaseNet {
            name: name.to_string(),
            hosts: (0..snap.hosts()).map(|h| snap.host_net(h)).collect(),
        })
        .collect()
}

/// Builds the per-phase critical-path rows for a traced partitioning run:
/// compute time from the trace's phase spans, traffic from `stats`,
/// modeled network time from `model`.
pub fn phase_summary(trace: &Trace, stats: &CommStats, model: &NetworkModel) -> Vec<PhaseRow> {
    cusp_obs::summarize(trace, &phase_net_rows(stats), *model)
}

/// [`phase_summary`] rendered as the text table `cusp-part` prints after a
/// traced run.
pub fn render_phase_summary(trace: &Trace, stats: &CommStats, model: &NetworkModel) -> String {
    cusp_obs::render(&phase_summary(trace, stats, model), *model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition_with_policy, CuspConfig, GraphSource, PolicyKind};
    use cusp_graph::gen::uniform::erdos_renyi;
    use cusp_net::{Bytes, Cluster, ClusterOptions, Tag, TraceConfig};
    use std::sync::Arc;

    #[test]
    fn traced_partition_yields_full_summary() {
        let graph = Arc::new(erdos_renyi(300, 2400, 7));
        let opts = ClusterOptions {
            trace: Some(TraceConfig::default()),
            ..ClusterOptions::default()
        };
        let out = Cluster::run_with(3, opts, |comm| {
            let cfg = CuspConfig::default();
            partition_with_policy(comm, GraphSource::Memory(graph.clone()), PolicyKind::Cvc, &cfg)
        });
        let trace = out.trace.expect("trace requested");
        let model = NetworkModel::omni_path();
        let rows = phase_summary(&trace, &out.stats, &model);

        // One row per pipeline phase, each covering all hosts.
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, crate::PhaseTimes::NAMES);
        for row in &rows {
            assert_eq!(row.hosts.len(), 3);
            // Every host executed the phase, so compute time is non-zero.
            for h in &row.hosts {
                assert!(h.compute_s > 0.0, "phase {} host {} has no span", row.name, h.host);
            }
        }
        // CVC's 2D assignment moves edges in construction: the modeled
        // network time there must be non-zero on some host.
        let construct = rows.iter().find(|r| r.name == "construct").unwrap();
        assert!(construct.hosts.iter().any(|h| h.net_s > 0.0));
        // One formula: the slowest host's modeled seconds are the phase's.
        for row in &rows {
            let slowest = row.hosts.iter().map(|h| h.net_s).fold(0.0, f64::max);
            assert_eq!(slowest, out.stats.phase(&row.name).unwrap().modeled_time(&model), "{}", row.name);
        }

        // The rendered table mentions every phase.
        let table = render_phase_summary(&trace, &out.stats, &model);
        for name in crate::PhaseTimes::NAMES {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
    }

    #[test]
    fn the_critical_host_is_priced_like_the_phase() {
        // Both hosts send and receive the same messages, so every host's
        // modeled seconds are the phase's, whichever host is critical.
        let opts = ClusterOptions {
            trace: Some(TraceConfig::default()),
            ..ClusterOptions::default()
        };
        let out = Cluster::run_with(2, opts, |comm| {
            comm.set_phase("swap");
            let _span = cusp_obs::span("swap");
            for len in 100..105 {
                comm.send_bytes(1 - comm.host(), Tag(3), Bytes::from(vec![0u8; len]));
            }
            for _ in 0..5 {
                comm.recv_any(Tag(3));
            }
        });
        let model = NetworkModel::omni_path();
        let rows = phase_summary(&out.trace.expect("trace requested"), &out.stats, &model);
        let swap = rows.iter().find(|r| r.name == "swap").expect("swap row");
        let phase = out.stats.phase("swap").unwrap().modeled_time(&model);
        assert!(phase > 0.0);
        assert_eq!(swap.critical().net_s, phase);
    }

    #[test]
    fn untagged_phase_is_filtered() {
        let out = Cluster::run(2, |comm| comm.barrier());
        let rows = phase_net_rows(&out.stats);
        assert!(rows.iter().all(|r| r.name != "(untagged)"));
    }
}
