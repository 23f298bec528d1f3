//! An α–β network cost model.
//!
//! Thread channels inside one machine are orders of magnitude faster than
//! the Omni-Path interconnect used in the paper, so wall-clock time alone
//! under-weights communication. The model converts the *exactly measured*
//! traffic ([`crate::CommStats`]) into the network time a cluster with
//! per-message latency α and per-byte cost β would have spent, using the
//! standard postal/LogGP-style approximation:
//!
//! ```text
//! time(phase) = max over hosts h of
//!     α · max(msgs_out(h), msgs_in(h)) + β · max(bytes_out(h), bytes_in(h))
//! ```
//!
//! i.e. each host's NIC serializes its own injections and ejections, hosts
//! operate concurrently, and the slowest host bounds the phase. This is the
//! same first-order model used to motivate message buffering in the paper
//! (§IV-D3: fewer, larger messages amortize α).

use crate::stats::{CommStats, PhaseSnapshot};

/// Network cost parameters.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// Per-message overhead in seconds (software + injection latency).
    pub alpha: f64,
    /// Per-byte transfer cost in seconds (1 / effective bandwidth).
    pub beta: f64,
}

impl NetworkModel {
    /// A model loosely calibrated to the paper's testbed: 100 Gb/s
    /// Omni-Path (~10 GB/s effective per host) with ~20 µs end-to-end
    /// per-message software overhead (MPI rendezvous path).
    pub fn omni_path() -> Self {
        NetworkModel {
            alpha: 20e-6,
            beta: 1.0 / 10e9,
        }
    }

    /// A slower commodity 10 GbE-like model (higher α and β) — useful for
    /// sensitivity checks.
    pub fn ten_gbe() -> Self {
        NetworkModel {
            alpha: 50e-6,
            beta: 1.0 / 1.1e9,
        }
    }

    /// A zero-cost model (modeled network time is always 0).
    pub fn free() -> Self {
        NetworkModel {
            alpha: 0.0,
            beta: 0.0,
        }
    }

    /// The same parameters as a `cusp-obs` [`cusp_obs::CostModel`], for
    /// feeding the per-phase critical-path summary.
    pub fn cost_model(&self) -> cusp_obs::CostModel {
        cusp_obs::CostModel { alpha: self.alpha, beta: self.beta }
    }

    /// Modeled network time for one phase, in seconds.
    pub fn phase_time(&self, phase: &PhaseSnapshot) -> f64 {
        let hosts = phase.hosts();
        let mut worst: f64 = 0.0;
        for h in 0..hosts {
            let msgs = phase.messages_out(h).max(phase.messages_in(h)) as f64;
            let bytes = phase.bytes_out(h).max(phase.bytes_in(h)) as f64;
            worst = worst.max(self.alpha * msgs + self.beta * bytes);
        }
        worst
    }

    /// Modeled network time summed over all phases, in seconds.
    pub fn total_time(&self, stats: &CommStats) -> f64 {
        stats.iter().map(|(_, p)| self.phase_time(p)).sum()
    }

    /// Modeled time for all phases whose name starts with `prefix`.
    pub fn time_with_prefix(&self, stats: &CommStats, prefix: &str) -> f64 {
        stats
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, p)| self.phase_time(p))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, Tag};
    use crate::Bytes;

    fn stats_two_hosts(msg_count: usize, msg_size: usize) -> CommStats {
        Cluster::run(2, |comm| {
            comm.set_phase("p");
            if comm.host() == 0 {
                for _ in 0..msg_count {
                    comm.send_bytes(1, Tag(0), Bytes::from(vec![0u8; msg_size]));
                }
            } else {
                for _ in 0..msg_count {
                    comm.recv_any(Tag(0));
                }
            }
        })
        .stats
    }

    #[test]
    fn alpha_dominates_many_small_messages() {
        let model = NetworkModel {
            alpha: 1.0,
            beta: 0.0,
        };
        let many = stats_two_hosts(100, 1);
        let few = stats_two_hosts(2, 50);
        let t_many = model.phase_time(many.phase("p").unwrap());
        let t_few = model.phase_time(few.phase("p").unwrap());
        assert!(t_many > t_few * 10.0, "{t_many} vs {t_few}");
    }

    #[test]
    fn beta_counts_bytes() {
        let model = NetworkModel {
            alpha: 0.0,
            beta: 1.0,
        };
        let s = stats_two_hosts(3, 10);
        assert!((model.phase_time(s.phase("p").unwrap()) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn free_model_is_zero() {
        let s = stats_two_hosts(5, 100);
        assert_eq!(NetworkModel::free().total_time(&s), 0.0);
    }

    #[test]
    fn buffering_reduces_modeled_time() {
        // Same payload bytes, fewer messages → less modeled time under any
        // α > 0. This is the mechanism behind Fig. 7.
        let model = NetworkModel::omni_path();
        let unbuffered = stats_two_hosts(1000, 16);
        let buffered = stats_two_hosts(4, 4000);
        let tu = model.phase_time(unbuffered.phase("p").unwrap());
        let tb = model.phase_time(buffered.phase("p").unwrap());
        assert!(tb < tu, "buffered {tb} should beat unbuffered {tu}");
    }
}
