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
//!
//! The model type and its one formula live in the leaf crate `cusp-obs`
//! ([`cusp_obs::CostModel`], re-exported here as [`NetworkModel`]), so the
//! phase times below and the critical-path summary price a host alike.

use cusp_obs::HostNet;

use crate::stats::{CommStats, PhaseSnapshot};

/// Network cost parameters: `cusp-obs`'s α–β model under its network name.
pub use cusp_obs::CostModel as NetworkModel;

impl PhaseSnapshot {
    /// Host `h`'s traffic in this phase, as the cost model reads it.
    pub fn host_net(&self, h: usize) -> HostNet {
        HostNet {
            msgs_out: self.messages_out(h),
            msgs_in: self.messages_in(h),
            bytes_out: self.bytes_out(h),
            bytes_in: self.bytes_in(h),
        }
    }

    /// Modeled network time of this phase in seconds: its slowest host's.
    pub fn modeled_time(&self, model: &NetworkModel) -> f64 {
        (0..self.hosts()).map(|h| model.host_seconds(&self.host_net(h))).fold(0.0, f64::max)
    }
}

impl CommStats {
    /// Modeled network time summed over all phases, in seconds.
    pub fn modeled_time(&self, model: &NetworkModel) -> f64 {
        self.modeled_time_with_prefix(model, "")
    }

    /// Modeled time for all phases whose name starts with `prefix`.
    pub fn modeled_time_with_prefix(&self, model: &NetworkModel, prefix: &str) -> f64 {
        self.iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, p)| p.modeled_time(model))
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
        let t_many = many.phase("p").unwrap().modeled_time(&model);
        let t_few = few.phase("p").unwrap().modeled_time(&model);
        assert!(t_many > t_few * 10.0, "{t_many} vs {t_few}");
    }

    #[test]
    fn beta_counts_bytes() {
        let model = NetworkModel {
            alpha: 0.0,
            beta: 1.0,
        };
        let s = stats_two_hosts(3, 10);
        assert!((s.phase("p").unwrap().modeled_time(&model) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn free_model_is_zero() {
        let s = stats_two_hosts(5, 100);
        assert_eq!(s.modeled_time(&NetworkModel::free()), 0.0);
    }

    #[test]
    fn buffering_reduces_modeled_time() {
        // Same payload bytes, fewer messages → less modeled time under any
        // α > 0. This is the mechanism behind Fig. 7.
        let model = NetworkModel::omni_path();
        let unbuffered = stats_two_hosts(1000, 16);
        let buffered = stats_two_hosts(4, 4000);
        let tu = unbuffered.phase("p").unwrap().modeled_time(&model);
        let tb = buffered.phase("p").unwrap().modeled_time(&model);
        assert!(tb < tu, "buffered {tb} should beat unbuffered {tu}");
    }
}
