//! Seeded fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] makes the transport adversarial while keeping the
//! *application-visible* behaviour identical: messages can be delayed
//! (held back and released later, out of order) or duplicated. The
//! receive path restores per-`(src, dst, tag)` FIFO order and discards
//! duplicates via sequence numbers (see `cluster.rs`). Nothing is ever
//! lost in transit: a message dies only with its host, which is
//! [`CrashPlan`]'s business.
//!
//! Every per-message decision is a pure function of
//! `(seed, src, dst, tag, seq)`, **not** of wall-clock time or thread
//! scheduling, so the same plan replays the same faults: two runs with the
//! same `FaultPlan` seed produce bit-identical partitions and
//! [`crate::CommStats`], and identical [`FaultReport`] counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Knobs for seeded fault injection on the simulated fabric.
///
/// Probabilities are clamped to `[0, 1]`. A plan with all probabilities at
/// zero behaves exactly like a fault-free fabric (modulo the extra
/// bookkeeping), which is occasionally useful to isolate the transport
/// rework itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for all per-message decisions.
    pub seed: u64,
    /// Probability a message is held back (released later, out of order).
    pub delay_prob: f64,
    /// Probability a message is delivered twice.
    pub duplicate_prob: f64,
}

/// How many held-back messages a destination accumulates before its whole
/// holdback queue is flushed (in reverse order, to maximize observable
/// reordering).
pub(crate) const REORDER_WINDOW: usize = 8;

impl FaultPlan {
    /// An aggressive all-knobs-on plan, the default for chaos testing.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan { seed, delay_prob: 0.25, duplicate_prob: 0.15 }
    }

    /// A quiet plan with every fault disabled (useful as a baseline).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan { seed, delay_prob: 0.0, duplicate_prob: 0.0 }
    }

    /// The fate of one message, fully determined by the plan and the
    /// message's coordinates.
    pub(crate) fn decide(&self, src: usize, dst: usize, tag: u8, seq: u64) -> Decision {
        let base = self
            .seed
            .wrapping_add(mix(((src as u64) << 40) | ((dst as u64) << 16) | (tag as u64)))
            .wrapping_add(mix(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        Decision {
            delay: probability_hit(mix(base ^ SALT_DELAY), self.delay_prob),
            duplicate: probability_hit(mix(base ^ SALT_DUP), self.duplicate_prob),
        }
    }
}

const SALT_DELAY: u64 = 0xd1b5_4a32_d192_ed03;
const SALT_DUP: u64 = 0xaef1_7502_b3a8_8e0d;
const SALT_CRASH: u64 = 0x7f4a_7c15_9e37_79b9;
const SALT_CRASH_OP: u64 = 0x1ce4_e5b9_bf58_476d;

/// Seeded host-crash schedule for the simulated fabric.
///
/// Where [`FaultPlan`] attacks individual *messages*, a `CrashPlan` kills
/// whole *hosts*: at each `(host, phase)` site the plan either does nothing
/// or unwinds the host's thread after a chosen number of communication
/// operations (phase entry counts as operation 0, each send/recv as one
/// more). Like every fault decision in this crate, the choice is a pure
/// hash of `(seed, host, phase)` — never of wall-clock time or thread
/// scheduling — so a crash schedule replays exactly and the recovery
/// oracle can compare against the crash-free run bit for bit.
///
/// The launcher in `cluster.rs` reports the death once the unwound thread
/// has waited out [`crate::RecoveryOptions::heartbeat_timeout`] and, when
/// [`crate::recovery::Supervisor`] says so, tears the host down and
/// respawns it. With `repeat: false` (the default) each site fires at most
/// once across restarts, so the respawned incarnation runs to completion;
/// `repeat: true` re-fires the same site every incarnation, which is how
/// restart-budget exhaustion (and the resulting
/// [`crate::ClusterError::HostLost`]) is exercised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPlan {
    /// Seed for all per-site decisions.
    pub seed: u64,
    /// Probability that a given `(host, phase)` site crashes (ignored for
    /// the forced `victim` site).
    pub crash_prob: f64,
    /// Crash op thresholds are drawn uniformly from `[0, max_ops)`; a
    /// threshold of 0 kills the host right at phase entry.
    pub max_ops: u64,
    /// Forced crash site `(host, phase name)` that fires regardless of
    /// `crash_prob` — the targeted mode the crash-matrix tests use.
    pub victim: Option<(usize, &'static str)>,
    /// Re-fire at the same site after every restart. `false` crashes each
    /// site at most once (recovery succeeds); `true` crashes the respawned
    /// incarnation again and again until the restart budget is exhausted.
    pub repeat: bool,
}

impl CrashPlan {
    /// A seeded chaos schedule: every `(host, phase)` site independently
    /// crashes with moderate probability, early in the phase.
    pub fn seeded(seed: u64) -> Self {
        CrashPlan { seed, crash_prob: 0.2, max_ops: 8, victim: None, repeat: false }
    }

    /// A targeted schedule: exactly one site — `host` during `phase` —
    /// crashes, at a seed-chosen op below `max_ops`.
    pub fn once(seed: u64, host: usize, phase: &'static str, max_ops: u64) -> Self {
        CrashPlan { seed, crash_prob: 0.0, max_ops: max_ops.max(1), victim: Some((host, phase)), repeat: false }
    }

    /// Like [`CrashPlan::once`], but the site re-fires after every restart
    /// — the host can never get past it, so the run must end in
    /// [`crate::ClusterError::HostLost`].
    pub fn repeating(seed: u64, host: usize, phase: &'static str) -> Self {
        CrashPlan { repeat: true, ..CrashPlan::once(seed, host, phase, 1) }
    }

    /// The op threshold at which `host` dies in `phase`, or `None` when
    /// this site survives. Pure in `(seed, host, phase)`.
    pub fn decide(&self, host: usize, phase: &str) -> Option<u64> {
        let key = self.seed ^ mix(((host as u64) << 32) ^ fnv1a(phase));
        let fire = match self.victim {
            Some((h, p)) => h == host && p == phase,
            None => probability_hit(mix(key ^ SALT_CRASH), self.crash_prob),
        };
        fire.then(|| mix(key ^ SALT_CRASH_OP) % self.max_ops.max(1))
    }
}

const SALT_KILL_VICTIM: u64 = 0x2545_f491_4f6c_dd1d;
const SALT_KILL_PHASE: u64 = 0x9e6c_63d0_876a_8b03;
const SALT_KILL_MODE: u64 = 0xe703_7ed1_a0b4_28db;

/// How a [`KillPlan`] takes its victim down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KillMode {
    /// SIGKILL — the process vanishes mid-write; peers see EOF without FIN.
    Kill,
    /// The worker writes a deliberately torn frame (a length prefix
    /// promising more bytes than follow) and then aborts — peers must
    /// treat the partial frame as connection death, not data.
    Torn,
    /// SIGSTOP first — the process goes silent but its sockets stay open,
    /// so detection must come from heartbeat staleness, not EOF. SIGKILL
    /// follows after the hold.
    Wedge,
}

impl KillMode {
    /// Stable flag name, for the `--kill-mode` diagnostics line.
    pub fn as_str(&self) -> &'static str {
        match self {
            KillMode::Kill => "kill",
            KillMode::Torn => "torn",
            KillMode::Wedge => "wedge",
        }
    }
}

/// One process-kill decision: who dies, when, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KillDecision {
    /// The worker process to take down.
    pub victim: usize,
    /// The phase announcement that triggers the kill (one of the names
    /// handed to [`KillPlan::decide`]).
    pub phase: &'static str,
    /// The method.
    pub mode: KillMode,
}

/// Seeded *process*-level kill schedule for `cusp-part launch`.
///
/// The cross-process analogue of [`CrashPlan`]: where a `CrashPlan`
/// unwinds a host *thread* inside the simulator, a `KillPlan`'s decision,
/// handed to [`crate::recovery::Supervisor`], takes down a whole worker
/// *process* once it announces the chosen phase. Every choice — victim,
/// phase, mode — is a pure hash of the seed, so `--kill-seed N` replays
/// the identical kill schedule in CI and the recovered fingerprint can be
/// compared against the crash-free oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Seed all decisions derive from.
    pub seed: u64,
    /// Worker count in the launch (bounds the victim choice).
    pub hosts: usize,
}

impl KillPlan {
    /// The kill decision for this seed. Pure in `(seed, hosts, phases)`.
    /// `phases` are the names the workers announce on stdout
    /// (`CUSP-WORKER-PHASE <name>`, `cusp::PhaseTimes::NAMES` in execution
    /// order), which is how the launcher knows the victim has reached the
    /// chosen point.
    pub fn decide(&self, phases: &[&'static str]) -> KillDecision {
        let hosts = self.hosts.max(1) as u64;
        let victim = (mix(self.seed ^ SALT_KILL_VICTIM) % hosts) as usize;
        let phase = phases[(mix(self.seed ^ SALT_KILL_PHASE) % phases.len() as u64) as usize];
        let mode = match mix(self.seed ^ SALT_KILL_MODE) % 3 {
            0 => KillMode::Kill,
            1 => KillMode::Torn,
            _ => KillMode::Wedge,
        };
        KillDecision { victim, phase, mode }
    }
}

/// FNV-1a over a phase name — stable site keying that doesn't depend on
/// the stats collector's registration order.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What happens to one message.
pub(crate) struct Decision {
    pub delay: bool,
    pub duplicate: bool,
}

/// splitmix64 finalizer — a cheap, well-distributed 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// True with probability `p` given a uniformly mixed word.
fn probability_hit(word: u64, p: f64) -> bool {
    let p = p.clamp(0.0, 1.0);
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    (word as f64) < p * (u64::MAX as f64)
}

/// Live fault counters, shared by all hosts of a faulty fabric.
#[derive(Default)]
pub(crate) struct FaultStats {
    pub delayed: AtomicU64,
    pub duplicated: AtomicU64,
}

impl FaultStats {
    pub(crate) fn report(&self) -> FaultReport {
        FaultReport {
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
        }
    }
}

/// Immutable snapshot of the faults a run injected — proof that the chaos
/// knobs actually fired. Every counter is a sum of per-message decisions,
/// so two runs with the same plan produce identical reports regardless of
/// thread scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Messages held back for later, reordered (reverse-order) release.
    pub delayed: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
}

impl FaultReport {
    /// Total number of injected fault events.
    pub fn total(&self) -> u64 {
        self.delayed + self.duplicated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_plan_is_pure_in_the_seed_and_covers_its_ranges() {
        let phases = ["read", "master", "edge_assign", "alloc", "construct"];
        for seed in 0..64u64 {
            let plan = KillPlan { seed, hosts: 4 };
            let a = plan.decide(&phases);
            assert_eq!(a, plan.decide(&phases), "same seed must replay the same kill");
            assert!(a.victim < 4);
            assert!(phases.contains(&a.phase));
        }
        // Across seeds, all three modes and more than one victim appear.
        let decisions: Vec<_> =
            (0..64u64).map(|s| KillPlan { seed: s, hosts: 4 }.decide(&phases)).collect();
        for mode in [KillMode::Kill, KillMode::Torn, KillMode::Wedge] {
            assert!(decisions.iter().any(|d| d.mode == mode), "{mode:?} never drawn");
        }
        assert!(decisions.iter().map(|d| d.victim).collect::<std::collections::HashSet<_>>().len() > 1);
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::chaos(42);
        for seq in 0..1000 {
            let a = plan.decide(0, 1, 7, seq);
            let b = plan.decide(0, 1, 7, seq);
            assert_eq!(a.delay, b.delay);
            assert_eq!(a.duplicate, b.duplicate);
        }
    }

    #[test]
    fn decisions_differ_across_seeds_and_channels() {
        let a = FaultPlan::chaos(1);
        let b = FaultPlan::chaos(2);
        let mut diff = 0;
        for seq in 0..256 {
            if a.decide(0, 1, 0, seq).delay != b.decide(0, 1, 0, seq).delay {
                diff += 1;
            }
        }
        assert!(diff > 0, "different seeds should change decisions");
        let mut chan_diff = 0;
        for seq in 0..256 {
            if a.decide(0, 1, 0, seq).delay != a.decide(1, 0, 0, seq).delay {
                chan_diff += 1;
            }
        }
        assert!(chan_diff > 0, "different channels should change decisions");
    }

    #[test]
    fn fault_rates_roughly_match_probabilities() {
        let plan = FaultPlan::chaos(7);
        let n = 10_000;
        let mut delayed = 0usize;
        let mut duplicated = 0usize;
        for seq in 0..n as u64 {
            let d = plan.decide(2, 3, 5, seq);
            delayed += d.delay as usize;
            duplicated += d.duplicate as usize;
        }
        let delay_rate = delayed as f64 / n as f64;
        let dup_rate = duplicated as f64 / n as f64;
        assert!((delay_rate - 0.25).abs() < 0.03, "delay rate {delay_rate}");
        assert!((dup_rate - 0.15).abs() < 0.03, "dup rate {dup_rate}");
    }

    /// The delay and duplicate bits of `chaos(seed)` over 3 seeds × 4
    /// channels × 4,096 sequence numbers, one CRC-32 per seed. Every chaos
    /// replay in the workspace is a function of these two decisions, so a
    /// changed value is a changed schedule everywhere.
    #[test]
    fn chaos_schedule_is_pinned() {
        const CHANNELS: [(usize, usize, u8); 4] = [(0, 1, 0), (1, 0, 0), (2, 3, 5), (3, 1, 31)];
        for (seed, pin) in [(1u64, 0x56e9_6049u32), (42, 0x8b01_ea4e), (0xC0FFEE, 0x4e1f_4701)] {
            let plan = FaultPlan::chaos(seed);
            let bits: Vec<u8> = CHANNELS
                .iter()
                .flat_map(|&(src, dst, tag)| (0..4096).map(move |seq| plan.decide(src, dst, tag, seq)))
                .map(|d| d.delay as u8 | (d.duplicate as u8) << 1)
                .collect();
            assert_eq!(cusp_graph::wire::crc32(&bits), pin, "chaos({seed}) schedule moved");
        }
    }

    #[test]
    fn quiet_plan_never_faults() {
        let plan = FaultPlan::quiet(3);
        for seq in 0..1000 {
            let d = plan.decide(0, 1, 0, seq);
            assert!(!d.delay && !d.duplicate);
        }
    }

    #[test]
    fn crash_decisions_are_deterministic() {
        let plan = CrashPlan::seeded(42);
        for host in 0..8 {
            for phase in ["read", "master", "edge_assign", "alloc", "construct"] {
                assert_eq!(plan.decide(host, phase), plan.decide(host, phase));
            }
        }
    }

    #[test]
    fn crash_decisions_vary_across_seeds_and_sites() {
        let a = CrashPlan::seeded(1);
        let b = CrashPlan::seeded(2);
        let sites: Vec<_> = (0..16)
            .flat_map(|h| ["read", "master", "construct"].map(|p| (h, p)))
            .collect();
        let hits_a: Vec<_> = sites.iter().map(|&(h, p)| a.decide(h, p).is_some()).collect();
        let hits_b: Vec<_> = sites.iter().map(|&(h, p)| b.decide(h, p).is_some()).collect();
        assert_ne!(hits_a, hits_b, "different seeds should change the schedule");
        assert!(hits_a.iter().any(|&x| x), "chaos plan should fire somewhere");
        assert!(!hits_a.iter().all(|&x| x), "chaos plan should not fire everywhere");
    }

    #[test]
    fn targeted_plan_fires_only_at_the_victim() {
        let plan = CrashPlan::once(7, 2, "master", 4);
        for host in 0..4 {
            for phase in ["read", "master", "edge_assign", "alloc", "construct"] {
                let t = plan.decide(host, phase);
                if host == 2 && phase == "master" {
                    let t = t.expect("victim site must fire");
                    assert!(t < 4, "threshold {t} out of range");
                } else {
                    assert_eq!(t, None, "site ({host}, {phase}) must not fire");
                }
            }
        }
    }

    #[test]
    fn crash_thresholds_stay_below_max_ops() {
        let plan = CrashPlan { crash_prob: 1.0, ..CrashPlan::seeded(3) };
        for host in 0..32 {
            let t = plan.decide(host, "construct").expect("prob 1.0 always fires");
            assert!(t < plan.max_ops);
        }
    }
}
