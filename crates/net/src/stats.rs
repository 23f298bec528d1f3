//! Exact communication accounting.
//!
//! Every `Comm::send_bytes` to a remote host records `(phase, src, dst,
//! bytes)` into a live [`StatsCollector`]; [`CommStats`] is the immutable
//! snapshot returned by `Cluster::run`. This is what makes Table V (GB sent
//! per phase for CVC vs HVC) an exact measurement in this reproduction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::Unpoison;

/// Live, thread-safe statistics collector shared by all hosts.
pub struct StatsCollector {
    hosts: usize,
    /// Phase name → index, append-only.
    names: RwLock<Vec<String>>,
    /// Per-phase matrices, allocated on phase registration.
    phases: RwLock<Vec<PhaseCounters>>,
    /// Bytes moved again during crash recovery: inbound traffic re-delivered
    /// from the send log plus re-executed sends below a restarted host's
    /// high-water mark. Kept outside the per-phase matrices so conservation
    /// stays checkable and Table V numbers are never silently inflated.
    replayed_bytes: AtomicU64,
    /// Message count matching [`StatsCollector::replayed_bytes`].
    replayed_msgs: AtomicU64,
}

struct PhaseCounters {
    bytes: Vec<AtomicU64>,
    msgs: Vec<AtomicU64>,
    recv_bytes: Vec<AtomicU64>,
    recv_msgs: Vec<AtomicU64>,
}

impl PhaseCounters {
    fn new(hosts: usize) -> Self {
        PhaseCounters {
            bytes: (0..hosts * hosts).map(|_| AtomicU64::new(0)).collect(),
            msgs: (0..hosts * hosts).map(|_| AtomicU64::new(0)).collect(),
            recv_bytes: (0..hosts * hosts).map(|_| AtomicU64::new(0)).collect(),
            recv_msgs: (0..hosts * hosts).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl StatsCollector {
    pub(crate) fn new(hosts: usize) -> Self {
        let collector = StatsCollector {
            hosts,
            names: RwLock::new(Vec::new()),
            phases: RwLock::new(Vec::new()),
            replayed_bytes: AtomicU64::new(0),
            replayed_msgs: AtomicU64::new(0),
        };
        // Phase 0 always exists: traffic before any `set_phase` call.
        collector.phase_index("(untagged)");
        collector
    }

    /// Returns the index for `name`, registering it if new.
    pub fn phase_index(&self, name: &str) -> usize {
        {
            let names = self.names.read().unpoisoned();
            if let Some(idx) = names.iter().position(|n| n == name) {
                return idx;
            }
        }
        let mut names = self.names.write().unpoisoned();
        // Re-check: another thread may have registered it meanwhile.
        if let Some(idx) = names.iter().position(|n| n == name) {
            return idx;
        }
        names.push(name.to_string());
        self.phases.write().unpoisoned().push(PhaseCounters::new(self.hosts));
        names.len() - 1
    }

    #[inline]
    pub(crate) fn record(&self, phase: usize, src: usize, dst: usize, bytes: u64) {
        let phases = self.phases.read().unpoisoned();
        let counters = &phases[phase];
        let cell = src * self.hosts + dst;
        counters.bytes[cell].fetch_add(bytes, Ordering::Relaxed);
        counters.msgs[cell].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a message handed to the application on the receive side.
    /// `phase` is the *sender's* phase (carried in the envelope), so the
    /// send and receive matrices of a phase are directly comparable.
    #[inline]
    pub(crate) fn record_recv(&self, phase: usize, src: usize, dst: usize, bytes: u64) {
        let phases = self.phases.read().unpoisoned();
        let counters = &phases[phase];
        let cell = src * self.hosts + dst;
        counters.recv_bytes[cell].fetch_add(bytes, Ordering::Relaxed);
        counters.recv_msgs[cell].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one replayed message (recovery traffic excluded from the
    /// per-phase matrices).
    #[inline]
    pub(crate) fn record_replayed(&self, bytes: u64) {
        self.replayed_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.replayed_msgs.fetch_add(1, Ordering::Relaxed);
    }

    /// Captures `host`'s accounting rows for every registered phase: the
    /// send row (`host → *`) and the receive column (`* → host`). This is
    /// the slice of the matrices a [`crate::NetCheckpoint`] persists so a
    /// respawned *process* (which starts with empty counters, unlike an
    /// in-process restart that shares the collector) can restore its own
    /// contribution to Table V accounting.
    pub fn host_traffic(&self, host: usize) -> Vec<PhaseTraffic> {
        let names = self.names.read().unpoisoned();
        let phases = self.phases.read().unpoisoned();
        names
            .iter()
            .zip(phases.iter())
            .map(|(name, p)| {
                let row = |m: &[AtomicU64]| {
                    (0..self.hosts)
                        .map(|dst| m[host * self.hosts + dst].load(Ordering::Relaxed))
                        .collect()
                };
                let col = |m: &[AtomicU64]| {
                    (0..self.hosts)
                        .map(|src| m[src * self.hosts + host].load(Ordering::Relaxed))
                        .collect()
                };
                PhaseTraffic {
                    name: name.clone(),
                    sent_bytes: row(&p.bytes),
                    sent_msgs: row(&p.msgs),
                    recv_bytes: col(&p.recv_bytes),
                    recv_msgs: col(&p.recv_msgs),
                }
            })
            .collect()
    }

    /// Restores rows captured by [`StatsCollector::host_traffic`] into this
    /// collector via per-cell `fetch_max`. Max, not add, makes the restore
    /// idempotent and safe to combine with re-execution: a phase the host
    /// re-runs after resuming recounts the same deterministic traffic, and
    /// `max(checkpointed, recounted)` is exactly one copy of it.
    pub fn restore_host_traffic(&self, host: usize, rows: &[PhaseTraffic]) {
        for row in rows {
            let idx = self.phase_index(&row.name);
            let phases = self.phases.read().unpoisoned();
            let p = &phases[idx];
            for dst in 0..self.hosts.min(row.sent_bytes.len()) {
                let cell = host * self.hosts + dst;
                p.bytes[cell].fetch_max(row.sent_bytes[dst], Ordering::Relaxed);
                p.msgs[cell].fetch_max(row.sent_msgs[dst], Ordering::Relaxed);
            }
            for src in 0..self.hosts.min(row.recv_bytes.len()) {
                let cell = src * self.hosts + host;
                p.recv_bytes[cell].fetch_max(row.recv_bytes[src], Ordering::Relaxed);
                p.recv_msgs[cell].fetch_max(row.recv_msgs[src], Ordering::Relaxed);
            }
        }
    }

    /// Total bytes recorded so far under `name` (0 if never registered).
    pub fn live_total_bytes(&self, name: &str) -> u64 {
        let names = self.names.read().unpoisoned();
        let Some(idx) = names.iter().position(|n| n == name) else {
            return 0;
        };
        let phases = self.phases.read().unpoisoned();
        phases[idx].bytes.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Freezes the collector into an immutable snapshot.
    pub fn snapshot(&self) -> CommStats {
        let names = self.names.read().unpoisoned().clone();
        let phases = self.phases.read().unpoisoned();
        let snaps = phases
            .iter()
            .map(|p| PhaseSnapshot {
                hosts: self.hosts,
                bytes: p.bytes.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                msgs: p.msgs.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                recv_bytes: p.recv_bytes.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                recv_msgs: p.recv_msgs.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            })
            .collect();
        CommStats {
            hosts: self.hosts,
            names,
            phases: snaps,
            replayed_bytes: self.replayed_bytes.load(Ordering::Relaxed),
            replayed_msgs: self.replayed_msgs.load(Ordering::Relaxed),
        }
    }
}

/// One host's accounting rows for a single phase, as captured by
/// [`StatsCollector::host_traffic`]: what this host sent to each peer and
/// what it received from each peer, attributed to the sender's phase. All
/// four vectors have length `hosts`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PhaseTraffic {
    /// The phase name the rows belong to.
    pub name: String,
    /// Bytes this host sent to each destination in this phase.
    pub sent_bytes: Vec<u64>,
    /// Messages this host sent to each destination.
    pub sent_msgs: Vec<u64>,
    /// Bytes this host received from each source.
    pub recv_bytes: Vec<u64>,
    /// Messages this host received from each source.
    pub recv_msgs: Vec<u64>,
}

/// Immutable snapshot of all traffic in one phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSnapshot {
    hosts: usize,
    /// Row-major `hosts × hosts` matrix of bytes from src (row) to dst (col).
    bytes: Vec<u64>,
    msgs: Vec<u64>,
    /// Same matrices, recorded when the receiver's transport handed the
    /// message to the application (attributed to the sender's phase).
    recv_bytes: Vec<u64>,
    recv_msgs: Vec<u64>,
}

impl PhaseSnapshot {
    /// Bytes sent from `src` to `dst`.
    pub fn bytes_between(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.hosts + dst]
    }

    /// Messages sent from `src` to `dst`.
    pub fn messages_between(&self, src: usize, dst: usize) -> u64 {
        self.msgs[src * self.hosts + dst]
    }

    /// Total bytes across all host pairs.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total message count across all host pairs.
    pub fn total_messages(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Bytes sent out of `src` to all destinations.
    pub fn bytes_out(&self, src: usize) -> u64 {
        (0..self.hosts).map(|d| self.bytes_between(src, d)).sum()
    }

    /// Bytes received by `dst` from all sources.
    pub fn bytes_in(&self, dst: usize) -> u64 {
        (0..self.hosts).map(|s| self.bytes_between(s, dst)).sum()
    }

    /// Messages sent out of `src`.
    pub fn messages_out(&self, src: usize) -> u64 {
        (0..self.hosts).map(|d| self.messages_between(src, d)).sum()
    }

    /// Messages received by `dst`.
    pub fn messages_in(&self, dst: usize) -> u64 {
        (0..self.hosts).map(|s| self.messages_between(s, dst)).sum()
    }

    /// Number of distinct peers `src` sent at least one byte to.
    pub fn fanout(&self, src: usize) -> usize {
        (0..self.hosts)
            .filter(|&d| d != src && self.bytes_between(src, d) > 0)
            .count()
    }

    /// Number of hosts in the matrix.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Bytes received by `dst` from `src` (application-visible deliveries).
    pub fn recv_bytes_between(&self, src: usize, dst: usize) -> u64 {
        self.recv_bytes[src * self.hosts + dst]
    }

    /// Messages received by `dst` from `src` (application-visible
    /// deliveries; fault-layer duplicates are not counted).
    pub fn recv_messages_between(&self, src: usize, dst: usize) -> u64 {
        self.recv_msgs[src * self.hosts + dst]
    }

    /// Total bytes delivered to applications across all host pairs.
    pub fn total_recv_bytes(&self) -> u64 {
        self.recv_bytes.iter().sum()
    }

    /// Total messages delivered to applications across all host pairs.
    pub fn total_recv_messages(&self) -> u64 {
        self.recv_msgs.iter().sum()
    }

    /// The `(src, dst)` pairs whose send-side and receive-side accounting
    /// disagree — the conservation invariant (everything sent in a phase is
    /// delivered and consumed) fails exactly on these cells.
    pub fn unconserved_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for src in 0..self.hosts {
            for dst in 0..self.hosts {
                let cell = src * self.hosts + dst;
                if self.bytes[cell] != self.recv_bytes[cell] || self.msgs[cell] != self.recv_msgs[cell] {
                    out.push((src, dst));
                }
            }
        }
        out
    }
}

/// Immutable snapshot of all phases of a cluster run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommStats {
    hosts: usize,
    names: Vec<String>,
    phases: Vec<PhaseSnapshot>,
    replayed_bytes: u64,
    replayed_msgs: u64,
}

impl CommStats {
    /// Looks a phase up by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseSnapshot> {
        let idx = self.names.iter().position(|n| n == name)?;
        Some(&self.phases[idx])
    }

    /// All registered phase names, in registration order.
    pub fn phase_names(&self) -> &[String] {
        &self.names
    }

    /// Iterates `(name, snapshot)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PhaseSnapshot)> {
        self.names
            .iter()
            .map(|s| s.as_str())
            .zip(self.phases.iter())
    }

    /// Grand total bytes across every phase.
    pub fn grand_total_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.total_bytes()).sum()
    }

    /// Grand total messages across every phase.
    pub fn grand_total_messages(&self) -> u64 {
        self.phases.iter().map(|p| p.total_messages()).sum()
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Phases whose send-side and receive-side matrices disagree, with the
    /// offending `(src, dst)` pairs. Empty means every byte and message
    /// sent in every phase was delivered and consumed (Table V accounting
    /// is conserved).
    pub fn unconserved_phases(&self) -> Vec<(&str, Vec<(usize, usize)>)> {
        self.iter()
            .filter_map(|(name, p)| {
                let pairs = p.unconserved_pairs();
                (!pairs.is_empty()).then_some((name, pairs))
            })
            .collect()
    }

    /// Bytes moved again during crash recovery (log re-delivery plus
    /// re-executed sends). Zero on a crash-free run. Counted *outside* the
    /// per-phase matrices: conservation (`unconserved_phases`) holds modulo
    /// exactly this traffic.
    pub fn replayed_bytes(&self) -> u64 {
        self.replayed_bytes
    }

    /// Message count matching [`CommStats::replayed_bytes`].
    pub fn replayed_messages(&self) -> u64 {
        self.replayed_msgs
    }

    /// Merges phase totals matching a prefix (e.g. all `"construct:*"`).
    pub fn total_bytes_with_prefix(&self, prefix: &str) -> u64 {
        self.iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, p)| p.total_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_registration_is_idempotent() {
        let c = StatsCollector::new(4);
        let a = c.phase_index("alpha");
        let b = c.phase_index("beta");
        assert_ne!(a, b);
        assert_eq!(c.phase_index("alpha"), a);
    }

    #[test]
    fn record_and_snapshot() {
        let c = StatsCollector::new(3);
        let p = c.phase_index("work");
        c.record(p, 0, 1, 10);
        c.record(p, 0, 1, 5);
        c.record(p, 2, 0, 100);
        let snap = c.snapshot();
        let ph = snap.phase("work").unwrap();
        assert_eq!(ph.bytes_between(0, 1), 15);
        assert_eq!(ph.messages_between(0, 1), 2);
        assert_eq!(ph.bytes_between(2, 0), 100);
        assert_eq!(ph.total_bytes(), 115);
        assert_eq!(ph.bytes_out(0), 15);
        assert_eq!(ph.bytes_in(0), 100);
        assert_eq!(ph.fanout(0), 1);
    }

    #[test]
    fn live_totals() {
        let c = StatsCollector::new(2);
        let p = c.phase_index("x");
        assert_eq!(c.live_total_bytes("x"), 0);
        c.record(p, 0, 1, 9);
        assert_eq!(c.live_total_bytes("x"), 9);
        assert_eq!(c.live_total_bytes("unknown"), 0);
    }

    #[test]
    fn host_traffic_restores_idempotently() {
        let c = StatsCollector::new(3);
        let p = c.phase_index("work");
        c.record(p, 1, 0, 10);
        c.record(p, 1, 2, 7);
        c.record_recv(p, 0, 1, 3);
        let rows = c.host_traffic(1);

        // A respawned process starts with a fresh collector, re-executes
        // the non-durable prefix (recounting the same deterministic
        // traffic from zero), then restores the checkpoint: max turns the
        // overlap into exactly one copy.
        let fresh = StatsCollector::new(3);
        let p2 = fresh.phase_index("work");
        fresh.record(p2, 1, 0, 10);
        fresh.restore_host_traffic(1, &rows);
        // Restoring again is a no-op (idempotent).
        fresh.restore_host_traffic(1, &rows);

        let snap = fresh.snapshot();
        let ph = snap.phase("work").unwrap();
        assert_eq!(ph.bytes_between(1, 0), 10);
        assert_eq!(ph.bytes_between(1, 2), 7);
        assert_eq!(ph.messages_between(1, 2), 1);
        assert_eq!(ph.recv_bytes_between(0, 1), 3);
        assert_eq!(ph.recv_messages_between(0, 1), 1);
        // Other hosts' cells are untouched.
        assert_eq!(ph.bytes_between(0, 1), 0);
    }

    #[test]
    fn prefix_totals() {
        let c = StatsCollector::new(2);
        let p1 = c.phase_index("construct:edges");
        let p2 = c.phase_index("construct:meta");
        let p3 = c.phase_index("other");
        c.record(p1, 0, 1, 1);
        c.record(p2, 0, 1, 2);
        c.record(p3, 0, 1, 4);
        let snap = c.snapshot();
        assert_eq!(snap.total_bytes_with_prefix("construct:"), 3);
        assert_eq!(snap.grand_total_bytes(), 7);
    }
}
