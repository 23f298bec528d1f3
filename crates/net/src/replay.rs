//! The one send log a respawned host is replayed from.
//!
//! Every remote envelope is logged once, per destination (§IV-D's unit of
//! communication); the log toward a host is re-sent to its respawned
//! incarnation, whose resequencer floors drop what it already consumed.
//! [`crate::Comm::send_bytes`] is the only writer; the simulator's teardown
//! and the TCP transport's admission both read through [`SendLog::replay`],
//! so a transport only ships and waits at barriers. The log is armed exactly
//! when the run can respawn a host (a `CrashPlan`, or `TcpOptions::rejoin`);
//! unarmed it holds nothing. It is never pruned: a respawn without a
//! checkpoint re-executes from sequence 0. The fabric owns it, so in the
//! simulator it outlives every incarnation of a sender (a checkpoint restore
//! regenerates no earlier send); over TCP it lives as long as the process.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::cluster::{Envelope, HostId, Tag, MAX_TAGS};
use crate::stats::StatsCollector;

pub(crate) struct SendLog {
    /// Send high-water marks per channel cell (as `Fabric::cell`): how many
    /// sequences an earlier incarnation of the channel's sender executed.
    /// Raised only at its teardown, so first-ness never depends on the order
    /// in which concurrent sends on one channel arrive here.
    hw: Vec<AtomicU64>,
    /// `sent[dst]` — every remote envelope toward `dst`, in first-send order.
    sent: Vec<Mutex<Vec<(Tag, Envelope)>>>,
}

impl SendLog {
    pub(crate) fn new(hosts: usize, armed: bool) -> Self {
        let hosts = if armed { hosts } else { 0 };
        SendLog {
            hw: (0..hosts * hosts * MAX_TAGS).map(|_| AtomicU64::new(0)).collect(),
            sent: (0..hosts).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Logs `env`, sent on channel `cell` toward `dst`, and says whether it
    /// is its sequence's first execution. A first remote send is appended;
    /// a re-executed one is already logged and counts as replayed traffic.
    /// Self-sends are never logged: a respawned host regenerates them.
    pub(crate) fn record(
        &self,
        stats: &StatsCollector,
        cell: usize,
        dst: HostId,
        tag: Tag,
        env: &Envelope,
    ) -> bool {
        let first = self.hw.get(cell).is_none_or(|hw| env.seq >= hw.load(Ordering::Relaxed));
        let remote = env.src != dst;
        if remote && !first {
            replayed(stats, env);
        } else if let Some(sent) = self.sent.get(dst).filter(|_| remote) {
            sent.lock().push((tag, env.clone()));
        }
        first
    }

    /// Raises `cell`'s mark to the `executed` sequences its dead sender
    /// reached; the respawn's thread starts after, so `Relaxed` suffices.
    pub(crate) fn retire(&self, cell: usize, executed: u64) {
        if let Some(hw) = self.hw.get(cell) {
            hw.fetch_max(executed, Ordering::Relaxed);
        }
    }

    /// Hands every envelope logged toward `dst` to `each`, in first-send
    /// order, accounting each as replayed traffic.
    pub(crate) fn replay(&self, dst: HostId, stats: &StatsCollector, mut each: impl FnMut(Tag, &Envelope)) {
        let Some(sent) = self.sent.get(dst) else { return };
        for (tag, env) in sent.lock().iter() {
            replayed(stats, env);
            each(*tag, env);
        }
    }
}

/// The one place [`crate::CommStats::replayed_bytes`] grows.
fn replayed(stats: &StatsCollector, env: &Envelope) {
    stats.record_replayed(env.payload.len() as u64);
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;

    use super::*;

    const HOSTS: usize = 3;

    fn env(src: HostId, seq: u64, payload: &'static [u8]) -> Envelope {
        Envelope { src, seq, phase: 0, payload: Bytes::from_static(payload) }
    }

    fn cell(src: HostId, dst: HostId, tag: Tag) -> usize {
        (src * HOSTS + dst) * MAX_TAGS + tag.0 as usize
    }

    fn replayed_toward(
        log: &SendLog,
        dst: HostId,
        stats: &StatsCollector,
    ) -> Vec<(u8, HostId, u64)> {
        let mut out = Vec::new();
        log.replay(dst, stats, |tag, e| out.push((tag.0, e.src, e.seq)));
        out
    }

    /// Sends `src → dst` on `tag` at sequences `seqs`, as `send_bytes` would.
    fn send(
        log: &SendLog,
        stats: &StatsCollector,
        src: HostId,
        dst: HostId,
        tag: Tag,
        seqs: std::ops::Range<u64>,
    ) -> Vec<bool> {
        seqs.map(|seq| log.record(stats, cell(src, dst, tag), dst, tag, &env(src, seq, b"four")))
            .collect()
    }

    #[test]
    fn a_re_executed_sequence_appends_nothing_and_is_not_first() {
        let (log, stats) = (SendLog::new(HOSTS, true), StatsCollector::new(HOSTS));
        assert_eq!(send(&log, &stats, 0, 1, Tag(2), 0..3), [true; 3]);
        // Host 0 dies having executed three sequences, and its respawn
        // re-executes them, then goes one further.
        log.retire(cell(0, 1, Tag(2)), 3);
        assert_eq!(send(&log, &stats, 0, 1, Tag(2), 0..4), [false, false, false, true]);
        assert_eq!(stats.snapshot().replayed_bytes(), 12, "the three re-executions");
        let all: Vec<_> = (0..4).map(|seq| (2, 0, seq)).collect();
        assert_eq!(replayed_toward(&log, 1, &stats), all, "each sequence logged once");
        // A retire below the mark (a respawn that died early) lowers nothing.
        log.retire(cell(0, 1, Tag(2)), 1);
        assert_eq!(send(&log, &stats, 0, 1, Tag(2), 2..3), [false]);
    }

    #[test]
    fn replay_yields_every_first_sent_remote_envelope_once_and_accounts_its_bytes() {
        let (log, stats) = (SendLog::new(HOSTS, true), StatsCollector::new(HOSTS));
        log.record(&stats, cell(0, 2, Tag(1)), 2, Tag(1), &env(0, 0, b"a"));
        log.record(&stats, cell(1, 2, Tag(1)), 2, Tag(1), &env(1, 0, b"bb"));
        log.record(&stats, cell(0, 1, Tag(1)), 1, Tag(1), &env(0, 0, b"elsewhere"));
        log.record(&stats, cell(0, 2, Tag(5)), 2, Tag(5), &env(0, 0, b"ccc"));
        log.record(&stats, cell(0, 2, Tag(1)), 2, Tag(1), &env(0, 1, b"dddd"));
        assert_eq!(stats.snapshot().replayed_bytes(), 0, "first sends are not replays");
        let got = replayed_toward(&log, 2, &stats);
        assert_eq!(got, [(1, 0, 0), (1, 1, 0), (5, 0, 0), (1, 0, 1)], "first-send order");
        let snap = stats.snapshot();
        assert_eq!((snap.replayed_bytes(), snap.replayed_messages()), (10, 4));
        // A second respawn of the same host gets the same list again.
        assert_eq!(replayed_toward(&log, 2, &stats), got);
    }

    #[test]
    fn self_sends_are_never_logged() {
        let (log, stats) = (SendLog::new(HOSTS, true), StatsCollector::new(HOSTS));
        assert_eq!(send(&log, &stats, 1, 1, Tag(0), 0..2), [true, true]);
        log.retire(cell(1, 1, Tag(0)), 2);
        assert_eq!(send(&log, &stats, 1, 1, Tag(0), 0..3), [false, false, true]);
        assert!(replayed_toward(&log, 1, &stats).is_empty());
        assert_eq!(stats.snapshot().replayed_bytes(), 0, "local data is not traffic");
    }

    #[test]
    fn an_unarmed_log_holds_nothing() {
        let (log, stats) = (SendLog::new(HOSTS, false), StatsCollector::new(HOSTS));
        assert_eq!(send(&log, &stats, 0, 1, Tag(0), 0..2), [true, true]);
        log.retire(cell(0, 1, Tag(0)), 2);
        assert_eq!(
            send(&log, &stats, 0, 1, Tag(0), 0..2),
            [true, true],
            "no incarnation to tell apart"
        );
        assert!(replayed_toward(&log, 1, &stats).is_empty());
        assert_eq!(stats.snapshot().replayed_bytes(), 0);
    }
}
