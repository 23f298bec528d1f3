//! Host-crash recovery: the knobs, the reports, the one [`Supervisor`]
//! that decides what happens after a host dies, and the transport
//! checkpoint a restarted host resumes from.
//!
//! * [`RecoveryOptions`] — detection wait, restart budget, backoff;
//! * [`Supervisor`] — the pure state machine both clusters drive: the
//!   thread fabric (`Cluster::try_run_with`) and `cusp::distributed::launch` only
//!   *detect* (an unwound thread after its detection wait, a reaped child
//!   at stdout EOF) and *act* (spawn, signal, write the peer list); every
//!   decision in between — count, budget, backoff, respawn, give up,
//!   finish — is made by [`Supervisor::step`], which touches no clock,
//!   thread or socket, so `tests/supervisor_schedules.rs` can search every
//!   schedule of a fake process world and a fake thread world;
//! * [`ClusterError`] — the clean terminal failure (`HostLost`) a cluster
//!   returns instead of hanging when the budget is exhausted;
//! * [`RecoveryReport`] — counters proving what the recovery machinery did
//!   (crashes fired, restarts, traffic drained at teardown);
//! * [`NetCheckpoint`] — a host's phase-boundary transport state (send
//!   sequences, receive floors, barrier count). Restoring it aligns a
//!   respawned host's re-execution with the byte stream its peers already
//!   consumed: re-sent messages carry the *same* sequence numbers, so the
//!   receive-side resequencer dedupes them, and replayed inbound traffic
//!   below the floors is discarded the same way. Without a checkpoint the
//!   host restarts from zero — still bit-identical under the determinism
//!   contract, just with more re-execution.
//!
//! What a fault *is* stays where it happens: [`crate::CrashPlan`] fires
//! inside the victim thread (`fault.rs`, `Comm::note_op`), and the one send
//! log a respawn is replayed from lives in `replay.rs`.

use std::time::{Duration, Instant};

use cusp_graph::wire;

use crate::fault::{KillDecision, KillMode};
use crate::serialize::WireWriter;
use crate::stats::PhaseTraffic;
use crate::MAX_TAGS;

/// Sanity bounds for the checkpointed stats section: a corrupt length
/// prefix must not drive a huge allocation.
const MAX_STATS_PHASES: usize = 4096;
const MAX_PHASE_NAME: usize = 256;

/// Unwind payload of a planned [`crate::CrashPlan`] crash, carrying the
/// instant it fired. Carried via `resume_unwind` (not `panic!`) so the
/// panic hook stays silent — a simulated host death is expected, not a bug
/// report.
pub(crate) struct CrashSignal(pub(crate) Instant);

/// Unwind payload of every surviving host once the run is going down (a
/// peer panicked or a host is lost). Silent: the diagnosis is the failing
/// host's own panic or [`ClusterError::HostLost`].
pub(crate) struct LostSignal;

/// Knobs for crash detection and bounded restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecoveryOptions {
    /// How long a death takes to be noticed. In the simulator it is the
    /// detection wait: a crashed host thread reports its exit this long
    /// after the crash fired, so sends already in flight toward it land
    /// first. In `cusp::distributed::launch` it is the wedge hold: how long
    /// the [`Supervisor`] leaves a stopped, silent victim before the hard
    /// kill, long enough for its peers' TCP heartbeat monitors to notice.
    pub heartbeat_timeout: Duration,
    /// Restart attempts per host before the cluster gives up with
    /// [`ClusterError::HostLost`].
    pub max_restarts: u32,
    /// Base delay before the first respawn; doubles per attempt
    /// (exponential backoff, see [`RecoveryOptions::backoff`]).
    pub restart_backoff: Duration,
}

impl RecoveryOptions {
    /// The delay before restart attempt `attempt` (1-based):
    /// `restart_backoff × 2^(attempt − 1)`, the exponent capped at 8. The
    /// two loops this replaced capped it at 8 and at 10; no budget in the
    /// tree (`max_restarts` 1, 2, 3) reaches either cap.
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.restart_backoff * (1 << attempt.saturating_sub(1).min(8))
    }
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            heartbeat_timeout: Duration::from_millis(100),
            max_restarts: 3,
            restart_backoff: Duration::from_millis(10),
        }
    }
}

/// Terminal cluster failures surfaced by [`crate::Cluster::try_run_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// A host kept dying until its restart budget ran out. The cluster
    /// unwound all surviving hosts cleanly — no thread is left blocked.
    HostLost {
        /// The host that could not be kept alive.
        host: usize,
        /// Restart attempts that were made before giving up.
        restarts: u32,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::HostLost { host, restarts } => write!(
                f,
                "host {host} lost: crashed again after {restarts} restart attempt(s)"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Counters summarizing a run's recovery activity, returned in
/// [`crate::ClusterOutput::recovery`] when a [`crate::CrashPlan`] was
/// armed. Replayed *traffic* (bytes/messages retransmitted or re-executed)
/// is accounted in [`crate::CommStats::replayed_bytes`] instead, next to
/// the conserved per-phase matrices it is excluded from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Planned crashes that fired.
    pub crashes: u64,
    /// Host respawns performed by the supervisor.
    pub restarts: u64,
    /// Messages that had been dispatched toward a dead host but never
    /// consumed at the moment of death — stranded in its mailboxes, its
    /// dead resequencer, or the fault layer's holdback. These are
    /// *counted* losses: each one is re-delivered from the send log before
    /// the respawn, so they never show up as an `unconserved_pairs` false
    /// positive.
    pub lost_in_teardown: u64,
}

/// How a host's incarnation ended, as its driver observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// It produced its result (a thread returned; a worker printed DONE).
    Finished,
    /// It died in a way a restart can repair (a planned crash, a kill).
    Crashed,
    /// It died in a way a restart cannot repair (a real panic; a worker
    /// that fails with no kill plan armed, or before it ever listened).
    Failed,
}

/// An OS fact a driver reports to [`Supervisor::step`]: something about
/// generation `incarnation` of host `host`, or the passing of time.
#[allow(missing_docs)] // the fields are the two names above
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event<'a> {
    /// The host bound its listener and waits for the peer list.
    Listening { host: usize, incarnation: u32 },
    /// The host announced that it entered pipeline phase `phase`.
    PhaseReached { host: usize, incarnation: u32, phase: &'a str },
    /// The host is gone *and* everything it said has been delivered (its
    /// thread unwound and waited out the detection wait; its child was
    /// reaped at stdout EOF).
    Exited { host: usize, incarnation: u32, how: Exit },
    /// Time passed; the only event that fires what was scheduled.
    Tick,
}

/// An effect [`Supervisor::step`] asks its driver to perform on `host`.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Start it again as `incarnation`, where the dead one lived.
    Spawn { host: usize, incarnation: u32 },
    /// Take it down: the kill plan's choice, the hard kill that ends a
    /// wedge, or — with [`KillMode::Kill`] — a survivor of a lost run.
    Kill { host: usize, mode: KillMode },
    /// Hand it the address of every host.
    TellPeers { host: usize },
    /// Every host is done: collect the results.
    Finish,
    /// The run is lost. Emitted once, after the `Kill`s of the survivors.
    Fail(ClusterError),
}

/// Where one host stands. A host's incarnation is also its attempt count:
/// incarnation `n` is the `n`-th restart.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostState {
    /// Generation `incarnation` is alive, as far as anyone knows.
    Running { incarnation: u32 },
    /// Dead; the first tick at or after `due_ms` spawns `incarnation`.
    Backoff { incarnation: u32, due_ms: u64 },
    /// It finished.
    Done,
    /// It exhausted its restarts, or failed beyond repair.
    Lost,
}

impl std::fmt::Display for HostState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostState::Running { incarnation } => write!(f, "Running{{incarnation {incarnation}}}"),
            HostState::Backoff { incarnation, .. } => write!(f, "Backoff{{incarnation {incarnation}}}"),
            HostState::Done => f.write_str("Done"),
            HostState::Lost => f.write_str("Lost"),
        }
    }
}

/// What happens after a host dies, decided once. Pure: [`Supervisor::step`]
/// reads no clock (the driver passes `now_ms`), blocks on nothing and
/// performs nothing — it returns the [`Action`]s for its driver to perform,
/// and [`Supervisor::next_deadline`] says how long the driver may block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Supervisor {
    opts: RecoveryOptions,
    /// The seeded kill and whether it re-fires on every incarnation.
    kill: Option<(KillDecision, bool)>,
    hosts: Vec<HostState>,
    /// Each host's latest incarnation to announce a listen address (the
    /// address survives restarts).
    listening: Vec<Option<u32>>,
    /// The peer list went out: a host that listens from now on is a
    /// respawn and is told at once.
    told: bool,
    kills: u32,
    /// The wedged victim and when it gets its hard kill.
    hard_kill: Option<(usize, u64)>,
    /// `Finish` or `Fail` was emitted; nothing follows it.
    over: bool,
}

impl Supervisor {
    /// A supervisor over `hosts` freshly started hosts (incarnation 0).
    pub fn new(hosts: usize, opts: RecoveryOptions, kill: Option<(KillDecision, bool)>) -> Self {
        Supervisor {
            opts,
            kill,
            hosts: vec![HostState::Running { incarnation: 0 }; hosts],
            listening: vec![None; hosts],
            told: false,
            kills: 0,
            hard_kill: None,
            over: false,
        }
    }

    /// The state of `host`.
    pub fn state(&self, host: usize) -> HostState {
        self.hosts[host]
    }

    /// Kills the plan has fired so far.
    pub fn kills(&self) -> u32 {
        self.kills
    }

    /// The earliest `now_ms` at which an [`Event::Tick`] will do something;
    /// `None` when only another event can.
    pub fn next_deadline(&self) -> Option<u64> {
        let spawns = self.hosts.iter().filter_map(|s| match s {
            HostState::Backoff { due_ms, .. } => Some(*due_ms),
            _ => None,
        });
        spawns.chain(self.hard_kill.map(|(_, due_ms)| due_ms)).min().filter(|_| !self.over)
    }

    /// Advances the machine by one event observed at `now_ms`. An event
    /// about any incarnation but the host's running one is dropped: a dead
    /// generation's stragglers change nothing.
    pub fn step(&mut self, now_ms: u64, event: Event<'_>) -> Vec<Action> {
        let mut out = Vec::new();
        let (host, incarnation) = match event {
            _ if self.over => return out,
            Event::Tick => {
                if let Some((host, _)) = self.hard_kill.filter(|&(_, due_ms)| due_ms <= now_ms) {
                    self.hard_kill = None;
                    out.push(Action::Kill { host, mode: KillMode::Kill });
                }
                for (host, state) in self.hosts.iter_mut().enumerate() {
                    if let HostState::Backoff { incarnation, due_ms } = *state {
                        if due_ms <= now_ms {
                            *state = HostState::Running { incarnation };
                            out.push(Action::Spawn { host, incarnation });
                        }
                    }
                }
                return out;
            }
            Event::Listening { host, incarnation }
            | Event::PhaseReached { host, incarnation, .. }
            | Event::Exited { host, incarnation, .. } => (host, incarnation),
        };
        if self.hosts[host] != (HostState::Running { incarnation }) {
            return out;
        }
        match event {
            Event::Listening { .. } => {
                self.listening[host] = Some(incarnation);
                if self.told {
                    out.push(Action::TellPeers { host });
                } else if self.listening.iter().all(Option::is_some) {
                    // A host in backoff, or a respawn whose own listen line
                    // is still to come, is told on that line.
                    self.told = true;
                    let listened = |&h: &usize| {
                        matches!(self.hosts[h], HostState::Running { incarnation }
                            if self.listening[h] == Some(incarnation))
                    };
                    let tell = |host| Action::TellPeers { host };
                    out.extend(self.running().filter(listened).map(tell));
                }
            }
            Event::PhaseReached { phase, .. } => {
                let due = self.kill.filter(|(d, repeat)| {
                    d.victim == host && d.phase == phase && (self.kills == 0 || *repeat)
                });
                if let Some((d, _)) = due {
                    self.kills += 1;
                    out.push(Action::Kill { host, mode: d.mode });
                    if d.mode == KillMode::Wedge {
                        let hold = self.opts.heartbeat_timeout.as_millis() as u64;
                        self.hard_kill = Some((host, now_ms + hold));
                    }
                }
            }
            Event::Exited { how, .. } => {
                self.hard_kill = self.hard_kill.filter(|&(wedged, _)| wedged != host);
                match how {
                    Exit::Finished => {
                        self.hosts[host] = HostState::Done;
                        if self.hosts.iter().all(|s| *s == HostState::Done) {
                            self.over = true;
                            out.push(Action::Finish);
                        }
                    }
                    Exit::Crashed if incarnation < self.opts.max_restarts => {
                        let incarnation = incarnation + 1;
                        let due_ms = now_ms + self.opts.backoff(incarnation).as_millis() as u64;
                        self.hosts[host] = HostState::Backoff { incarnation, due_ms };
                    }
                    Exit::Crashed | Exit::Failed => {
                        self.hosts[host] = HostState::Lost;
                        self.over = true;
                        let kill = |host| Action::Kill { host, mode: KillMode::Kill };
                        out.extend(self.running().map(kill));
                        out.push(Action::Fail(ClusterError::HostLost { host, restarts: incarnation }));
                    }
                }
            }
            Event::Tick => unreachable!("handled above"),
        }
        out
    }

    fn running(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.hosts.len()).filter(|&h| matches!(self.hosts[h], HostState::Running { .. }))
    }
}

/// One host's transport state at a phase boundary, as captured by
/// [`crate::Comm::net_checkpoint`] and restored by
/// [`crate::Comm::restore_net`].
///
/// Captured *at a barrier*, the state is phase-complete by construction:
/// receive floors cover exactly the traffic every peer sent this host in
/// the finished phases (the recv paths drain only the requested tag, and
/// tags are phase-specific), and no application message is buffered
/// undelivered.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetCheckpoint {
    /// Next send sequence number per `(dst, tag)`, indexed
    /// `dst * MAX_TAGS + tag`.
    pub send_seqs: Vec<u64>,
    /// Next expected receive sequence number per `(src, tag)`, indexed
    /// `src * MAX_TAGS + tag`.
    pub recv_floors: Vec<u64>,
    /// Barriers this host has completed.
    pub barrier_calls: u64,
    /// This host's per-phase accounting rows (sent to / received from each
    /// peer). An in-process restart shares the live collector and ignores
    /// these; a respawned *process* starts with empty counters and restores
    /// them so Table V accounting survives the crash.
    pub stats: Vec<PhaseTraffic>,
}

fn put_str(w: &mut WireWriter, s: &str) {
    let bytes = s.as_bytes();
    w.put_u32(bytes.len() as u32);
    w.put_raw(bytes);
}

fn get_str(r: &mut wire::Reader<'_>) -> Option<String> {
    let len = r.u32().ok()? as usize;
    if len > MAX_PHASE_NAME {
        return None;
    }
    String::from_utf8(r.bytes(len).ok()?.to_vec()).ok()
}

impl NetCheckpoint {
    /// Serializes into `w` (length-prefixed, fixed-width fields).
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_u64_slice(&self.send_seqs);
        w.put_u64_slice(&self.recv_floors);
        w.put_u64(self.barrier_calls);
        w.put_u32(self.stats.len() as u32);
        for row in &self.stats {
            put_str(w, &row.name);
            w.put_u64_slice(&row.sent_bytes);
            w.put_u64_slice(&row.sent_msgs);
            w.put_u64_slice(&row.recv_bytes);
            w.put_u64_slice(&row.recv_msgs);
        }
    }

    /// Deserializes from `r`; `None` on any truncation or length mismatch
    /// against `hosts` (corrupt checkpoints are treated as absent).
    pub fn decode(r: &mut wire::Reader<'_>, hosts: usize) -> Option<Self> {
        let want = hosts * MAX_TAGS;
        let send_seqs = r.u64_vec().ok()?;
        let recv_floors = r.u64_vec().ok()?;
        if send_seqs.len() != want || recv_floors.len() != want {
            return None;
        }
        let barrier_calls = r.u64().ok()?;
        let phases = r.u32().ok()? as usize;
        if phases > MAX_STATS_PHASES {
            return None;
        }
        let mut stats = Vec::with_capacity(phases);
        for _ in 0..phases {
            let name = get_str(r)?;
            let row = PhaseTraffic {
                name,
                sent_bytes: r.u64_vec().ok()?,
                sent_msgs: r.u64_vec().ok()?,
                recv_bytes: r.u64_vec().ok()?,
                recv_msgs: r.u64_vec().ok()?,
            };
            if [&row.sent_bytes, &row.sent_msgs, &row.recv_bytes, &row.recv_msgs]
                .iter()
                .any(|v| v.len() != hosts)
            {
                return None;
            }
            stats.push(row);
        }
        Some(NetCheckpoint { send_seqs, recv_floors, barrier_calls, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_checkpoint_round_trips() {
        let hosts = 3;
        let mut ck = NetCheckpoint {
            send_seqs: vec![0; hosts * MAX_TAGS],
            recv_floors: vec![0; hosts * MAX_TAGS],
            barrier_calls: 5,
            stats: vec![PhaseTraffic {
                name: "edge_assign".into(),
                sent_bytes: vec![0, 10, 20],
                sent_msgs: vec![0, 1, 2],
                recv_bytes: vec![5, 0, 0],
                recv_msgs: vec![1, 0, 0],
            }],
        };
        ck.send_seqs[7] = 42;
        ck.recv_floors[2 * MAX_TAGS + 1] = 9;
        let mut w = WireWriter::new();
        ck.encode(&mut w);
        let bytes = w.finish();
        let back = NetCheckpoint::decode(&mut wire::Reader::new(&bytes), hosts).expect("decodes");
        assert_eq!(back, ck);
    }

    #[test]
    fn net_checkpoint_rejects_wrong_host_count_and_truncation() {
        let hosts = 2;
        let ck = NetCheckpoint {
            send_seqs: vec![1; hosts * MAX_TAGS],
            recv_floors: vec![2; hosts * MAX_TAGS],
            barrier_calls: 1,
            stats: vec![PhaseTraffic {
                name: "read".into(),
                sent_bytes: vec![0, 3],
                sent_msgs: vec![0, 1],
                recv_bytes: vec![0, 0],
                recv_msgs: vec![0, 0],
            }],
        };
        let mut w = WireWriter::new();
        ck.encode(&mut w);
        let bytes = w.finish();
        let mut r = wire::Reader::new(&bytes);
        assert!(NetCheckpoint::decode(&mut r, 4).is_none(), "host count mismatch");
        for cut in [0, 1, 8, bytes.len() - 1] {
            let mut r = wire::Reader::new(&bytes[..cut]);
            assert!(NetCheckpoint::decode(&mut r, hosts).is_none(), "truncated at {cut}");
        }
    }

    fn opts(max_restarts: u32) -> RecoveryOptions {
        RecoveryOptions { max_restarts, ..RecoveryOptions::default() }
    }

    /// The thread supervisor used to sleep out a backoff inline, blind to
    /// every other host meanwhile. The due time is in the machine now, so a
    /// real failure during another host's backoff fails the run at once —
    /// and the backed-off host is never spawned into the wreck.
    #[test]
    fn a_failure_during_another_hosts_backoff_fails_at_once() {
        let mut sup = Supervisor::new(2, opts(3), None);
        let crashed = Event::Exited { host: 1, incarnation: 0, how: Exit::Crashed };
        assert_eq!(sup.step(5, crashed), vec![]);
        assert_eq!(sup.state(1), HostState::Backoff { incarnation: 1, due_ms: 15 });
        assert_eq!(sup.next_deadline(), Some(15));

        let failed = Event::Exited { host: 0, incarnation: 0, how: Exit::Failed };
        let lost = ClusterError::HostLost { host: 0, restarts: 0 };
        assert_eq!(sup.step(6, failed), vec![Action::Fail(lost)]);
        assert_eq!(sup.next_deadline(), None);
        assert_eq!(sup.step(1_000, Event::Tick), vec![], "no Spawn for host 1 afterwards");
        assert_eq!(sup.state(1), HostState::Backoff { incarnation: 1, due_ms: 15 });
    }

    #[test]
    fn a_crash_is_respawned_by_the_first_tick_at_or_after_its_backoff() {
        let mut sup = Supervisor::new(2, opts(1), None);
        let exit = |incarnation, how| Event::Exited { host: 0, incarnation, how };
        assert_eq!(sup.step(100, exit(0, Exit::Crashed)), vec![]);
        assert_eq!(sup.step(109, Event::Tick), vec![]);
        assert_eq!(sup.step(110, Event::Tick), vec![Action::Spawn { host: 0, incarnation: 1 }]);
        // The dead generation's exit, delivered again, is not a second crash.
        assert_eq!(sup.step(111, exit(0, Exit::Crashed)), vec![]);
        assert_eq!(sup.state(0), HostState::Running { incarnation: 1 });
        // The budget is one restart: the next crash loses the host, and the
        // survivor is taken down before the failure is reported.
        let lost = ClusterError::HostLost { host: 0, restarts: 1 };
        assert_eq!(
            sup.step(120, exit(1, Exit::Crashed)),
            vec![Action::Kill { host: 1, mode: KillMode::Kill }, Action::Fail(lost)]
        );
    }

    #[test]
    fn backoff_doubles_per_attempt_up_to_its_cap() {
        let o = RecoveryOptions { restart_backoff: Duration::from_millis(10), ..opts(3) };
        let ms: Vec<u128> = [1, 2, 3, 9, 10, 40].iter().map(|&a| o.backoff(a).as_millis()).collect();
        assert_eq!(ms, [10, 20, 40, 2560, 2560, 2560]);
    }

    #[test]
    fn host_lost_displays_cleanly() {
        let e = ClusterError::HostLost { host: 3, restarts: 2 };
        let s = e.to_string();
        assert!(s.contains("host 3"), "{s}");
        assert!(s.contains("2 restart"), "{s}");
    }
}
