//! The simulated cluster: SPMD launcher, per-host communicators, and the
//! shared "fabric" that routes messages between hosts.
//!
//! Hosts are OS threads. Each host `h` owns a [`Comm`] handle; `send` pushes
//! an `Envelope` (source, per-channel sequence number, sender phase, and
//! the [`Bytes`] payload) into the destination's per-tag mailbox (an
//! unbounded FIFO that several threads may pop at once), and the various
//! `recv` flavours pop from it through a **resequencer**: envelopes are
//! reordered back into sequence order per `(src, tag)` and duplicates are
//! discarded, so the application always observes per-(src, dst, tag) FIFO
//! delivery — even when a seeded [`FaultPlan`] delays, reorders or
//! duplicates messages underneath (see [`crate::fault`]). Holding a delayed
//! envelope back wakes the receives blocked on its tag at its destination,
//! which release it: no receive blocks while its host's holdback is
//! non-empty.
//!
//! Receive-side accounting mirrors send-side accounting: when the
//! resequencer hands a message to the application it is recorded against
//! the *sender's* phase (carried in the envelope), which makes the
//! per-phase conservation invariant — bytes/messages sent == received —
//! checkable from a [`CommStats`] snapshot.
//!
//! ## Panic containment
//!
//! If any host panics, all blocked peers must not hang. The fabric keeps
//! one abort cell, set once with the reason the run is going down: a host
//! panicked, or host `h` is lost. Setting it wakes every blocked operation
//! (`recv*`, `barrier`), which then unwinds silently with `LostSignal`, so
//! the failing host's own panic is the only one that reaches the launcher.
//! [`Cluster::run`] then propagates it.
//!
//! ## Host-crash recovery
//!
//! A seeded [`CrashPlan`] in [`ClusterOptions::crash`] arms a recovery
//! layer. Planned crashes unwind the victim's thread silently, and the
//! unwound thread waits out [`RecoveryOptions::heartbeat_timeout`] before it
//! reports its exit, so sends already in flight toward it land first. The
//! launcher drives the one [`crate::recovery::Supervisor`]: it reports the
//! death, and on `Spawn` tears the host down (in-flight messages become
//! *counted* losses), re-delivers everything peers ever sent it from the
//! fabric's one send log (`replay.rs`, which TCP rejoin reads too) and
//! respawns the thread. The respawn re-executes from scratch
//! or from a phase checkpoint ([`Comm::restore_net`]); sequence numbers
//! dedupe what peers already consumed, and high-water marks account the
//! re-execution in [`CommStats::replayed_bytes`], not the phase matrices.
//! A host dying past its restart budget ends the run in
//! [`ClusterError::HostLost`]; blocked survivors are unwound, never hung.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::fault::{fnv1a, CrashPlan, FaultPlan, FaultReport, FaultStats, REORDER_WINDOW};
use crate::recovery::{
    Action, ClusterError, CrashSignal, Event, Exit, LostSignal, NetCheckpoint, RecoveryOptions,
    RecoveryReport, Supervisor,
};
use crate::replay::SendLog;
use crate::serialize::{decode_envelope, encode_envelope, WireEnvelope};
use crate::stats::{CommStats, StatsCollector};
use crate::transport::{LocalTransport, TcpTransport, Transport};
use crate::{Bytes, Unpoison};

/// Identifies a host (partition) in the simulated cluster.
pub type HostId = usize;

/// A small message-class discriminator, analogous to an MPI tag.
///
/// Tags below [`MAX_TAGS`] are valid; each (host, tag) pair has its own
/// FIFO mailbox so different protocol stages never interfere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u8);

/// Number of distinct tags supported by the fabric.
pub const MAX_TAGS: usize = 32;

/// One in-flight message: transport metadata plus the payload.
#[derive(Clone)]
pub(crate) struct Envelope {
    pub(crate) src: HostId,
    /// Position in the per-(src, dst, tag) send sequence.
    pub(crate) seq: u64,
    /// The sender's accounting phase at send time.
    pub(crate) phase: u32,
    pub(crate) payload: Bytes,
}

impl Envelope {
    /// The wire form of this envelope under `tag` (an ENVELOPE frame body).
    pub(crate) fn encode(&self, tag: Tag) -> Bytes {
        encode_envelope(tag.0, self.src as u64, self.phase, self.seq, &self.payload)
    }
}

impl From<WireEnvelope> for Envelope {
    fn from(we: WireEnvelope) -> Self {
        Envelope { src: we.src as HostId, seq: we.seq, phase: we.phase, payload: we.payload }
    }
}

/// One `(host, tag)` mailbox: an unbounded FIFO of envelopes that any
/// thread may push to and several threads may pop from at once. The fabric
/// owns every mailbox for the whole run, so none is ever closed; a blocked
/// pop gives up when its `stop` holds, re-tested at each
/// [`Mailbox::wake`].
#[derive(Default)]
struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    ready: Condvar,
}

impl Mailbox {
    fn push(&self, env: Envelope) {
        self.queue.lock().unpoisoned().push_back(env);
        self.ready.notify_all();
    }

    fn try_pop(&self) -> Option<Envelope> {
        self.queue.lock().unpoisoned().pop_front()
    }

    /// The oldest envelope, waiting for one to arrive until `stop` holds.
    /// `stop` is tested under the queue's lock.
    fn pop(&self, stop: impl Fn() -> bool) -> Option<Envelope> {
        let queue = self.queue.lock().unpoisoned();
        let wait = |q: &mut VecDeque<Envelope>| q.is_empty() && !stop();
        self.ready.wait_while(queue, wait).unpoisoned().pop_front()
    }

    /// Wakes every blocked pop to re-test its `stop`. Taken under the
    /// queue's lock, so a pop between its test and its wait cannot miss it.
    fn wake(&self) {
        let _queue = self.queue.lock().unpoisoned();
        self.ready.notify_all();
    }
}

/// An abort-aware reusable barrier that counts per-host arrivals
/// **monotonically**: `wait(host, n)` announces the host's `n`-th arrival
/// and blocks until every host has arrived at least `n` times. A restarted
/// host re-executing completed phases therefore "re-arrives" at barriers
/// its previous incarnation already passed and falls straight through,
/// without desynchronizing survivors parked at a later barrier.
pub(crate) struct FabricBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    /// Highest arrival number announced per host.
    arrived: Vec<u64>,
    /// `min(arrived)` — barriers completed by the whole group.
    done: u64,
}

impl FabricBarrier {
    fn new(parties: usize) -> Self {
        FabricBarrier {
            state: Mutex::new(BarrierState { arrived: vec![0; parties], done: 0 }),
            cv: Condvar::new(),
        }
    }

    /// Records that `host` has arrived `n` times without blocking. Local
    /// arrivals go through [`FabricBarrier::wait`]; this entry point exists
    /// for transports that learn about *remote* arrivals asynchronously
    /// (a TCP reader thread decoding a BARRIER frame).
    pub(crate) fn announce(&self, host: usize, n: u64) {
        let mut guard = self.state.lock().unpoisoned();
        Self::announce_locked(&mut guard, host, n, &self.cv);
    }

    fn announce_locked(guard: &mut BarrierState, host: usize, n: u64, cv: &Condvar) {
        if guard.arrived[host] < n {
            guard.arrived[host] = n;
            let done = guard.arrived.iter().copied().min().unwrap_or(0);
            if done > guard.done {
                guard.done = done;
                cv.notify_all();
            }
        }
    }

    /// Returns `true` once every host has arrived `n` times, `false` if
    /// `aborted` reported the cluster is going down first. `aborted` is
    /// tested under the lock [`FabricBarrier::wake_all`] takes, so an abort
    /// between the test and the wait still wakes it.
    pub(crate) fn wait(&self, host: usize, n: u64, aborted: impl Fn() -> bool) -> bool {
        let mut guard = self.state.lock().unpoisoned();
        Self::announce_locked(&mut guard, host, n, &self.cv);
        while guard.done < n {
            if aborted() {
                return false;
            }
            guard = self.cv.wait(guard).unpoisoned();
        }
        true
    }

    /// The highest arrival number announced by `host` so far. A rejoin
    /// handshake re-announces this single value to a reconnected peer:
    /// arrivals are monotone, so the latest count subsumes every barrier
    /// frame that died with the old connection.
    pub(crate) fn arrived(&self, host: usize) -> u64 {
        self.state.lock().unpoisoned().arrived[host]
    }

    /// Wakes all current waiters (used when the abort cell is set, so they
    /// observe it).
    pub(crate) fn wake_all(&self) {
        let _guard = self.state.lock().unpoisoned();
        self.cv.notify_all();
    }
}

/// The seeded fault-injection layer attached to a fabric.
struct FaultLayer {
    plan: FaultPlan,
    stats: FaultStats,
    /// Messages held back for reordered release, per destination.
    holdback: Vec<Mutex<Vec<(Tag, Envelope)>>>,
}

/// The crash/restart machinery attached to a fabric when a [`CrashPlan`]
/// is armed, indexed so a host can die and come back without any peer's
/// cooperation: per-channel receive-side high-water marks that recognize a
/// restarted host's re-consumption.
struct RecoveryLayer {
    plan: CrashPlan,
    opts: RecoveryOptions,
    /// Crash sites `(host, fnv1a(phase))` that already fired, so a
    /// one-shot plan does not re-kill the respawned incarnation when it
    /// re-executes the same phase.
    fired: Mutex<HashSet<(usize, u64)>>,
    /// Receive high-water marks per channel cell (same indexing as
    /// `Fabric::seqs`): resequencer deliveries below were already
    /// accounted by a previous incarnation.
    recv_hw: Vec<AtomicU64>,
    /// Application-consumption high-water marks per channel cell: the
    /// highest sequence actually popped by a `recv*` call. The gap
    /// between the send log and this floor at death is exactly the set of
    /// in-flight messages a teardown loses (and replay repairs).
    consumed_hw: Vec<AtomicU64>,
    crashes: AtomicU64,
    restarts: AtomicU64,
    lost_in_teardown: AtomicU64,
}

impl RecoveryLayer {
    fn new(hosts: usize, plan: CrashPlan, opts: RecoveryOptions) -> Self {
        RecoveryLayer {
            plan,
            opts,
            fired: Mutex::new(HashSet::new()),
            recv_hw: (0..hosts * hosts * MAX_TAGS).map(|_| AtomicU64::new(0)).collect(),
            consumed_hw: (0..hosts * hosts * MAX_TAGS).map(|_| AtomicU64::new(0)).collect(),
            crashes: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            lost_in_teardown: AtomicU64::new(0),
        }
    }

    fn report(&self) -> RecoveryReport {
        RecoveryReport {
            crashes: self.crashes.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            lost_in_teardown: self.lost_in_teardown.load(Ordering::Relaxed),
        }
    }
}

/// Why the run is going down: the one value of [`Fabric`]'s abort cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Abort {
    /// A host panicked; its own payload is what the caller sees.
    Panicked,
    /// Host `h` is lost: past its restart budget in the simulator, or
    /// declared dead by a real transport (EOF without FIN, torn frame,
    /// heartbeat silence).
    Lost(HostId),
}

/// Shared state between all host threads.
pub(crate) struct Fabric {
    hosts: usize,
    /// How envelopes move between hosts: the in-process [`LocalTransport`]
    /// (all hosts share this one fabric) or a [`TcpTransport`] (this
    /// fabric belongs to a single host process; remote mailboxes exist but
    /// only `me`'s is consumed, fed by reader threads).
    transport: Box<dyn Transport>,
    /// `mailboxes[dst][tag]`.
    mailboxes: Vec<Vec<Mailbox>>,
    /// The one send log: [`Comm::send_bytes`] writes it, both recoveries read it.
    pub(crate) log: SendLog,
    /// `seqs[(src * hosts + dst) * MAX_TAGS + tag]` — next send sequence
    /// number for that channel.
    seqs: Vec<AtomicU64>,
    pub(crate) barrier: FabricBarrier,
    /// Set once, by the first host or transport to see the run end.
    abort: OnceLock<Abort>,
    fault: Option<FaultLayer>,
    recovery: Option<RecoveryLayer>,
    pub(crate) stats: StatsCollector,
}

impl Fabric {
    /// Arms the send log exactly when the run can respawn a host (a crash plan, TCP `rejoin`).
    fn new(hosts: usize, opts: &ClusterOptions, transport: Box<dyn Transport>, rejoin: bool) -> Self {
        let mailboxes = (0..hosts)
            .map(|_| (0..MAX_TAGS).map(|_| Mailbox::default()).collect())
            .collect();
        Fabric {
            hosts,
            transport,
            mailboxes,
            log: SendLog::new(hosts, opts.crash.is_some() || rejoin),
            seqs: (0..hosts * hosts * MAX_TAGS).map(|_| AtomicU64::new(0)).collect(),
            barrier: FabricBarrier::new(hosts),
            abort: OnceLock::new(),
            fault: opts.fault.map(|plan| FaultLayer {
                plan,
                stats: FaultStats::default(),
                holdback: (0..hosts).map(|_| Mutex::new(Vec::new())).collect(),
            }),
            recovery: opts.crash.map(|plan| RecoveryLayer::new(hosts, plan, opts.recovery)),
            stats: StatsCollector::new(hosts),
        }
    }

    #[inline]
    fn cell(&self, src: HostId, dst: HostId, tag: Tag) -> usize {
        (src * self.hosts + dst) * MAX_TAGS + tag.0 as usize
    }

    /// The cells of `src`'s own channels, in `dst * MAX_TAGS + tag` order.
    fn own_cells(&self, src: HostId) -> std::ops::Range<usize> {
        let base = src * self.hosts * MAX_TAGS;
        base..base + self.hosts * MAX_TAGS
    }

    /// Ends the run for `why` and wakes every blocked operation, so each
    /// host unwinds instead of hanging. The first caller wins; a later
    /// reason (a survivor's view of the same collapse) is dropped.
    pub(crate) fn abort(&self, why: Abort) {
        let _ = self.abort.set(why);
        self.barrier.wake_all();
        self.mailboxes.iter().flatten().for_each(Mailbox::wake);
    }

    /// Whether blocked operations should give up.
    pub(crate) fn should_abort(&self) -> bool {
        self.abort.get().is_some()
    }

    /// The host the run was lost to, if that is why it ended.
    pub(crate) fn lost_host(&self) -> Option<HostId> {
        match self.abort.get()? {
            Abort::Lost(host) => Some(*host),
            Abort::Panicked => None,
        }
    }

    /// Unwinds the calling host with the silent [`LostSignal`] once the run
    /// is going down: the diagnosis is the failing host's own panic or
    /// [`ClusterError::HostLost`], never a survivor's.
    fn check_abort(&self) {
        if self.should_abort() {
            std::panic::resume_unwind(Box::new(LostSignal));
        }
    }

    /// `true` when `seq` on channel `cell` reaches the application for the
    /// first time (account it); `false` when a restarted host re-consumes it.
    #[inline]
    fn note_recv(&self, cell: usize, seq: u64) -> bool {
        match &self.recovery {
            None => true,
            Some(rec) => rec.recv_hw[cell].fetch_max(seq + 1, Ordering::Relaxed) <= seq,
        }
    }

    /// Pushes an envelope straight into the destination mailbox.
    fn deliver(&self, dst: HostId, tag: Tag, env: Envelope) {
        self.mailboxes[dst][tag.0 as usize].push(env);
    }

    /// Routes a remote send through the fault layer (if any). Over the
    /// in-process transport this is the send path; over TCP it is invoked
    /// by the *receiving* side's reader threads with `dst` = the local
    /// host — [`FaultPlan::decide`] is a pure function of
    /// `(seed, src, dst, tag, seq)`, so the decisions are identical no
    /// matter which side of the wire evaluates them.
    pub(crate) fn dispatch(&self, dst: HostId, tag: Tag, env: Envelope) {
        let Some(layer) = &self.fault else {
            self.deliver(dst, tag, env);
            return;
        };
        let d = layer.plan.decide(env.src, dst, tag.0, env.seq);
        if d.duplicate {
            layer.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            self.deliver(dst, tag, env.clone());
        }
        if d.delay {
            layer.stats.delayed.fetch_add(1, Ordering::Relaxed);
            let mut q = layer.holdback[dst].lock().unpoisoned();
            q.push((tag, env));
            let full = q.len() > REORDER_WINDOW;
            drop(q);
            if full {
                self.flush_holdback(dst);
            } else {
                self.mailboxes[dst][tag.0 as usize].wake(); // see `holding`
            }
        } else {
            self.deliver(dst, tag, env);
        }
    }

    /// Whether a message for `dst` is held back, which ends a receive's wait
    /// there. Tested under a mailbox's lock (order: queue → holdback).
    fn holding(&self, dst: HostId) -> bool {
        self.fault.as_ref().is_some_and(|f| !f.holdback[dst].lock().unpoisoned().is_empty())
    }

    /// Releases every held-back message destined for `dst`, in reverse:
    /// that maximizes observable reordering, and the receive-side
    /// resequencer restores sequence order. Called once the reorder window
    /// fills, from the receive paths and at barriers, so a delayed message
    /// can never deadlock the protocol.
    fn flush_holdback(&self, dst: HostId) {
        let Some(layer) = &self.fault else { return };
        let drained: Vec<_> = {
            let mut q = layer.holdback[dst].lock().unpoisoned();
            if q.is_empty() {
                return;
            }
            q.drain(..).collect()
        };
        for (t, e) in drained.into_iter().rev() {
            self.deliver(dst, t, e);
        }
    }

    /// Tears down a dead host's transport and rebuilds its inputs:
    ///
    /// 1. stale copies stranded in its mailboxes (and the fault layer's
    ///    holdback) are physically drained — the dead incarnation's
    ///    resequencer state died with it, so those copies are unusable;
    /// 2. its send sequences are reset to zero so the respawned
    ///    incarnation's re-execution regenerates the same per-channel
    ///    streams (receivers dedupe by sequence number), and the send log
    ///    learns how far the dead incarnation got;
    /// 3. every envelope peers ever sent it is re-delivered from the send
    ///    log. Entries above the host's consumption high-water mark —
    ///    dispatched but never consumed at the moment of death, whether
    ///    stranded in the mailbox, the dead resequencer, or the fault
    ///    layer's holdback — are additionally *counted* as teardown losses.
    fn prepare_restart(&self, host: HostId) {
        let Some(rec) = &self.recovery else { return };
        for mailbox in &self.mailboxes[host] {
            while mailbox.try_pop().is_some() {}
        }
        if let Some(layer) = &self.fault {
            layer.holdback[host].lock().unpoisoned().clear();
        }
        for cell in self.own_cells(host) {
            self.log.retire(cell, self.seqs[cell].swap(0, Ordering::Relaxed));
        }
        let mut lost = 0u64;
        self.log.replay(host, &self.stats, |tag, env| {
            let cell = self.cell(env.src, host, tag);
            if env.seq >= rec.consumed_hw[cell].load(Ordering::Relaxed) {
                lost += 1;
            }
            self.deliver(host, tag, env.clone());
        });
        rec.lost_in_teardown.fetch_add(lost, Ordering::Relaxed);
    }
}

/// One tag's messages in delivery order, ready for the application (the
/// sequence number rides along so consumption can be tracked per channel).
type Ready = VecDeque<(HostId, u64, Bytes)>;

/// Receive-side state: the resequencer plus ready (application-visible)
/// messages, all per tag.
struct RecvState {
    ready: Vec<Ready>,
    /// `next[tag][src]` — the next expected sequence number.
    next: Vec<Vec<u64>>,
    /// `stash[tag][src]` — out-of-order envelopes awaiting predecessors.
    stash: Vec<Vec<BTreeMap<u64, (u32, Bytes)>>>,
}

impl RecvState {
    fn new(hosts: usize) -> Self {
        RecvState {
            ready: (0..MAX_TAGS).map(|_| Default::default()).collect(),
            next: (0..MAX_TAGS).map(|_| vec![0; hosts]).collect(),
            stash: (0..MAX_TAGS).map(|_| (0..hosts).map(|_| BTreeMap::new()).collect()).collect(),
        }
    }
}

/// Sentinel meaning "no crash armed for the current phase".
const NO_CRASH: u64 = u64::MAX;

/// Per-host communicator handle. `send*` methods are thread-safe (pool
/// workers may send concurrently during parallel serialization); `recv*`
/// methods are intended for the host's coordinating thread.
pub struct Comm {
    host: HostId,
    /// Restart epoch of this incarnation (0 = the first launch).
    epoch: u64,
    fabric: Arc<Fabric>,
    recv: Mutex<RecvState>,
    /// Index of the currently active accounting phase.
    phase: AtomicUsize,
    /// Barriers this host has completed (monotone across incarnations once
    /// fast-forwarded or restored from a checkpoint).
    barrier_calls: AtomicU64,
    /// The host's coordinating thread — the only thread a planned crash
    /// may fire on, so pool workers sending concurrently never unwind the
    /// host from under its own thread pool.
    main_thread: std::thread::ThreadId,
    /// Communication ops performed on the main thread in the current phase
    /// (op 0 is the phase entry itself).
    phase_ops: AtomicU64,
    /// Armed crash threshold for the current phase ([`NO_CRASH`] = none).
    crash_at: AtomicU64,
    /// Site key (`fnv1a(phase)`) of the armed crash.
    crash_site: AtomicU64,
}

impl Comm {
    fn new(host: HostId, fabric: Arc<Fabric>, epoch: u64) -> Self {
        let hosts = fabric.hosts;
        Comm {
            host,
            epoch,
            fabric,
            recv: Mutex::new(RecvState::new(hosts)),
            phase: AtomicUsize::new(0),
            barrier_calls: AtomicU64::new(0),
            main_thread: std::thread::current().id(),
            phase_ops: AtomicU64::new(0),
            crash_at: AtomicU64::new(NO_CRASH),
            crash_site: AtomicU64::new(0),
        }
    }

    /// This host's id (also its partition id).
    #[inline]
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Total number of hosts in the cluster.
    #[inline]
    pub fn num_hosts(&self) -> usize {
        self.fabric.hosts
    }

    /// How many times this host has been respawned by the supervisor
    /// (0 on the first incarnation). An application that persists phase
    /// checkpoints should attempt a restore when this is non-zero.
    #[inline]
    pub fn restart_epoch(&self) -> u64 {
        self.epoch
    }

    /// Registers (or reuses) an accounting phase and makes it current. All
    /// subsequent traffic from this host is attributed to it.
    ///
    /// Phase entry is also the crash-arming point: when a [`CrashPlan`] is
    /// armed, this consults `plan.decide(host, name)` and schedules a
    /// planned death after the decided number of communication ops.
    pub fn set_phase(&self, name: &str) {
        let idx = self.fabric.stats.phase_index(name);
        self.phase.store(idx, Ordering::Relaxed);
        self.arm_crash(name);
    }

    /// Arms (or disarms) the planned crash for the phase just entered.
    fn arm_crash(&self, name: &str) {
        let Some(rec) = &self.fabric.recovery else { return };
        let site = fnv1a(name);
        let threshold = rec
            .plan
            .decide(self.host, name)
            .filter(|_| rec.plan.repeat || !rec.fired.lock().unpoisoned().contains(&(self.host, site)));
        self.phase_ops.store(0, Ordering::Relaxed);
        self.crash_site.store(site, Ordering::Relaxed);
        self.crash_at.store(threshold.unwrap_or(NO_CRASH), Ordering::Relaxed);
        // Phase entry is itself op 0, so a threshold of 0 kills the host
        // before it communicates at all (covers zero-traffic phases).
        self.note_op();
    }

    /// Counts one communication op and fires the armed crash once the
    /// threshold is crossed. Only the host's main thread counts (and dies).
    /// Called with no locks held.
    fn note_op(&self) {
        let Some(rec) = &self.fabric.recovery else { return };
        if std::thread::current().id() != self.main_thread {
            return;
        }
        let op = self.phase_ops.fetch_add(1, Ordering::Relaxed);
        if op >= self.crash_at.load(Ordering::Relaxed) {
            self.crash_at.store(NO_CRASH, Ordering::Relaxed);
            rec.fired.lock().unpoisoned().insert((self.host, self.crash_site.load(Ordering::Relaxed)));
            rec.crashes.fetch_add(1, Ordering::Relaxed);
            cusp_obs::instant("host_crash", op);
            // A planned death is not a bug: unwind without the panic hook's
            // stderr report. The launcher recognizes the payload and times
            // the detection wait from the instant it carries.
            std::panic::resume_unwind(Box::new(CrashSignal(Instant::now())));
        }
    }

    /// Sends `payload` to `dst` under `tag`.
    ///
    /// Self-sends are allowed (delivered through the same mailbox) but are
    /// *not* counted as network traffic, matching how a real host would keep
    /// local data local. Sends are accounted exactly once, at the
    /// application level — fault-layer duplicates do not inflate
    /// [`CommStats`], and a restarted host's re-execution of
    /// pre-crash sends is accounted as [`CommStats::replayed_bytes`].
    pub fn send_bytes(&self, dst: HostId, tag: Tag, payload: Bytes) {
        assert!((tag.0 as usize) < MAX_TAGS, "tag out of range");
        assert!(dst < self.fabric.hosts, "destination host out of range");
        self.note_op();
        let phase = self.phase.load(Ordering::Relaxed);
        let cell = self.fabric.cell(self.host, dst, tag);
        let seq = self.fabric.seqs[cell].fetch_add(1, Ordering::Relaxed);
        let env = Envelope { src: self.host, seq, phase: phase as u32, payload };
        // Logged before it is shipped: a frame racing a TCP admission is in
        // the admission's replay or goes out on the fresh queue, never lost.
        let fabric = &*self.fabric;
        if fabric.log.record(&fabric.stats, cell, dst, tag, &env) {
            let (bytes, remote) = (env.payload.len() as u64, dst != self.host);
            if remote {
                fabric.stats.record(phase, self.host, dst, bytes);
            }
            // Re-executed sends suppress the trace event: the previous
            // incarnation's ring already holds the `msg_send` this sequence
            // number pairs with, and flow ids bind by channel + seq.
            cusp_obs::msg_send(dst as u32, tag.0, seq, bytes, remote);
        }
        if dst == self.host {
            // Local data stays local: self-sends bypass the fault layer
            // (and the send log — a restarted host regenerates them), but
            // they DO take the same encode/decode round-trip as the wire,
            // so a payload that would not survive the codec fails
            // identically on both transports and the CommStats matrices
            // stay conserved the same way everywhere.
            let we = decode_envelope(env.encode(tag)).expect("loopback survives the codec");
            fabric.deliver(dst, tag, we.into());
        } else {
            fabric.transport.ship(fabric, dst, tag, env);
        }
    }

    fn mailbox(&self, tag: Tag) -> &Mailbox {
        &self.fabric.mailboxes[self.host][tag.0 as usize]
    }

    /// Runs one envelope through the resequencer: duplicates (sequence
    /// numbers already delivered) are dropped, out-of-order envelopes are
    /// stashed, and in-order messages — plus any stashed successors they
    /// unblock — move to the ready queue, recording receive-side stats
    /// against the sender's phase.
    fn ingest(&self, st: &mut RecvState, tag: Tag, env: Envelope) {
        let t = tag.0 as usize;
        let src = env.src;
        let next = st.next[t][src];
        if env.seq < next {
            return; // duplicate of an already-delivered message
        }
        if env.seq > next {
            st.stash[t][src].entry(env.seq).or_insert((env.phase, env.payload));
            return;
        }
        st.next[t][src] += 1;
        self.deliver_up(st, tag, src, env.seq, env.phase, env.payload);
        while let Some(entry) = st.stash[t][src].first_entry() {
            let seq = *entry.key();
            if seq != st.next[t][src] {
                break;
            }
            let (phase, payload) = entry.remove();
            st.next[t][src] += 1;
            self.deliver_up(st, tag, src, seq, phase, payload);
        }
    }

    /// Hands one in-sequence message to the application, accounting it
    /// unless a previous incarnation of this host already consumed this
    /// sequence number (replayed traffic a restart re-delivers is still
    /// re-consumed by the application, but only counted once).
    fn deliver_up(&self, st: &mut RecvState, tag: Tag, src: HostId, seq: u64, phase: u32, payload: Bytes) {
        let cell = self.fabric.cell(src, self.host, tag);
        if self.fabric.note_recv(cell, seq) {
            if src != self.host {
                self.fabric
                    .stats
                    .record_recv(phase as usize, src, self.host, payload.len() as u64);
            }
            cusp_obs::msg_recv(src as u32, tag.0, seq, payload.len() as u64);
        }
        st.ready[tag.0 as usize].push_back((src, seq, payload));
    }

    /// Records that the application consumed `seq` on `(src, tag)` — the
    /// teardown-loss floor for crash recovery.
    #[inline]
    fn note_consumed(&self, src: HostId, tag: Tag, seq: u64) {
        if let Some(rec) = &self.fabric.recovery {
            let cell = self.fabric.cell(src, self.host, tag);
            rec.consumed_hw[cell].fetch_max(seq + 1, Ordering::Relaxed);
        }
    }

    /// Pulls every immediately available envelope of `tag` through the
    /// resequencer.
    fn drain_channel(&self, st: &mut RecvState, tag: Tag) {
        while let Some(env) = self.mailbox(tag).try_pop() {
            self.ingest(st, tag, env);
        }
    }

    /// Receives the next message of `tag` from any source, blocking.
    pub fn recv_any(&self, tag: Tag) -> (HostId, Bytes) {
        self.recv_blocking(tag, VecDeque::pop_front)
    }

    /// Receives the next message of `tag` from `src` specifically, blocking.
    /// Messages from other sources that arrive first stay buffered.
    pub fn recv_from(&self, src: HostId, tag: Tag) -> Bytes {
        let pop = |q: &mut Ready| q.remove(q.iter().position(|&(s, _, _)| s == src)?);
        self.recv_blocking(tag, pop).1
    }

    /// The blocking receive both flavours share: `pop` takes the wanted
    /// message out of the tag's ready queue, if it is there yet.
    fn recv_blocking<P>(&self, tag: Tag, pop: P) -> (HostId, Bytes)
    where
        P: Fn(&mut Ready) -> Option<(HostId, u64, Bytes)>,
    {
        loop {
            let hit = pop(&mut self.recv.lock().unpoisoned().ready[tag.0 as usize]);
            if let Some((src, seq, payload)) = hit {
                self.note_consumed(src, tag, seq);
                self.note_op();
                return (src, payload);
            }
            // A message held back meanwhile ends the wait, and the next turn
            // releases it.
            self.fabric.flush_holdback(self.host);
            let stop = || self.fabric.should_abort() || self.fabric.holding(self.host);
            match self.mailbox(tag).pop(stop) {
                Some(env) => {
                    let mut st = self.recv.lock().unpoisoned();
                    self.ingest(&mut st, tag, env);
                    self.drain_channel(&mut st, tag);
                }
                None => self.fabric.check_abort(),
            }
        }
    }

    /// Non-blocking receive of `tag` from any source.
    pub fn try_recv_any(&self, tag: Tag) -> Option<(HostId, Bytes)> {
        self.fabric.check_abort();
        self.fabric.flush_holdback(self.host);
        let hit = {
            let mut st = self.recv.lock().unpoisoned();
            self.drain_channel(&mut st, tag);
            st.ready[tag.0 as usize].pop_front()
        };
        hit.map(|(src, seq, payload)| {
            self.note_consumed(src, tag, seq);
            self.note_op();
            (src, payload)
        })
    }

    /// Blocks until all hosts reach the barrier. Any held-back (delayed)
    /// messages are released first so nothing can remain parked across a
    /// phase boundary.
    ///
    /// Barrier arrivals are monotone per host: a restarted host re-calling
    /// barriers its previous incarnation already completed falls straight
    /// through (see `FabricBarrier`).
    pub fn barrier(&self) {
        let _span = cusp_obs::span("barrier");
        self.note_op();
        for dst in 0..self.fabric.hosts {
            self.fabric.flush_holdback(dst);
        }
        let n = self.barrier_calls.fetch_add(1, Ordering::Relaxed) + 1;
        let fabric = &*self.fabric;
        if !fabric.transport.barrier_wait(fabric, self.host, n) {
            fabric.check_abort();
            unreachable!("barrier aborted without an abort condition");
        }
    }

    /// Captures this host's transport state for a durable phase
    /// checkpoint. Must be called at a quiescent phase boundary (right
    /// after a [`Comm::barrier`], before any next-phase traffic): the
    /// resequencer has then delivered everything — nothing buffered for
    /// the application, nothing stashed out of order — so the floors are
    /// phase-complete by construction.
    pub fn net_checkpoint(&self) -> NetCheckpoint {
        let st = self.recv.lock().unpoisoned();
        debug_assert!(
            st.ready.iter().all(|q| q.is_empty())
                && st.stash.iter().flatten().all(|m| m.is_empty()),
            "net_checkpoint must be taken at a quiescent phase boundary"
        );
        let seqs = &self.fabric.seqs[self.fabric.own_cells(self.host)];
        NetCheckpoint {
            send_seqs: seqs.iter().map(|s| s.load(Ordering::Relaxed)).collect(),
            recv_floors: (0..seqs.len()).map(|i| st.next[i % MAX_TAGS][i / MAX_TAGS]).collect(),
            barrier_calls: self.barrier_calls.load(Ordering::Relaxed),
            stats: self.fabric.stats.host_traffic(self.host),
        }
    }

    /// Restores transport state from a phase-boundary checkpoint. Call on
    /// a restarted host (see [`Comm::restart_epoch`]) once it has re-run
    /// the non-durable prefix (graph reading) and is about to skip the
    /// checkpointed phases: send sequences jump forward to their
    /// checkpointed values so post-checkpoint traffic continues where the
    /// finished phases left off, receive floors make the resequencer
    /// discard replayed inbound messages the checkpointed phases already
    /// consumed, and the barrier count re-aligns this host with survivors
    /// parked at later barriers — re-announced, so a survivor that never
    /// heard the dead incarnation arrive at the checkpointed barrier is
    /// released from it.
    ///
    /// The restore is *forward-only* and purges as it goes: re-running the
    /// prefix may already have pulled replayed messages of later phases
    /// through the resequencer (tags shared across phases, e.g. the
    /// collective tag), so anything buffered below a checkpointed floor —
    /// consumed by the previous incarnation before the checkpoint — is
    /// dropped, while in-flight messages above the floor stay queued for
    /// the resumed phases to consume.
    ///
    /// The send-sequence jump relies on one contract, kept by
    /// `PhaseCtx::run_phase`: every phase consumes all its inbound traffic
    /// before its barrier. No host passes the checkpointed barrier before
    /// every host has consumed what was sent to it ahead of it, so a frame
    /// the dead incarnation still had queued below a checkpointed sequence
    /// is one its receiver already holds, and is never needed again.
    pub fn restore_net(&self, ck: &NetCheckpoint) {
        let hosts = self.fabric.hosts;
        assert_eq!(ck.send_seqs.len(), hosts * MAX_TAGS, "checkpoint host count mismatch");
        assert_eq!(ck.recv_floors.len(), hosts * MAX_TAGS, "checkpoint host count mismatch");
        let mut st = self.recv.lock().unpoisoned();
        let seqs = &self.fabric.seqs[self.fabric.own_cells(self.host)];
        for (i, seq) in seqs.iter().enumerate() {
            seq.fetch_max(ck.send_seqs[i], Ordering::Relaxed);
            let (tag, src, floor) = (i % MAX_TAGS, i / MAX_TAGS, ck.recv_floors[i]);
            st.next[tag][src] = st.next[tag][src].max(floor);
            st.stash[tag][src].retain(|&seq, _| seq >= floor);
        }
        for (tag, ready) in st.ready.iter_mut().enumerate() {
            ready.retain(|(src, seq, _)| *seq >= ck.recv_floors[*src * MAX_TAGS + tag]);
        }
        self.barrier_calls.fetch_max(ck.barrier_calls, Ordering::Relaxed);
        drop(st);
        // Re-arrive at the checkpointed barrier, as re-execution would have.
        // Every host passed it, so this falls through — but over TCP the
        // dead incarnation's own arrival may have died unsent with it, and
        // a survivor still parked there would never send the traffic this
        // host is about to wait for.
        let fabric = &*self.fabric;
        if !fabric.transport.barrier_wait(fabric, self.host, ck.barrier_calls) {
            fabric.check_abort();
        }
        // In-process restarts share the collector, so this max-restore is a
        // no-op there; a respawned *process* starts with empty counters and
        // gets its pre-crash accounting rows back here.
        self.fabric.stats.restore_host_traffic(self.host, &ck.stats);
    }

    /// Immutable access to the live statistics collector (e.g. to read
    /// bytes sent so far from inside a host).
    pub fn stats(&self) -> &StatsCollector {
        &self.fabric.stats
    }
}

/// Results of a cluster execution.
pub struct ClusterOutput<R> {
    /// Per-host return values, indexed by host id.
    pub results: Vec<R>,
    /// Snapshot of all communication statistics.
    pub stats: CommStats,
    /// Injected-fault counters, when the run had a [`FaultPlan`].
    pub faults: Option<FaultReport>,
    /// Crash/restart counters, when the run had a [`CrashPlan`].
    pub recovery: Option<RecoveryReport>,
    /// Drained event trace, when the run had a [`TraceConfig`].
    pub trace: Option<cusp_obs::Trace>,
}

/// Tracing configuration for a cluster run. When present in
/// [`ClusterOptions`], every host thread is attached to a fresh
/// [`cusp_obs::Recorder`] for the duration of the run (worker threads the
/// hosts spawn inherit the attachment), and the drained trace is returned
/// in [`ClusterOutput::trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Per-thread event-ring capacity; older events are overwritten (and
    /// counted as dropped) once a thread exceeds it.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { ring_capacity: cusp_obs::DEFAULT_RING_CAPACITY }
    }
}

/// Options for [`Cluster::run_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterOptions {
    /// Seeded fault injection; `None` runs a fault-free fabric.
    pub fault: Option<FaultPlan>,
    /// Seeded host crashes; `None` runs without the recovery layer (and
    /// without its bookkeeping overhead).
    pub crash: Option<CrashPlan>,
    /// Detection and restart knobs, consulted only when `crash` is armed.
    pub recovery: RecoveryOptions,
    /// Event tracing; `None` leaves every recording call a single
    /// thread-local null check.
    pub trace: Option<TraceConfig>,
}

/// SPMD launcher for the simulated cluster.
pub struct Cluster;

impl Cluster {
    /// Runs `f` on `hosts` threads, one per host, and collects results.
    ///
    /// # Panics
    /// Propagates the first host panic after unwinding all hosts.
    pub fn run<R, F>(hosts: usize, f: F) -> ClusterOutput<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        Self::run_with(hosts, ClusterOptions::default(), f)
    }

    /// Like [`Cluster::run`], with explicit options (e.g. a [`FaultPlan`]).
    ///
    /// # Panics
    /// Propagates the first host panic after unwinding all hosts, and
    /// panics with the [`ClusterError`] message if the run ends in
    /// [`ClusterError::HostLost`] — use [`Cluster::try_run_with`] to handle
    /// that outcome programmatically.
    pub fn run_with<R, F>(hosts: usize, opts: ClusterOptions, f: F) -> ClusterOutput<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        match Self::try_run_with(hosts, opts, f) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs `f` on `hosts` threads under a supervisor that restarts
    /// crashed hosts (when [`ClusterOptions::crash`] arms a plan) and
    /// returns [`ClusterError::HostLost`] — never hangs — once a host
    /// exhausts its restart budget.
    ///
    /// `f` may be re-invoked on a fresh thread for a restarted host; it
    /// can distinguish incarnations via [`Comm::restart_epoch`] and resume
    /// from a checkpoint via [`Comm::restore_net`].
    ///
    /// # Panics
    /// Propagates the first *real* host panic (planned crashes are not
    /// panics in this sense) after unwinding all hosts.
    pub fn try_run_with<R, F>(
        hosts: usize,
        opts: ClusterOptions,
        f: F,
    ) -> Result<ClusterOutput<R>, ClusterError>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        assert!(hosts > 0, "cluster needs at least one host");
        let fabric = Arc::new(Fabric::new(hosts, &opts, Box::new(LocalTransport), false));
        let recorder = opts
            .trace
            .map(|cfg| cusp_obs::Recorder::with_capacity(cfg.ring_capacity));
        let results: Vec<Mutex<Option<R>>> = (0..hosts).map(|_| Mutex::new(None)).collect();
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut lost: Option<ClusterError> = None;

        std::thread::scope(|scope| {
            // `(host, incarnation, how it ended, a real panic's payload)`.
            let (tx, rx) = mpsc::channel::<(usize, u32, Exit, Option<Box<dyn std::any::Any + Send>>)>();
            let spawn_host = |h: usize, incarnation: u32| {
                let fabric = Arc::clone(&fabric);
                let recorder = recorder.clone();
                let f = &f;
                let results = &results;
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("host-{h}"))
                    .spawn_scoped(scope, move || {
                        let _trace_guard = recorder.as_ref().map(|r| r.attach(h as u32, "main"));
                        let comm = Comm::new(h, Arc::clone(&fabric), incarnation as u64);
                        let out =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
                        drop(comm);
                        let (how, panic) = match out.map_err(|p| p.downcast::<CrashSignal>()) {
                            Ok(r) => {
                                *results[h].lock().unpoisoned() = Some(r);
                                (Exit::Finished, None)
                            }
                            Err(Ok(crash)) => {
                                // A dead host is reported `heartbeat_timeout`
                                // after it died; until then sends in flight
                                // toward it land, so the teardown's loss count
                                // is exact.
                                let rec = fabric.recovery.as_ref().expect("only a plan crashes");
                                let detect = crash.0 + rec.opts.heartbeat_timeout;
                                std::thread::sleep(detect.saturating_duration_since(Instant::now()));
                                (Exit::Crashed, None)
                            }
                            // Unwound by the abort cell: the run is over.
                            Err(Err(p)) if p.is::<LostSignal>() => return,
                            Err(Err(p)) => {
                                fabric.abort(Abort::Panicked);
                                (Exit::Failed, Some(p))
                            }
                        };
                        let _ = tx.send((h, incarnation, how, panic));
                    })
                    .expect("failed to spawn host thread");
            };

            // The thread driver of the one `Supervisor`: it reports exits
            // and performs actions; what follows from a death is decided
            // by `Supervisor::step`. Supervisor-side trace events land on
            // the dead host's pid under a "supervisor" thread track.
            let mark = |h: usize, name: &'static str, arg: u64| {
                let _obs = recorder.as_ref().map(|r| r.attach(h as u32, "supervisor"));
                cusp_obs::instant(name, arg);
            };
            (0..hosts).for_each(|h| spawn_host(h, 0));
            let mut supervisor = Supervisor::new(hosts, opts.recovery, None);
            let clock = Instant::now();
            let now_ms = || clock.elapsed().as_millis() as u64;
            'run: loop {
                // The one place this thread blocks: until a host exits or a
                // backoff ends. With no plan armed nothing is ever due.
                let exit = match supervisor.next_deadline() {
                    Some(at) => rx.recv_timeout(Duration::from_millis(at.saturating_sub(now_ms()))).ok(),
                    None => rx.recv().ok(),
                };
                let event = exit.map_or(Event::Tick, |(host, incarnation, how, panic)| {
                    if how == Exit::Crashed {
                        mark(host, "host_detect", incarnation as u64 + 1);
                    }
                    first_panic = first_panic.take().or(panic);
                    Event::Exited { host, incarnation, how }
                });
                for action in supervisor.step(now_ms(), event) {
                    match action {
                        Action::Spawn { host, incarnation } => {
                            let rec = fabric.recovery.as_ref().expect("only a plan crashes");
                            fabric.prepare_restart(host);
                            rec.restarts.fetch_add(1, Ordering::Relaxed);
                            mark(host, "host_restart", incarnation as u64);
                            spawn_host(host, incarnation);
                        }
                        // Threads die together: the `Fail` that follows the
                        // survivors' `Kill`s sets the one abort cell.
                        Action::Kill { .. } => {}
                        Action::Fail(e) => {
                            let ClusterError::HostLost { host, restarts } = e;
                            fabric.abort(Abort::Lost(host));
                            mark(host, "host_lost", restarts as u64);
                            lost = Some(e);
                            break 'run;
                        }
                        Action::Finish => break 'run,
                        Action::TellPeers { .. } => unreachable!("no thread announces a listener"),
                    }
                }
            }
            // The scope joins every host thread, the unwinding ones included.
        });

        if let Some(p) = first_panic {
            std::panic::resume_unwind(p);
        }
        if let Some(e) = lost {
            return Err(e);
        }

        Ok(ClusterOutput {
            results: results
                .into_iter()
                .map(|m| m.into_inner().unpoisoned().expect("host produced no result"))
                .collect(),
            stats: fabric.stats.snapshot(),
            faults: fabric.fault.as_ref().map(|l| l.stats.report()),
            recovery: fabric.recovery.as_ref().map(|r| r.report()),
            // All host threads (and any pool workers they owned) have
            // joined, so the rings are quiescent.
            trace: recorder.map(|r| r.drain()),
        })
    }

    /// Runs `f` as **one host of a multi-process cluster** over an
    /// established [`TcpTransport`]: the peers are other OS processes,
    /// each executing the same SPMD function over their own transport.
    ///
    /// Everything above the transport — sequence numbering, the
    /// resequencer and its dedup floors, fault injection, per-phase
    /// [`CommStats`] accounting — is the exact code the in-process
    /// simulator runs; only envelope movement differs. If a peer process
    /// dies mid-run (EOF without FIN, torn frame, prolonged silence) every
    /// blocked operation unwinds and the run returns
    /// [`ClusterError::HostLost`] with `restarts: 0` — never a hang.
    ///
    /// A [`ClusterOptions::crash`] plan is rejected by assertion: it
    /// unwinds host *threads*, and this call is one host of many processes.
    /// Their supervisor is `cusp::distributed::launch`, which drives the same
    /// [`crate::recovery::Supervisor`] as the simulator over whole worker
    /// processes and respawns a dead one into the surviving mesh.
    ///
    /// # Panics
    /// Propagates `f`'s own panic after tearing the transport down
    /// abruptly, so peers detect the death instead of waiting forever.
    pub fn try_run_tcp<R, F>(
        transport: TcpTransport,
        opts: ClusterOptions,
        f: F,
    ) -> Result<TcpRunOutput<R>, ClusterError>
    where
        F: FnOnce(&Comm) -> R,
    {
        assert!(
            opts.crash.is_none(),
            "crash recovery is not supported over the TCP transport"
        );
        let me = transport.host();
        let hosts = transport.num_hosts();
        let incarnation = transport.incarnation();
        let rejoin = transport.rejoin();
        let fabric = Arc::new(Fabric::new(hosts, &opts, Box::new(transport), rejoin));
        let recorder = opts
            .trace
            .map(|cfg| cusp_obs::Recorder::with_capacity(cfg.ring_capacity));
        // Attach before starting the transport: `start` snapshots this
        // thread's attachment so its I/O threads record `peer_down` /
        // `peer_rejoin` instants into the same trace.
        let guard = recorder.as_ref().map(|r| r.attach(me as u32, "main"));
        fabric.transport.start(&fabric);
        // A respawned process (incarnation > 0) runs at that restart
        // epoch, so checkpoint-aware callers resume instead of starting
        // over — the cross-process analogue of the thread driver respawning
        // a host at epoch `incarnation`. The same `host_restart` instant
        // that driver emits marks the restart in this process's trace.
        if incarnation > 0 {
            cusp_obs::instant("host_restart", incarnation as u64);
        }
        let comm = Comm::new(me, Arc::clone(&fabric), incarnation as u64);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
        let clean = out.is_ok();
        // Tear the transport down before reporting anything: a clean host
        // FINs and drains, a panicked one drops its sockets so peers see
        // the death. Either way all transport threads are joined here.
        fabric.transport.finish(&fabric, clean);
        drop(guard);
        match out {
            Ok(result) => {
                if let Some(peer) = fabric.lost_host() {
                    return Err(ClusterError::HostLost { host: peer, restarts: 0 });
                }
                Ok(TcpRunOutput {
                    result,
                    stats: fabric.stats.snapshot(),
                    faults: fabric.fault.as_ref().map(|l| l.stats.report()),
                    trace: recorder.map(|r| r.drain()),
                    rejoins: fabric.transport.rejoin_count(),
                })
            }
            Err(p) if p.is::<LostSignal>() => {
                let peer = fabric.lost_host().unwrap_or(me);
                Err(ClusterError::HostLost { host: peer, restarts: 0 })
            }
            Err(p) => std::panic::resume_unwind(p),
        }
    }
}

/// Results of one host's [`Cluster::try_run_tcp`] execution. Unlike
/// [`ClusterOutput`], this covers a *single* host: each process of the
/// cluster produces its own, and cross-host exhibits (merged partitions,
/// conservation checks) are assembled by the orchestrator from all of
/// them.
pub struct TcpRunOutput<R> {
    /// This host's return value.
    pub result: R,
    /// This host's view of the communication statistics: its send matrix
    /// rows and its receive matrix rows are authoritative; other cells are
    /// zero (they live in the peers' outputs).
    pub stats: CommStats,
    /// Injected-fault counters observed at this host's receive side, when
    /// the run had a [`FaultPlan`].
    pub faults: Option<FaultReport>,
    /// Drained event trace of this host, when the run had a
    /// [`TraceConfig`].
    pub trace: Option<cusp_obs::Trace>,
    /// Dead peers this host re-admitted mid-run via the rejoin handshake
    /// ([`crate::TcpOptions::rejoin`]). Zero on a crash-free run.
    pub rejoins: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(seq: u64) -> Envelope {
        Envelope { src: 0, seq, phase: 0, payload: Bytes::new() }
    }

    #[test]
    fn mailboxes_are_fifo_per_tag() {
        let fabric = Fabric::new(2, &ClusterOptions::default(), Box::new(LocalTransport), false);
        for seq in 0..7 {
            fabric.deliver(1, Tag(seq as u8 % 2), env(seq));
        }
        let drain = |tag: usize| {
            std::iter::from_fn(|| fabric.mailboxes[1][tag].try_pop()).map(|e| e.seq).collect::<Vec<_>>()
        };
        assert_eq!((drain(0), drain(1), drain(2)), (vec![0, 2, 4, 6], vec![1, 3, 5], vec![]));
    }

    /// An abort wakes a pop blocked on an empty mailbox at once: a survivor
    /// parked in a receive unwinds as promptly as one parked in a barrier.
    #[test]
    fn an_abort_wakes_a_blocked_pop_at_once() {
        let fabric = Fabric::new(2, &ClusterOptions::default(), Box::new(LocalTransport), false);
        let start = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                fabric.abort(Abort::Lost(0));
            });
            let mailbox = &fabric.mailboxes[1][3];
            let popped = mailbox.pop(|| fabric.should_abort());
            assert!(popped.is_none());
        });
        assert!(start.elapsed() < Duration::from_secs(10), "the pop waited {:?}", start.elapsed());
    }

    /// A receive under a plan that delays every message ends when the
    /// message is held back, not on a timer: 200 round trips take far less
    /// than one 50 ms wait each.
    #[test]
    fn round_trips_under_a_plan_that_delays_everything_wait_on_no_timer() {
        const TRIPS: u64 = 200;
        let plan = FaultPlan { delay_prob: 1.0, ..FaultPlan::quiet(3) };
        let opts = ClusterOptions { fault: Some(plan), ..ClusterOptions::default() };
        let began = Instant::now();
        let out = Cluster::run_with(2, opts, |comm| {
            let peer = 1 - comm.host();
            for trip in 0..TRIPS {
                if comm.host() == 0 {
                    comm.send_bytes(peer, Tag(1), Bytes::from(trip.to_le_bytes().to_vec()));
                    assert_eq!(&comm.recv_from(peer, Tag(2))[..], &trip.to_le_bytes());
                } else {
                    let ping = comm.recv_from(peer, Tag(1));
                    comm.send_bytes(peer, Tag(2), ping);
                }
            }
        });
        let took = began.elapsed();
        assert_eq!(out.faults.map(|f| f.delayed), Some(2 * TRIPS));
        assert!(took < Duration::from_secs(5), "{TRIPS} round trips took {took:?}");
    }

    #[test]
    fn four_threads_popping_one_mailbox_receive_every_envelope_exactly_once() {
        const N: u64 = 20_000;
        const STOP: u64 = u64::MAX;
        let mailbox = Mailbox::default();
        let popped: Vec<Vec<u64>> = std::thread::scope(|s| {
            let poppers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let pop = || mailbox.pop(|| false);
                        let next = || pop().expect("pushed").seq;
                        std::iter::repeat_with(next).take_while(|&seq| seq != STOP).collect()
                    })
                })
                .collect();
            (0..N).chain([STOP; 4]).for_each(|seq| mailbox.push(env(seq)));
            poppers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Each thread sees its share in push order; together, all of it once.
        assert!(popped.iter().all(|p| p.is_sorted()));
        let mut all = popped.concat();
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn ring_exchange() {
        let out = Cluster::run(5, |comm| {
            let me = comm.host();
            let k = comm.num_hosts();
            let mut w = crate::WireWriter::new();
            w.put_u64(me as u64 * 100);
            comm.send_bytes((me + 1) % k, Tag(1), w.finish());
            let prev = (me + k - 1) % k;
            let data = comm.recv_from(prev, Tag(1));
            let mut r = crate::WireReader::new(data);
            r.get_u64().unwrap()
        });
        assert_eq!(out.results, vec![400, 0, 100, 200, 300]);
        assert!(out.faults.is_none());
        assert!(out.recovery.is_none());
        assert_eq!(out.stats.replayed_bytes(), 0);
    }

    #[test]
    fn per_pair_fifo_order() {
        let out = Cluster::run(2, |comm| {
            if comm.host() == 0 {
                for i in 0..100u64 {
                    let mut w = crate::WireWriter::new();
                    w.put_u64(i);
                    comm.send_bytes(1, Tag(0), w.finish());
                }
                Vec::new()
            } else {
                (0..100)
                    .map(|_| {
                        let (_s, b) = comm.recv_any(Tag(0));
                        crate::WireReader::new(b).get_u64().unwrap()
                    })
                    .collect()
            }
        });
        assert_eq!(out.results[1], (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn tags_are_independent() {
        let out = Cluster::run(2, |comm| {
            if comm.host() == 0 {
                comm.send_bytes(1, Tag(2), Bytes::from_static(b"late-tag"));
                comm.send_bytes(1, Tag(3), Bytes::from_static(b"early-tag"));
                String::new()
            } else {
                // Read tag 3 first even though tag 2 arrived first.
                let (_s, b3) = comm.recv_any(Tag(3));
                let (_s, b2) = comm.recv_any(Tag(2));
                format!(
                    "{}/{}",
                    std::str::from_utf8(&b3).unwrap(),
                    std::str::from_utf8(&b2).unwrap()
                )
            }
        });
        assert_eq!(out.results[1], "early-tag/late-tag");
    }

    #[test]
    fn recv_from_buffers_other_sources() {
        let out = Cluster::run(3, |comm| {
            match comm.host() {
                0 | 1 => {
                    let mut w = crate::WireWriter::new();
                    w.put_u64(comm.host() as u64);
                    comm.send_bytes(2, Tag(0), w.finish());
                    0
                }
                _ => {
                    // Deliberately ask for host 1 first, then host 0.
                    let b1 = comm.recv_from(1, Tag(0));
                    let b0 = comm.recv_from(0, Tag(0));
                    let v1 = crate::WireReader::new(b1).get_u64().unwrap();
                    let v0 = crate::WireReader::new(b0).get_u64().unwrap();
                    (v1 * 10 + v0) as usize
                }
            }
        });
        assert_eq!(out.results[2], 10);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        Cluster::run(4, |comm| {
            for round in 1..=10 {
                counter.fetch_add(1, Ordering::SeqCst);
                comm.barrier();
                assert_eq!(counter.load(Ordering::SeqCst), round * 4);
                comm.barrier();
            }
        });
    }

    #[test]
    fn stats_count_bytes_per_phase() {
        let out = Cluster::run(2, |comm| {
            comm.set_phase("phase-a");
            if comm.host() == 0 {
                comm.send_bytes(1, Tag(0), Bytes::from(vec![0u8; 100]));
            } else {
                comm.recv_any(Tag(0));
            }
            comm.barrier();
            comm.set_phase("phase-b");
            if comm.host() == 1 {
                comm.send_bytes(0, Tag(0), Bytes::from(vec![0u8; 7]));
            } else {
                comm.recv_any(Tag(0));
            }
        });
        let a = out.stats.phase("phase-a").expect("phase-a recorded");
        assert_eq!(a.total_bytes(), 100);
        assert_eq!(a.bytes_between(0, 1), 100);
        assert_eq!(a.bytes_between(1, 0), 0);
        assert_eq!(a.total_messages(), 1);
        let b = out.stats.phase("phase-b").expect("phase-b recorded");
        assert_eq!(b.total_bytes(), 7);
    }

    #[test]
    fn recv_side_accounting_matches_send_side() {
        let out = Cluster::run(3, |comm| {
            comm.set_phase("exchange");
            let me = comm.host();
            let k = comm.num_hosts();
            for peer in 0..k {
                if peer != me {
                    comm.send_bytes(peer, Tag(0), Bytes::from(vec![me as u8; 10 + me]));
                }
            }
            for _ in 0..k - 1 {
                comm.recv_any(Tag(0));
            }
        });
        let p = out.stats.phase("exchange").unwrap();
        for s in 0..3 {
            for d in 0..3 {
                assert_eq!(p.bytes_between(s, d), p.recv_bytes_between(s, d));
                assert_eq!(p.messages_between(s, d), p.recv_messages_between(s, d));
            }
        }
        assert!(p.unconserved_pairs().is_empty());
    }

    #[test]
    fn unconsumed_message_breaks_conservation() {
        let out = Cluster::run(2, |comm| {
            comm.set_phase("leaky");
            if comm.host() == 0 {
                comm.send_bytes(1, Tag(4), Bytes::from_static(b"never read"));
            }
            comm.barrier();
        });
        let p = out.stats.phase("leaky").unwrap();
        assert_eq!(p.unconserved_pairs(), vec![(0, 1)]);
    }

    #[test]
    fn self_sends_not_counted() {
        let out = Cluster::run(1, |comm| {
            comm.set_phase("only");
            comm.send_bytes(0, Tag(0), Bytes::from(vec![1u8; 64]));
            let (src, b) = comm.recv_any(Tag(0));
            (src, b.len())
        });
        assert_eq!(out.results[0], (0, 64));
        assert_eq!(out.stats.phase("only").unwrap().total_bytes(), 0);
    }

    /// The failing host's own panic is the one that comes back, even when
    /// the abort wakes the survivors parked in a barrier at once: they
    /// unwind silently, so their exits can never race it to the launcher.
    #[test]
    fn host_panic_propagates_without_hanging() {
        for run in 0..100 {
            let res = std::panic::catch_unwind(|| {
                Cluster::run(4, |comm| {
                    if comm.host() == 1 {
                        panic!("deliberate failure on host 1");
                    }
                    // These hosts would otherwise block forever.
                    comm.barrier();
                });
            });
            let payload = res.expect_err("host 1 panicked");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"deliberate failure on host 1"),
                "run {run} propagated a survivor's panic"
            );
        }
    }

    #[test]
    fn traced_run_records_message_events() {
        use cusp_obs::EventKind;
        let opts = ClusterOptions {
            trace: Some(TraceConfig::default()),
            ..ClusterOptions::default()
        };
        let out = Cluster::run_with(2, opts, |comm| {
            if comm.host() == 0 {
                comm.send_bytes(1, Tag(3), Bytes::from(vec![9u8; 48]));
            } else {
                comm.recv_any(Tag(3));
            }
            comm.barrier();
        });
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.threads.len(), 2);
        let sends: Vec<_> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MsgSend { .. }))
            .collect();
        assert_eq!(sends.len(), 1);
        assert_eq!(
            sends[0].kind,
            EventKind::MsgSend { dst: 1, tag: 3, seq: 0, bytes: 48, remote: true }
        );
        assert!(trace.events.iter().any(|e| e.host == 1
            && e.kind == EventKind::MsgRecv { src: 0, tag: 3, seq: 0, bytes: 48 }));
        // Both hosts recorded their barrier span.
        let barriers = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin { name: "barrier", arg: 0 })
            .count();
        assert_eq!(barriers, 2);
        // The export validates end to end.
        let json = cusp_obs::export_chrome_trace(&trace);
        let check = cusp_obs::validate_trace_json(&json).expect("valid trace json");
        assert_eq!(check.processes, 2);
        assert!(check.flow_pairs >= 1);
    }

    #[test]
    fn untraced_run_returns_no_trace() {
        let out = Cluster::run(2, |comm| {
            assert!(!cusp_obs::is_active());
            comm.barrier();
        });
        assert!(out.trace.is_none());
    }

    #[test]
    fn single_host_cluster() {
        let out = Cluster::run(1, |comm| {
            comm.barrier();
            comm.host()
        });
        assert_eq!(out.results, vec![0]);
    }

    /// Recovery options tuned for fast tests: quick detection, tiny
    /// backoff.
    fn test_recovery() -> RecoveryOptions {
        RecoveryOptions {
            heartbeat_timeout: Duration::from_millis(20),
            max_restarts: 3,
            restart_backoff: Duration::from_millis(2),
        }
    }

    #[test]
    fn crashed_host_restarts_and_completes() {
        // Pick a seed whose crash threshold lets host 1 consume its ring
        // message *before* dying, so the replay path is deterministically
        // exercised (the logged message must be re-delivered and
        // re-consumed by the new incarnation).
        let seed = (0..200)
            .find(|&s| CrashPlan::once(s, 1, "work", 4).decide(1, "work") == Some(2))
            .expect("some seed crashes at op 2");
        let opts = ClusterOptions {
            crash: Some(CrashPlan::once(seed, 1, "work", 4)),
            recovery: test_recovery(),
            ..ClusterOptions::default()
        };
        let out = Cluster::try_run_with(3, opts, |comm| {
            comm.set_phase("work");
            let me = comm.host();
            let k = comm.num_hosts();
            let mut w = crate::WireWriter::new();
            w.put_u64(me as u64 + 1);
            // Ops on host 1: phase entry (0), send (1), recv (2) — the
            // armed crash fires right after the message is consumed.
            comm.send_bytes((me + 1) % k, Tag(1), w.finish());
            let data = comm.recv_from((me + k - 1) % k, Tag(1));
            comm.barrier();
            crate::WireReader::new(data).get_u64().unwrap()
        })
        .expect("cluster recovers");
        assert_eq!(out.results, vec![3, 1, 2]);
        let rec = out.recovery.expect("recovery layer was armed");
        assert_eq!(rec.crashes, 1);
        assert_eq!(rec.restarts, 1);
        // Host 0's logged message was re-delivered at restart, and host 1
        // re-executed its pre-crash send.
        assert!(out.stats.replayed_messages() >= 1, "{:?}", out.stats.replayed_messages());
        // Conservation holds: replay is accounted separately.
        let p = out.stats.phase("work").unwrap();
        assert!(p.unconserved_pairs().is_empty());
        assert_eq!(p.messages_between(0, 1), 1);
        assert_eq!(p.messages_between(1, 2), 1);
    }

    #[test]
    fn restart_exhaustion_yields_host_lost() {
        let opts = ClusterOptions {
            crash: Some(CrashPlan::repeating(3, 0, "work")),
            recovery: RecoveryOptions { max_restarts: 2, ..test_recovery() },
            ..ClusterOptions::default()
        };
        let err = match Cluster::try_run_with(2, opts, |comm| {
            comm.set_phase("work");
            comm.barrier();
        }) {
            Err(e) => e,
            Ok(_) => panic!("host 0 dies every incarnation; run must not succeed"),
        };
        assert_eq!(err, ClusterError::HostLost { host: 0, restarts: 2 });
    }

    /// Regression test for the bounded-retry teardown interaction: a
    /// message whose dropped attempts were repaired by the final attempt,
    /// but whose receiver died before consuming it, is drained at teardown
    /// as a *counted* loss and re-delivered from the send log — it must
    /// not surface as an `unconserved_pairs` false positive.
    #[test]
    fn teardown_losses_are_counted_not_unconserved() {
        let seed = (0..200)
            .find(|&s| {
                matches!(CrashPlan::once(s, 1, "flood", 8).decide(1, "flood"), Some(op) if op >= 3)
            })
            .expect("some seed crashes mid-consumption");
        let opts = ClusterOptions {
            fault: Some(FaultPlan::chaos(5)),
            crash: Some(CrashPlan::once(seed, 1, "flood", 8)),
            recovery: RecoveryOptions {
                heartbeat_timeout: Duration::from_millis(25),
                ..test_recovery()
            },
            ..ClusterOptions::default()
        };
        const N: u64 = 50;
        let out = Cluster::try_run_with(2, opts, |comm| {
            comm.set_phase("flood");
            if comm.host() == 0 {
                for i in 0..N {
                    let mut w = crate::WireWriter::new();
                    w.put_u64(i);
                    comm.send_bytes(1, Tag(0), w.finish());
                }
                comm.recv_from(1, Tag(2)); // ack
                0
            } else {
                let mut sum = 0u64;
                for _ in 0..N {
                    let (_s, b) = comm.recv_any(Tag(0));
                    sum += crate::WireReader::new(b).get_u64().unwrap();
                }
                comm.send_bytes(0, Tag(2), Bytes::from_static(b"ok"));
                sum
            }
        })
        .expect("cluster recovers");
        // FIFO re-delivery means the sum is exact despite the crash.
        assert_eq!(out.results[1], N * (N - 1) / 2);
        let rec = out.recovery.expect("recovery layer was armed");
        assert_eq!(rec.crashes, 1);
        // Host 0 flooded ahead of host 1's consumption, so teardown found
        // stranded messages; every one of them was replayed.
        assert!(rec.lost_in_teardown >= 1, "{rec:?}");
        assert!(out.stats.replayed_messages() >= rec.lost_in_teardown);
        // The whole point: no conservation false positive.
        assert!(out.stats.unconserved_phases().is_empty(), "{:?}", out.stats.unconserved_phases());
        let p = out.stats.phase("flood").unwrap();
        assert_eq!(p.messages_between(0, 1), N);
    }

    #[test]
    fn restart_with_net_checkpoint_fast_forwards() {
        // Host 1 checkpoints after phase "a", crashes in phase "b", and
        // its second incarnation restores the checkpoint instead of
        // re-executing "a". Survivors never notice: barrier arrivals are
        // restored, re-sends are skipped, and replayed inbound traffic
        // below the floors is discarded.
        let ckpt: Mutex<Option<NetCheckpoint>> = Mutex::new(None);
        let opts = ClusterOptions {
            crash: Some(CrashPlan::once(1, 1, "b", 1)), // dies entering "b"
            recovery: test_recovery(),
            ..ClusterOptions::default()
        };
        let out = Cluster::try_run_with(2, opts, |comm| {
            let me = comm.host();
            let restored = me == 1 && comm.restart_epoch() > 0 && {
                let guard = ckpt.lock().unwrap();
                if let Some(ck) = guard.as_ref() {
                    comm.restore_net(ck);
                    true
                } else {
                    false
                }
            };
            if !restored {
                comm.set_phase("a");
                let mut w = crate::WireWriter::new();
                w.put_u64(7 + me as u64);
                comm.send_bytes(1 - me, Tag(1), w.finish());
                let got = comm.recv_from(1 - me, Tag(1));
                assert_eq!(
                    crate::WireReader::new(got).get_u64().unwrap(),
                    7 + (1 - me) as u64
                );
                comm.barrier();
                if me == 1 {
                    *ckpt.lock().unwrap() = Some(comm.net_checkpoint());
                }
            }
            comm.set_phase("b");
            let mut w = crate::WireWriter::new();
            w.put_u64(100 + me as u64);
            comm.send_bytes(1 - me, Tag(2), w.finish());
            let got = comm.recv_from(1 - me, Tag(2));
            comm.barrier();
            crate::WireReader::new(got).get_u64().unwrap()
        })
        .expect("cluster recovers");
        assert_eq!(out.results, vec![101, 100]);
        let rec = out.recovery.expect("recovery layer was armed");
        assert_eq!(rec.crashes, 1);
        assert_eq!(rec.restarts, 1);
        // Phase "a" was *not* re-executed: conservation holds per phase
        // with exactly one message each way in each phase.
        for name in ["a", "b"] {
            let p = out.stats.phase(name).unwrap();
            assert!(p.unconserved_pairs().is_empty(), "phase {name}");
            assert_eq!(p.messages_between(0, 1), 1, "phase {name}");
            assert_eq!(p.messages_between(1, 0), 1, "phase {name}");
        }
    }

    #[test]
    fn traced_crash_records_recovery_events() {
        use cusp_obs::EventKind;
        let opts = ClusterOptions {
            crash: Some(CrashPlan::once(9, 1, "work", 1)),
            recovery: test_recovery(),
            trace: Some(TraceConfig::default()),
            ..ClusterOptions::default()
        };
        let out = Cluster::try_run_with(2, opts, |comm| {
            comm.set_phase("work");
            if comm.host() == 0 {
                comm.send_bytes(1, Tag(1), Bytes::from_static(b"payload"));
            } else {
                comm.recv_any(Tag(1));
            }
            comm.barrier();
        })
        .expect("cluster recovers");
        let trace = out.trace.expect("trace requested");
        let instants: Vec<&str> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Instant { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        assert!(instants.contains(&"host_crash"), "{instants:?}");
        assert!(instants.contains(&"host_detect"), "{instants:?}");
        assert!(instants.contains(&"host_restart"), "{instants:?}");
        // The death is reported no sooner than one detection wait after it.
        let at = |wanted: &str| {
            let hit = |e: &&cusp_obs::Event| {
                e.host == 1 && matches!(e.kind, EventKind::Instant { name, .. } if name == wanted)
            };
            trace.events.iter().find(hit).map(|e| e.ts_ns).expect("instant recorded")
        };
        let waited = Duration::from_nanos(at("host_detect").saturating_sub(at("host_crash")));
        assert!(waited >= test_recovery().heartbeat_timeout, "detected after {waited:?}");
        // Both incarnations of host 1 plus the supervisor leave distinct
        // thread tracks on host 1's pid.
        let h1_threads: HashSet<u32> = trace
            .events
            .iter()
            .filter(|e| e.host == 1)
            .map(|e| e.tid)
            .collect();
        assert!(h1_threads.len() >= 2, "{h1_threads:?}");
        // The export stays structurally valid (balanced spans, paired
        // flows) even with a crashed incarnation in the trace.
        let json = cusp_obs::export_chrome_trace(&trace);
        let check = cusp_obs::validate_trace_json(&json).expect("valid trace json");
        assert_eq!(check.processes, 2);
    }
}
