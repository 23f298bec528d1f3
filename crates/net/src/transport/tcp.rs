//! The length-delimited TCP transport: one OS process per host.
//!
//! ## Wire format
//!
//! Every frame is `len: u32 LE | kind: u8 | body`, where `len` counts the
//! kind byte plus the body. Kinds:
//!
//! | kind | name      | body                                             |
//! |------|-----------|--------------------------------------------------|
//! | 1    | HELLO     | `magic u32, version u8 (4), host_id u32, hosts u32, run_nonce u64, incarnation u32` |
//! | 2    | ACCEPT    | `incarnation u32` — the acceptor's, for the dialer's link |
//! | 3    | REJECT    | `reason u8` (see [`RejectReason`])               |
//! | 4    | ENVELOPE  | a versioned envelope (`encode_envelope`)         |
//! | 5    | BARRIER   | `arrival u64` — the sender's barrier arrival count |
//! | 6    | HEARTBEAT | empty                                            |
//! | 7    | FIN       | empty — the sender has completed cleanly         |
//! | 8    | LOST      | `host u64` — the sender is going down because it lost `host` |
//!
//! A host that unwinds because it lost a peer sends every other peer a
//! LOST naming that peer before it drops its sockets, so a survivor that
//! hears of the collapse from it first still reports the host that failed,
//! not the one that went down after it.
//!
//! ## Topology and threading
//!
//! The mesh is built from **simplex** connections: host `i` dials every
//! peer's listener once (every caller binds every listener before any
//! dial, so a refusal is [`TransportError::Unreachable`], not a race) and
//! writes to those sockets; it reads from the connections its peers dial
//! in. One acceptor thread answers every HELLO on the listener, from
//! `establish` until teardown, blocked in `accept`. Per outbound socket a
//! writer thread drains a frame queue (heartbeating when idle); per inbound
//! socket a reader thread feeds the same dispatch → fault layer →
//! resequencer path the simulator uses, so [`crate::FaultPlan`]'s pure
//! `decide` makes the simulator's decisions at the receiving end. A monitor
//! thread sleeps until a peer could have been silent for
//! [`TcpOptions::peer_timeout`], counted from `establish` before its HELLO.
//!
//! ## One peer link
//!
//! What a FIN, a LOST, a broken connection, silence, a HELLO (the first or a
//! respawn's), the answer to this host's dial or a supervisor's word that a
//! peer finished means is decided by the peer's [`PeerLink`] (`super::link`;
//! DESIGN.md §11 has its table):
//! the threads only report to it and act, under the one lock that holds the
//! link with the peer's queue and reader socket; an admission re-sends the
//! fabric's send log (`replay.rs`). A down peer (with
//! [`TcpOptions::rejoin`]) has no deadline here; its supervisor decides.

use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cusp_graph::wire;

use super::link::{self, Action, Event, PeerLink, Resend};
use super::{RejectReason, Transport, TransportError};
use crate::cluster::{Abort, Envelope, Fabric, HostId, Tag, MAX_TAGS};
use crate::serialize::{decode_envelope, WireWriter};
use crate::{Bytes, Unpoison};

/// "CUSP" in ASCII — the handshake magic.
const MAGIC: u32 = 0x4355_5350;

/// Version of the TCP framing + handshake protocol. Version 2 added the
/// `incarnation` field to HELLO (process rejoin after a crash); version 3
/// added the LOST frame, so a mesh never mixes hosts that send it with
/// hosts that would charge it to its sender as an unknown kind; version 4
/// put the acceptor's incarnation in ACCEPT.
pub const TCP_PROTOCOL_VERSION: u8 = 4;

const FRAME_HELLO: u8 = 1;
const FRAME_ACCEPT: u8 = 2;
const FRAME_REJECT: u8 = 3;
const FRAME_ENVELOPE: u8 = 4;
const FRAME_BARRIER: u8 = 5;
const FRAME_HEARTBEAT: u8 = 6;
const FRAME_FIN: u8 = 7;
const FRAME_LOST: u8 = 8;

/// Upper bound on a data frame; anything larger is a corrupt length
/// prefix, not a message.
const MAX_FRAME: u32 = 1 << 30;

/// Handshake frames are tiny; a "HELLO" claiming more is garbage.
const MAX_HANDSHAKE_FRAME: u32 = 256;

/// How long one handshake exchange may take on a connected socket.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(3);

/// How often reader threads come up for air to check shutdown/abort flags
/// while blocked on a socket.
const READ_POLL: Duration = Duration::from_millis(100);

/// Knobs of the TCP transport. Defaults are deliberately generous: a
/// loaded CI machine must never produce spurious `HostLost`s. No wait has a
/// deadline of its own: every peer, before its first HELLO too, is bounded
/// by the silence rule ([`TcpOptions::peer_timeout`]).
#[derive(Debug, Clone, Copy)]
pub struct TcpOptions {
    /// Idle writers emit a heartbeat frame this often; the silence timeout
    /// is derived from it ([`TcpOptions::peer_timeout`]).
    pub heartbeat_interval: Duration,
    /// Accept reconnecting peers with a newer incarnation instead of
    /// aborting on the first connection loss. Arms the fabric's send log,
    /// kept for the whole run and re-sent to each admitted respawn;
    /// enabled by the process supervisor (`cusp-part launch`), off for
    /// unsupervised meshes.
    pub rejoin: bool,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions { heartbeat_interval: Duration::from_millis(500), rejoin: false }
    }
}

impl TcpOptions {
    /// These options with idle writers heartbeating every `interval`
    /// (at least 10 ms).
    pub fn with_heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval.max(Duration::from_millis(10));
        self
    }

    /// A peer silent this long without FIN has failed, and so has one that
    /// has not dialed in this long after `establish`: 20 heartbeats, at
    /// least 500 ms (10 s at the default heartbeat).
    pub fn peer_timeout(&self) -> Duration {
        (self.heartbeat_interval * 20).max(Duration::from_millis(500))
    }
}

/// What ship/barrier enqueue toward a peer's writer thread.
enum Out {
    /// An encoded envelope frame body.
    Env(Bytes),
    /// A barrier arrival announcement.
    Barrier(u64),
    /// Clean completion: write FIN, flush, close the write half.
    Fin,
    /// Unclean teardown: close without FIN so the peer detects the loss,
    /// after a LOST naming the host this one lost, if that is why.
    Abort(Option<HostId>),
}

/// One peer as the driver holds it: the link and the handles its actions
/// act on.
struct Peer {
    link: PeerLink,
    /// Frames toward the peer's writer thread; `None` before this host's
    /// dial, while unhooked (and at `me`).
    queue: Option<Sender<Out>>,
    /// The current inbound socket: parked here until `start` spawns its
    /// reader, then a clone, so the reader can be torn out of a blocking
    /// read.
    reader: Option<TcpStream>,
}

struct Link {
    /// The latest admitted generation, written under `peer`'s lock: the one
    /// thing the per-frame path reads, to stop a superseded reader.
    gen: AtomicU64,
    peer: Mutex<Peer>,
}

/// State shared between the transport handle and its threads.
struct TcpShared {
    me: HostId,
    hosts: usize,
    run_nonce: u64,
    /// This process's incarnation (0 for a first spawn).
    incarnation: u32,
    opts: TcpOptions,
    /// Every host's listen address (`peers[me]` is our own).
    peers: Vec<String>,
    start: Instant,
    /// Milliseconds since `start` of the last frame from each peer.
    last_heard: Vec<AtomicU64>,
    links: Vec<Link>,
    /// The fabric `start` ran on and the trace its I/O threads attach to.
    run: OnceLock<(Weak<Fabric>, Option<cusp_obs::Attachment>)>,
    /// Set at teardown so readers, the monitor and the acceptor stand down.
    shutting_down: AtomicBool,
    /// Set when a clean FIN has been enqueued, so a later admission
    /// re-sends it on the fresh connection.
    fin_sent: AtomicBool,
    /// Notified after every link step and at shutdown: `finish` waits on it
    /// for every FIN, the monitor for its next deadline.
    waiting: Mutex<()>,
    links_changed: Condvar,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpShared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn heard(&self, peer: HostId) {
        self.last_heard[peer].store(self.now_ms(), Ordering::Release);
    }

    fn stopped(&self, fabric: &Fabric) -> bool {
        self.shutting_down.load(Ordering::Acquire) || fabric.should_abort()
    }

    fn fabric(&self) -> Option<Arc<Fabric>> {
        self.run.get().and_then(|(fabric, _)| fabric.upgrade())
    }

    fn link<R>(&self, peer: HostId, query: impl Fn(&PeerLink) -> R) -> R {
        query(&self.links[peer].peer.lock().unpoisoned().link)
    }

    fn notify(&self) {
        let _guard = self.waiting.lock().unpoisoned();
        self.links_changed.notify_all();
    }

    /// Blocks until every peer's link is `done`, or the run aborts; each link
    /// step wakes it.
    fn wait_all(&self, fabric: &Fabric, done: impl Fn(&PeerLink) -> bool) {
        let done = |p| p == self.me || self.link(p, &done);
        let mut guard = self.waiting.lock().unpoisoned();
        while !fabric.should_abort() && !(0..self.hosts).all(done) {
            guard = self.links_changed.wait(guard).unpoisoned();
        }
    }
}

/// Steps `peer`'s link with `event` and performs what it says under the
/// peer's lock (see [`perform`]), then wakes the waiters.
fn drive(shared: &Arc<TcpShared>, peer: HostId, event: Event, conn: Option<TcpStream>) {
    let mut p = shared.links[peer].peer.lock().unpoisoned();
    perform(shared, &mut p, peer, event, conn);
    drop(p);
    shared.notify();
}

/// Steps `p`'s link with `event` and performs what it says, leaving one
/// trace instant per action but `Hook`. `conn`, the connection a HELLO came
/// on or a dial made, comes back unless an action took it.
fn perform(
    shared: &Arc<TcpShared>,
    p: &mut Peer,
    peer: HostId,
    event: Event,
    mut conn: Option<TcpStream>,
) -> Option<TcpStream> {
    let mut actions = p.link.step(event);
    let mut next = 0;
    while let Some(&action) = actions.get(next) {
        next += 1;
        let name = match action {
            Action::Hook => {
                let mut stream = conn.take().expect("only a HELLO is hooked");
                shared.heard(peer);
                // A failed ACCEPT leaves a dead socket, which its reader reports.
                let _ = write_frame(&mut stream, FRAME_ACCEPT, &accept_body(shared.incarnation));
                read_from(shared, p, stream, peer, 0);
                continue;
            }
            Action::Unhook => {
                p.queue = None;
                if let Some(s) = p.reader.take() {
                    let _ = s.shutdown(Shutdown::Both);
                }
                "peer_down"
            }
            Action::Admit { gen } => {
                let stream = conn.take().expect("only a HELLO is admitted");
                let ok = admit(shared, p, peer, gen, stream);
                actions.extend(p.link.step(Event::Redialed { ok }));
                "peer_rejoin"
            }
            Action::Reject(reason) => {
                reject(&mut conn.take().expect("only a HELLO or a dial is refused"), reason);
                "peer_reject"
            }
            Action::Release => "peer_fin",
            Action::MarkLost { host } => {
                if let Some(fabric) = shared.fabric() {
                    fabric.abort(Abort::Lost(host));
                }
                "peer_lost"
            }
        };
        cusp_obs::instant(name, peer as u64);
    }
    conn
}

/// Performs [`Action::Admit`]: accepts the HELLO on `stream`, re-dials the
/// peer's listener, queues what [`link::resend`] lists over the send log
/// toward the peer (nothing before `start`) and stands up a fresh writer
/// and reader as generation `gen`. `false` if the peer could not be reached
/// back (it died again mid-rejoin). A frame racing this is logged before
/// `ship` takes the lock: it is in the replay or on the fresh queue (or
/// both; deduped).
fn admit(shared: &Arc<TcpShared>, p: &mut Peer, peer: HostId, gen: u64, mut s: TcpStream) -> bool {
    shared.links[peer].gen.store(gen, Ordering::Release);
    shared.heard(peer);
    let hello = hello_body(shared.me, shared.hosts, shared.run_nonce, shared.incarnation);
    let redial = write_frame(&mut s, FRAME_ACCEPT, &accept_body(shared.incarnation))
        .ok()
        .and_then(|()| dial(peer, &shared.peers[peer], &hello).ok());
    let Some((out, _)) = redial else { return false };
    let fin = shared.fin_sent.load(Ordering::Acquire);
    let (fabric, mut frames) = (shared.fabric(), Vec::new());
    if let Some(fabric) = &fabric {
        fabric.log.replay(peer, &fabric.stats, |tag, env| frames.push(env.encode(tag)));
    }
    let tx = write_to(shared, p, peer, gen, out);
    for item in link::resend(&frames, fabric.map_or(0, |f| f.barrier.arrived(shared.me)), fin) {
        let _ = tx.send(match item {
            Resend::Logged(frame) => Out::Env(frame.clone()),
            Resend::Barrier(n) => Out::Barrier(n),
            Resend::Fin => Out::Fin,
        });
    }
    read_from(shared, p, s, peer, gen);
    true
}

/// See [`TcpTransport::saboteur`].
pub struct Saboteur(TcpStream);

impl Saboteur {
    /// Writes a frame whose length prefix promises far more bytes than
    /// follow, as a worker dying mid-write would leave it: the peer must
    /// classify the partial frame as connection death, never as data.
    pub fn tear(mut self) {
        let _ = self.0.write_all(&frame_head(100, FRAME_ENVELOPE));
        let _ = self.0.write_all(&[0xde, 0xad]).and_then(|()| self.0.flush());
    }
}

/// See [`TcpTransport::finished`].
pub struct Finished(Arc<TcpShared>);

impl Finished {
    /// Takes the word of `peer`'s supervisor that its process finished: it
    /// passed every barrier and never needs the mesh again, even if its last
    /// arrival and its FIN died with it. Ignored outside the run.
    pub fn peer(&self, peer: HostId) {
        let fabric = self.0.fabric().filter(|_| peer < self.0.hosts && peer != self.0.me);
        if let Some(fabric) = fabric {
            fabric.barrier.announce(peer, u64::MAX);
            drive(&self.0, peer, Event::Finished, None);
        }
    }
}

/// The TCP transport for one host process. Created by
/// [`TcpTransport::establish`] once this host's dials are answered; handed
/// to [`crate::Cluster::try_run_tcp`] to run the partition over it.
pub struct TcpTransport {
    shared: Arc<TcpShared>,
    /// A clone of one dialed connection, for [`TcpTransport::saboteur`].
    outbound: Option<TcpStream>,
}

impl TcpTransport {
    /// This host's id.
    pub fn host(&self) -> HostId {
        self.shared.me
    }

    /// Total number of hosts in the cluster.
    pub fn num_hosts(&self) -> usize {
        self.shared.hosts
    }

    /// This process's incarnation number (0 for a first spawn). The
    /// cluster uses it as the restart epoch, so a respawned worker resumes
    /// from its checkpoints instead of clearing them.
    pub fn incarnation(&self) -> u32 {
        self.shared.incarnation
    }

    /// Whether this host admits respawned peers ([`TcpOptions::rejoin`]).
    pub(crate) fn rejoin(&self) -> bool {
        self.shared.opts.rejoin
    }

    /// A handle on one outbound mesh socket, for fault-injection tooling
    /// (torn-connection kill mode). `None` for a single-host mesh.
    pub fn saboteur(&self) -> Option<Saboteur> {
        self.outbound.as_ref()?.try_clone().ok().map(Saboteur)
    }

    /// A handle through which a supervisor that saw a peer finish says so
    /// ([`Finished::peer`]): a host that printed its result is never
    /// respawned, so nothing else would resolve a wait for its FIN.
    pub fn finished(&self) -> Finished {
        Finished(Arc::clone(&self.shared))
    }

    /// [`TcpTransport::establish_with`] at incarnation 0 — a first spawn.
    pub fn establish(
        me: HostId,
        listener: TcpListener,
        peers: &[String],
        run_nonce: u64,
        opts: TcpOptions,
    ) -> Result<Self, TransportError> {
        Self::establish_with(me, listener, peers, run_nonce, 0, opts)
    }

    /// Stands up host `me` of `peers.len()` hosts: starts the one acceptor
    /// on `listener`, which answers every HELLO for the rest of the run,
    /// then dials every peer's listener once, validating each handshake
    /// against `{magic, version, host_id, hosts, run_nonce}`. It does not
    /// wait for the peers to dial in: each is hooked when its HELLO
    /// arrives, the run starts once all are, and one that never comes is
    /// silent ([`TcpOptions::peer_timeout`] from now).
    ///
    /// `peers[i]` is host `i`'s listen address, each named once;
    /// `peers[me]` is this host's own, which teardown connects to once to
    /// wake the acceptor. Every host's listener must be bound before any
    /// host calls this. `incarnation` is this process's spawn count for the
    /// run; survivors of a crash admit a redial only with a strictly larger
    /// value than the one they last saw. Any failure is a typed
    /// [`TransportError`].
    pub fn establish_with(
        me: HostId,
        listener: TcpListener,
        peers: &[String],
        run_nonce: u64,
        incarnation: u32,
        opts: TcpOptions,
    ) -> Result<Self, TransportError> {
        let hosts = peers.len();
        if hosts == 0 {
            return Err(TransportError::Config("empty peer list".into()));
        }
        if me >= hosts {
            let detail = format!("host id {me} out of range for {hosts} host(s)");
            return Err(TransportError::Config(detail));
        }
        for (b, addr) in peers.iter().enumerate() {
            if let Some(a) = peers[..b].iter().position(|other| other == addr) {
                let detail = format!("hosts {a} and {b} share the address {addr}");
                return Err(TransportError::Config(detail));
            }
        }

        let link = |peer| PeerLink::new(opts.rejoin, me, peer, hosts);
        let links = (0..hosts).map(|peer| Link {
            gen: AtomicU64::new(0),
            peer: Mutex::new(Peer { link: link(peer), queue: None, reader: None }),
        });
        // Silence is counted from here: heard at 0.
        let shared = Arc::new(TcpShared {
            me,
            hosts,
            run_nonce,
            incarnation,
            opts,
            peers: peers.to_vec(),
            start: Instant::now(),
            last_heard: (0..hosts).map(|_| AtomicU64::new(0)).collect(),
            links: links.collect(),
            run: OnceLock::new(),
            shutting_down: AtomicBool::new(false),
            fin_sent: AtomicBool::new(false),
            waiting: Mutex::new(()),
            links_changed: Condvar::new(),
            threads: Mutex::new(Vec::new()),
        });
        // Accept before dialing: every host dials at once, and each dial
        // waits for the peer's acceptor to answer.
        let s = Arc::clone(&shared);
        spawn_io(&shared, "tcp-accept".into(), None, move || acceptor(listener, s));
        let mut transport = TcpTransport { shared, outbound: None };

        let hello = hello_body(me, hosts, run_nonce, incarnation);
        let mut outbound = None;
        for peer in (0..hosts).filter(|&peer| peer != me) {
            let shared = &transport.shared;
            loop {
                // A failed dial drops `transport`, which stops the acceptor.
                let (s, inc) = dial(peer, &peers[peer], &hello)?;
                let mut p = shared.links[peer].peer.lock().unpoisoned();
                // A dial the link refuses is made again.
                if let Some(s) = perform(shared, &mut p, peer, Event::Dialed { inc }, Some(s)) {
                    outbound = outbound.or_else(|| s.try_clone().ok());
                    write_to(shared, &mut p, peer, 0, s);
                    break;
                }
            }
        }
        transport.outbound = outbound;
        Ok(transport)
    }
}

impl Drop for TcpTransport {
    /// A transport that never ran (a dial failed) still stops its acceptor.
    fn drop(&mut self) {
        stop(&self.shared);
    }
}

impl Transport for TcpTransport {
    fn start(&self, fabric: &Arc<Fabric>) {
        let shared = &self.shared;
        // Under every peer's lock: a HELLO driven meanwhile either parked its
        // socket before the run was set, or sees the run and reads it itself.
        let mut peers: Vec<_> = shared.links.iter().map(|l| l.peer.lock().unpoisoned()).collect();
        if shared.run.set((Arc::downgrade(fabric), cusp_obs::current())).is_err() {
            return; // started already
        }
        for (peer, p) in peers.iter_mut().enumerate() {
            if let Some(stream) = p.reader.take() {
                let gen = shared.links[peer].gen.load(Ordering::Acquire);
                read_from(shared, p, stream, peer, gen);
            }
        }
        drop(peers);
        if shared.hosts > 1 {
            let (f, s) = (Arc::clone(fabric), Arc::clone(shared));
            spawn_io(shared, "tcp-monitor".into(), Some("tcp-monitor"), move || monitor_loop(f, s));
        }
        // Run once every peer has dialed in, or the monitor gave up on it: a
        // peer still dialing this host must not meet it dead (a kill at the
        // first phase). A count, bounded by the silence rule, not a deadline.
        shared.wait_all(fabric, |link| !link.awaiting());
    }

    fn ship(&self, _fabric: &Fabric, dst: HostId, tag: Tag, env: Envelope) {
        let frame = env.encode(tag);
        if let Some(tx) = &self.shared.links[dst].peer.lock().unpoisoned().queue {
            // A closed queue means the writer died with its peer; the link
            // hears of it from the reader or the monitor. An unhooked peer's
            // frame is in the send log and is replayed at its admission.
            let _ = tx.send(Out::Env(frame));
        }
    }

    fn barrier_wait(&self, fabric: &Fabric, host: HostId, n: u64) -> bool {
        // Arrive locally first, so an admission racing this call re-announces
        // `n`; then announce over every connection *before* blocking. Queues
        // are FIFO per peer, so a peer observes all our pre-barrier envelopes
        // before our arrival — exactly the simulator's guarantee that
        // barrier release implies all prior traffic is in the mailboxes.
        fabric.barrier.announce(host, n);
        for link in &self.shared.links {
            if let Some(tx) = &link.peer.lock().unpoisoned().queue {
                let _ = tx.send(Out::Barrier(n));
            }
        }
        fabric.barrier.wait(host, n, || fabric.should_abort())
    }

    fn finish(&self, fabric: &Fabric, clean: bool) {
        let shared = &self.shared;
        if clean {
            shared.fin_sent.store(true, Ordering::Release);
        }
        for link in &shared.links {
            if let Some(tx) = &link.peer.lock().unpoisoned().queue {
                let _ = tx.send(if clean { Out::Fin } else { Out::Abort(fabric.lost_host()) });
            }
        }
        if clean {
            // Drain: keep readers alive until every peer has FINed, so
            // slower peers can still pull our already-queued frames and
            // barriers. The readers and the monitor are still up, so a
            // peer that dies or goes silent here raises the abort flag
            // exactly as it would have during the run; both wake this wait.
            shared.wait_all(fabric, PeerLink::finned);
        }
        stop(shared);
    }

    fn rejoin_count(&self) -> u64 {
        // One generation per admission.
        self.shared.links.iter().map(|l| l.gen.load(Ordering::Relaxed)).sum()
    }
}

/// Stands every transport thread down and joins it; the acceptor is woken
/// out of `accept` by one connection to this host's own listener. Runs
/// once, whichever of `finish` and `drop` comes first.
fn stop(shared: &TcpShared) {
    if shared.shutting_down.swap(true, Ordering::AcqRel) {
        return;
    }
    drop(TcpStream::connect(&shared.peers[shared.me]));
    for link in &shared.links {
        let mut p = link.peer.lock().unpoisoned();
        p.link.step(Event::Shutdown);
        // Ends a writer no FIN or abort reached (admitted before a run that never came).
        (p.queue, p.reader) = (None, None);
    }
    shared.notify();
    loop {
        // Admissions may add writer/reader threads concurrently with
        // this join; drain until the list stays empty.
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *shared.threads.lock().unpoisoned());
        if handles.is_empty() {
            break;
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Starts one of the transport's threads and keeps its handle for `stop`
/// to join. With a `role`, the thread records into the run's trace (if
/// tracing is on), so the links' `peer_*` instants land beside the host's
/// own events.
fn spawn_io(
    shared: &TcpShared,
    name: String,
    role: Option<&'static str>,
    body: impl FnOnce() + Send + 'static,
) {
    let obs = shared.run.get().and_then(|(_, trace)| trace.clone()).zip(role);
    let handle = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let _obs = obs.as_ref().map(|(a, role)| a.attach(role));
            body()
        })
        .expect("failed to spawn transport thread");
    shared.threads.lock().unpoisoned().push(handle);
}

/// Makes `stream` the outbound connection of generation `gen` toward
/// `peer`: a fresh queue, which a writer of its own drains.
fn write_to(shared: &TcpShared, p: &mut Peer, peer: HostId, gen: u64, s: TcpStream) -> Sender<Out> {
    let (tx, rx) = mpsc::channel();
    let interval = shared.opts.heartbeat_interval;
    spawn_io(shared, format!("tcp-send-{peer}-g{gen}"), None, move || writer_loop(s, rx, interval));
    p.queue.insert(tx).clone()
}

/// Reads `stream` as connection generation `gen` from `peer`: spawns its
/// reader, keeping a clone of the socket in `p` so that the link can tear
/// it; before the run parks the socket in `p` for `start`. Called under the
/// peer's lock, which `start` holds while it sets the run up.
fn read_from(shared: &Arc<TcpShared>, p: &mut Peer, stream: TcpStream, peer: HostId, gen: u64) {
    let Some(f) = shared.fabric() else {
        p.reader = Some(stream);
        return;
    };
    p.reader = stream.try_clone().ok();
    let s = Arc::clone(shared);
    let name = format!("tcp-recv-{peer}-g{gen}");
    spawn_io(shared, name, Some("tcp-recv"), move || reader_loop(stream, peer, gen, f, s));
}

/// `len: u32 LE | kind` — the five bytes that start every frame.
fn frame_head(len: u32, kind: u8) -> [u8; 5] {
    let [a, b, c, d] = len.to_le_bytes();
    [a, b, c, d, kind]
}

fn write_frame(w: &mut impl Write, kind: u8, body: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame_head(1 + body.len() as u32, kind))?;
    w.write_all(body)
}

/// Blocking read of one small frame during the handshake (the socket has a
/// read timeout set, so this is bounded).
fn read_handshake_frame(stream: &mut TcpStream) -> std::io::Result<(u8, Vec<u8>)> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_HANDSHAKE_FRAME {
        let detail = format!("handshake frame length {len}");
        return Err(std::io::Error::new(ErrorKind::InvalidData, detail));
    }
    let mut frame = vec![0u8; len as usize];
    stream.read_exact(&mut frame)?;
    Ok((frame[0], frame[1..].to_vec()))
}

/// Why a flag-aware socket read came back without its bytes.
enum Unread {
    /// The stop flag fired while blocked.
    Stopped,
    /// EOF, an I/O error or an absurd length; whether it was the expected
    /// close is the link's to say.
    Failed,
}

/// Fills `buf` from `r`, surfacing read timeouts as chances to observe
/// `stop` instead of data loss (unlike `read_exact`, which corrupts its
/// position on timeout).
fn read_full(r: &mut impl Read, buf: &mut [u8], stop: &impl Fn() -> bool) -> Result<(), Unread> {
    let mut off = 0;
    while off < buf.len() {
        match r.read(&mut buf[off..]) {
            Ok(0) => return Err(Unread::Failed),
            Ok(n) => off += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop() {
                    return Err(Unread::Stopped);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(Unread::Failed),
        }
    }
    Ok(())
}

/// Reads one data frame, `kind | body`, from `r`.
fn read_frame(r: &mut impl Read, stop: &impl Fn() -> bool) -> Result<Vec<u8>, Unread> {
    let mut len = [0u8; 4];
    read_full(r, &mut len, stop)?;
    let len = u32::from_le_bytes(len);
    if len == 0 || len > MAX_FRAME {
        return Err(Unread::Failed);
    }
    let mut frame = vec![0u8; len as usize];
    read_full(r, &mut frame, stop).map(|()| frame)
}

/// The HELLO frame body. `#[doc(hidden)] pub`, like [`parse_hello`], so
/// `tests/hello_props.rs` pins the very functions the dialer and the
/// acceptor call — not part of the supported API.
#[doc(hidden)]
pub fn hello_body(me: HostId, hosts: usize, run_nonce: u64, incarnation: u32) -> Bytes {
    let mut w = WireWriter::with_capacity(25);
    w.put_u32(MAGIC);
    w.put_u8(TCP_PROTOCOL_VERSION);
    w.put_u32(me as u32);
    w.put_u32(hosts as u32);
    w.put_u64(run_nonce);
    w.put_u32(incarnation);
    w.finish()
}

/// The ACCEPT frame body: the acceptor's incarnation. `#[doc(hidden)] pub`
/// like [`hello_body`].
#[doc(hidden)]
pub fn accept_body(incarnation: u32) -> [u8; 4] {
    incarnation.to_le_bytes()
}

/// The incarnation an ACCEPT body names, if it is one.
#[doc(hidden)]
pub fn parse_accept(body: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(body.try_into().ok()?))
}

/// Connects to `peer` at `addr` once, then sends `hello` and waits for
/// the answer: the stream and the incarnation that accepted it. The
/// listener is bound before anyone dials it, so a refusal is an answer,
/// not a race to retry.
fn dial(peer: HostId, addr: &str, hello: &[u8]) -> Result<(TcpStream, u32), TransportError> {
    let unreachable = |_| TransportError::Unreachable { peer, addr: addr.to_string() };
    let mut stream = TcpStream::connect(addr).map_err(unreachable)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let hs = |detail: String| TransportError::Handshake { peer, detail };
    write_frame(&mut stream, FRAME_HELLO, hello).map_err(|e| hs(format!("no HELLO sent: {e}")))?;
    let (kind, body) =
        read_handshake_frame(&mut stream).map_err(|e| hs(format!("no handshake reply: {e}")))?;
    match kind {
        FRAME_ACCEPT => {
            let inc = parse_accept(&body).ok_or_else(|| hs(format!("ACCEPT body {body:?}")))?;
            let _ = stream.set_read_timeout(None);
            Ok((stream, inc))
        }
        FRAME_REJECT => {
            let reason = body
                .first()
                .and_then(|&b| RejectReason::from_u8(b))
                .unwrap_or(RejectReason::BadMagic);
            Err(TransportError::Rejected { peer, reason })
        }
        other => Err(hs(format!("unexpected handshake frame kind {other}"))),
    }
}

/// Parses and checks the transport-level HELLO fields: magic, version,
/// cluster shape, run nonce. Returns the claimed `(host_id, incarnation)`;
/// the peer's link decides, on top, whether it is the first, a respawn or a
/// duplicate.
#[doc(hidden)]
pub fn parse_hello(
    body: &[u8],
    me: HostId,
    hosts: usize,
    run_nonce: u64,
) -> Result<(HostId, u32), RejectReason> {
    let mut r = wire::Reader::new(body);
    let magic = r.u32().map_err(|_| RejectReason::BadMagic)?;
    if magic != MAGIC {
        return Err(RejectReason::BadMagic);
    }
    let version = r.u8().map_err(|_| RejectReason::BadVersion)?;
    if version != TCP_PROTOCOL_VERSION {
        return Err(RejectReason::BadVersion);
    }
    let host_id = r.u32().map_err(|_| RejectReason::BadHostId)? as usize;
    let their_hosts = r.u32().map_err(|_| RejectReason::BadHosts)? as usize;
    let nonce = r.u64().map_err(|_| RejectReason::BadNonce)?;
    let incarnation = r.u32().map_err(|_| RejectReason::BadHostId)?;
    if their_hosts != hosts {
        return Err(RejectReason::BadHosts);
    }
    if nonce != run_nonce {
        return Err(RejectReason::BadNonce);
    }
    if host_id >= hosts || host_id == me {
        return Err(RejectReason::BadHostId);
    }
    Ok((host_id, incarnation))
}

/// Reads the HELLO on one accepted connection and checks its fields. A
/// malformed or foreign HELLO gets a REJECT carrying the reason (the dialer
/// sees it and errors out); strangers that never speak the protocol (port
/// scans, stale workers) are dropped silently. Both come back as `None`.
fn read_hello(s: &mut TcpStream, me: HostId, hosts: usize, nonce: u64) -> Option<(HostId, u32)> {
    let _ = s.set_nodelay(true);
    let _ = s.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let (kind, body) = read_handshake_frame(s).ok()?;
    if kind != FRAME_HELLO {
        return None;
    }
    parse_hello(&body, me, hosts, nonce).map_err(|reason| reject(s, reason)).ok()
}

/// Answers a HELLO with REJECT carrying `reason`.
fn reject(stream: &mut TcpStream, reason: RejectReason) {
    let _ = write_frame(stream, FRAME_REJECT, &[reason as u8]);
}

/// The one acceptor: answers HELLOs on the listener from `establish` until
/// teardown. One with this run's fields goes to the claimed peer's link,
/// which hooks it (the first), admits it (a respawn) or has it refused;
/// anything else gets a typed REJECT (or is ignored, for non-protocol
/// garbage). Blocks in `accept`, and returns on the first connection after
/// shutdown: `stop` makes one.
fn acceptor(listener: TcpListener, shared: Arc<TcpShared>) {
    let mut trace = None;
    for conn in listener.incoming() {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut stream) = conn else { continue };
        // Spawned before the run; its admissions record into the run's trace.
        if trace.is_none() {
            trace = shared.run.get().and_then(|(_, t)| t.as_ref()).map(|a| a.attach("tcp-accept"));
        }
        let hello = read_hello(&mut stream, shared.me, shared.hosts, shared.run_nonce);
        if let Some((peer, inc)) = hello {
            drive(&shared, peer, Event::HelloFrom { inc }, Some(stream));
        }
    }
}

/// Drains one peer's outbound queue onto its socket, heartbeating when
/// idle. Exits on FIN (clean), Abort (unclean, no FIN, a LOST first when
/// the host goes down for a lost peer), queue closure, or
/// write error (the peer is gone; its reader/monitor handles diagnosis).
fn writer_loop(stream: TcpStream, rx: Receiver<Out>, heartbeat: Duration) {
    let mut w = BufWriter::with_capacity(64 << 10, stream);
    loop {
        // Envelopes queued back to back share one flush, made once the
        // queue is empty and before the writer blocks on it.
        let next = match rx.try_recv() {
            Ok(out) => Ok(out),
            Err(TryRecvError::Disconnected) => return,
            Err(TryRecvError::Empty) => {
                if w.flush().is_err() {
                    return;
                }
                rx.recv_timeout(heartbeat)
            }
        };
        match next {
            Ok(Out::Env(frame)) => {
                if write_frame(&mut w, FRAME_ENVELOPE, &frame).is_err() {
                    return;
                }
            }
            Ok(Out::Barrier(n)) => {
                if write_frame(&mut w, FRAME_BARRIER, &n.to_le_bytes()).is_err() || w.flush().is_err() {
                    return;
                }
            }
            Ok(Out::Fin) => {
                let _ = write_frame(&mut w, FRAME_FIN, &[]);
                let _ = w.flush();
                let _ = w.get_ref().shutdown(Shutdown::Write);
                return;
            }
            Ok(Out::Abort(lost)) => {
                if let Some(host) = lost {
                    let _ = write_frame(&mut w, FRAME_LOST, &(host as u64).to_le_bytes());
                    let _ = w.flush();
                }
                return;
            }
            Err(RecvTimeoutError::Timeout) => {
                if write_frame(&mut w, FRAME_HEARTBEAT, &[]).is_err() || w.flush().is_err() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Decodes frames from one peer and feeds them to the fabric: envelopes
/// go through the regular dispatch (fault layer included), barrier
/// announcements into the shared arrival table. A FIN, a LOST, and any
/// protocol violation — torn frame, corrupt envelope, absurd length, EOF —
/// is reported to the link as an event of generation `gen`. The per-frame
/// path takes no lock: one atomic load tells a superseded reader to stop.
fn reader_loop(
    stream: TcpStream,
    peer: HostId,
    gen: u64,
    fabric: Arc<Fabric>,
    shared: Arc<TcpShared>,
) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut r = BufReader::with_capacity(64 << 10, stream);
    let stop = || shared.stopped(&fabric);
    let failed = || drive(&shared, peer, Event::ReadFailed { gen }, None);
    loop {
        let frame = match read_frame(&mut r, &stop) {
            Ok(frame) => frame,
            Err(Unread::Stopped) => return,
            Err(Unread::Failed) => return failed(),
        };
        if shared.links[peer].gen.load(Ordering::Acquire) != gen {
            return; // superseded by an admission; stop feeding stale data
        }
        shared.heard(peer);
        // The body of a BARRIER or a LOST is one u64.
        let word = <[u8; 8]>::try_from(&frame[1..]).ok().map(u64::from_le_bytes);
        match (frame[0], word) {
            (FRAME_ENVELOPE, _) => match decode_envelope(Bytes::from(frame).slice(1..)) {
                Ok(we) if (we.tag as usize) < MAX_TAGS && we.src as usize == peer => {
                    fabric.dispatch(shared.me, Tag(we.tag), we.into());
                }
                _ => return failed(),
            },
            (FRAME_BARRIER, Some(arrival)) => fabric.barrier.announce(peer, arrival),
            (FRAME_HEARTBEAT, _) => {}
            (FRAME_FIN, _) => drive(&shared, peer, Event::FrameFin { gen }, None),
            (FRAME_LOST, Some(host)) => drive(&shared, peer, Event::Lost { gen, host }, None),
            _ => return failed(),
        }
    }
}

/// Watches liveness: a peer whose last frame is [`TcpOptions::peer_timeout`]
/// old, or that has not dialed in that long after `establish`, is reported
/// [`Event::Silent`]. Sleeps
/// until the earliest such moment (a link step or shutdown wakes it
/// early); socket-level failures are caught faster by the readers, this
/// catches peers that hang without dying. It stands until shutdown, not
/// until every peer has FINed: an admission clears a FIN, and the drain in
/// `finish` relies on this watch.
fn monitor_loop(fabric: Arc<Fabric>, shared: Arc<TcpShared>) {
    let timeout = shared.opts.peer_timeout().as_millis() as u64;
    loop {
        let now = shared.now_ms();
        let mut wake = now + timeout;
        for peer in (0..shared.hosts).filter(|&p| p != shared.me) {
            let Some(gen) = shared.link(peer, PeerLink::watched) else { continue };
            let due = shared.last_heard[peer].load(Ordering::Acquire) + timeout;
            if due <= now {
                drive(&shared, peer, Event::Silent { gen }, None);
            } else {
                wake = wake.min(due);
            }
        }
        let guard = shared.waiting.lock().unpoisoned();
        if shared.stopped(&fabric) {
            return;
        }
        let idle = Duration::from_millis(wake.saturating_sub(shared.now_ms()));
        drop(shared.links_changed.wait_timeout(guard, idle).unpoisoned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterOptions};
    use crate::recovery::ClusterError;
    use crate::serialize::encode_envelope;
    use crate::transport::link::LinkState;

    /// Runs `run` with this thread attached to a fresh trace recorder —
    /// which the transport's I/O threads inherit — and returns its result
    /// with the names of the instants recorded meanwhile.
    fn instants<R>(run: impl FnOnce() -> R) -> (R, Vec<&'static str>) {
        let recorder = cusp_obs::Recorder::new();
        let guard = recorder.attach(0, "test");
        let out = run();
        drop(guard);
        let names = recorder.drain().events.into_iter().filter_map(|e| match e.kind {
            cusp_obs::EventKind::Instant { name, .. } => Some(name),
            _ => None,
        });
        (out, names.collect())
    }

    fn count(names: &[&str], name: &str) -> usize {
        names.iter().filter(|&&n| n == name).count()
    }

    fn bind() -> (TcpListener, String) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("local addr").to_string();
        (l, addr)
    }

    /// Raw host 1's half of host 0's dial: accepts it on `l1`, checks the
    /// HELLO and answers ACCEPT. Returns the socket host 0 writes to.
    fn answer_dial(l1: &TcpListener) -> TcpStream {
        let (mut from0, _) = l1.accept().expect("host 0 dials us");
        from0.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let (kind, _) = read_handshake_frame(&mut from0).unwrap();
        assert_eq!(kind, FRAME_HELLO);
        write_frame(&mut from0, FRAME_ACCEPT, &accept_body(0)).unwrap();
        from0
    }

    /// Establishes host 0 of a 2-host cluster whose host 1 is a raw script
    /// that answers host 0's dial and has not dialed back, so the test can
    /// talk to host 0's acceptor. Returns host 0's listen address, the
    /// transport (not started) and the socket host 0 writes to.
    fn establish_host0(nonce: u64) -> (String, TcpTransport, TcpStream) {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        let answer = std::thread::spawn(move || answer_dial(&l1));
        let peers = vec![a0.clone(), a1];
        let opts = TcpOptions::default();
        let t = TcpTransport::establish(0, l0, &peers, nonce, opts).expect("mesh up");
        (a0, t, answer.join().expect("host 0's dial answered"))
    }

    /// Raw host-1 side of the handshake: dial host 0 with a HELLO built by
    /// `mutate` and return the reply frame kind + body.
    fn dial_raw(addr: &str, mutate: impl FnOnce(&mut Vec<u8>)) -> (u8, Vec<u8>) {
        let mut s = TcpStream::connect(addr).expect("host 0 listens");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut hello = hello_body(1, 2, 77, 0).to_vec();
        mutate(&mut hello);
        write_frame(&mut s, FRAME_HELLO, &hello).unwrap();
        let (kind, body) = read_handshake_frame(&mut s).expect("handshake reply");
        (kind, body)
    }

    #[test]
    fn handshake_rejects_wrong_version_then_accepts_a_valid_peer() {
        let (a0, transport, _from0) = establish_host0(77);
        // Bad protocol version (a version-3 peer's too) → REJECT(BadVersion),
        // and the slot is not consumed: a follow-up valid HELLO is hooked,
        // and its ACCEPT names host 0's incarnation...
        for version in [3, TCP_PROTOCOL_VERSION + 1] {
            let (kind, body) = dial_raw(&a0, |hello| hello[4] = version);
            assert_eq!(kind, FRAME_REJECT);
            assert_eq!(RejectReason::from_u8(body[0]), Some(RejectReason::BadVersion));
        }
        let (kind, body) = dial_raw(&a0, |_| {});
        assert_eq!((kind, parse_accept(&body)), (FRAME_ACCEPT, Some(0)));
        assert_eq!(transport.shared.link(1, PeerLink::state), LinkState::Up { gen: 0, inc: 0 });
        // ...and without rejoin the slot is taken from then on, whatever
        // the incarnation.
        for inc in [0, 1] {
            let (kind, body) = dial_raw(&a0, |hello| hello[21] = inc);
            assert_eq!(kind, FRAME_REJECT);
            assert_eq!(RejectReason::from_u8(body[0]), Some(RejectReason::BadHostId));
        }
    }

    #[test]
    fn handshake_rejects_wrong_nonce_and_magic() {
        let (a0, _transport, _from0) = establish_host0(77);
        let (kind, body) = dial_raw(&a0, |hello| hello[13] ^= 0xFF); // nonce byte
        assert_eq!(kind, FRAME_REJECT);
        assert_eq!(RejectReason::from_u8(body[0]), Some(RejectReason::BadNonce));
        let (kind, body) = dial_raw(&a0, |hello| hello[0] ^= 0xFF); // magic byte
        assert_eq!(kind, FRAME_REJECT);
        assert_eq!(RejectReason::from_u8(body[0]), Some(RejectReason::BadMagic));
        let (kind, body) = dial_raw(&a0, |hello| hello[9] = 3); // hosts = 3, not 2
        assert_eq!(kind, FRAME_REJECT);
        assert_eq!(RejectReason::from_u8(body[0]), Some(RejectReason::BadHosts));
        let (kind, body) = dial_raw(&a0, |hello| hello[5] = 0); // host id = ours
        assert_eq!(kind, FRAME_REJECT);
        assert_eq!(RejectReason::from_u8(body[0]), Some(RejectReason::BadHostId));
    }

    #[test]
    fn dialer_surfaces_nonce_rejection_as_typed_error() {
        // A real host 0 dialing a "cluster" whose host 1 runs a different
        // nonce must get TransportError::Rejected, not a hang.
        let (l1, a1) = bind();
        let (l0, a0) = bind();
        let peers = vec![a0, a1];
        let host1 = std::thread::spawn(move || {
            let (mut from0, _) = l1.accept().expect("host 0 dials us");
            assert_eq!(read_hello(&mut from0, 1, 2, 9999), None); // nonce 9999 ≠ 77
        });
        let got = TcpTransport::establish(0, l0, &peers, 77, TcpOptions::default());
        match got {
            Err(TransportError::Rejected { peer: 1, reason: RejectReason::BadNonce }) => {}
            Err(e) => panic!("wanted Rejected(BadNonce), got: {e}"),
            Ok(_) => panic!("establish must fail across a nonce mismatch"),
        }
        host1.join().expect("host 1 refused the dial");
    }

    /// A peer that answers host 0's dial but never dials back is silent from
    /// `establish` on: the run ends in the typed loss once the peer timeout
    /// has passed, as it would for a peer that went quiet mid-run.
    #[test]
    fn peer_that_never_dials_in_is_host_lost_after_the_peer_timeout() {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        let peers = vec![a0, a1];
        let host1 = std::thread::spawn(move || answer_dial(&l1));
        let opts = TcpOptions::default().with_heartbeat(Duration::from_millis(15));
        let began = Instant::now();
        let transport = TcpTransport::establish(0, l0, &peers, 77, opts).expect("dial answered");
        let got = Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
            comm.recv_any(Tag(0))
        });
        let took = began.elapsed();
        assert!(matches!(got, Err(ClusterError::HostLost { host: 1, restarts: 0 })), "typed loss");
        let timeout = opts.peer_timeout();
        assert!(took >= timeout && took < 4 * timeout, "lost after {took:?}, timeout {timeout:?}");
        drop(host1.join());
    }

    #[test]
    fn duplicate_peer_addresses_are_refused_before_any_dial() {
        let (l0, a0) = bind();
        let (_l1, a1) = bind();
        let peers = vec![a0, a1.clone(), a1.clone()];
        match TcpTransport::establish(0, l0, &peers, 77, TcpOptions::default()) {
            Err(TransportError::Config(detail)) => {
                assert_eq!(detail, format!("hosts 1 and 2 share the address {a1}"));
            }
            Err(e) => panic!("wanted Config, got: {e}"),
            Ok(_) => panic!("a peer list naming one address twice must be refused"),
        }
    }

    /// Full raw "host 1": completes both handshake directions against a
    /// real host 0, then runs `script` on the connection host 0 reads
    /// from. Returns the socket host 0 writes to (kept open so host 0's
    /// writer does not error early).
    fn raw_peer(
        l1: TcpListener,
        a0: String,
        script: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> std::thread::JoinHandle<TcpStream> {
        std::thread::spawn(move || {
            let from0 = answer_dial(&l1);
            // Dial host 0 with our own valid HELLO.
            let mut to0 = TcpStream::connect(&a0).expect("dial host 0");
            to0.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write_frame(&mut to0, FRAME_HELLO, &hello_body(1, 2, 77, 0)).unwrap();
            let (kind, _) = read_handshake_frame(&mut to0).unwrap();
            assert_eq!(kind, FRAME_ACCEPT);
            script(&mut to0);
            from0
        })
    }

    #[test]
    fn torn_frame_tears_the_connection_down_with_floor_intact() {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        let peers = vec![a0.clone(), a1];
        let peer = raw_peer(l1, a0, |s| {
            // One valid envelope (seq 0), then a frame whose length prefix
            // claims 100 bytes but whose body is cut off mid-way.
            let env = encode_envelope(0, 1, 0, 0, b"before the tear");
            write_frame(s, FRAME_ENVELOPE, &env).unwrap();
            s.write_all(&100u32.to_le_bytes()).unwrap();
            s.write_all(&[FRAME_ENVELOPE, 0, 0, 0]).unwrap();
            s.flush().unwrap();
            let _ = s.shutdown(Shutdown::Write);
        });
        let transport =
            TcpTransport::establish(0, l0, &peers, 77, TcpOptions::default()).expect("mesh up");
        let (got, instants) = instants(|| {
            Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
                // The message in front of the tear is delivered in sequence...
                let (src, payload) = comm.recv_any(Tag(0));
                assert_eq!((src, &payload[..]), (1, &b"before the tear"[..]));
                // ...and the next receive unwinds with a typed loss instead of
                // hanging on the dead connection.
                comm.recv_any(Tag(0))
            })
        });
        match got {
            Err(ClusterError::HostLost { host: 1, restarts: 0 }) => {}
            Err(e) => panic!("wanted HostLost for host 1, got: {e}"),
            Ok(_) => panic!("run must not complete past a torn frame"),
        }
        assert_eq!(count(&instants, "peer_lost"), 1, "{instants:?}");
        let _ = peer.join();
    }

    /// A FIN certifies that its incarnation never needs the mesh again, so
    /// whatever its connection does afterwards — here, a frame torn
    /// mid-body — is the expected close, with rejoin or without.
    #[test]
    fn torn_frame_after_fin_is_the_expected_close_in_either_mode() {
        for opts in [TcpOptions::default(), rejoin_opts()] {
            let (l0, a0) = bind();
            let (l1, a1) = bind();
            let peers = vec![a0.clone(), a1];
            let peer = raw_peer(l1, a0, |s| {
                let env = encode_envelope(0, 1, 0, 0, b"last words");
                write_frame(s, FRAME_ENVELOPE, &env).unwrap();
                write_frame(s, FRAME_FIN, &[]).unwrap();
                s.write_all(&frame_head(100, FRAME_ENVELOPE)).unwrap();
                s.write_all(&[0xde, 0xad]).unwrap();
                s.flush().unwrap();
                let _ = s.shutdown(Shutdown::Write);
            });
            let transport = TcpTransport::establish(0, l0, &peers, 77, opts).expect("mesh up");
            let (got, instants) = instants(|| {
                Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
                    let (src, payload) = comm.recv_any(Tag(0));
                    assert_eq!((src, &payload[..]), (1, &b"last words"[..]));
                })
            });
            let rejoin = opts.rejoin;
            if let Err(e) = got {
                panic!("rejoin {rejoin}: the run must complete after the peer's FIN, got {e}");
            }
            assert_eq!(count(&instants, "peer_fin"), 1, "rejoin {rejoin}: {instants:?}");
            assert_eq!(count(&instants, "peer_lost") + count(&instants, "peer_down"), 0);
            let _ = peer.join();
        }
    }

    /// A peer that goes down naming the host it lost is believed over its
    /// own close: host 0 of three hears raw host 1 send LOST(2) and hang up
    /// while raw host 2 is still connected, and reports host 2. A LOST that
    /// names no host, the receiver or its own sender is a protocol
    /// violation: host 1 keeps its socket open, and host 0 still reports
    /// host 1 lost, through its link.
    #[test]
    fn a_lost_frame_names_the_host_the_survivor_reports() {
        for (named, want) in [(2u64, 2), (3, 1), (0, 1), (1, 1)] {
            let listeners: Vec<_> = (0..3).map(|_| bind()).collect();
            let peers: Vec<String> = listeners.iter().map(|(_, a)| a.clone()).collect();
            let mut listeners = listeners.into_iter().map(|(l, _)| l);
            let l0 = listeners.next().expect("three listeners");
            let raw: Vec<_> = listeners
                .enumerate()
                .map(|(i, l)| {
                    let a0 = peers[0].clone();
                    std::thread::spawn(move || {
                        let from0 = answer_dial(&l);
                        let mut to0 = TcpStream::connect(&a0).expect("dial host 0");
                        to0.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                        write_frame(&mut to0, FRAME_HELLO, &hello_body(i + 1, 3, 77, 0)).unwrap();
                        assert_eq!(read_handshake_frame(&mut to0).unwrap().0, FRAME_ACCEPT);
                        if i == 0 {
                            let mut body = [0u8; 8];
                            wire::encode_u64s(&[named], &mut body);
                            write_frame(&mut to0, FRAME_LOST, &body).unwrap();
                            to0.flush().unwrap();
                            if named == 2 {
                                let _ = to0.shutdown(Shutdown::Both);
                            }
                        }
                        (from0, to0)
                    })
                })
                .collect();
            let transport =
                TcpTransport::establish(0, l0, &peers, 77, TcpOptions::default()).expect("mesh up");
            let (got, instants) = instants(|| {
                Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
                    comm.recv_any(Tag(0))
                })
            });
            match got {
                Err(ClusterError::HostLost { host, restarts: 0 }) if host == want => {}
                Err(e) => panic!("LOST({named}): wanted HostLost for host {want}, got: {e}"),
                Ok(_) => panic!("LOST({named}): the run must not complete"),
            }
            if named != 2 {
                assert_eq!(count(&instants, "peer_lost"), 1, "LOST({named}): {instants:?}");
            }
            for peer in raw {
                let _ = peer.join();
            }
        }
    }

    #[test]
    fn peer_death_without_fin_is_host_lost_not_a_hang() {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        let peers = vec![a0.clone(), a1];
        let peer = raw_peer(l1, a0, |s| {
            // Die abruptly: close with no FIN frame, mid-phase.
            let _ = s.shutdown(Shutdown::Both);
        });
        let transport =
            TcpTransport::establish(0, l0, &peers, 77, TcpOptions::default()).expect("mesh up");
        let got = Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
            comm.recv_any(Tag(0)) // would block forever on a hanging transport
        });
        assert!(matches!(got, Err(ClusterError::HostLost { host: 1, restarts: 0 })), "typed loss");
        let _ = peer.join();
    }

    /// The drain has no timeout of its own: a finished host waits for every
    /// peer's FIN, and a peer that goes silent meanwhile is found by the same
    /// monitor that would have found it mid-run.
    #[test]
    fn silent_peer_during_the_drain_is_host_lost_not_a_hang() {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        let peers = vec![a0.clone(), a1];
        let (release, hold) = std::sync::mpsc::channel::<()>();
        let peer = raw_peer(l1, a0, move |_| {
            // Alive, connected, and saying nothing — no heartbeat, no FIN —
            // until host 0 has given up on it.
            let _ = hold.recv();
        });
        // Silent after 500 ms.
        let opts = TcpOptions::default().with_heartbeat(Duration::from_millis(15));
        let transport = TcpTransport::establish(0, l0, &peers, 77, opts).expect("mesh up");
        // Host 0 has nothing to do and goes straight to its FIN and drain.
        let got = Cluster::try_run_tcp(transport, ClusterOptions::default(), |_| ());
        assert!(matches!(got, Err(ClusterError::HostLost { host: 1, restarts: 0 })), "typed loss");
        drop(release);
        let _ = peer.join();
    }

    #[test]
    fn corrupt_envelope_version_is_a_protocol_error() {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        let peers = vec![a0.clone(), a1];
        let peer = raw_peer(l1, a0, |s| {
            let mut env = encode_envelope(0, 1, 0, 0, b"x").to_vec();
            env[0] = 42; // not ENVELOPE_VERSION
            write_frame(s, FRAME_ENVELOPE, &env).unwrap();
            s.flush().unwrap();
        });
        let transport =
            TcpTransport::establish(0, l0, &peers, 77, TcpOptions::default()).expect("mesh up");
        let got = Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
            comm.recv_any(Tag(0))
        });
        assert!(matches!(got, Err(ClusterError::HostLost { host: 1, restarts: 0 })));
        let _ = peer.join();
    }

    // -- rejoin ------------------------------------------------------------

    fn rejoin_opts() -> TcpOptions {
        TcpOptions { rejoin: true, ..TcpOptions::default() }
    }

    /// Blocking read of one full data frame on a raw test socket,
    /// skipping heartbeats. Panics on EOF/timeout, and when only heartbeats
    /// arrive for 5 s.
    fn read_data_frame(s: &mut TcpStream) -> (u8, Vec<u8>) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(Instant::now() < deadline, "only heartbeats for 5 s");
            let mut len_buf = [0u8; 4];
            s.read_exact(&mut len_buf).expect("frame length");
            let len = u32::from_le_bytes(len_buf);
            assert!(len > 0 && len <= MAX_FRAME, "bogus frame length {len}");
            let mut frame = vec![0u8; len as usize];
            s.read_exact(&mut frame).expect("frame body");
            if frame[0] == FRAME_HEARTBEAT {
                continue;
            }
            return (frame[0], frame[1..].to_vec());
        }
    }

    /// The tentpole path, at the transport level: a raw host 1 meshes up,
    /// receives one envelope, dies without FIN, then "respawns" — redials
    /// with a stale incarnation (rejected), then with incarnation 1
    /// (accepted). Host 0 must re-dial it, replay the logged envelope,
    /// accept its post-rejoin message, and complete the run cleanly.
    #[test]
    fn dead_peer_rejoins_with_newer_incarnation_and_gets_the_log_replayed() {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        let peers = vec![a0.clone(), a1.clone()];
        let nonce = 77;

        let script = std::thread::spawn(move || {
            // ---- incarnation 0: mesh up, read one envelope, die.
            let (mut from0, _) = l1.accept().expect("host 0 dials us");
            from0.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let (kind, _) = read_handshake_frame(&mut from0).unwrap();
            assert_eq!(kind, FRAME_HELLO);
            write_frame(&mut from0, FRAME_ACCEPT, &accept_body(0)).unwrap();
            let mut to0 = TcpStream::connect(&a0).expect("dial host 0");
            to0.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            write_frame(&mut to0, FRAME_HELLO, &hello_body(1, 2, nonce, 0)).unwrap();
            let (kind, _) = read_handshake_frame(&mut to0).unwrap();
            assert_eq!(kind, FRAME_ACCEPT);
            let (kind, body) = read_data_frame(&mut from0);
            assert_eq!(kind, FRAME_ENVELOPE);
            let we = decode_envelope(Bytes::from(body)).expect("envelope decodes");
            assert_eq!(&we.payload[..], b"payload-A");
            // SIGKILL equivalent: both simplex halves die, no FIN.
            let _ = from0.shutdown(Shutdown::Both);
            let _ = to0.shutdown(Shutdown::Both);
            drop(from0);
            drop(to0);

            // ---- a stale duplicate (same incarnation) must be refused.
            let mut stale = TcpStream::connect(&a0).expect("redial host 0");
            stale.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            write_frame(&mut stale, FRAME_HELLO, &hello_body(1, 2, nonce, 0)).unwrap();
            let (kind, body) = read_handshake_frame(&mut stale).unwrap();
            assert_eq!(kind, FRAME_REJECT);
            assert_eq!(
                RejectReason::from_u8(body[0]),
                Some(RejectReason::StaleIncarnation)
            );
            drop(stale);

            // ---- incarnation 1: the legitimate respawn.
            let mut to0 = TcpStream::connect(&a0).expect("redial host 0");
            to0.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            write_frame(&mut to0, FRAME_HELLO, &hello_body(1, 2, nonce, 1)).unwrap();
            let (kind, _) = read_handshake_frame(&mut to0).unwrap();
            assert_eq!(kind, FRAME_ACCEPT);
            // Host 0 re-dials our listener with its own HELLO...
            let (mut from0, _) = l1.accept().expect("host 0 re-dials us");
            from0.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let (kind, body) = read_handshake_frame(&mut from0).unwrap();
            assert_eq!(kind, FRAME_HELLO);
            let (host, inc) = parse_hello(&body, 1, 2, nonce).expect("valid re-dial HELLO");
            assert_eq!((host, inc), (0, 0));
            write_frame(&mut from0, FRAME_ACCEPT, &accept_body(1)).unwrap();
            // ...and replays its send log: the envelope again, same seq.
            let (kind, body) = read_data_frame(&mut from0);
            assert_eq!(kind, FRAME_ENVELOPE);
            let we = decode_envelope(Bytes::from(body)).expect("replayed envelope decodes");
            assert_eq!((we.seq, &we.payload[..]), (0, &b"payload-A"[..]));
            // Answer so host 0's blocked receive completes, then FIN.
            let env = encode_envelope(1, 1, 0, 0, b"hello-again");
            write_frame(&mut to0, FRAME_ENVELOPE, &env).unwrap();
            write_frame(&mut to0, FRAME_FIN, &[]).unwrap();
            to0.flush().unwrap();
            // Hold the sockets open until host 0 FINs back.
            let (kind, _) = read_data_frame(&mut from0);
            assert_eq!(kind, FRAME_FIN);
        });

        let transport =
            TcpTransport::establish(0, l0, &peers, nonce, rejoin_opts()).expect("mesh up");
        let (out, instants) = instants(|| {
            Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
                comm.send_bytes(1, Tag(0), Bytes::from_static(b"payload-A"));
                let (src, payload) = comm.recv_any(Tag(1));
                assert_eq!((src, &payload[..]), (1, &b"hello-again"[..]));
            })
        });
        let out = out.expect("run completes across the rejoin");
        assert_eq!(out.rejoins, 1, "one rejoin handshake accepted");
        // Whether the death or the respawn's HELLO reached the link first,
        // it was unhooked once, admitted once and never lost.
        let seen = ["peer_down", "peer_rejoin", "peer_lost"].map(|n| count(&instants, n));
        assert_eq!(seen, [1, 1, 0], "{instants:?}");
        assert!(
            out.stats.replayed_bytes() > 0,
            "replayed traffic is accounted outside the phase matrices"
        );
        script.join().expect("script peer");
    }

    /// The window before the first HELLO: raw "P0" answers host 0's dial and
    /// hangs up without dialing in, and its respawn "P1" dials in with
    /// incarnation 1. Host 0's outbound connection reaches the dead P0, so
    /// P1 is admitted with a redial, which P1's listener receives within the
    /// peer timeout.
    #[test]
    fn a_respawn_whose_predecessor_answered_the_dial_is_redialed() {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        let peers = vec![a0.clone(), a1];
        let p0 = std::thread::spawn(move || {
            drop(answer_dial(&l1));
            l1
        });
        let transport = TcpTransport::establish(0, l0, &peers, 77, rejoin_opts()).expect("mesh up");
        let l1 = p0.join().expect("P0 answered the dial");
        let (redialed, redial) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (mut from0, _) = l1.accept().expect("host 0 redials P1");
            from0.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let (kind, body) = read_handshake_frame(&mut from0).unwrap();
            write_frame(&mut from0, FRAME_ACCEPT, &accept_body(1)).unwrap();
            let _ = redialed.send((kind, body, from0));
        });
        let mut to0 = TcpStream::connect(&a0).expect("P1 dials host 0");
        to0.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut to0, FRAME_HELLO, &hello_body(1, 2, 77, 1)).unwrap();
        let accept = (FRAME_ACCEPT, accept_body(0).to_vec());
        assert_eq!(read_handshake_frame(&mut to0).unwrap(), accept);
        let (kind, body, _from0) =
            redial.recv_timeout(rejoin_opts().peer_timeout()).expect("host 0 redials P1");
        assert_eq!((kind, parse_hello(&body, 1, 2, 77)), (FRAME_HELLO, Ok((0, 0))));
        assert_eq!(transport.shared.link(1, PeerLink::state), LinkState::Up { gen: 1, inc: 1 });
    }

    /// A frame shipped while its peer is down goes nowhere but the send log,
    /// and the admission of the respawn re-sends it after the frames the
    /// dead incarnation already had, in order.
    #[test]
    fn a_frame_shipped_while_the_peer_is_down_reaches_its_respawn() {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        let peers = vec![a0.clone(), a1];
        let nonce = 77;
        let (shipped, b_is_logged) = std::sync::mpsc::channel();

        let script = std::thread::spawn(move || {
            // ---- incarnation 0: mesh up, read payload-A, die without FIN.
            let (mut from0, _) = l1.accept().expect("host 0 dials us");
            from0.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            assert_eq!(read_handshake_frame(&mut from0).unwrap().0, FRAME_HELLO);
            write_frame(&mut from0, FRAME_ACCEPT, &accept_body(0)).unwrap();
            let mut to0 = TcpStream::connect(&a0).expect("dial host 0");
            to0.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            write_frame(&mut to0, FRAME_HELLO, &hello_body(1, 2, nonce, 0)).unwrap();
            assert_eq!(read_handshake_frame(&mut to0).unwrap().0, FRAME_ACCEPT);
            let (kind, body) = read_data_frame(&mut from0);
            assert_eq!(kind, FRAME_ENVELOPE);
            assert_eq!(&decode_envelope(Bytes::from(body)).unwrap().payload[..], b"payload-A");
            let _ = from0.shutdown(Shutdown::Both);
            let _ = to0.shutdown(Shutdown::Both);
            drop((from0, to0));

            // ---- incarnation 1, only once host 0 shipped payload-B.
            b_is_logged.recv().expect("host 0 ships payload-B");
            let mut to0 = TcpStream::connect(&a0).expect("redial host 0");
            to0.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            write_frame(&mut to0, FRAME_HELLO, &hello_body(1, 2, nonce, 1)).unwrap();
            assert_eq!(read_handshake_frame(&mut to0).unwrap().0, FRAME_ACCEPT);
            let (mut from0, _) = l1.accept().expect("host 0 re-dials us");
            from0.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
            assert_eq!(read_handshake_frame(&mut from0).unwrap().0, FRAME_HELLO);
            write_frame(&mut from0, FRAME_ACCEPT, &accept_body(1)).unwrap();
            // A missing frame times the read out; answer host 0 regardless,
            // well inside its silence timeout, so the test fails, not hangs.
            let replayed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut frame = || {
                    let (kind, body) = read_data_frame(&mut from0);
                    assert_eq!(kind, FRAME_ENVELOPE);
                    let we = decode_envelope(Bytes::from(body)).expect("replayed envelope decodes");
                    (we.seq, we.payload.to_vec())
                };
                [frame(), frame()]
            }));
            write_frame(&mut to0, FRAME_ENVELOPE, &encode_envelope(1, 1, 0, 0, b"done")).unwrap();
            write_frame(&mut to0, FRAME_FIN, &[]).unwrap();
            to0.flush().unwrap();
            let replayed = replayed.expect("the respawn reads two replayed frames");
            assert_eq!(replayed, [(0, b"payload-A".to_vec()), (1, b"payload-B".to_vec())]);
            assert_eq!(read_data_frame(&mut from0).0, FRAME_FIN);
        });

        let transport =
            TcpTransport::establish(0, l0, &peers, nonce, rejoin_opts()).expect("mesh up");
        let shared = Arc::clone(&transport.shared);
        let out = Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
            comm.send_bytes(1, Tag(0), Bytes::from_static(b"payload-A"));
            let mut waiting = shared.waiting.lock().unwrap();
            while !matches!(shared.link(1, PeerLink::state), LinkState::Down { .. }) {
                waiting = shared.links_changed.wait(waiting).unwrap();
            }
            drop(waiting);
            comm.send_bytes(1, Tag(0), Bytes::from_static(b"payload-B"));
            shipped.send(()).expect("the script waits for it");
            let (src, payload) = comm.recv_any(Tag(1));
            assert_eq!((src, &payload[..]), (1, &b"done"[..]));
        });
        let out = out.expect("run completes across the rejoin");
        assert_eq!(out.rejoins, 1);
        assert_eq!(out.stats.replayed_bytes(), 18, "payload-A and payload-B, once each");
        script.join().expect("script peer");
    }

    /// A peer that finished and died before its last barrier arrival and
    /// its FIN got out is never respawned: its supervisor's word stands in
    /// for both, where nothing else would end the wait.
    #[test]
    fn supervisor_word_that_a_peer_finished_stands_in_for_its_arrival_and_fin() {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        let peers = vec![a0.clone(), a1];
        let peer = raw_peer(l1, a0, |s| {
            let _ = s.shutdown(Shutdown::Both);
        });
        let transport =
            TcpTransport::establish(0, l0, &peers, 77, rejoin_opts()).expect("mesh up");
        let finished = transport.finished();
        let (at_barrier, reached) = std::sync::mpsc::channel();
        let word = std::thread::spawn(move || {
            reached.recv().expect("host 0 reaches its barrier");
            finished.peer(1);
        });
        Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
            at_barrier.send(()).expect("the word waits for it");
            comm.barrier();
        })
        .expect("the run completes on the supervisor's word");
        word.join().expect("word thread");
        let _ = peer.join();
    }

    /// The `eec_2_hosts_recovers_from_torn_connection_at_edge_assign`
    /// stall: the victim passes the master barrier, checkpoints, and dies
    /// with its own arrival frame unsent; its respawn resumes past that
    /// barrier while the survivor is still parked at it, and each waits
    /// for the other. A restore must announce the barrier it skips.
    #[test]
    fn restored_checkpoint_re_arrives_at_the_barrier_it_skips() {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        let peers = vec![a0.clone(), a1];
        let peer = raw_peer(l1, a0, |s| {
            // The survivor, parked at barrier 2: what it re-announces at a
            // rejoin. It never heard host 0 arrive there.
            write_frame(s, FRAME_BARRIER, &2u64.to_le_bytes()).unwrap();
            write_frame(s, FRAME_FIN, &[]).unwrap();
            s.flush().unwrap();
        });
        let transport = TcpTransport::establish_with(0, l0, &peers, 77, 1, TcpOptions::default())
            .expect("mesh up");
        Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
            comm.restore_net(&crate::NetCheckpoint {
                send_seqs: vec![0; 2 * crate::MAX_TAGS],
                recv_floors: vec![0; 2 * crate::MAX_TAGS],
                barrier_calls: 2,
                stats: Vec::new(),
            });
        })
        .expect("the restore falls through barrier 2");
        let mut from0 = peer.join().expect("script peer");
        let (kind, body) = read_data_frame(&mut from0);
        assert_eq!((kind, body), (FRAME_BARRIER, 2u64.to_le_bytes().to_vec()));
    }
}
