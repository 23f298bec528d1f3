//! The length-delimited TCP transport: one OS process per host.
//!
//! ## Wire format
//!
//! Every frame is `len: u32 LE | kind: u8 | body`, where `len` counts the
//! kind byte plus the body. Kinds:
//!
//! | kind | name      | body                                             |
//! |------|-----------|--------------------------------------------------|
//! | 1    | HELLO     | `magic u32, version u8, host_id u32, hosts u32, run_nonce u64, incarnation u32` |
//! | 2    | ACCEPT    | empty                                            |
//! | 3    | REJECT    | `reason u8` (see [`RejectReason`])               |
//! | 4    | ENVELOPE  | a versioned envelope ([`encode_envelope`])       |
//! | 5    | BARRIER   | `arrival u64` — the sender's barrier arrival count |
//! | 6    | HEARTBEAT | empty                                            |
//! | 7    | FIN       | empty — the sender has completed cleanly         |
//!
//! ## Topology and threading
//!
//! The mesh is built from **simplex** connections: host `i` dials every
//! peer's listener (with bounded-backoff retries, since workers start at
//! different times) and uses those sockets only for *sending*; it accepts
//! `hosts - 1` inbound connections and uses those only for *reading*. Per
//! outbound socket a **writer thread** drains a frame queue (heartbeating
//! when idle); per inbound socket a **reader thread** decodes frames and
//! feeds the same dispatch → fault-layer → resequencer path the in-process
//! simulator uses. A **monitor thread** declares a peer lost when it goes
//! silent past [`TcpOptions::peer_timeout`] without having sent FIN.
//!
//! ## Failure semantics
//!
//! Without rejoin ([`TcpOptions::rejoin`] off, the default), a peer that
//! closes its connection (or tears a frame) without FIN is declared lost
//! immediately; the fabric unwinds every blocked operation and the run
//! ends in a typed [`ClusterError::HostLost`] — never a hang. A host that
//! panics aborts its writers *without* FIN, so peers detect the death by
//! EOF. Fault injection ([`crate::FaultPlan`]) is applied at the
//! receiving end of the wire — `decide` is a pure function of
//! `(seed, src, dst, tag, seq)`, so the decisions are identical to the
//! simulator's regardless of which side of the socket evaluates them.
//!
//! ## Process rejoin
//!
//! With [`TcpOptions::rejoin`] on (how `cusp-part launch` supervises its
//! workers), a dead peer opens a bounded **down window** instead of
//! aborting the run:
//!
//! * Connection failures and heartbeat silence mark the peer *down*: its
//!   writer queue is unhooked (outbound frames are dropped but retained in
//!   the per-destination send log) and its reader socket is torn so the
//!   state is unambiguous. Blocked receives and barriers keep waiting.
//! * The mesh listener stays open after `establish`; a **rejoin acceptor**
//!   thread answers HELLOs for the same `run_nonce` whose `incarnation` is
//!   strictly greater than the peer's last known one (anything else gets
//!   `REJECT StaleIncarnation`). On accept it bumps the peer's connection
//!   generation (so the stale reader's death is ignored), re-dials the
//!   peer's listener, **replays the entire send log** for that
//!   destination, re-announces its own barrier arrival count, re-sends FIN
//!   if it had already finished, and installs fresh writer/reader threads.
//! * The receive-side resequencer floors survive untouched, so replayed
//!   traffic dedups exactly as in the simulator; replayed bytes are
//!   accounted in [`crate::CommStats::replayed_bytes`], outside the
//!   conserved per-phase matrices.
//! * A peer still down after [`TcpOptions::rejoin_window`] is declared
//!   lost — the typed `HostLost`, never a hang.
//!
//! [`ClusterError::HostLost`]: crate::ClusterError

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use cusp_graph::wire;
use parking_lot::Mutex;

use super::{RejectReason, Transport, TransportError};
use crate::cluster::{Envelope, Fabric, HostId, Tag, MAX_TAGS};
use crate::serialize::{decode_envelope, encode_envelope, WireWriter};

/// "CUSP" in ASCII — the handshake magic.
const MAGIC: u32 = 0x4355_5350;

/// Version of the TCP framing + handshake protocol. Version 2 added the
/// `incarnation` field to HELLO (process rejoin after a crash).
pub const TCP_PROTOCOL_VERSION: u8 = 2;

const FRAME_HELLO: u8 = 1;
const FRAME_ACCEPT: u8 = 2;
const FRAME_REJECT: u8 = 3;
const FRAME_ENVELOPE: u8 = 4;
const FRAME_BARRIER: u8 = 5;
const FRAME_HEARTBEAT: u8 = 6;
const FRAME_FIN: u8 = 7;

/// Upper bound on a data frame; anything larger is a corrupt length
/// prefix, not a message.
const MAX_FRAME: u32 = 1 << 30;

/// Handshake frames are tiny; a "HELLO" claiming more is garbage.
const MAX_HANDSHAKE_FRAME: u32 = 256;

/// How often reader threads come up for air to check shutdown/abort flags
/// while blocked on a socket.
const READ_POLL: Duration = Duration::from_millis(100);

/// Monitor thread wake interval.
const MONITOR_POLL: Duration = Duration::from_millis(50);

/// Rejoin acceptor poll interval while no connection is pending.
const REJOIN_POLL: Duration = Duration::from_millis(10);

/// Knobs of the TCP transport. Defaults are deliberately generous: a
/// loaded CI machine must never produce spurious `HostLost`s.
#[derive(Debug, Clone, Copy)]
pub struct TcpOptions {
    /// How long to keep redialing an unreachable peer before giving up.
    pub dial_timeout: Duration,
    /// Initial redial backoff (doubles per attempt, capped at 500ms).
    pub dial_backoff: Duration,
    /// How long to wait for all `hosts - 1` inbound peers to connect.
    pub accept_timeout: Duration,
    /// Per-socket timeout for one handshake exchange.
    pub handshake_timeout: Duration,
    /// Idle writers emit a heartbeat frame this often.
    pub heartbeat_interval: Duration,
    /// A peer silent this long (without FIN) is declared lost — or, with
    /// [`TcpOptions::rejoin`], marked down pending a reconnect.
    pub peer_timeout: Duration,
    /// Accept reconnecting peers with a newer incarnation instead of
    /// aborting on the first connection loss. Costs a per-destination
    /// send log kept for the whole run; enabled by the process supervisor
    /// (`cusp-part launch`), off for unsupervised meshes.
    pub rejoin: bool,
    /// With [`TcpOptions::rejoin`]: how long a peer may stay down before
    /// it is declared lost after all.
    pub rejoin_window: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            dial_timeout: Duration::from_secs(15),
            dial_backoff: Duration::from_millis(20),
            accept_timeout: Duration::from_secs(15),
            handshake_timeout: Duration::from_secs(3),
            heartbeat_interval: Duration::from_millis(500),
            peer_timeout: Duration::from_secs(10),
            rejoin: false,
            rejoin_window: Duration::from_secs(60),
        }
    }
}

impl TcpOptions {
    /// These options with idle writers heartbeating every `interval`
    /// (at least 10 ms). The silence timeout scales with it (20×, floor
    /// 500 ms), preserving the default 500 ms → 10 s ratio.
    pub fn with_heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval.max(Duration::from_millis(10));
        self.peer_timeout = (self.heartbeat_interval * 20).max(Duration::from_millis(500));
        self
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
    /// Unclean teardown: close without FIN so the peer detects the loss.
    Abort,
}

/// State shared between the transport handle and its threads.
struct TcpShared {
    me: HostId,
    hosts: usize,
    run_nonce: u64,
    /// This process's incarnation (0 for the first spawn; the supervisor
    /// increments it per respawn).
    incarnation: u32,
    opts: TcpOptions,
    /// Every host's listen address (`peers[me]` is our own).
    peers: Vec<String>,
    start: Instant,
    /// Milliseconds since `start` of the last frame from each peer.
    last_heard: Vec<AtomicU64>,
    /// Set once a peer's FIN arrives — silence is then expected. Cleared
    /// again when that peer rejoins with a newer incarnation.
    fin_received: Vec<AtomicBool>,
    /// Set by `finish` so readers and the monitor stand down.
    shutting_down: AtomicBool,
    /// Set when a clean FIN has been enqueued, so a later rejoin re-sends
    /// it on the fresh connection.
    fin_sent: AtomicBool,
    /// Outbound frame queues, one per peer (`None` at `me`, and `None`
    /// while a peer is down awaiting rejoin).
    outbound: Vec<Mutex<Option<Sender<Out>>>>,
    /// Per-destination replay log of `(encoded frame, payload bytes)` —
    /// populated only when `opts.rejoin` is set.
    send_log: Vec<Mutex<Vec<(Bytes, u64)>>>,
    /// Clones of the current inbound socket per peer, so a rejoin (or a
    /// down-marking) can tear the stale reader out of its blocking read.
    reader_socks: Vec<Mutex<Option<TcpStream>>>,
    /// Last incarnation each peer was accepted with.
    peer_incarnation: Vec<AtomicU32>,
    /// Connection generation per peer; bumping it invalidates failure
    /// reports from the superseded reader.
    conn_gen: Vec<AtomicU64>,
    /// `0` while the peer is up; otherwise `now_ms + 1` at the moment the
    /// down window opened.
    down_since: Vec<AtomicU64>,
    /// Rejoin handshakes accepted.
    rejoins: AtomicU64,
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
}

/// Marks a connection failure from `peer`, observed on connection
/// generation `gen`. Without rejoin this is a terminal `HostLost`; with
/// rejoin it opens the peer's down window (first marker wins) and tears
/// both simplex halves so the state is unambiguous: down means *no*
/// connection, recovery only via a fresh rejoin handshake.
fn peer_failed(fabric: &Fabric, shared: &TcpShared, peer: HostId, gen: u64) {
    if shared.stopped(fabric) {
        return;
    }
    if gen < shared.conn_gen[peer].load(Ordering::Acquire) {
        return; // a superseded connection's death, not the peer's
    }
    if !shared.opts.rejoin {
        fabric.mark_remote_lost(peer);
        return;
    }
    if shared.fin_received[peer].load(Ordering::Acquire) {
        return; // clean close after FIN
    }
    let stamp = shared.now_ms() + 1;
    if shared.down_since[peer]
        .compare_exchange(0, stamp, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        *shared.outbound[peer].lock() = None;
        if let Some(s) = shared.reader_socks[peer].lock().take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        cusp_obs::instant("peer_down", peer as u64);
    }
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

/// Connected-but-not-yet-running sockets, parked between
/// [`TcpTransport::establish`] and [`Transport::start`].
struct Pending {
    /// `(peer, socket)` — inbound simplex connections we read from.
    inbound: Vec<(HostId, TcpStream)>,
    /// `(peer, socket, queue)` — outbound simplex connections we write to.
    writers: Vec<(HostId, TcpStream, Receiver<Out>)>,
}

/// The established TCP transport for one host process. Created by
/// [`TcpTransport::establish`] once the full mesh has handshaken; handed
/// to [`crate::Cluster::try_run_tcp`] to run the partition over it.
pub struct TcpTransport {
    shared: Arc<TcpShared>,
    pending: Mutex<Option<Pending>>,
    /// Kept open when rejoin is enabled, so reconnecting peers have a door
    /// to knock on for the whole run.
    listener: Mutex<Option<TcpListener>>,
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

    /// A handle on one outbound mesh socket, for fault-injection tooling
    /// (torn-connection kill mode). `None` for a single-host mesh or once
    /// `start` has consumed the pending sockets.
    pub fn saboteur(&self) -> Option<Saboteur> {
        let pending = self.pending.lock();
        let (_, stream, _) = pending.as_ref()?.writers.first()?;
        stream.try_clone().ok().map(Saboteur)
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

    /// Builds the full connection mesh for host `me` of `peers.len()`
    /// hosts: dials every peer's listener (retrying with backoff until
    /// [`TcpOptions::dial_timeout`]) while concurrently accepting the
    /// `hosts - 1` inbound connections on `listener`, validating every
    /// handshake against `{magic, version, host_id, hosts, run_nonce}`.
    ///
    /// `peers[i]` is host `i`'s listen address; `peers[me]` is this host's
    /// own (used only for arity, unless rejoin keeps the listener open).
    /// `incarnation` is this process's spawn count for the run; survivors
    /// of a crash accept a redial only with a strictly larger value than
    /// the one they last saw. Returns a typed [`TransportError`] on any
    /// bind/dial/handshake failure — never hangs past its timeouts.
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
            return Err(TransportError::Config(format!(
                "host id {me} out of range for {hosts} host(s)"
            )));
        }

        // Accept concurrently with our own dials: every worker is doing
        // both at once, so neither side can afford to serialize them.
        let acceptor = std::thread::Builder::new()
            .name("tcp-accept".into())
            .spawn(move || accept_peers(listener, me, hosts, run_nonce, &opts))
            .expect("failed to spawn acceptor thread");

        let mut outbound: Vec<Option<Sender<Out>>> = (0..hosts).map(|_| None).collect();
        let mut writers = Vec::with_capacity(hosts.saturating_sub(1));
        let mut dial_err = None;
        for (peer, addr) in peers.iter().enumerate() {
            if peer == me {
                continue;
            }
            match dial(me, peer, addr, hosts, run_nonce, incarnation, &opts, &|| false) {
                Ok(stream) => {
                    let (tx, rx) = unbounded();
                    outbound[peer] = Some(tx);
                    writers.push((peer, stream, rx));
                }
                Err(e) => {
                    dial_err = Some(e);
                    break;
                }
            }
        }
        // Join the acceptor even on a dial error: it owns the listener and
        // terminates at accept_timeout at the latest.
        let accepted = acceptor.join().expect("acceptor thread panicked");
        if let Some(e) = dial_err {
            return Err(e);
        }
        let (listener, accepted) = accepted?;

        let shared = Arc::new(TcpShared {
            me,
            hosts,
            run_nonce,
            incarnation,
            opts,
            peers: peers.to_vec(),
            start: Instant::now(),
            last_heard: (0..hosts).map(|_| AtomicU64::new(0)).collect(),
            fin_received: (0..hosts).map(|_| AtomicBool::new(false)).collect(),
            shutting_down: AtomicBool::new(false),
            fin_sent: AtomicBool::new(false),
            outbound: outbound.into_iter().map(Mutex::new).collect(),
            send_log: (0..hosts).map(|_| Mutex::new(Vec::new())).collect(),
            reader_socks: (0..hosts).map(|_| Mutex::new(None)).collect(),
            peer_incarnation: (0..hosts).map(|_| AtomicU32::new(0)).collect(),
            conn_gen: (0..hosts).map(|_| AtomicU64::new(0)).collect(),
            down_since: (0..hosts).map(|_| AtomicU64::new(0)).collect(),
            rejoins: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
        });

        let mut inbound = Vec::with_capacity(accepted.len());
        for (peer, inc, stream) in accepted {
            shared.peer_incarnation[peer].store(inc, Ordering::Release);
            inbound.push((peer, stream));
        }
        // Peers proved alive during the handshake just now.
        for peer in 0..hosts {
            shared.heard(peer);
        }

        Ok(TcpTransport {
            shared,
            pending: Mutex::new(Some(Pending { inbound, writers })),
            listener: Mutex::new(opts.rejoin.then_some(listener)),
        })
    }
}

impl Transport for TcpTransport {
    fn start(&self, fabric: &Arc<Fabric>) {
        let Some(pending) = self.pending.lock().take() else {
            return;
        };
        let shared = &self.shared;
        for (peer, stream, rx) in pending.writers {
            let interval = shared.opts.heartbeat_interval;
            let name = format!("tcp-send-{peer}");
            spawn_io(shared, name, None, move || writer_loop(stream, rx, interval));
        }
        for (peer, stream) in pending.inbound {
            spawn_reader(fabric, shared, format!("tcp-recv-{peer}"), stream, peer, 0);
        }
        if shared.hosts > 1 {
            let (f, s) = (Arc::clone(fabric), Arc::clone(shared));
            spawn_io(shared, "tcp-monitor".into(), Some("tcp-monitor"), move || monitor_loop(f, s));
        }
        if let Some(listener) = self.listener.lock().take() {
            let (f, s) = (Arc::clone(fabric), Arc::clone(shared));
            let body = move || rejoin_acceptor(listener, f, s);
            spawn_io(shared, "tcp-rejoin".into(), Some("tcp-rejoin"), body);
        }
    }

    fn ship(&self, _fabric: &Fabric, dst: HostId, tag: Tag, env: Envelope) {
        let frame = encode_envelope(tag.0, env.src as u64, env.phase, env.seq, &env.payload);
        let shared = &self.shared;
        if shared.opts.rejoin {
            shared.send_log[dst]
                .lock()
                .push((frame.clone(), env.payload.len() as u64));
        }
        if let Some(tx) = &*shared.outbound[dst].lock() {
            // A closed queue means the writer died with its peer; the run
            // is already being torn down and check_abort will surface it.
            // A down peer's slot is None: the frame stays in the send log
            // and is replayed wholesale at rejoin.
            let _ = tx.send(Out::Env(frame));
        }
    }

    fn barrier_wait(&self, fabric: &Fabric, host: HostId, n: u64) -> bool {
        // Announce over every connection *before* blocking. Queues are
        // FIFO per peer, so a peer observes all our pre-barrier envelopes
        // before our arrival — exactly the simulator's guarantee that
        // barrier release implies all prior traffic is in the mailboxes.
        for slot in &self.shared.outbound {
            if let Some(tx) = &*slot.lock() {
                let _ = tx.send(Out::Barrier(n));
            }
        }
        fabric.barrier.wait(host, n, || fabric.should_abort())
    }

    fn finish(&self, fabric: &Fabric, clean: bool) {
        if clean {
            self.shared.fin_sent.store(true, Ordering::Release);
        }
        for slot in &self.shared.outbound {
            if let Some(tx) = &*slot.lock() {
                let _ = tx.send(if clean { Out::Fin } else { Out::Abort });
            }
        }
        if clean {
            // Drain: keep readers alive until every peer has FINed, so
            // slower peers can still pull our already-queued frames and
            // barriers. The readers and the monitor are still up, so a
            // peer that dies or goes silent here raises the abort flag
            // exactly as it would have during the run.
            while !fabric.should_abort() {
                let all = (0..self.shared.hosts)
                    .filter(|&p| p != self.shared.me)
                    .all(|p| self.shared.fin_received[p].load(Ordering::Acquire));
                if all {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.shared.shutting_down.store(true, Ordering::Release);
        loop {
            // Rejoin handlers may add writer/reader threads concurrently
            // with this join; drain until the list stays empty.
            let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.threads.lock());
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }

    fn rejoin_count(&self) -> u64 {
        self.shared.rejoins.load(Ordering::Relaxed)
    }
}

/// Starts one of the transport's threads and keeps its handle for `finish`
/// to join. With a `role`, the thread records into the trace the calling
/// thread is attached to (if tracing is on), so `peer_down` / `peer_rejoin`
/// instants land beside the host's own events.
fn spawn_io(
    shared: &TcpShared,
    name: String,
    role: Option<&'static str>,
    body: impl FnOnce() + Send + 'static,
) {
    let obs = cusp_obs::current().zip(role);
    let handle = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let _obs = obs.as_ref().map(|(a, role)| a.attach(role));
            body()
        })
        .expect("failed to spawn transport thread");
    shared.threads.lock().push(handle);
}

/// Stands up the reader of connection generation `gen` from `peer`,
/// keeping a clone of its socket so that a rejoin (or a down-marking) can
/// tear it out of a blocking read.
fn spawn_reader(
    fabric: &Arc<Fabric>,
    shared: &Arc<TcpShared>,
    name: String,
    stream: TcpStream,
    peer: HostId,
    gen: u64,
) {
    *shared.reader_socks[peer].lock() = stream.try_clone().ok();
    let (f, s) = (Arc::clone(fabric), Arc::clone(shared));
    spawn_io(shared, name, Some("tcp-recv"), move || reader_loop(stream, peer, gen, f, s));
}

// ---------------------------------------------------------------------------
// Frame I/O helpers
// ---------------------------------------------------------------------------

/// `len: u32 LE | kind` — the five bytes that start every frame.
fn frame_head(len: u32, kind: u8) -> [u8; 5] {
    let mut head = [0u8; 5];
    wire::encode_u32s(&[len], &mut head[..4]);
    head[4] = kind;
    head
}

fn write_frame(w: &mut impl Write, kind: u8, body: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame_head(1 + body.len() as u32, kind))?;
    w.write_all(body)
}

/// Decodes a frame's length prefix.
fn frame_len(prefix: [u8; 4]) -> u32 {
    wire::Reader::new(&prefix).u32().expect("four bytes hold a u32")
}

/// Blocking read of one small frame during the handshake (the socket has a
/// read timeout set, so this is bounded).
fn read_handshake_frame(stream: &mut TcpStream) -> std::io::Result<(u8, Vec<u8>)> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = frame_len(len_buf);
    if len == 0 || len > MAX_HANDSHAKE_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("handshake frame length {len}"),
        ));
    }
    let mut frame = vec![0u8; len as usize];
    stream.read_exact(&mut frame)?;
    Ok((frame[0], frame[1..].to_vec()))
}

/// Outcome of a flag-aware socket read.
enum ReadOutcome {
    /// Buffer filled.
    Ok,
    /// The stop flag fired while blocked.
    Stopped,
    /// EOF or an I/O error. Whether an EOF is clean is the caller's to say:
    /// only a FIN before it makes it so.
    Failed,
}

/// Fills `buf` from `r`, surfacing read timeouts as chances to observe
/// `stop` instead of data loss (unlike `read_exact`, which corrupts its
/// position on timeout).
fn read_full(r: &mut impl Read, buf: &mut [u8], stop: &impl Fn() -> bool) -> ReadOutcome {
    let mut off = 0;
    while off < buf.len() {
        match r.read(&mut buf[off..]) {
            Ok(0) => return ReadOutcome::Failed,
            Ok(n) => off += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop() {
                    return ReadOutcome::Stopped;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Failed,
        }
    }
    ReadOutcome::Ok
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// The HELLO frame body. `#[doc(hidden)] pub`, like [`parse_hello`] and
/// [`admit_incarnation`], so `tests/hello_props.rs` pins the very functions
/// the dialer and both acceptors call — not part of the supported API.
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

/// Dials `addr` until the peer answers (or the timeout, or `stop`), then
/// runs the HELLO/ACCEPT exchange.
#[allow(clippy::too_many_arguments)]
fn dial(
    me: HostId,
    peer: HostId,
    addr: &str,
    hosts: usize,
    run_nonce: u64,
    incarnation: u32,
    opts: &TcpOptions,
    stop: &dyn Fn() -> bool,
) -> Result<TcpStream, TransportError> {
    let deadline = Instant::now() + opts.dial_timeout;
    let mut backoff = opts.dial_backoff;
    loop {
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(opts.handshake_timeout));
                let hs = |detail: String| TransportError::Handshake { peer, detail };
                write_frame(
                    &mut stream,
                    FRAME_HELLO,
                    &hello_body(me, hosts, run_nonce, incarnation),
                )
                .map_err(|e| hs(format!("cannot send HELLO: {e}")))?;
                let (kind, body) = read_handshake_frame(&mut stream)
                    .map_err(|e| hs(format!("no handshake reply: {e}")))?;
                return match kind {
                    FRAME_ACCEPT => {
                        let _ = stream.set_read_timeout(None);
                        Ok(stream)
                    }
                    FRAME_REJECT => {
                        let reason = body
                            .first()
                            .and_then(|&b| RejectReason::from_u8(b))
                            .unwrap_or(RejectReason::BadMagic);
                        Err(TransportError::Rejected { peer, reason })
                    }
                    other => Err(hs(format!("unexpected handshake frame kind {other}"))),
                };
            }
            Err(_) => {
                if stop() || Instant::now() >= deadline {
                    return Err(TransportError::DialTimeout { peer, addr: addr.to_string() });
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(500));
            }
        }
    }
}

/// Parses and checks the transport-level HELLO fields shared by the mesh
/// acceptor and the rejoin acceptor: magic, version, cluster shape, run
/// nonce. Returns the claimed `(host_id, incarnation)`; the caller applies
/// its own slot/staleness policy on top.
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

/// Answers the HELLO on one accepted connection, the step the mesh
/// acceptor and the rejoin acceptor share: `validate` is the caller's
/// admission rule over the HELLO body. An admitted peer gets an ACCEPT and
/// is returned as `(host_id, incarnation)`; a refused one gets a REJECT
/// carrying the reason (the dialer sees it and errors out). `None` also
/// covers strangers that never speak the protocol (port scans, stale
/// workers), which are dropped silently.
fn answer_hello(
    stream: &mut TcpStream,
    opts: &TcpOptions,
    validate: impl FnOnce(&[u8]) -> Result<(HostId, u32), RejectReason>,
) -> Option<(HostId, u32)> {
    // The accepted socket may inherit the listener's non-blocking mode; the
    // reader threads want plain blocking-with-timeout.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(opts.handshake_timeout));
    let (kind, body) = read_handshake_frame(stream).ok()?;
    if kind != FRAME_HELLO {
        return None;
    }
    match validate(&body) {
        Ok(admitted) => write_frame(stream, FRAME_ACCEPT, &[]).is_ok().then_some(admitted),
        Err(reason) => {
            let _ = write_frame(stream, FRAME_REJECT, &[reason as u8]);
            None
        }
    }
}

/// Accept loop: collects `hosts - 1` validated peer connections, returning
/// them together with the listener (kept for the rejoin acceptor).
/// Connections failing validation get a REJECT and are dropped without
/// consuming a slot; random strangers (port scans, stale workers) are
/// simply ignored.
#[allow(clippy::type_complexity)]
fn accept_peers(
    listener: TcpListener,
    me: HostId,
    hosts: usize,
    run_nonce: u64,
    opts: &TcpOptions,
) -> Result<(TcpListener, Vec<(HostId, u32, TcpStream)>), TransportError> {
    let mut taken = vec![false; hosts];
    let mut inbound = Vec::with_capacity(hosts.saturating_sub(1));
    listener
        .set_nonblocking(true)
        .map_err(TransportError::Bind)?;
    let deadline = Instant::now() + opts.accept_timeout;
    while inbound.len() < hosts - 1 {
        if Instant::now() >= deadline {
            return Err(TransportError::AcceptTimeout {
                missing: hosts - 1 - inbound.len(),
            });
        }
        let Ok((mut stream, _)) = listener.accept() else {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        // Mesh admission: a run member whose slot is still free.
        let admitted = answer_hello(&mut stream, opts, |body| {
            let (peer, inc) = parse_hello(body, me, hosts, run_nonce)?;
            if taken[peer] {
                return Err(RejectReason::BadHostId);
            }
            Ok((peer, inc))
        });
        if let Some((peer, inc)) = admitted {
            taken[peer] = true;
            inbound.push((peer, inc, stream));
        }
    }
    Ok((listener, inbound))
}

// ---------------------------------------------------------------------------
// Rejoin
// ---------------------------------------------------------------------------

/// Answers HELLOs on the retained mesh listener for the rest of the run:
/// a peer redialing with the right nonce and a strictly newer incarnation
/// is re-admitted to the mesh; anything else gets a typed REJECT (or is
/// ignored, for non-protocol garbage). Runs until shutdown or abort.
fn rejoin_acceptor(listener: TcpListener, fabric: Arc<Fabric>, shared: Arc<TcpShared>) {
    // `establish` left the listener non-blocking; keep polling it.
    loop {
        if shared.stopped(&fabric) {
            return;
        }
        let Ok((mut stream, _)) = listener.accept() else {
            std::thread::sleep(REJOIN_POLL);
            continue;
        };
        // Rejoin admission: protocol fields must match the run, and the
        // claimed incarnation must be strictly newer than the last one
        // accepted for that peer (equal or older = a stale duplicate, not a
        // respawn).
        let admitted = answer_hello(&mut stream, &shared.opts, |body| {
            let (peer, inc) = parse_hello(body, shared.me, shared.hosts, shared.run_nonce)?;
            admit_incarnation(inc, shared.peer_incarnation[peer].load(Ordering::Acquire))?;
            Ok((peer, inc))
        });
        if let Some((peer, inc)) = admitted {
            handle_rejoin(&fabric, &shared, peer, inc, stream);
        }
    }
}

/// The rejoin staleness rule, isolated so the property battery can pin it:
/// only a strictly newer incarnation supersedes the last admitted one.
#[doc(hidden)]
pub fn admit_incarnation(claimed: u32, last_admitted: u32) -> Result<(), RejectReason> {
    if claimed <= last_admitted {
        return Err(RejectReason::StaleIncarnation);
    }
    Ok(())
}

/// Splices a reconnecting peer back into the mesh: supersede the stale
/// connection pair, re-dial the peer's listener, replay the send log on
/// the fresh outbound socket, re-announce our barrier arrival (and FIN, if
/// we already finished), and stand up new writer/reader threads.
fn handle_rejoin(
    fabric: &Arc<Fabric>,
    shared: &Arc<TcpShared>,
    peer: HostId,
    inc: u32,
    stream: TcpStream,
) {
    shared.peer_incarnation[peer].store(inc, Ordering::Release);
    // Invalidate the previous connection generation: the old reader's
    // eventual death report becomes a no-op, and shutting its socket here
    // kicks it out of any blocking read promptly.
    let gen = shared.conn_gen[peer].fetch_add(1, Ordering::AcqRel) + 1;
    if let Some(s) = shared.reader_socks[peer].lock().take() {
        let _ = s.shutdown(Shutdown::Both);
    }
    shared.fin_received[peer].store(false, Ordering::Release);
    shared.heard(peer);

    // Re-dial while holding the outbound slot: any `ship` that logged its
    // frame before we snapshot the log below is covered by the replay, and
    // any later `ship` blocks on the slot until the fresh queue is
    // installed — no frame can fall between the two.
    let mut slot = shared.outbound[peer].lock();
    *slot = None;
    // Our fresh outbound simplex half, bounded and shutdown-aware.
    let redial = dial(
        shared.me,
        peer,
        &shared.peers[peer],
        shared.hosts,
        shared.run_nonce,
        shared.incarnation,
        &shared.opts,
        &|| shared.stopped(fabric),
    );
    match redial {
        Ok(out_stream) => {
            let (tx, rx) = unbounded();
            {
                let log = shared.send_log[peer].lock();
                for (frame, payload_bytes) in log.iter() {
                    let _ = tx.send(Out::Env(frame.clone()));
                    fabric.stats.record_replayed(*payload_bytes);
                }
            }
            let arrived = fabric.barrier.arrived(shared.me);
            if arrived > 0 {
                let _ = tx.send(Out::Barrier(arrived));
            }
            if shared.fin_sent.load(Ordering::Acquire) {
                let _ = tx.send(Out::Fin);
            }
            let interval = shared.opts.heartbeat_interval;
            let name = format!("tcp-send-{peer}-i{inc}");
            spawn_io(shared, name, None, move || writer_loop(out_stream, rx, interval));
            *slot = Some(tx);
            shared.down_since[peer].store(0, Ordering::Release);
        }
        Err(_) => {
            // Could not dial back (the peer died again mid-rejoin, or we
            // are shutting down). Leave the peer down with a fresh stamp;
            // the next rejoin or the down-window expiry decides its fate.
            shared.down_since[peer].store(shared.now_ms() + 1, Ordering::Release);
        }
    }
    drop(slot);

    // On the (attached, if tracing) rejoin acceptor thread, so the fresh
    // reader inherits the same trace.
    spawn_reader(fabric, shared, format!("tcp-recv-{peer}-i{inc}"), stream, peer, gen);
    shared.rejoins.fetch_add(1, Ordering::Relaxed);
    cusp_obs::instant("peer_rejoin", inc as u64);
}

// ---------------------------------------------------------------------------
// Runtime threads
// ---------------------------------------------------------------------------

/// Drains one peer's outbound queue onto its socket, heartbeating when
/// idle. Exits on FIN (clean), Abort (unclean, no FIN), queue closure, or
/// write error (the peer is gone; its reader/monitor handles diagnosis).
fn writer_loop(stream: TcpStream, rx: Receiver<Out>, heartbeat: Duration) {
    let mut w = BufWriter::with_capacity(64 << 10, stream);
    loop {
        match rx.recv_timeout(heartbeat) {
            Ok(Out::Env(frame)) => {
                if write_frame(&mut w, FRAME_ENVELOPE, &frame).is_err() {
                    return;
                }
                if rx.is_empty() && w.flush().is_err() {
                    return;
                }
            }
            Ok(Out::Barrier(n)) => {
                let mut body = [0u8; 8];
                wire::encode_u64s(&[n], &mut body);
                if write_frame(&mut w, FRAME_BARRIER, &body).is_err() || w.flush().is_err() {
                    return;
                }
            }
            Ok(Out::Fin) => {
                let _ = write_frame(&mut w, FRAME_FIN, &[]);
                let _ = w.flush();
                let _ = w.get_ref().shutdown(Shutdown::Write);
                return;
            }
            Ok(Out::Abort) => return,
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
/// announcements into the shared arrival table. Any protocol violation —
/// torn frame, corrupt envelope, absurd length, EOF without FIN — reports
/// the connection failed on generation `gen`: terminal without rejoin, the
/// start of a down window with it.
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
    let finned = || shared.fin_received[peer].load(Ordering::Acquire);
    let mut len_buf = [0u8; 4];
    loop {
        match read_full(&mut r, &mut len_buf, &stop) {
            ReadOutcome::Ok => {}
            ReadOutcome::Stopped => return,
            ReadOutcome::Failed => {
                if !finned() && !stop() {
                    peer_failed(&fabric, &shared, peer, gen);
                }
                return;
            }
        }
        let len = frame_len(len_buf);
        if len == 0 || len > MAX_FRAME {
            peer_failed(&fabric, &shared, peer, gen);
            return;
        }
        let mut frame = vec![0u8; len as usize];
        match read_full(&mut r, &mut frame, &stop) {
            ReadOutcome::Ok => {}
            ReadOutcome::Stopped => return,
            ReadOutcome::Failed => {
                // A frame torn mid-body is never clean, FIN or not.
                if !stop() {
                    peer_failed(&fabric, &shared, peer, gen);
                }
                return;
            }
        }
        if gen < shared.conn_gen[peer].load(Ordering::Acquire) {
            // Superseded mid-frame by a rejoin; stop feeding stale data.
            return;
        }
        shared.heard(peer);
        let kind = frame[0];
        match kind {
            FRAME_ENVELOPE => {
                let body = Bytes::from(frame).slice(1..);
                match decode_envelope(body) {
                    Ok(we) if (we.tag as usize) < MAX_TAGS && we.src as usize == peer => {
                        fabric.dispatch(
                            shared.me,
                            Tag(we.tag),
                            Envelope {
                                src: peer,
                                seq: we.seq,
                                phase: we.phase,
                                payload: we.payload,
                            },
                        );
                    }
                    _ => {
                        peer_failed(&fabric, &shared, peer, gen);
                        return;
                    }
                }
            }
            FRAME_BARRIER => match (frame.len(), wire::Reader::new(&frame[1..]).u64()) {
                (9, Ok(arrival)) => fabric.barrier.announce(peer, arrival),
                _ => {
                    peer_failed(&fabric, &shared, peer, gen);
                    return;
                }
            },
            FRAME_HEARTBEAT => {}
            FRAME_FIN => {
                shared.fin_received[peer].store(true, Ordering::Release);
            }
            _ => {
                peer_failed(&fabric, &shared, peer, gen);
                return;
            }
        }
    }
}

/// Watches peer liveness. A peer silent past `peer_timeout` without FIN is
/// declared lost (no rejoin) or marked down (rejoin); a peer down past
/// `rejoin_window` is lost either way. Socket-level failures are caught
/// faster by the readers; this net catches peers that hang without dying.
/// It stands until shutdown, not until every peer has FINed: a rejoin
/// clears a FIN, and the drain in `finish` relies on this watch.
fn monitor_loop(fabric: Arc<Fabric>, shared: Arc<TcpShared>) {
    let silence_ms = shared.opts.peer_timeout.as_millis() as u64;
    let window_ms = shared.opts.rejoin_window.as_millis() as u64;
    loop {
        std::thread::sleep(MONITOR_POLL);
        if shared.stopped(&fabric) {
            return;
        }
        let now = shared.now_ms();
        for peer in (0..shared.hosts).filter(|&p| p != shared.me) {
            if shared.fin_received[peer].load(Ordering::Acquire) {
                continue;
            }
            let down = shared.down_since[peer].load(Ordering::Acquire);
            if down != 0 {
                if now.saturating_sub(down - 1) > window_ms {
                    fabric.mark_remote_lost(peer);
                    return;
                }
                continue;
            }
            if now.saturating_sub(shared.last_heard[peer].load(Ordering::Acquire)) > silence_ms {
                let gen = shared.conn_gen[peer].load(Ordering::Acquire);
                peer_failed(&fabric, &shared, peer, gen);
                if !shared.opts.rejoin {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterOptions};
    use crate::recovery::ClusterError;

    /// Options tuned so a failed establish errors out in test time rather
    /// than wall-clock seconds.
    fn fast_opts() -> TcpOptions {
        TcpOptions {
            dial_timeout: Duration::from_secs(2),
            accept_timeout: Duration::from_secs(2),
            handshake_timeout: Duration::from_secs(2),
            ..TcpOptions::default()
        }
    }

    fn bind() -> (TcpListener, String) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("local addr").to_string();
        (l, addr)
    }

    /// Starts `TcpTransport::establish` for host 0 of a 2-host cluster in
    /// a background thread and returns its listen address plus the join
    /// handle, so a raw scripted "host 1" can talk to it.
    fn establish_host0(
        nonce: u64,
    ) -> (String, std::thread::JoinHandle<Result<TcpTransport, TransportError>>, String) {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        drop(l1); // host 1 is played by the raw script, not a transport
        let peers = vec![a0.clone(), a1.clone()];
        let h = std::thread::spawn(move || {
            TcpTransport::establish(0, l0, &peers, nonce, fast_opts())
        });
        (a0, h, a1)
    }

    /// Raw host-1 side of the handshake: dial host 0 with a HELLO built by
    /// `mutate` and return the reply frame kind + body.
    fn dial_raw(addr: &str, mutate: impl FnOnce(&mut Vec<u8>)) -> (u8, Vec<u8>) {
        let mut s = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut hello = hello_body(1, 2, 77, 0).to_vec();
        mutate(&mut hello);
        write_frame(&mut s, FRAME_HELLO, &hello).unwrap();
        let (kind, body) = read_handshake_frame(&mut s).expect("handshake reply");
        (kind, body)
    }

    #[test]
    fn handshake_rejects_wrong_version_then_accepts_a_valid_peer() {
        let (a0, h, _a1) = establish_host0(77);
        // Bad protocol version → REJECT(BadVersion), and the slot is not
        // consumed: a follow-up valid HELLO still completes the mesh.
        let (kind, body) = dial_raw(&a0, |hello| hello[4] = TCP_PROTOCOL_VERSION + 1);
        assert_eq!(kind, FRAME_REJECT);
        assert_eq!(RejectReason::from_u8(body[0]), Some(RejectReason::BadVersion));
        let (kind, _) = dial_raw(&a0, |_| {});
        assert_eq!(kind, FRAME_ACCEPT);
        // Host 0 still needs its own outbound dial to succeed; play the
        // accepting side for it.
        let t = h.join().unwrap();
        match t {
            Err(TransportError::DialTimeout { peer: 1, .. }) => {}
            Err(e) => panic!("unexpected establish error: {e}"),
            Ok(_) => panic!("establish cannot succeed: nobody listened for host 0's dial"),
        }
    }

    #[test]
    fn handshake_rejects_wrong_nonce_and_magic() {
        let (a0, h, _a1) = establish_host0(77);
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
        drop(h.join().unwrap()); // DialTimeout; nothing listened for host 0
    }

    #[test]
    fn dialer_surfaces_nonce_rejection_as_typed_error() {
        // A real host 0 dialing a "cluster" whose host 1 runs a different
        // nonce must get TransportError::Rejected, not a hang.
        let (l1, a1) = bind();
        let (l0, a0) = bind();
        let peers = vec![a0, a1];
        let acceptor = std::thread::spawn(move || {
            accept_peers(l1, 1, 2, 9999, &fast_opts()) // nonce 9999 ≠ 77
        });
        let got = TcpTransport::establish(0, l0, &peers, 77, fast_opts());
        match got {
            Err(TransportError::Rejected { peer: 1, reason: RejectReason::BadNonce }) => {}
            Err(e) => panic!("wanted Rejected(BadNonce), got: {e}"),
            Ok(_) => panic!("establish must fail across a nonce mismatch"),
        }
        // The scripted acceptor times out (host 0 gave up after the
        // rejection and never retried with the right nonce).
        assert!(matches!(acceptor.join().unwrap(), Err(TransportError::AcceptTimeout { .. })));
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
            // Accept host 0's outbound dial and ACCEPT its HELLO.
            let (mut from0, _) = l1.accept().expect("host 0 dials us");
            from0.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let (kind, _) = read_handshake_frame(&mut from0).unwrap();
            assert_eq!(kind, FRAME_HELLO);
            write_frame(&mut from0, FRAME_ACCEPT, &[]).unwrap();
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
            TcpTransport::establish(0, l0, &peers, 77, fast_opts()).expect("mesh up");
        let got = Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
            // The message in front of the tear is delivered in sequence...
            let (src, payload) = comm.recv_any(Tag(0));
            assert_eq!((src, &payload[..]), (1, &b"before the tear"[..]));
            // ...and the next receive unwinds with a typed loss instead of
            // hanging on the dead connection.
            comm.recv_any(Tag(0))
        });
        match got {
            Err(ClusterError::HostLost { host: 1, restarts: 0 }) => {}
            Err(e) => panic!("wanted HostLost for host 1, got: {e}"),
            Ok(_) => panic!("run must not complete past a torn frame"),
        }
        let _ = peer.join();
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
            TcpTransport::establish(0, l0, &peers, 77, fast_opts()).expect("mesh up");
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
        let opts = TcpOptions { peer_timeout: Duration::from_millis(300), ..fast_opts() };
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
            TcpTransport::establish(0, l0, &peers, 77, fast_opts()).expect("mesh up");
        let got = Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
            comm.recv_any(Tag(0))
        });
        assert!(matches!(got, Err(ClusterError::HostLost { host: 1, restarts: 0 })));
        let _ = peer.join();
    }

    // -- rejoin ------------------------------------------------------------

    fn rejoin_opts() -> TcpOptions {
        TcpOptions {
            rejoin: true,
            rejoin_window: Duration::from_secs(20),
            ..fast_opts()
        }
    }

    /// Blocking read of one full data frame on a raw test socket,
    /// skipping heartbeats. Panics on EOF/timeout.
    fn read_data_frame(s: &mut TcpStream) -> (u8, Vec<u8>) {
        loop {
            let mut len_buf = [0u8; 4];
            s.read_exact(&mut len_buf).expect("frame length");
            let len = frame_len(len_buf);
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
            write_frame(&mut from0, FRAME_ACCEPT, &[]).unwrap();
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
            write_frame(&mut from0, FRAME_ACCEPT, &[]).unwrap();
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
        let out = Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
            comm.send_bytes(1, Tag(0), Bytes::from_static(b"payload-A"));
            let (src, payload) = comm.recv_any(Tag(1));
            assert_eq!((src, &payload[..]), (1, &b"hello-again"[..]));
        })
        .expect("run completes across the rejoin");
        assert_eq!(out.rejoins, 1, "one rejoin handshake accepted");
        assert!(
            out.stats.replayed_bytes() > 0,
            "replayed traffic is accounted outside the phase matrices"
        );
        script.join().expect("script peer");
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
        let transport = TcpTransport::establish_with(0, l0, &peers, 77, 1, fast_opts())
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

    #[test]
    fn down_peer_that_never_rejoins_is_lost_after_the_window() {
        let (l0, a0) = bind();
        let (l1, a1) = bind();
        let peers = vec![a0.clone(), a1];
        let peer = raw_peer(l1, a0, |s| {
            let _ = s.shutdown(Shutdown::Both);
        });
        let opts = TcpOptions {
            rejoin_window: Duration::from_millis(300),
            ..rejoin_opts()
        };
        let transport = TcpTransport::establish(0, l0, &peers, 77, opts).expect("mesh up");
        let t = Instant::now();
        let got = Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
            comm.recv_any(Tag(0))
        });
        let err = got.map(|out| out.result).expect_err("run must fail");
        assert!(
            matches!(err, ClusterError::HostLost { host: 1, restarts: 0 }),
            "typed loss after the rejoin window, got {err:?}"
        );
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "the down window must be bounded, not a hang"
        );
        let _ = peer.join();
    }
}
