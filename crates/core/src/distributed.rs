//! Running the partitioner across real OS processes.
//!
//! [`partition_with_policy`] only ever talks to a [`cusp_net::Comm`], so
//! distributing it means standing the five-phase pipeline on a
//! [`TcpTransport`] instead of the in-process simulator, every process
//! reading its own slice of the shared input. Three layers, bottom up:
//!
//! * [`partition_with_policy_tcp`] — one host of an established mesh;
//! * [`worker`] — one host *process*: binds, says where it listens, is told
//!   where its peers do, meshes, partitions, writes its `.part` file and
//!   reports its per-peer send/recv totals;
//! * [`launch`] — the driver: starts one [`LaunchSpec::worker`] per host,
//!   acts out what the one [`Supervisor`] decides when a seeded
//!   [`KillPlan`] takes a worker down, joins the workers' rows into a
//!   conservation check no single process could fake, and returns a
//!   [`LaunchReport`] or, within a bounded time, a typed [`LaunchError`].
//!
//! Driver and worker talk in lines over the worker's stdio; `Said` and the
//! `PEERS`/`TEAR` helpers are the only place those lines are written or
//! parsed. Under the determinism contract a launched run is bit-identical
//! to [`simulator_twin`], the oracle its callers (`cusp-part launch`,
//! `tests/cross_process.rs`) compose with it.

use std::ffi::OsString;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cusp_net::recovery::{Action, Event, Exit, HostState, Supervisor};
use cusp_net::{
    Cluster, ClusterError, ClusterOptions, KillDecision, KillMode, KillPlan, RecoveryOptions,
    TcpOptions, TcpRunOutput, TcpTransport, TransportError,
};

use crate::config::{CuspConfig, GraphSource, OutputFormat, PhaseTimes};
use crate::phases::driver::PartitionOutput;
use crate::policies::catalog::{partition_with_policy, PolicyKind};
use crate::{part_fingerprint, read_partition, write_partition, PartitionError};

/// Runs the five-phase pipeline as **one host of a multi-process
/// cluster**: the peers are other worker processes executing this same
/// function over their own ends of the TCP mesh.
///
/// A peer process dying mid-run surfaces as
/// [`PartitionError::HostLost`] — never a hang. The returned
/// [`TcpRunOutput`] carries this host's partition plus its local view of
/// the communication statistics (its send rows and receive rows); the
/// orchestrator merges those across workers for conservation checks.
pub fn partition_with_policy_tcp(
    transport: TcpTransport,
    source: GraphSource,
    kind: PolicyKind,
    cfg: &CuspConfig,
) -> Result<TcpRunOutput<PartitionOutput>, PartitionError> {
    Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
        partition_with_policy(comm, source, kind, cfg)
    })
    .map_err(PartitionError::from)
}

/// Pins `cfg` to one worker thread per host, the configuration recovery
/// and cross-transport comparisons run under.
///
/// The pin is not what makes a partition reproducible — that is a
/// function of the input, the policy, `k` and `sync_rounds` at any thread
/// count. It is what makes the *sends* reproducible: construction's
/// per-thread send buffers flush at schedule-dependent points, and a
/// recovered host's replay is deduplicated against the messages it sent
/// before it died, which must be the same messages.
pub fn deterministic_for_comparison(mut cfg: CuspConfig) -> CuspConfig {
    cfg.threads_per_host = 1;
    cfg
}

/// What every process of one cross-process run agrees on.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Worker processes, one per partition.
    pub hosts: usize,
    /// The `.bgr` input every worker reads its own slice of.
    pub graph: PathBuf,
    /// The partitioning policy.
    pub policy: PolicyKind,
    /// Where worker `h` writes [`part_path`]`(out_dir, h)`, and the driver
    /// each worker's stderr log.
    pub out_dir: PathBuf,
    /// Pipeline tuning, as far as the worker command line carries it: the
    /// read weights and `force_stored_masters` stay default.
    pub cfg: CuspConfig,
    /// The mesh's idle heartbeat ([`TcpOptions::with_heartbeat`]); `None`
    /// keeps the generous defaults. Tests shorten it so survivors notice a
    /// stopped peer in test time.
    pub heartbeat: Option<Duration>,
}

impl RunSpec {
    fn tcp_options(&self) -> TcpOptions {
        let opts = TcpOptions::default();
        self.heartbeat.map_or(opts, |interval| opts.with_heartbeat(interval))
    }
}

/// Where host `host` of a cross-process run writes its partition.
pub fn part_path(out_dir: &Path, host: usize) -> PathBuf {
    out_dir.join(format!("part-{host:04}.part"))
}

/// The crash-free in-process simulator over the configuration of `run`,
/// under the determinism contract: one [`part_fingerprint`] per host, which
/// a launched run — recovered or not — must equal host by host.
pub fn simulator_twin(run: &RunSpec) -> Result<Vec<u64>, PartitionError> {
    let mut cfg = deterministic_for_comparison(run.cfg.clone());
    (cfg.checkpoint_dir, cfg.announce_phases) = (None, false);
    let source = GraphSource::File(run.graph.clone());
    let out = Cluster::try_run_with(run.hosts, ClusterOptions::default(), |comm| {
        part_fingerprint(&partition_with_policy(comm, source.clone(), run.policy, &cfg).dist_graph)
    })?;
    Ok(out.results)
}

// ---------------------------------------------------------------------------
// The line protocol
// ---------------------------------------------------------------------------

/// One protocol line of a worker's stdout. `Display` writes it,
/// [`Said::parse`] reads it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Said<'a> {
    /// The worker listens at this address and waits for the peer list.
    Listen(&'a str),
    /// The worker entered this phase ([`CuspConfig::announce_phases`]).
    Phase(&'a str),
    /// What this worker counted toward (`sent`) or from `peer`, all phases.
    Row { sent: bool, peer: usize, bytes: u64, messages: u64 },
    /// The partition is on disk and every row is out.
    Done { host: usize },
    /// Dead peers this worker re-admitted; printed after the FIN drain.
    Rejoins(u64),
}

const SAID: &str = "CUSP-WORKER-";

impl fmt::Display for Said<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Said::Listen(addr) => write!(f, "{SAID}LISTEN {addr}"),
            Said::Phase(name) => write!(f, "{SAID}PHASE {name}"),
            Said::Row { sent, peer, bytes, messages } => {
                write!(f, "{SAID}{} {peer} {bytes} {messages}", if sent { "SENT" } else { "RECV" })
            }
            Said::Done { host } => write!(f, "{SAID}DONE {host}"),
            Said::Rejoins(n) => write!(f, "{SAID}REJOINS {n}"),
        }
    }
}

impl<'a> Said<'a> {
    /// `Ok(None)` for a line that is not the protocol's (a worker may chat),
    /// `Err` for one that claims to be and does not parse.
    fn parse(line: &'a str) -> Result<Option<Self>, ()> {
        fn num<T: std::str::FromStr>(s: &str) -> Result<T, ()> {
            s.parse().map_err(drop)
        }
        let mut toks = line.split_whitespace();
        let Some(kind) = toks.next().and_then(|t| t.strip_prefix(SAID)) else { return Ok(None) };
        Ok(Some(match (kind, toks.collect::<Vec<_>>().as_slice()) {
            ("LISTEN", [addr]) => Said::Listen(addr),
            ("PHASE", [name]) => Said::Phase(name),
            ("SENT" | "RECV", [peer, bytes, messages]) => Said::Row {
                sent: kind == "SENT",
                peer: num(peer)?,
                bytes: num(bytes)?,
                messages: num(messages)?,
            },
            ("DONE", [host]) => Said::Done { host: num(host)? },
            ("REJOINS", [n]) => Said::Rejoins(num(n)?),
            _ => return Err(()),
        }))
    }
}

/// Prints the phase marker of [`CuspConfig::announce_phases`]. Stdout is
/// line-buffered, so the driver sees it before any phase work begins — the
/// anchor a kill is timed against.
pub(crate) fn announce_phase(name: &str) {
    println!("{}", Said::Phase(name));
}

/// The driver's one line to a fresh worker: every host's listen address.
fn peers_line(addrs: &[String]) -> String {
    format!("PEERS {}\n", addrs.join(","))
}

fn parse_peers(line: &str) -> Option<Vec<String>> {
    Some(line.trim().strip_prefix("PEERS ")?.split(',').map(str::to_string).collect())
}

/// The driver's line to the victim of [`KillMode::Torn`].
const TEAR: &str = "TEAR";

/// The driver's line to every worker once host `host` finished: it is never
/// respawned, so its peers take this in place of a FIN (and a last barrier
/// arrival) that may have died with it.
fn finished_line(host: usize) -> String {
    format!("FINISHED {host}\n")
}

fn parse_finished(line: &str) -> Option<usize> {
    line.trim().strip_prefix("FINISHED ")?.parse().ok()
}

// ---------------------------------------------------------------------------
// The worker
// ---------------------------------------------------------------------------

/// One worker process of a cross-process run.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// What it shares with its peers.
    pub run: RunSpec,
    /// This worker's host id, `< run.hosts`.
    pub host: usize,
    /// The launch's handshake nonce: a worker of another run fails the
    /// handshake instead of corrupting the mesh.
    pub nonce: u64,
    /// 0 for a first spawn; the supervisor bumps it per respawn.
    pub incarnation: u32,
    /// A respawn pins the address its dead incarnation announced, so the
    /// survivors' peer list stays valid; a first spawn binds an ephemeral
    /// loopback port.
    pub listen: Option<String>,
    /// Re-admit respawned peers ([`TcpOptions::rejoin`]).
    pub rejoin: bool,
}

impl WorkerSpec {
    /// The `cusp-part worker` command line that parses back to this spec.
    pub fn args(&self) -> Vec<OsString> {
        let (run, cfg) = (&self.run, &self.run.cfg);
        let s = |v: &dyn ToString| Some(OsString::from(v.to_string()));
        let valued = [
            ("--host-id", s(&self.host)),
            ("--hosts", s(&run.hosts)),
            ("--graph", Some(run.graph.clone().into())),
            ("--policy", s(&run.policy.name())),
            ("--nonce", s(&self.nonce)),
            ("--out-dir", Some(run.out_dir.clone().into())),
            ("--incarnation", s(&self.incarnation)),
            ("--listen", self.listen.clone().map(Into::into)),
            ("--heartbeat-ms", run.heartbeat.and_then(|d| s(&d.as_millis()))),
            ("--sync-rounds", s(&cfg.sync_rounds)),
            ("--buffer", s(&cfg.buffer_threshold)),
            ("--threads", s(&cfg.threads_per_host)),
            ("--chunk-edges", cfg.chunk_edges.and_then(|e| s(&e))),
            ("--checkpoint-dir", cfg.checkpoint_dir.clone().map(Into::into)),
        ];
        let switches = [
            ("--csc", cfg.output == OutputFormat::Csc),
            ("--announce-phases", cfg.announce_phases),
            ("--rejoin", self.rejoin),
        ];
        let valued = valued.into_iter().filter_map(|(name, v)| Some([name.into(), v?]));
        let switches = switches.into_iter().filter(|&(_, on)| on).map(|(name, _)| name.into());
        valued.flatten().chain(switches).collect()
    }
}

/// Why [`worker`] gave up.
#[derive(Debug)]
pub enum WorkerError {
    /// A respawn could not bind the address (first field) its peers will
    /// redial. It is spawned only after the dead incarnation was reaped, and
    /// std binds with `SO_REUSEADDR`: there is nothing to wait for.
    Rebind(String, io::Error),
    /// stdin carried this instead of one `PEERS` line naming every host.
    Protocol(String),
    /// The mesh could not be established.
    Establish(TransportError),
    /// A peer was lost for good mid-run.
    Run(PartitionError),
    /// stdio, the listener or the partition file failed.
    Io(io::Error),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Rebind(addr, e) => write!(f, "cannot rebind {addr}: {e}"),
            WorkerError::Protocol(line) => {
                write!(f, "expected 'PEERS a,b,...' naming every host on stdin, got '{line}'")
            }
            WorkerError::Establish(e) => write!(f, "transport establish failed: {e}"),
            WorkerError::Run(e) => write!(f, "{e}"),
            WorkerError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<io::Error> for WorkerError {
    fn from(e: io::Error) -> Self {
        WorkerError::Io(e)
    }
}

/// Runs one host of a cross-process run in this process, speaking the line
/// protocol on its stdin and stdout: the per-host half of [`launch`], and
/// usable under any orchestrator that speaks the same lines.
pub fn worker(spec: &WorkerSpec) -> Result<(), WorkerError> {
    let (run, host) = (&spec.run, spec.host);
    // Bind first and announce the address: the driver gathers every
    // worker's before any dial happens, so there is no port race.
    let listener = match &spec.listen {
        Some(addr) => {
            TcpListener::bind(addr).map_err(|e| WorkerError::Rebind(addr.clone(), e))?
        }
        None => TcpListener::bind("127.0.0.1:0")?,
    };
    println!("{}", Said::Listen(&listener.local_addr()?.to_string()));
    io::stdout().flush()?;

    let mut line = String::new();
    io::stdin().lock().read_line(&mut line)?;
    let peers = match parse_peers(&line) {
        Some(peers) if peers.len() == run.hosts && host < run.hosts => peers,
        _ => return Err(WorkerError::Protocol(line.trim().to_string())),
    };
    let opts = TcpOptions { rejoin: spec.rejoin, ..run.tcp_options() };
    let transport =
        TcpTransport::establish_with(host, listener, &peers, spec.nonce, spec.incarnation, opts)
            .map_err(WorkerError::Establish)?;

    // Kill mode `torn`: when the driver says TEAR, leave half a frame on
    // the wire and die mid-write. FINISHED is the driver's word that a peer
    // is done; the reader starts with the run, so none arrives too early.
    let (mut saboteur, finished) = (transport.saboteur(), transport.finished());
    let read_driver = move || {
        for line in io::stdin().lock().lines().map_while(Result::ok) {
            if let Some(peer) = parse_finished(&line) {
                finished.peer(peer);
            } else if line.trim() == TEAR {
                if let Some(s) = saboteur.take() {
                    s.tear();
                }
                std::process::abort();
            }
        }
    };

    // Everything this worker owes the driver — the partition file, the
    // rows, DONE — is produced *inside* the run, before the transport FINs.
    // A peer that has seen our FIN may leave its drain and drop its
    // listener, so a FIN must certify that this incarnation never needs the
    // mesh again: a worker taken down after its FIN is already DONE and is
    // not respawned; one taken down before it still finds every survivor
    // draining, and rejoins.
    let source = GraphSource::File(run.graph.clone());
    let out = Cluster::try_run_tcp(transport, ClusterOptions::default(), |comm| {
        std::thread::spawn(read_driver);
        let dg = partition_with_policy(comm, source, run.policy, &run.cfg).dist_graph;
        std::fs::create_dir_all(&run.out_dir)?;
        write_partition(&part_path(&run.out_dir, host), &dg)?;
        // Per-pair totals over all phases (data traffic is over once the
        // last phase's barrier has passed). The driver joins this host's
        // SENT rows with the receivers' RECV rows: the two sides are counted
        // by different processes, so equality is a real end-to-end check.
        let stats = comm.stats().snapshot();
        for peer in (0..run.hosts).filter(|&p| p != host) {
            let (mut sb, mut sm, mut rb, mut rm) = (0, 0, 0, 0);
            for (_, ph) in stats.iter() {
                sb += ph.bytes_between(host, peer);
                sm += ph.messages_between(host, peer);
                rb += ph.recv_bytes_between(peer, host);
                rm += ph.recv_messages_between(peer, host);
            }
            println!("{}", Said::Row { sent: true, peer, bytes: sb, messages: sm });
            println!("{}", Said::Row { sent: false, peer, bytes: rb, messages: rm });
        }
        println!("{}", Said::Done { host });
        io::Result::Ok(())
    })
    .map_err(|e| WorkerError::Run(e.into()))?;
    out.result?;
    // Counted after the drain, so peers re-admitted during it show.
    println!("{}", Said::Rejoins(out.rejoins));
    Ok(())
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// One cross-process run, as [`launch`] takes it.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// The program started once per host as `<worker> worker` +
    /// [`WorkerSpec::args`]; `cusp-part launch` names itself.
    pub worker: PathBuf,
    /// What the workers share; they run it under
    /// [`deterministic_for_comparison`].
    pub run: RunSpec,
    /// Chaos supervision: a [`KillPlan`] seed, and whether the kill re-fires
    /// on every incarnation (which exhausts the restart budget).
    pub kill: Option<(u64, bool)>,
    /// Respawns per host before the run is lost.
    pub max_restarts: u32,
}

/// What a completed [`launch`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchReport {
    /// [`part_fingerprint`] of the partition each worker wrote, by host.
    pub part_fingerprints: Vec<u64>,
    /// `sent[s][d]`: `(bytes, messages)` host `s` counted toward host `d`.
    pub sent: Vec<Vec<(u64, u64)>>,
    /// `recv[d][s]`: `(bytes, messages)` host `d` counted from host `s`.
    pub recv: Vec<Vec<(u64, u64)>>,
    /// Every `sent[s][d]` equals its `recv[d][s]`.
    pub conserved: bool,
    /// Bytes over TCP, as the senders counted them.
    pub wire_bytes: u64,
    /// Messages over TCP, as the senders counted them.
    pub wire_messages: u64,
    /// What the kill seed decided, if there was one.
    pub kill: Option<KillDecision>,
    /// Kills the plan fired.
    pub kills: u32,
    /// Workers started again after a death.
    pub respawns: u32,
    /// Rejoin handshakes the survivors accepted, summed over workers.
    pub rejoins: u64,
}

/// Why [`launch`] produced no report. Every worker has been killed and
/// reaped by the time one of these is returned. `host` is the worker an
/// error is about and `stderr_tail` the last lines that worker wrote to
/// stderr, so that a panic message is not lost inside its log file.
#[allow(missing_docs)]
#[derive(Debug)]
pub enum LaunchError {
    /// A worker kept dying until its `restarts` ran out.
    HostLost { host: usize, restarts: u32, stderr_tail: String },
    /// A worker died of something a respawn cannot repair: no kill plan
    /// was armed, or it never got as far as listening.
    WorkerFailed { host: usize, status: ExitStatus, stderr_tail: String },
    /// No worker said anything for [`WATCHDOG`]. A safety net, not a
    /// decision: `(host, state, last phase its running incarnation
    /// announced, stderr_tail)` per unfinished host.
    Stalled { hosts: Vec<(usize, HostState, Option<String>, String)> },
    /// A worker's stdout broke the line protocol with `line`: malformed, a
    /// row about a peer that does not exist, a respawn at another address.
    Protocol { host: usize, line: String },
    /// The driver's own I/O failed: spawning or reaping a worker, its log,
    /// a partition file, the narration.
    Io(io::Error),
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let last_words = |f: &mut fmt::Formatter<'_>, host: &usize, tail: &str| match tail {
            "" => Ok(()),
            tail => write!(f, "\n--- worker {host} stderr tail:\n{tail}"),
        };
        match self {
            LaunchError::HostLost { host, restarts, stderr_tail } => {
                write!(f, "host {host} lost: exhausted {restarts} restart attempt(s)")?;
                last_words(f, host, stderr_tail)
            }
            LaunchError::WorkerFailed { host, status, stderr_tail } => {
                write!(f, "worker {host} failed ({status})")?;
                last_words(f, host, stderr_tail)
            }
            LaunchError::Stalled { hosts } => {
                write!(f, "no worker progress within the watchdog window")?;
                hosts.iter().try_for_each(|(host, state, phase, stderr_tail)| {
                    let phase = phase.as_ref().map(|p| format!(", last phase {p}"));
                    write!(f, "\n  host {host}: {state}{}", phase.unwrap_or_default())?;
                    last_words(f, host, stderr_tail)
                })
            }
            LaunchError::Protocol { host, line } => {
                write!(f, "worker {host} broke the line protocol: '{line}'")
            }
            LaunchError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<io::Error> for LaunchError {
    fn from(e: io::Error) -> Self {
        LaunchError::Io(e)
    }
}

/// One worker process under supervision: the OS handles the driver acts
/// through. Where the host stands is the [`Supervisor`]'s to know.
struct Worker {
    child: Child,
    /// Kept open: the torn kill mode speaks [`TEAR`] over it.
    stdin: Option<ChildStdin>,
    addr: Option<String>,
    /// The running incarnation said DONE.
    done: bool,
    /// The last phase the running incarnation announced, for the watchdog.
    last_phase: Option<String>,
}

/// Kills and reaps every worker on drop, so no way out of [`launch`] leaks
/// a process.
struct Fleet(Vec<Worker>);

impl Drop for Fleet {
    fn drop(&mut self) {
        for w in &mut self.0 {
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
    }
}

/// Base delay before a respawn; doubles per attempt.
const RESTART_BACKOFF: Duration = Duration::from_millis(100);

/// [`launch`] gives up after this long without a word from any worker.
pub const WATCHDOG: Duration = Duration::from_secs(180);

fn stderr_log(out_dir: &Path, host: usize) -> PathBuf {
    out_dir.join(format!("worker-{host}.stderr.log"))
}

/// The last lines worker `host` wrote to stderr; all its incarnations
/// append to one log.
fn stderr_tail(out_dir: &Path, host: usize) -> String {
    let text = std::fs::read_to_string(stderr_log(out_dir, host)).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(15)..].join("\n")
}

/// Runs `spec` across real OS processes and reports what happened.
/// `narration` receives the run's progress as it happens — the seeded kill
/// plan, each kill and respawn, each conservation violation — one line
/// each; the verdicts are the report's.
///
/// This is the process driver of the one [`Supervisor`]. It detects —
/// stdout lines, and a death once the dead child's stdout is at EOF, so
/// that every line the child printed has been handled before it is judged
/// — and it acts; whether a death is a respawn, a lost run or the end,
/// when the kill plan fires and who is told the peer list is decided by
/// [`Supervisor::step`]. The accounting rows are not the supervisor's
/// business and are collected here.
pub fn launch(spec: &LaunchSpec, narration: &mut dyn Write) -> Result<LaunchReport, LaunchError> {
    let (run, hosts) = (&spec.run, spec.run.hosts);
    if hosts == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "launch needs a host").into());
    }
    std::fs::create_dir_all(&run.out_dir)?;
    let kill = spec.kill.map(|(seed, repeat)| {
        (seed, KillPlan { seed, hosts }.decide(&PhaseTimes::NAMES), repeat)
    });
    if let Some((seed, d, _)) = kill {
        let (mode, max) = (d.mode.as_str(), spec.max_restarts);
        writeln!(
            narration,
            "kill plan: seed {seed} -> host {}, {mode} @ {} (max {max} restart(s))",
            d.victim, d.phase
        )?;
    }
    // A wedged victim stays stopped past the workers' silence timeout when
    // that is test-short, but at most 2.5 s: under the default 10 s the
    // hard kill's EOF is what the survivors detect.
    let wedge_hold =
        run.tcp_options().peer_timeout().min(Duration::from_secs(2)) + Duration::from_millis(500);
    let recovery = RecoveryOptions {
        heartbeat_timeout: wedge_hold,
        max_restarts: spec.max_restarts,
        restart_backoff: RESTART_BACKOFF,
    };
    let mut supervisor = Supervisor::new(hosts, recovery, kill.map(|(_, d, repeat)| (d, repeat)));

    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
        ^ ((std::process::id() as u64) << 32);
    let mut base =
        WorkerSpec { run: run.clone(), host: 0, nonce, incarnation: 0, listen: None, rejoin: false };
    base.run.cfg = deterministic_for_comparison(base.run.cfg);
    // Recovery needs survivors that admit respawns and the victim's phase
    // markers; both are inert otherwise.
    (base.rejoin, base.run.cfg.announce_phases) = (kill.is_some(), kill.is_some());

    // Each worker's stdout reader forwards `(host, incarnation, line)` and,
    // last, `None` for EOF.
    let (tx, rx) = mpsc::channel::<(usize, u32, Option<String>)>();
    let spawn = |host: usize, incarnation: u32, listen: Option<String>| -> io::Result<Child> {
        let w = WorkerSpec { host, incarnation, listen, ..base.clone() };
        let log = stderr_log(&run.out_dir, host);
        let log = std::fs::File::options().create(true).append(true).open(log)?;
        let mut child = Command::new(&spec.worker)
            .arg("worker")
            .args(w.args())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()?;
        let stdout = child.stdout.take().expect("worker stdout piped");
        let tx = tx.clone();
        std::thread::spawn(move || {
            let lines = io::BufReader::new(stdout).lines().map_while(Result::ok);
            for line in lines.map(Some).chain([None]) {
                if tx.send((host, incarnation, line)).is_err() {
                    return;
                }
            }
        });
        Ok(child)
    };

    let mut fleet = Fleet(Vec::with_capacity(hosts));
    for host in 0..hosts {
        let _ = std::fs::remove_file(stderr_log(&run.out_dir, host));
        let mut child = spawn(host, 0, None)?;
        let stdin = child.stdin.take();
        fleet.0.push(Worker { child, stdin, addr: None, done: false, last_phase: None });
    }

    let mut sent = vec![vec![(0u64, 0u64); hosts]; hosts];
    let mut recv = sent.clone();
    let (mut rejoins, mut respawns) = (0u64, 0u32);
    let clock = Instant::now();
    let mut last_progress = clock.elapsed();
    'supervise: loop {
        // The one place the driver blocks: until a worker says something,
        // the supervisor's next deadline, or the watchdog.
        let deadline = supervisor.next_deadline().map(Duration::from_millis);
        let wake = deadline.unwrap_or(Duration::MAX).min(last_progress + WATCHDOG);
        let msg = rx.recv_timeout(wake.saturating_sub(clock.elapsed())).ok();
        // The child reaped this turn and how it ended, for what follows.
        let mut reaped = None;
        let event = match &msg {
            None if clock.elapsed() >= last_progress + WATCHDOG => {
                let unfinished = (0..hosts).filter(|&h| supervisor.state(h) != HostState::Done);
                let stalled = |h: usize| {
                    let w = &fleet.0[h];
                    (h, supervisor.state(h), w.last_phase.clone(), stderr_tail(&run.out_dir, h))
                };
                let hosts = unfinished.map(stalled).collect();
                return Err(LaunchError::Stalled { hosts });
            }
            None => Event::Tick,
            &Some((host, incarnation, Some(ref line))) => {
                last_progress = clock.elapsed();
                let w = &mut fleet.0[host];
                let broken = || LaunchError::Protocol { host, line: line.clone() };
                match Said::parse(line).map_err(|()| broken())? {
                    Some(Said::Listen(addr)) => {
                        // A respawn must come back where its peers redial it.
                        if w.addr.as_deref().is_some_and(|a| a != addr) {
                            return Err(broken());
                        }
                        w.addr = Some(addr.to_string());
                        Event::Listening { host, incarnation }
                    }
                    Some(Said::Phase(phase)) => {
                        w.last_phase = Some(phase.to_string());
                        Event::PhaseReached { host, incarnation, phase }
                    }
                    Some(Said::Row { sent: is_sent, peer, bytes, messages }) => {
                        let row = if is_sent { &mut sent[host] } else { &mut recv[host] };
                        let cell = row.get_mut(peer).filter(|_| peer != host);
                        *cell.ok_or_else(broken)? = (bytes, messages);
                        continue;
                    }
                    Some(Said::Done { .. }) => {
                        w.done = true;
                        continue;
                    }
                    Some(Said::Rejoins(n)) => {
                        rejoins += n;
                        continue;
                    }
                    None => continue,
                }
            }
            &Some((host, incarnation, None)) => {
                last_progress = clock.elapsed();
                let w = &mut fleet.0[host];
                // Nothing more can come from it; the kill only makes sure
                // the reap cannot block.
                let _ = w.child.kill();
                let status = w.child.wait()?;
                // Under a kill plan any death past the listen line can be
                // repaired by a respawn at the same address.
                let how = if w.done {
                    Exit::Finished
                } else if kill.is_some() && w.addr.is_some() {
                    Exit::Crashed
                } else {
                    Exit::Failed
                };
                reaped = Some((host, how, status));
                Event::Exited { host, incarnation, how }
            }
        };
        let actions = supervisor.step(clock.elapsed().as_millis() as u64, event);
        if let Some((host, how, status)) = reaped {
            if how == Exit::Finished {
                // Its FIN may have died with it, and nothing else would end
                // its peers' wait for one. A failed write is a dead worker.
                for stdin in fleet.0.iter_mut().filter_map(|w| w.stdin.as_mut()) {
                    let _ = stdin.write_all(finished_line(host).as_bytes());
                    let _ = stdin.flush();
                }
            }
            if let HostState::Backoff { incarnation, .. } = supervisor.state(host) {
                let backoff = recovery.backoff(incarnation);
                writeln!(
                    narration,
                    "host {host} died ({status}); respawning incarnation {incarnation} in {backoff:?}"
                )?;
            }
        }
        for action in actions {
            match action {
                Action::TellPeers { host } => {
                    let addr = |w: &Worker| w.addr.clone().expect("told once every host listens");
                    let addrs: Vec<String> = fleet.0.iter().map(addr).collect();
                    // The handle stays open afterwards (TEAR needs it). A
                    // failed write means the worker is dead; its stdout EOF
                    // says so.
                    if let Some(stdin) = fleet.0[host].stdin.as_mut() {
                        let _ = stdin.write_all(peers_line(&addrs).as_bytes());
                        let _ = stdin.flush();
                    }
                }
                Action::Kill { host, mode } => {
                    let state = supervisor.state(host);
                    writeln!(narration, "killing host {host} ({}): {state}", mode.as_str())?;
                    let w = &mut fleet.0[host];
                    // Each softer method falls back to SIGKILL.
                    let soft = match mode {
                        KillMode::Kill => false,
                        KillMode::Torn => w.stdin.as_mut().is_some_and(|s| {
                            writeln!(s, "{TEAR}").and_then(|()| s.flush()).is_ok()
                        }),
                        // The hard kill follows when the supervisor says so
                        // (it lands on stopped processes too).
                        KillMode::Wedge => Command::new("kill")
                            .args(["-STOP", &w.child.id().to_string()])
                            .status()
                            .is_ok_and(|s| s.success()),
                    };
                    if !soft {
                        let _ = w.child.kill();
                    }
                }
                // Same address, bumped incarnation.
                Action::Spawn { host, incarnation } => {
                    let addr = fleet.0[host].addr.clone().expect("a respawn has listened");
                    let mut child = spawn(host, incarnation, Some(addr))?;
                    let w = &mut fleet.0[host];
                    w.stdin = child.stdin.take();
                    (w.child, w.done, w.last_phase) = (child, false, None);
                    respawns += 1;
                }
                Action::Finish => break 'supervise,
                Action::Fail(ClusterError::HostLost { host, restarts }) => {
                    let stderr_tail = stderr_tail(&run.out_dir, host);
                    return Err(match reaped.expect("only a death loses a host") {
                        (_, Exit::Crashed, _) => {
                            LaunchError::HostLost { host, restarts, stderr_tail }
                        }
                        (_, _, status) => LaunchError::WorkerFailed { host, status, stderr_tail },
                    });
                }
            }
        }
    }

    let mut conserved = true;
    for s in 0..hosts {
        for d in (0..hosts).filter(|&d| d != s) {
            let (out, back) = (sent[s][d], recv[d][s]);
            if out != back {
                conserved = false;
                writeln!(narration, "conservation violated {s}->{d}: sent {out:?} != received {back:?}")?;
            }
        }
    }
    let part_fingerprints = (0..hosts)
        .map(|h| read_partition(&part_path(&run.out_dir, h)).map(|p| part_fingerprint(&p)))
        .collect::<io::Result<_>>()?;
    Ok(LaunchReport {
        part_fingerprints,
        conserved,
        wire_bytes: sent.iter().flatten().map(|&(bytes, _)| bytes).sum(),
        wire_messages: sent.iter().flatten().map(|&(_, messages)| messages).sum(),
        sent,
        recv,
        kill: kill.map(|(_, d, _)| d),
        kills: supervisor.kills(),
        respawns,
        rejoins,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_line_parses_back_to_what_was_said() {
        let said = [
            Said::Listen("127.0.0.1:4100"),
            Said::Phase("edge_assign"),
            Said::Row { sent: true, peer: 3, bytes: 1 << 40, messages: 17 },
            Said::Row { sent: false, peer: 0, bytes: 0, messages: 0 },
            Said::Done { host: 2 },
            Said::Rejoins(1),
        ];
        for line in said {
            assert_eq!(Said::parse(&line.to_string()), Ok(Some(line)));
        }
        let addrs = ["127.0.0.1:1", "127.0.0.1:2"].map(String::from).to_vec();
        assert_eq!(parse_peers(&peers_line(&addrs)), Some(addrs));
        assert_eq!(parse_peers("HELLO"), None);
        assert_eq!(parse_finished(&finished_line(3)), Some(3));
        assert_eq!(parse_finished(TEAR), None);
    }

    #[test]
    fn a_line_that_claims_the_protocol_must_parse() {
        // Not ours: ignored, whatever it holds.
        assert_eq!(Said::parse("read 0.2s | master 0.1s"), Ok(None));
        assert_eq!(Said::parse(""), Ok(None));
        for bad in [
            "CUSP-WORKER-SENT 1 2",
            "CUSP-WORKER-SENT one 2 3",
            "CUSP-WORKER-RECV 1 -2 3",
            "CUSP-WORKER-LISTEN",
            "CUSP-WORKER-FROBNICATE 1",
        ] {
            assert_eq!(Said::parse(bad), Err(()), "{bad}");
        }
    }
}
