//! Exhaustive schedule explorer for [`cusp_net::recovery::Supervisor`].
//!
//! The supervisor is pure, so this file stands in for everything its two
//! drivers touch — processes, threads, pipes, signals, the clock — with a
//! small fake world, and the search it shares with `link_schedules.rs`
//! (`explore`) delivers what that world says in every order it can:
//!
//! * `launch`'s worker processes. Each prints its listen line, waits for
//!   the peer list, announces each phase (only a kill plan asks for that)
//!   and prints DONE. The driver reads each pipe in order and to its EOF,
//!   which is the `Exited`, before that host is spawned again; lines of
//!   different hosts interleave freely. A plan of each mode, one-shot or
//!   repeating, kills a victim at a phase; its signal lands after any
//!   number of further lines, a wedge stops the victim until the hard kill,
//!   and a stopped process dies at once to that SIGKILL. A worker may also
//!   die on its own, once per schedule: `Failed` when no plan is armed or
//!   its host never listened, `Crashed` otherwise, as `launch` classifies.
//! * the thread fabric's host threads: no plan, no listen lines, and each
//!   incarnation finishes, crashes or panics (`Exit::Failed`) at any point.
//!
//! Time moves only by a `Tick` at `next_deadline()`, which must do
//! something; a tick one millisecond earlier, and every event of a host's
//! latest dead incarnation, may arrive between any two steps and must
//! change nothing.
//! Every schedule must end in `Finish` or `Fail`, after which nothing moves
//! the supervisor. A failure prints the moves that replay it.

mod explore;

use std::time::Duration;

use cusp_net::recovery::{Action, Event, Exit, HostState, Supervisor};
use cusp_net::{ClusterError, KillDecision, KillMode, RecoveryOptions};
use explore::{replay, Search, World};

const PHASES: [&str; 2] = ["edge_assign", "construct"];
/// The wedge's hold is two first backoffs, so a respawn and a hard kill can
/// fall due at one instant.
const OPTS: RecoveryOptions = RecoveryOptions {
    heartbeat_timeout: Duration::from_millis(20),
    max_restarts: 0,
    restart_backoff: Duration::from_millis(10),
};

/// How an incarnation ended: [`Exit`], in a form the world can hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum How {
    Finished,
    Crashed,
    Failed,
}

impl How {
    fn exit(self) -> Exit {
        match self {
            How::Finished => Exit::Finished,
            How::Crashed => Exit::Crashed,
            How::Failed => Exit::Failed,
        }
    }
}

/// What a driver reports about an incarnation.
#[derive(Clone, Copy, PartialEq)]
enum Said {
    Listen,
    Phase(usize),
    Exit(How),
}

const SAIDS: [Said; 6] = [
    Said::Listen,
    Said::Phase(0),
    Said::Phase(1),
    Said::Exit(How::Finished),
    Said::Exit(How::Crashed),
    Said::Exit(How::Failed),
];

impl Said {
    fn event(self, host: usize, incarnation: u32) -> Event<'static> {
        match self {
            Said::Listen => Event::Listening { host, incarnation },
            Said::Phase(i) => Event::PhaseReached { host, incarnation, phase: PHASES[i] },
            Said::Exit(how) => Event::Exited { host, incarnation, how: how.exit() },
        }
    }
}

/// One worker process or host thread.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Proc {
    /// Lines printed: the listen line, then one per phase.
    said: usize,
    /// Lines the driver read.
    read: usize,
    /// It holds the peer list.
    told: bool,
    /// A signal on its way.
    signal: Option<KillMode>,
    /// SIGSTOPped: silent, pipe open, until a SIGKILL.
    stopped: bool,
    /// The plan's kill was sent to it.
    doomed: bool,
    /// It is gone, and how its driver reports it once the pipe is read.
    ended: Option<How>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Config {
    hosts: usize,
    /// `launch`'s worker processes, or the thread fabric's host threads.
    processes: bool,
    kill: Option<(KillDecision, bool)>,
    max_restarts: u32,
    /// Deaths of their own the worker processes may die.
    faults: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Outcome {
    Finished,
    Lost { host: usize, restarts: u32 },
}

/// One thing the world does; a schedule is a list of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    /// The worker prints its next line: after the last one, DONE, and it
    /// exits.
    Say(usize),
    /// The signal sent to the worker lands.
    Land(usize),
    /// The driver reads the worker's next line, or its EOF once it is gone.
    Read(usize),
    /// The worker dies on its own.
    Die(usize),
    /// The host thread ends; its driver hears at once.
    End(usize, How),
    /// Time reaches `next_deadline()`.
    Tick,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SupervisorWorld {
    cfg: Config,
    sup: Supervisor,
    now_ms: u64,
    /// Each host's latest incarnation, and its process or thread until the
    /// driver reaps it.
    procs: Vec<(u32, Option<Proc>)>,
    /// Hosts whose listen address the driver knows (it survives restarts).
    addr: Vec<bool>,
    /// Deaths of their own the workers may still die.
    faults: u32,
    /// The incarnation a wedge stopped, until its hard kill or its exit.
    wedged: Option<(usize, u32)>,
    plan_kills: u32,
    /// A worker the plan's kill was sent to finished first.
    outran: bool,
    outcome: Option<Outcome>,
}

impl SupervisorWorld {
    fn proc(&mut self, host: usize) -> &mut Proc {
        self.procs[host].1.as_mut().expect("a live worker")
    }

    fn running(&self, host: usize) -> bool {
        matches!(self.sup.state(host), HostState::Running { .. })
    }

    /// Lines a worker prints before DONE.
    fn lines(&self) -> usize {
        1 + if self.cfg.kill.is_some() { PHASES.len() } else { 0 }
    }

    /// How `launch` reports a worker that died before DONE: under a kill
    /// plan, one whose host has listened can be respawned at its address.
    fn death(&self, host: usize) -> How {
        let listened = self.addr[host] || self.procs[host].1.as_ref().is_some_and(|p| p.said > 0);
        if self.cfg.kill.is_some() && listened {
            How::Crashed
        } else {
            How::Failed
        }
    }

    /// Delivers an event that must change nothing.
    fn inert(&self, event: Event<'_>, now_ms: u64) {
        let mut sup = self.sup.clone();
        let actions = sup.step(now_ms, event);
        assert!(actions.is_empty(), "{event:?} at {now_ms} ms caused {actions:?}");
        assert!(sup == self.sup, "{event:?} at {now_ms} ms moved the supervisor");
    }

    /// Steps the supervisor and performs what it says, as the drivers would,
    /// checking what a driver cannot: it would not notice a second process
    /// for one host, or a kill of the wrong one.
    fn step(&mut self, event: Event<'_>) -> Vec<Action> {
        let actions = self.sup.step(self.now_ms, event);
        for (i, &action) in actions.iter().enumerate() {
            assert!(self.outcome.is_none(), "{action:?} after the run was over");
            match action {
                Action::Spawn { host, incarnation } => {
                    let listened = self.addr[host] || !self.cfg.processes;
                    assert!(listened, "host {host} respawned before it listened");
                    let (latest, p) = &mut self.procs[host];
                    assert!(p.is_none(), "host {host} spawned before {latest} was reaped");
                    assert_eq!(incarnation, *latest + 1, "host {host} respawned out of order");
                    let max = self.cfg.max_restarts;
                    assert!(incarnation <= max, "host {host} spawned past its budget of {max}");
                    (*latest, *p) = (incarnation, Some(Proc::default()));
                }
                Action::Kill { host, mode } => self.kill(host, mode, event, &actions[i + 1..]),
                Action::TellPeers { host } => {
                    assert!(self.cfg.processes, "host thread {host} was told its peers");
                    let all = self.addr.iter().all(|&a| a);
                    assert!(all, "host {host} told before every host listened");
                    assert!(self.running(host), "host {host} told while {}", self.sup.state(host));
                    let p = self.proc(host);
                    assert!(p.read > 0, "host {host} told before its listen line was read");
                    assert!(!p.told, "host {host} told twice");
                    p.told = true;
                }
                Action::Finish => {
                    let done = (0..self.cfg.hosts).all(|h| self.sup.state(h) == HostState::Done);
                    assert!(done, "Finish before every host is done");
                    self.outcome = Some(Outcome::Finished);
                }
                Action::Fail(ClusterError::HostLost { host, restarts }) => {
                    assert_eq!(i + 1, actions.len(), "{action:?} is not the last action");
                    let Event::Exited { host: h, incarnation, how } = event else {
                        panic!("{event:?} lost host {host}")
                    };
                    assert_eq!((host, restarts), (h, incarnation), "{event:?} lost the wrong host");
                    let spent = how == Exit::Failed || restarts == self.cfg.max_restarts;
                    assert!(spent, "host {host} lost with restarts left");
                    assert_eq!(self.sup.state(host), HostState::Lost);
                    let killed = actions[..i].iter().filter_map(|a| match *a {
                        Action::Kill { host, mode: KillMode::Kill } => Some(host),
                        _ => None,
                    });
                    let survivors = (0..self.cfg.hosts).filter(|&h| self.running(h));
                    assert!(killed.eq(survivors), "a survivor outlives {action:?}");
                    self.outcome = Some(Outcome::Lost { host, restarts });
                }
            }
        }
        self.check_inert();
        actions
    }

    /// What may arrive between any two steps must change nothing: a tick
    /// one millisecond before the next deadline, and every report about a
    /// host's latest dead incarnation. It depends on nothing but the
    /// supervisor and the clock, which change only in a step, so it is
    /// checked after each.
    fn check_inert(&self) {
        if let Some(at) = self.sup.next_deadline().filter(|&at| at > self.now_ms) {
            self.inert(Event::Tick, at - 1);
        }
        for (host, &(latest, _)) in self.procs.iter().enumerate() {
            let dead = match self.sup.state(host) {
                HostState::Running { incarnation } => incarnation.checked_sub(1),
                _ => Some(latest),
            };
            if let Some(incarnation) = dead {
                SAIDS.iter().for_each(|s| self.inert(s.event(host, incarnation), self.now_ms));
            }
        }
    }

    /// Checks a `Kill` against what caused it and sends the signal.
    fn kill(&mut self, host: usize, mode: KillMode, event: Event<'_>, rest: &[Action]) {
        let HostState::Running { incarnation } = self.sup.state(host) else {
            panic!("host {host} killed while {}", self.sup.state(host))
        };
        match event {
            // A survivor of a lost run.
            _ if matches!(rest.last(), Some(Action::Fail(_))) => {
                assert_eq!(mode, KillMode::Kill);
            }
            Event::PhaseReached { host: h, phase, .. } => {
                let (d, repeat) = self.cfg.kill.expect("a kill plan");
                let planned = (h, phase, mode) == (d.victim, d.phase, d.mode);
                assert!(planned, "{event:?} killed host {host} with {mode:?}");
                self.plan_kills += 1;
                assert!(repeat || self.plan_kills == 1, "a one-shot plan fired again");
                assert_eq!(self.sup.kills(), self.plan_kills);
                if mode == KillMode::Wedge {
                    self.wedged = Some((host, incarnation));
                }
                let p = self.proc(host);
                p.doomed = true;
                self.outran |= p.ended == Some(How::Finished);
            }
            Event::Tick => {
                assert_eq!(mode, KillMode::Kill, "a tick's kill is the hard kill");
                let wedged = self.wedged.take();
                let why = "a hard kill of a host no wedge holds";
                assert_eq!(wedged, Some((host, incarnation)), "{why}");
            }
            _ => panic!("{event:?} killed host {host}"),
        }
        let how = self.death(host);
        if let Some(p) = self.procs[host].1.as_mut().filter(|p| p.ended.is_none()) {
            if p.stopped && mode == KillMode::Kill {
                p.ended = Some(how);
            } else {
                p.signal = Some(mode);
            }
        }
    }
}

impl World for SupervisorWorld {
    type Config = Config;
    type Move = Move;

    fn new(cfg: Config) -> Self {
        let opts = RecoveryOptions { max_restarts: cfg.max_restarts, ..OPTS };
        SupervisorWorld {
            cfg,
            sup: Supervisor::new(cfg.hosts, opts, cfg.kill),
            now_ms: 0,
            procs: vec![(0, Some(Proc::default())); cfg.hosts],
            addr: vec![false; cfg.hosts],
            faults: cfg.faults,
            wedged: None,
            plan_kills: 0,
            outran: false,
            outcome: None,
        }
    }

    fn config(&self) -> Config {
        self.cfg
    }

    fn moves(&self) -> Vec<Move> {
        use Move::*;
        if self.outcome.is_some() {
            return Vec::new();
        }
        let mut moves = Vec::new();
        let deadline = self.sup.next_deadline();
        moves.extend(deadline.map(|_| Tick));
        for (host, (_, p)) in self.procs.iter().enumerate() {
            let Some(p) = p else { continue };
            if !self.cfg.processes {
                moves.extend([How::Finished, How::Crashed, How::Failed].map(|how| End(host, how)));
                continue;
            }
            let alive = p.ended.is_none();
            let on = [
                (Say(host), alive && !p.stopped && (p.said == 0 || p.told)),
                (Land(host), alive && p.signal.is_some()),
                (Read(host), p.read < p.said || !alive),
                (Die(host), alive && self.faults > 0),
            ];
            moves.extend(on.into_iter().filter_map(|(m, on)| on.then_some(m)));
        }
        moves
    }

    fn perform(&mut self, m: Move) {
        match m {
            Move::Say(host) => {
                let last = self.lines();
                let p = self.proc(host);
                if p.said == last {
                    p.ended = Some(How::Finished);
                    self.outran |= p.doomed;
                } else {
                    p.said += 1;
                }
            }
            Move::Land(host) => {
                let how = self.death(host);
                let p = self.proc(host);
                match p.signal.take().expect("a signal") {
                    KillMode::Wedge => p.stopped = true,
                    KillMode::Kill | KillMode::Torn => p.ended = Some(how),
                }
            }
            Move::Read(host) => {
                let (incarnation, slot) = &mut self.procs[host];
                let incarnation = *incarnation;
                let p = slot.as_mut().expect("a worker to read");
                if p.read < p.said {
                    p.read += 1;
                    let said = match p.read {
                        1 => Said::Listen,
                        n => Said::Phase(n - 2),
                    };
                    self.addr[host] |= said == Said::Listen;
                    self.step(said.event(host, incarnation));
                } else {
                    let how = p.ended.expect("EOF of a live worker");
                    *slot = None;
                    if self.wedged == Some((host, incarnation)) {
                        self.wedged = None;
                    }
                    self.step(Said::Exit(how).event(host, incarnation));
                }
            }
            Move::Die(host) => {
                self.faults -= 1;
                let how = self.death(host);
                self.proc(host).ended = Some(how);
            }
            Move::End(host, how) => {
                let (incarnation, slot) = &mut self.procs[host];
                let incarnation = *incarnation;
                *slot = None;
                self.step(Said::Exit(how).event(host, incarnation));
            }
            Move::Tick => {
                self.now_ms = self.now_ms.max(self.sup.next_deadline().expect("a deadline"));
                let actions = self.step(Event::Tick);
                assert!(!actions.is_empty(), "a tick at next_deadline() did nothing");
            }
        }
    }

    /// Checks a schedule that ended: the run is over, nothing still in
    /// flight moves the supervisor, and the outcome is the one the plan
    /// and the faults allow.
    fn check_end(&mut self) {
        let outcome = self.outcome.unwrap_or_else(|| panic!("stuck: {self:#?}"));
        assert_eq!(self.sup.next_deadline(), None, "a deadline outlives the run");
        let later = self.now_ms + 1_000_000;
        for (host, &(latest, _)) in self.procs.iter().enumerate() {
            for incarnation in 0..=latest {
                SAIDS.iter().for_each(|said| self.inert(said.event(host, incarnation), later));
            }
        }
        self.inert(Event::Tick, later);
        // Every thread's death is the world's own, as is a fault.
        let faulted = !self.cfg.processes || self.faults < self.cfg.faults;
        match (outcome, self.cfg.kill) {
            (Outcome::Finished, kill) => {
                assert!(self.procs.iter().all(|(_, p)| p.is_none()), "Finish with a live worker");
                match kill {
                    Some((_, true)) => assert!(self.outran, "a repeating kill ended in Finish"),
                    Some((_, false)) => {
                        assert_eq!(self.plan_kills, 1, "a one-shot plan fires exactly once");
                        let budget = self.cfg.max_restarts > 0;
                        assert!(budget || self.outran, "recovered without a budget");
                    }
                    None => {}
                }
            }
            (Outcome::Lost { .. }, _) if faulted => {}
            (Outcome::Lost { .. }, None) => panic!("a run without a plan or a fault was lost"),
            (Outcome::Lost { host, restarts }, Some((d, repeat))) => {
                let max = self.cfg.max_restarts;
                assert_eq!((host, restarts), (d.victim, max), "lost the wrong host");
                assert!(repeat || max == 0, "a one-shot kill lost a host with restarts left");
            }
        }
    }
}

/// The worlds the search starts from, each at restart budgets 0, 1 and 3:
/// the fabric's threads at two and three hosts; two worker processes under
/// no plan or under each plan, with and without a death of their own. Then
/// one at budget 1: three worker processes under a one-shot SIGKILL and a
/// death of their own, where two respawns can be waiting when the last
/// listen line arrives.
fn configs() -> Vec<Config> {
    let mut plans = vec![None];
    for mode in [KillMode::Kill, KillMode::Torn, KillMode::Wedge] {
        for (victim, phase) in [0, 1].into_iter().flat_map(|v| PHASES.map(|p| (v, p))) {
            let d = KillDecision { victim, phase, mode };
            plans.extend([Some((d, false)), Some((d, true))]);
        }
    }
    let mut all = Vec::new();
    for max_restarts in [0, 1, 3] {
        for hosts in [2, 3] {
            all.push(Config { hosts, processes: false, kill: None, max_restarts, faults: 0 });
        }
        for (kill, faults) in plans.iter().flat_map(|&k| [(k, 0), (k, 1)]) {
            all.push(Config { hosts: 2, processes: true, kill, max_restarts, faults });
        }
    }
    let kill = KillDecision { victim: 0, phase: PHASES[0], mode: KillMode::Kill };
    let kill = Some((kill, false));
    all.push(Config { hosts: 3, processes: true, kill, max_restarts: 1, faults: 1 });
    all
}

/// Distinct states the search must visit at least (it visits 212,258): a
/// change that shrinks the world fails here instead of passing on less
/// coverage.
const STATE_FLOOR: usize = 200_000;

#[test]
fn every_schedule_ends_in_finish_or_fail() {
    let mut search = Search::<SupervisorWorld>::new(usize::MAX);
    search.run(configs());
    let (states, ended, depth) = (search.states(), search.ended, search.deepest);
    let deepest = format!("{ended} ended schedules, the longest {depth} moves");
    println!("supervisor explorer: {states} distinct states, {deepest}");
    assert!(states >= STATE_FLOOR, "visited {states} states, below the floor of {STATE_FLOOR}");
}

/// Host 0's first worker listens and dies before the peer list goes out;
/// the last listen line, host 1's, arrives while its respawn runs but has
/// not been heard from. The respawn is told once, on its own listen line,
/// not also with the first round.
#[test]
fn a_respawn_is_told_its_peers_once_on_its_own_listen_line() {
    use Move::*;
    let kill = KillDecision { victim: 0, phase: PHASES[0], mode: KillMode::Kill };
    let kill = Some((kill, false));
    let cfg = Config { hosts: 2, processes: true, kill, max_restarts: 1, faults: 1 };
    let first_round = [Say(0), Read(0), Die(0), Read(0), Tick, Say(0), Say(1), Read(1)];
    let w: SupervisorWorld = replay(cfg, &first_round);
    assert_eq!(w.sup.state(0), HostState::Running { incarnation: 1 });
    let told = |w: &SupervisorWorld, host: usize| w.procs[host].1.as_ref().is_some_and(|p| p.told);
    assert!(told(&w, 1) && !told(&w, 0), "only host 1 has listened in its incarnation");
    let w: SupervisorWorld = replay(cfg, &[&first_round[..], &[Read(0)]].concat());
    assert!(told(&w, 0), "the respawn is told on its own listen line");
}

/// A wedge's STOP lands after the victim printed DONE: its exit, not the
/// hard kill, ends it, and the hard kill is cancelled, not aimed at a host
/// that is done.
#[test]
fn a_wedged_victim_that_finishes_first_gets_no_hard_kill() {
    use Move::*;
    let wedge = KillDecision { victim: 1, phase: PHASES[1], mode: KillMode::Wedge };
    let kill = Some((wedge, false));
    let cfg = Config { hosts: 2, processes: true, kill, max_restarts: 1, faults: 0 };
    let told = [Say(0), Say(1), Read(0), Read(1)];
    // Both phases are read, the second draws the STOP; DONE outruns it.
    let victim = [Say(1), Say(1), Read(1), Read(1), Say(1)];
    let w: SupervisorWorld = replay(cfg, &[&told[..], &victim].concat());
    assert_eq!(w.sup.next_deadline(), Some(20), "the hard kill is due");
    let reaped = [&told[..], &victim, &[Read(1)]].concat();
    let w: SupervisorWorld = replay(cfg, &reaped);
    assert_eq!(w.sup.state(1), HostState::Done);
    assert_eq!(w.sup.next_deadline(), None, "the victim's exit cancels its hard kill");
    let rest = [Say(0), Say(0), Say(0), Read(0), Read(0), Read(0)];
    let mut w: SupervisorWorld = replay(cfg, &[&reaped[..], &rest].concat());
    assert_eq!(w.outcome, Some(Outcome::Finished));
    w.check_end();
}
