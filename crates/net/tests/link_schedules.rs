//! Exhaustive schedule explorer for [`cusp_net::transport::link::PeerLink`].
//!
//! The link is pure, so this file stands in for everything its driver
//! touches with a small fake world — this host's dial, send log, outbound
//! queue, barrier count and FIN; the peer process's successive incarnations,
//! each with its resequencer floor and the connections between it and this
//! host; the reports of the readers, of the silence monitor and of the
//! peer's supervisor — and delivers what that world says in every order it
//! can, from before this host's dial is answered and before the peer's first
//! HELLO. A dial is answered by the incarnation alive when it connects and
//! reported later, after HELLOs, deaths and respawns; an incarnation may die
//! before it dials in; a generation dies with frames still queued toward it;
//! its reader's EOF and the monitor's silence arrive late, after the next
//! generation was admitted; stale and duplicate HELLOs knock; a respawn dies
//! before the redial reaches it; the peer sends a LOST naming a host, valid
//! or not; an incarnation that finished its work is killed before its FIN
//! got out, and only its supervisor's word says so; this host may shut down
//! at any point after `start`. As in `tcp.rs`, where both happen under the
//! peer's lock, an admission is performed and its redial reported before
//! anything else reaches the link, and a dial's queue is installed after its
//! report is stepped. A process takes at most one HELLO from this host, as
//! its own link would. The world keeps the contract `Comm::restore_net`
//! relies on: every phase consumes all its inbound traffic before its
//! barrier, so a respawn resumes from a floor one of its predecessors
//! reached.
//!
//! The search (`explore`, shared with `supervisor_schedules.rs`) visits
//! every distinct (link, world) state up to [`DEPTH`] moves, checks the
//! invariants after each move and the end state of every schedule that
//! ends, and prints a failure as the moves that replay it.

mod explore;

use std::collections::VecDeque;

use cusp_net::transport::link::{resend, Action, Event, LinkState, PeerLink, Resend};
use cusp_net::RejectReason::{self, BadHostId, StaleIncarnation};
use explore::{replay, Search, World};

/// Moves per schedule the search explores.
const DEPTH: usize = 14;
/// The incarnations the peer may go through with rejoin.
const INCARNATIONS: usize = 3;
/// This host, the peer, and the cluster size: host 2 is the one host a LOST
/// may name.
const ME: usize = 0;
const PEER: usize = 1;
const HOSTS: usize = 3;
/// What a LOST names: host 2, this host, the peer itself, no host.
const NAMED: [u64; 4] = [2, 0, 1, 3];

/// What this host's writer puts on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Frame {
    Data(u64),
    Barrier(u64),
    Fin,
}

/// One incarnation of the peer's process; its index in `LinkWorld::procs` is its
/// incarnation number.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Proc {
    alive: bool,
    said_hello: bool,
    /// The generation this host reads its connection as, while it does.
    read_as: Option<u64>,
    /// What this host's reader of that connection has yet to report.
    reports: VecDeque<Event>,
    /// A HELLO of this host reached it, by the dial or a redial.
    reached: bool,
    /// Frames this host queued toward it that it has not read.
    inbox: VecDeque<Frame>,
    /// Its resequencer floor: the next data sequence its application takes.
    floor: u64,
    barrier: u64,
    saw_fin: bool,
    finned: bool,
    /// Killed after it finished its work, before its FIN got out.
    retired: bool,
}

impl Proc {
    fn new(floor: u64) -> Self {
        Proc {
            alive: true,
            said_hello: false,
            read_as: None,
            reports: VecDeque::new(),
            reached: false,
            inbox: VecDeque::new(),
            floor,
            barrier: 0,
            saw_fin: false,
            finned: false,
            retired: false,
        }
    }

    /// Reads one frame, as its resequencer would: a data frame below the
    /// floor is a duplicate, one above it a gap that nothing will fill.
    fn read(&mut self) {
        match self.inbox.pop_front().expect("a frame to read") {
            Frame::Data(seq) => {
                assert!(seq <= self.floor, "data {seq} arrived before {}", self.floor);
                self.floor = self.floor.max(seq + 1);
            }
            Frame::Barrier(n) => self.barrier = self.barrier.max(n),
            Frame::Fin => self.saw_fin = true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Config {
    rejoin: bool,
    /// Data frames and barrier arrivals this host sends before its FIN.
    frames: u64,
    barriers: u64,
    /// This host may tear down uncleanly at any point after `start`.
    crash: bool,
}

/// Where this host's dial stands (`establish`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Dial {
    Idle,
    /// Answered by this incarnation; not reported yet.
    Answered(usize),
    /// Reported and kept: the queue reaches this incarnation.
    Kept(usize),
}

/// One thing the world does; a schedule is a list of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Move {
    /// This host's dial connects to the live incarnation, which answers it.
    Dial,
    /// The dial's answer is reported to the link.
    DialReport,
    /// `start`: readers and the silence monitor stand up.
    Start,
    Ship,
    Arrive,
    Finish,
    /// The live incarnation reads a frame.
    Read,
    PeerFin,
    /// It exits after its FIN and ours.
    PeerExit,
    /// It dies; its reader reports EOF if `eof` (silence finds it anyway),
    /// and with rejoin its respawn resumes from `floor`.
    Die { eof: bool, floor: u64 },
    /// It is killed after its work, before its FIN got out; its supervisor
    /// says it finished.
    Retire,
    /// It dials in; `dies` kills it before the redial an admission makes.
    Hello { dies: bool },
    /// A duplicate or a zombie dials in claiming `inc`.
    StaleHello { inc: u32 },
    /// It sends a LOST naming `host` and goes down.
    SendLost { host: u64 },
    /// The reader of incarnation `inc`'s connection reports its next event.
    Report { inc: usize },
    /// The monitor reports the watched generation silent.
    Quiet,
    /// The supervisor's word that the peer finished is reported.
    Word,
    Shutdown,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LinkWorld {
    cfg: Config,
    link: PeerLink,
    dial: Dial,
    started: bool,
    /// `start`'s wait for the first HELLO is over: the application runs.
    running: bool,
    /// Data frames this host shipped: sequences `0..log`.
    log: u64,
    /// This host's latest barrier arrival.
    barrier: u64,
    fin_sent: bool,
    /// The incarnation the hooked outbound queue reaches.
    queue: Option<usize>,
    shut: bool,
    procs: Vec<Proc>,
    /// The highest incarnation the link hooked or admitted.
    taken: Option<u32>,
    /// Admissions so far: the generation the last one made.
    admissions: u64,
    /// The supervisor's word is pending.
    word: bool,
    /// A LOST naming host 2 was delivered.
    named: bool,
}

impl LinkWorld {
    /// The newest incarnation: the only one that can be alive.
    fn live(&self) -> usize {
        self.procs.len() - 1
    }

    /// The generation the link is about, if it is not lost.
    fn gen(&self) -> Option<u64> {
        match self.link.state() {
            LinkState::Awaiting => Some(0),
            LinkState::Up { gen, .. }
            | LinkState::Finned { gen, .. }
            | LinkState::Joining { gen, .. }
            | LinkState::Down { gen, .. } => Some(gen),
            LinkState::Lost => None,
        }
    }

    /// Whether the live incarnation may die: with rejoin, while a respawn is
    /// left; without it, once, for good.
    fn may_die(&self) -> bool {
        !self.cfg.rejoin || self.procs.len() < INCARNATIONS
    }

    /// The generation the monitor watches, if nothing is heard on it: no
    /// live incarnation is read as it, and before the first HELLO the
    /// incarnation the dial reached is dead (a live one dials in first).
    fn quiet(&self) -> Option<u64> {
        let gen = self.link.watched()?;
        let heard = self.procs.iter().any(|p| p.alive && p.read_as == Some(gen));
        let dialing = match self.dial {
            Dial::Kept(k) => self.link.awaiting() && self.procs[k].alive,
            _ => false,
        };
        (!heard && !dialing).then_some(gen)
    }

    /// Whether incarnation `k`'s HELLO would be admitted (redialed).
    fn admits(&self, k: usize) -> bool {
        let admit = |a: &Action| matches!(a, Action::Admit { .. });
        self.link.clone().step(Event::HelloFrom { inc: k as u32 }).iter().any(admit)
    }

    /// What this host's writer toward the hooked queue carries.
    fn send(&mut self, frame: Frame) {
        if let Some(k) = self.queue {
            self.procs[k].inbox.push_back(frame);
        }
    }

    /// The live incarnation dies; with rejoin the supervisor starts the next
    /// one from `floor`, which a predecessor reached.
    fn die(&mut self, eof: bool, floor: u64) {
        let respawn = self.cfg.rejoin && self.procs.len() < INCARNATIONS;
        let k = self.live();
        let p = &mut self.procs[k];
        p.alive = false;
        if let Some(gen) = p.read_as.filter(|_| eof) {
            p.reports.push_back(Event::ReadFailed { gen });
        }
        if respawn {
            self.procs.push(Proc::new(floor));
        }
    }

    /// Steps the link and performs what it says, as the driver would; `hello`
    /// is the incarnation whose HELLO this is, `dies` whether it dies before
    /// an admission's redial reaches it.
    fn step(&mut self, event: Event, hello: Option<usize>, dies: bool) -> Vec<Action> {
        let before = self.gen();
        let actions = self.link.step(event);
        for &action in &actions {
            match action {
                Action::Hook => {
                    let k = hello.expect("only a HELLO is hooked");
                    // A HELLO hooked before the dial reports replaces the one
                    // hooked before it, whose socket nothing read yet.
                    for p in self.procs.iter_mut().filter(|p| p.read_as == Some(0)) {
                        assert!(!self.started, "a hook replaced a connection a reader reads");
                        (p.read_as, p.reports) = (None, VecDeque::new());
                    }
                    self.procs[k].read_as = Some(0);
                    self.taken = self.taken.max(Some(k as u32));
                }
                Action::Unhook => {
                    let gen = before.expect("a lost link unhooks nothing");
                    let kept = matches!(self.dial, Dial::Kept(_));
                    assert!(self.queue.take().is_some() || !kept, "Unhook of no queue");
                    let started = self.started;
                    if let Some(p) = self.procs.iter_mut().find(|p| p.read_as == Some(gen)) {
                        p.read_as = None;
                        // The torn reader reports the EOF the tear caused; a
                        // socket parked before `start` is dropped unread.
                        if started {
                            p.reports.push_back(Event::ReadFailed { gen });
                        } else {
                            p.reports.clear();
                        }
                    }
                }
                Action::Admit { gen } => {
                    self.admissions += 1;
                    assert_eq!(gen, self.admissions, "a generation skipped");
                    let k = hello.expect("only a HELLO is admitted");
                    self.taken = self.taken.max(Some(k as u32));
                    let reached = self.procs[k].reached;
                    assert!(!reached, "incarnation {k} redialed after a HELLO of ours reached it");
                    if dies {
                        self.die(true, 0);
                    } else {
                        let log: Vec<u64> = (0..self.log).collect();
                        let sent = resend(&log, self.barrier, self.fin_sent).map(|item| match item {
                            Resend::Logged(&seq) => Frame::Data(seq),
                            Resend::Barrier(n) => Frame::Barrier(n),
                            Resend::Fin => Frame::Fin,
                        });
                        let p = &mut self.procs[k];
                        (p.reached, p.read_as, p.inbox) = (true, Some(gen), sent.collect());
                        self.queue = Some(k);
                    }
                    let after = self.step(Event::Redialed { ok: !dies }, None, false);
                    assert!(after.is_empty(), "a redial caused {after:?}");
                }
                Action::Reject(reason) => {
                    let want = match event {
                        Event::HelloFrom { .. } if !self.cfg.rejoin => BadHostId,
                        _ => StaleIncarnation,
                    };
                    assert_eq!(reason, want, "{event:?} refused");
                }
                Action::Release => {}
                Action::MarkLost { host } if host == PEER => {
                    assert!(!self.cfg.rejoin, "a peer was lost with rejoin on");
                }
                Action::MarkLost { host } => {
                    let named = Event::Lost { gen: before.unwrap_or(0), host: 2 };
                    assert_eq!((event, host), (named, 2));
                }
            }
        }
        actions
    }

    /// Delivers a report: one about a superseded generation, or any once the
    /// link is over, must change nothing; a LOST that names no other host
    /// must do what a broken connection does.
    fn deliver(&mut self, event: Event) {
        let of = match event {
            Event::FrameFin { gen } | Event::ReadFailed { gen } => Some(gen),
            Event::Silent { gen } | Event::Lost { gen, .. } => Some(gen),
            _ => None,
        };
        if self.shut || self.gen().is_none_or(|gen| of.is_some_and(|of| of < gen)) {
            let before = self.link.clone();
            let actions = self.link.step(event);
            assert!(actions.is_empty(), "stale {event:?} caused {actions:?}");
            assert_eq!(self.link, before, "stale {event:?} moved the link");
            return;
        }
        match event {
            Event::Lost { host: 2, .. } => {
                assert_eq!(self.step(event, None, false), [Action::MarkLost { host: 2 }]);
                assert_eq!(self.link.state(), LinkState::Lost);
                self.named = true;
            }
            Event::Lost { gen, .. } => {
                let mut twin = self.link.clone();
                let want = twin.step(Event::ReadFailed { gen });
                let why = "a bad LOST is not a broken connection";
                assert_eq!(self.step(event, None, false), want, "{why}");
                assert_eq!(self.link, twin, "{why}");
            }
            _ => {
                self.step(event, None, false);
            }
        }
    }
}

impl World for LinkWorld {
    type Config = Config;
    type Move = Move;

    fn new(cfg: Config) -> Self {
        LinkWorld {
            cfg,
            link: PeerLink::new(cfg.rejoin, ME, PEER, HOSTS),
            dial: Dial::Idle,
            started: false,
            running: false,
            log: 0,
            barrier: 0,
            fin_sent: false,
            queue: None,
            shut: false,
            procs: vec![Proc::new(0)],
            taken: None,
            admissions: 0,
            word: false,
            named: false,
        }
    }

    fn config(&self) -> Config {
        self.cfg
    }

    fn moves(&self) -> Vec<Move> {
        let cfg = &self.cfg;
        let k = self.live();
        let p = &self.procs[k];
        let state = self.link.state();
        let live = !self.shut;
        let sending = live && self.running && !self.fin_sent && state != LinkState::Lost;
        let read = p.read_as.is_some_and(|g| Some(g) == self.gen());
        let connected = p.alive && self.queue == Some(k) && read;
        let done = p.floor == cfg.frames && p.barrier == cfg.barriers;
        let dies = p.alive && !p.finned && self.may_die();
        let mut moves: Vec<Move> = [
            (Move::Dial, live && self.dial == Dial::Idle),
            (Move::DialReport, live && matches!(self.dial, Dial::Answered(_))),
            (Move::Start, live && matches!(self.dial, Dial::Kept(_)) && !self.started),
            (Move::Ship, sending && self.log < cfg.frames),
            (Move::Arrive, sending && self.barrier < cfg.barriers),
            (Move::Finish, sending && self.log == cfg.frames && self.barrier == cfg.barriers),
            (Move::Read, p.alive && !p.inbox.is_empty()),
            (Move::PeerFin, connected && !p.finned && done),
            (Move::PeerExit, p.alive && p.finned && p.saw_fin),
            (Move::Retire, connected && !p.finned && done && self.may_die()),
            (Move::Hello { dies: false }, p.alive && !p.said_hello),
            (Move::Hello { dies: true }, p.alive && !p.said_hello && dies && self.admits(k)),
            (Move::Quiet, self.started && live && self.quiet().is_some()),
            (Move::Word, self.word),
            (
                Move::Shutdown,
                live && self.started
                    && (cfg.crash
                        || state == LinkState::Lost
                        || (self.fin_sent && matches!(state, LinkState::Finned { .. }))),
            ),
        ]
        .into_iter()
        .filter_map(|(m, on)| on.then_some(m))
        .collect();
        if dies {
            let floor = self.procs.iter().map(|p| p.floor).max().unwrap_or(0);
            for eof in [true, false] {
                moves.extend((0..=floor).map(|floor| Move::Die { eof, floor }));
            }
        }
        if dies && p.read_as.is_some() {
            moves.extend(NAMED.map(|host| Move::SendLost { host }));
        }
        if let Some(taken) = self.taken.filter(|_| cfg.rejoin && live) {
            let claims = [0, taken].into_iter().skip(usize::from(taken == 0));
            moves.extend(claims.map(|inc| Move::StaleHello { inc }));
        }
        if self.started {
            let busy = (0..self.procs.len()).filter(|&i| !self.procs[i].reports.is_empty());
            moves.extend(busy.map(|inc| Move::Report { inc }));
        }
        moves
    }

    fn perform(&mut self, m: Move) {
        let k = self.live();
        match m {
            Move::Dial if self.procs[k].alive => {
                assert!(!self.procs[k].reached, "a second HELLO of ours reached incarnation {k}");
                self.procs[k].reached = true;
                self.dial = Dial::Answered(k);
            }
            Move::Dial => {
                // Nothing listens: `establish` fails and tears the transport down.
                self.step(Event::Shutdown, None, false);
                self.shut = true;
            }
            Move::DialReport => {
                let Dial::Answered(k) = self.dial else { unreachable!("no dial answered") };
                let actions = self.step(Event::Dialed { inc: k as u32 }, None, false);
                self.dial = if actions.contains(&Action::Reject(StaleIncarnation)) {
                    Dial::Idle
                } else {
                    assert_eq!(self.queue, None, "the dial's queue was taken");
                    self.queue = Some(k);
                    Dial::Kept(k)
                };
            }
            Move::Start => self.started = true,
            Move::Ship => {
                self.log += 1;
                self.send(Frame::Data(self.log - 1));
            }
            Move::Arrive => {
                self.barrier += 1;
                self.send(Frame::Barrier(self.barrier));
            }
            Move::Finish => {
                self.fin_sent = true;
                self.send(Frame::Fin);
            }
            Move::Read => self.procs[k].read(),
            Move::PeerFin => {
                let p = &mut self.procs[k];
                p.finned = true;
                p.reports.push_back(Event::FrameFin { gen: p.read_as.expect("connected") });
            }
            Move::PeerExit => {
                let p = &mut self.procs[k];
                p.alive = false;
                p.reports.push_back(Event::ReadFailed { gen: p.read_as.expect("connected") });
            }
            Move::Die { eof, floor } => self.die(eof, floor),
            Move::Retire => {
                let p = &mut self.procs[k];
                (p.alive, p.retired) = (false, true);
                p.reports.push_back(Event::ReadFailed { gen: p.read_as.expect("connected") });
                self.word = true;
            }
            Move::Hello { dies } => {
                self.procs[k].said_hello = true;
                let over = self.shut || self.link.state() == LinkState::Lost;
                let actions = self.step(Event::HelloFrom { inc: k as u32 }, Some(k), dies);
                let taken = |a: &Action| matches!(a, Action::Hook | Action::Admit { .. });
                let got = actions.iter().any(taken);
                assert!(over || got, "the live incarnation {k}'s HELLO got {actions:?}");
            }
            Move::StaleHello { inc } => {
                let before = self.link.clone();
                let actions = self.link.step(Event::HelloFrom { inc });
                let over = self.shut || before.state() == LinkState::Lost;
                let want = if over { vec![] } else { vec![Action::Reject(StaleIncarnation)] };
                assert_eq!(actions, want, "HELLO {inc} after {:?}", self.taken);
                assert_eq!(self.link, before, "a stale HELLO moved the link");
            }
            Move::SendLost { host } => {
                let p = &mut self.procs[k];
                p.reports.push_back(Event::Lost { gen: p.read_as.expect("read"), host });
                self.die(true, 0);
            }
            Move::Report { inc } => {
                let event = self.procs[inc].reports.pop_front().expect("a report");
                self.deliver(event);
            }
            Move::Quiet => self.deliver(Event::Silent { gen: self.quiet().expect("quiet") }),
            Move::Word => {
                self.word = false;
                self.deliver(Event::Finished);
            }
            Move::Shutdown => {
                let actions = self.step(Event::Shutdown, None, false);
                assert!(actions.is_empty(), "shutdown caused {actions:?}");
                self.shut = true;
            }
        }
        self.running |= self.started && !self.link.awaiting();
        // An incarnation the queue reaches is caught up once it has read
        // everything queued to it: every data frame, the latest barrier
        // arrival and FIN, whatever it missed as a predecessor's connection.
        let read_all = |k: &usize| self.procs[*k].alive && self.procs[*k].inbox.is_empty();
        if let Some(k) = self.queue.filter(read_all) {
            let p = &self.procs[k];
            let behind = (p.floor, p.barrier, p.saw_fin) != (self.log, self.barrier, self.fin_sent);
            assert!(!behind, "incarnation {k} read all it was sent and is behind: {p:?}");
        }
        // Up means hooked to that very incarnation, both ways (the queue is
        // installed once the dial reports), Down unhooked, and an admission
        // never outlives its redial.
        match self.link.state() {
            LinkState::Up { gen, inc } => {
                let inc = inc as usize;
                let read_as = self.procs[inc].read_as;
                assert_eq!(read_as, Some(gen), "Up{{{gen}, {inc}}} reads elsewhere");
                let installed = matches!(self.dial, Dial::Kept(_)) || self.admissions > 0;
                let want = installed.then_some(inc);
                let queue = self.queue;
                assert_eq!(queue, want, "Up{{{gen}, {inc}}} but the queue reaches {queue:?}");
            }
            LinkState::Down { .. } => assert_eq!(self.queue, None),
            LinkState::Joining { .. } => panic!("an admission outlived its redial"),
            LinkState::Awaiting | LinkState::Finned { .. } | LinkState::Lost => {}
        }
    }

    /// Checks a schedule that ended: nothing is left to deliver, and the
    /// link ended as the world says it must.
    fn check_end(&mut self) {
        let cfg = self.cfg;
        assert!(self.shut && !self.word, "stuck: {self:#?}");
        // Shut down: whatever still knocks is inert.
        for inc in 0..=INCARNATIONS as u32 {
            assert_eq!(self.link.step(Event::HelloFrom { inc }), []);
        }
        let state = self.link.state();
        match state {
            LinkState::Finned { inc, .. } => {
                // The incarnation that finished holds everything this host
                // sent, in order, the latest barrier count and FIN: its
                // writer flushes the rest of its inbox before the socket
                // closes.
                let p = &mut self.procs[inc as usize];
                while !p.inbox.is_empty() {
                    p.read();
                }
                let got = (p.floor, p.barrier);
                assert_eq!(got, (cfg.frames, cfg.barriers), "{inc} is missing frames");
                assert!(p.saw_fin || !self.fin_sent || p.retired, "{inc} never got our FIN");
            }
            LinkState::Lost => {
                let died = self.procs.iter().any(|p| !p.alive);
                assert!(self.named || (!cfg.rejoin && died), "lost without a death");
            }
            // Torn down mid-run, or `establish` failed.
            _ => assert!(cfg.crash || !self.started, "a clean teardown left the link {state:?}"),
        }
    }
}

/// The worlds the search starts from: each mode, with or without a frame and
/// a barrier, with or without a crash of this host; with rejoin, the crash
/// only in the world without frames, where it costs the fewest states.
fn configs() -> impl Iterator<Item = Config> {
    let all = (0..16u64).map(|i| Config {
        rejoin: i & 1 == 1,
        frames: i >> 1 & 1,
        barriers: i >> 2 & 1,
        crash: i >> 3 == 1,
    });
    all.filter(|c| !c.rejoin || !c.crash || c.frames + c.barriers == 0)
}

/// Distinct states the search must visit at least (it visits 145,439): a
/// change that shrinks the world fails here instead of passing on less
/// coverage.
const STATE_FLOOR: usize = 145_000;

#[test]
fn every_schedule_keeps_the_invariants_and_ends_finned_lost_or_shut_down() {
    let mut search = Search::<LinkWorld>::new(DEPTH);
    search.run(configs());
    let (states, ended) = (search.states(), search.ended);
    println!("link explorer: {states} distinct states, {ended} ended schedules, depth {DEPTH}");
    assert!(states >= STATE_FLOOR, "visited {states} states, below the floor of {STATE_FLOOR}");
}

/// The pre-hook window: incarnation 0 answers this host's dial and dies
/// before it dials in. Its respawn's HELLO is admitted with a redial when
/// the dial reported first; stepped before the report, it is hooked, and
/// the dial that reached incarnation 0 is refused and made again. Either
/// way the run finishes on incarnation 1.
#[test]
fn a_respawn_whose_predecessor_answered_the_dial_is_redialed() {
    use Move::*;
    let cfg = Config { rejoin: true, frames: 1, barriers: 0, crash: false };
    let (die, hello) = (Die { eof: true, floor: 0 }, Hello { dies: false });
    let cases: [(&[Move], u64); 3] = [
        (&[Dial, DialReport, die, hello], 1),
        (&[Dial, die, DialReport, hello], 1),
        (&[Dial, die, hello, DialReport, Dial, DialReport], 0),
    ];
    for (head, gen) in cases {
        let w: LinkWorld = replay(cfg, head);
        assert_eq!(w.link.state(), LinkState::Up { gen, inc: 1 }, "{head:?}");
        let tail = [Start, Ship, Finish, Read, Read, PeerFin, Report { inc: 1 }, Shutdown];
        let mut w: LinkWorld = replay(cfg, &[head, &tail].concat());
        w.check_end();
        assert_eq!(w.link.state(), LinkState::Finned { gen, inc: 1 });
    }
}

// -- before the first HELLO -------------------------------------------------

#[test]
fn the_dialed_incarnations_hello_is_hooked_and_a_newer_one_is_redialed() {
    for rejoin in [false, true] {
        for inc in [0, 1, 7, u32::MAX] {
            let mut link = PeerLink::new(rejoin, ME, PEER, HOSTS);
            assert_eq!(link.state(), LinkState::Awaiting);
            assert_eq!(link.step(Event::Dialed { inc }), []);
            // No Unhook (nothing was hooked) and no Admit (no redial): this
            // host's own dial is the outbound connection.
            assert_eq!(link.step(Event::HelloFrom { inc }), [Action::Hook]);
            assert_eq!(link.state(), LinkState::Up { gen: 0, inc });
        }
    }
    let mut link = PeerLink::new(true, ME, PEER, HOSTS);
    link.step(Event::Dialed { inc: 0 });
    assert_eq!(link.step(Event::HelloFrom { inc: 1 }), [Action::Unhook, Action::Admit { gen: 1 }]);
}

#[test]
fn a_second_hello_without_rejoin_is_a_taken_slot() {
    let reject = Action::Reject(BadHostId);
    for inc in [0, 1, u32::MAX] {
        let mut link = PeerLink::new(false, ME, PEER, HOSTS);
        link.step(Event::Dialed { inc: 0 });
        link.step(Event::HelloFrom { inc: 0 });
        assert_eq!(link.step(Event::HelloFrom { inc }), [reject]);
        assert_eq!(link.state(), LinkState::Up { gen: 0, inc: 0 });
        // Finned or not, the slot stays taken.
        link.step(Event::FrameFin { gen: 0 });
        assert_eq!(link.step(Event::HelloFrom { inc }), [reject]);
    }
}

#[test]
fn silence_before_the_first_hello_is_lost_without_rejoin_and_down_with_it() {
    let mut link = PeerLink::new(false, ME, PEER, HOSTS);
    link.step(Event::Dialed { inc: 0 });
    assert_eq!(link.step(Event::Silent { gen: 0 }), [Action::MarkLost { host: PEER }]);
    assert_eq!(link.state(), LinkState::Lost);
    assert_eq!(link.step(Event::HelloFrom { inc: 0 }), []);

    let mut link = PeerLink::new(true, ME, PEER, HOSTS);
    link.step(Event::Dialed { inc: 0 });
    assert_eq!(link.step(Event::Silent { gen: 0 }), [Action::Unhook]);
    assert_eq!(link.state(), LinkState::Down { gen: 0, inc: 0 });
    // The incarnation it waited for is given up on; its respawn is admitted.
    let stale = Action::Reject(RejectReason::StaleIncarnation);
    assert_eq!(link.step(Event::HelloFrom { inc: 0 }), [stale]);
    assert_eq!(link.step(Event::HelloFrom { inc: 1 }), [Action::Admit { gen: 1 }]);
    assert_eq!(link.step(Event::Redialed { ok: true }), []);
    assert_eq!(link.state(), LinkState::Up { gen: 1, inc: 1 });
}

#[test]
fn shutdown_before_the_first_hello_is_closed() {
    for rejoin in [false, true] {
        let mut link = PeerLink::new(rejoin, ME, PEER, HOSTS);
        assert_eq!(link.step(Event::Shutdown), []);
        let hellos = [Event::HelloFrom { inc: 0 }, Event::Dialed { inc: 0 }];
        let events = hellos.into_iter().chain([Event::Silent { gen: 0 }, Event::Finished]);
        for event in events {
            assert_eq!(link.step(event), [], "rejoin {rejoin}: {event:?} after shutdown");
            assert_eq!(link.state(), LinkState::Awaiting);
        }
    }
}
