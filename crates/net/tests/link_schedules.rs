//! Schedule explorer for [`cusp_net::transport::link::PeerLink`].
//!
//! The link is pure, so this file stands in for everything its driver
//! touches with a small fake world — this host's send log, outbound queue,
//! barrier count and FIN; the peer process's successive incarnations with
//! their resequencer floors; the reports of the readers and of the silence
//! monitor — and delivers what that world says in a seeded order. A
//! generation dies with frames still queued toward it; its reader's EOF and
//! the monitor's silence arrive late, after the next generation was
//! admitted; stale and duplicate HELLOs knock; redials fail; an
//! incarnation that finished its work is killed before its FIN got out, and
//! only its supervisor's word says so; this host may shut down at any point. As in `tcp.rs`, where both happen under the
//! peer's lock, an admission is performed and its redial reported before
//! anything else reaches the link. The world keeps the contract
//! `Comm::restore_net` relies on: every phase consumes all its inbound
//! traffic before its barrier, so a respawn resumes from a floor one of its
//! predecessors reached. A failure prints the seed that replays it.
//!
//! Every schedule starts once the first incarnation's HELLO is hooked; what
//! the link does before that — the first HELLO, a second one, silence,
//! shutdown — is pinned case by case at the end of this file.

use std::collections::VecDeque;

use cusp_net::transport::link::{resend, Action, Event, LinkState, PeerLink, Resend};
use cusp_net::RejectReason;

const MAX_STEPS: usize = 2_000;

/// splitmix64, the generator the crate's fault plans hash with.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (x ^ (x >> 31)) % n
    }
}

/// What this host's writer puts on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    Data(u64),
    Barrier(u64),
    Fin,
}

/// One incarnation of the peer's process.
#[derive(Debug)]
struct Proc {
    inc: u32,
    alive: bool,
    /// The connection generation it was admitted as.
    conn: Option<u64>,
    /// Frames this host queued toward it that it has not read.
    inbox: VecDeque<Frame>,
    /// Its resequencer floor: the next data sequence its application takes.
    floor: u64,
    barrier: u64,
    saw_fin: bool,
    said_hello: bool,
    finned: bool,
    /// Killed after it finished its work, before its FIN got out.
    retired: bool,
}

impl Proc {
    fn new(inc: u32, floor: u64) -> Self {
        Proc {
            inc,
            alive: true,
            conn: None,
            inbox: VecDeque::new(),
            floor,
            barrier: 0,
            saw_fin: false,
            said_hello: false,
            finned: false,
            retired: false,
        }
    }

    /// Reads one frame, as its resequencer would: a data frame below the
    /// floor is a duplicate, one above it a gap that nothing will fill.
    fn read(&mut self, seed: u64) {
        match self.inbox.pop_front().expect("a frame to read") {
            Frame::Data(seq) => {
                let (inc, floor) = (self.inc, self.floor);
                assert!(seq <= floor, "seed {seed}: incarnation {inc} got {seq} before {floor}");
                self.floor = self.floor.max(seq + 1);
            }
            Frame::Barrier(n) => self.barrier = self.barrier.max(n),
            Frame::Fin => self.saw_fin = true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Config {
    rejoin: bool,
    /// Data frames and barrier arrivals this host sends before its FIN.
    frames: u64,
    barriers: u64,
    /// Deaths the peer goes through (one is final without rejoin).
    deaths: u32,
    /// The step at which this host tears down uncleanly, if it does.
    crash_at: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    Ship,
    Arrive,
    Finish,
    Read,
    PeerFin,
    PeerExit,
    Die,
    Retire,
    Hello,
    StaleHello,
    Report,
    Shutdown,
}

struct World {
    rng: Rng,
    seed: u64,
    cfg: Config,
    link: PeerLink,
    /// Data frames this host shipped: sequences `0..log`.
    log: u64,
    /// This host's latest barrier arrival.
    barrier: u64,
    fin_sent: bool,
    /// The generation whose queue is hooked.
    queue: Option<u64>,
    shut: bool,
    /// The peer's incarnations, by incarnation number.
    procs: Vec<Proc>,
    deaths_left: u32,
    /// The last incarnation the link admitted.
    admitted: u32,
    /// Each generation's reader reports, in the order it makes them.
    readers: Vec<VecDeque<Event>>,
    /// The monitor's and the supervisor's reports, in any order.
    unordered: Vec<Event>,
}

impl World {
    fn new(cfg: Config, rng: Rng, seed: u64) -> Self {
        let mut first = Proc::new(0, 0);
        (first.conn, first.said_hello) = (Some(0), true);
        let mut link = PeerLink::new(cfg.rejoin);
        assert_eq!(link.step(Event::HelloFrom { inc: 0 }), [Action::Hook], "seed {seed}");
        World {
            rng,
            seed,
            cfg,
            link,
            log: 0,
            barrier: 0,
            fin_sent: false,
            queue: Some(0),
            shut: false,
            procs: vec![first],
            deaths_left: cfg.deaths,
            admitted: 0,
            readers: vec![VecDeque::new()],
            unordered: Vec::new(),
        }
    }

    fn peer(&mut self) -> &mut Proc {
        self.procs.last_mut().expect("the peer has an incarnation")
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

    /// What this host's writer toward the hooked generation carries.
    fn send(&mut self, frame: Frame) {
        if let Some(gen) = self.queue {
            let to = self.procs.iter_mut().find(|p| p.conn == Some(gen));
            to.expect("a hooked generation was admitted").inbox.push_back(frame);
        }
    }

    fn pending(&self) -> bool {
        !self.unordered.is_empty() || self.readers.iter().any(|r| !r.is_empty())
    }

    fn enabled(&self, steps: usize) -> Vec<Move> {
        let cfg = &self.cfg;
        let p = self.procs.last().expect("the peer has an incarnation");
        let live = !self.shut;
        let sending = live && !self.fin_sent;
        let connected = p.conn.is_some() && p.conn == self.gen();
        let done = p.floor == cfg.frames && p.barrier == cfg.barriers;
        let state = self.link.state();
        let can = [
            (Move::Ship, sending && self.log < cfg.frames),
            (Move::Arrive, sending && self.barrier < cfg.barriers),
            (Move::Finish, sending && self.log == cfg.frames && self.barrier == cfg.barriers),
            (Move::Read, p.alive && !p.inbox.is_empty()),
            (Move::PeerFin, p.alive && connected && !p.finned && done),
            (Move::PeerExit, p.alive && p.finned && p.saw_fin),
            (Move::Die, p.alive && !p.finned && self.deaths_left > 0),
            (Move::Retire, p.alive && connected && !p.finned && done && self.deaths_left > 0),
            (Move::Hello, p.alive && !p.said_hello),
            (Move::StaleHello, cfg.rejoin),
            (Move::Report, self.pending()),
            (
                Move::Shutdown,
                live && (cfg.crash_at.is_some_and(|at| steps >= at)
                    || matches!(state, LinkState::Lost)
                    || (self.fin_sent && matches!(state, LinkState::Finned { .. }))),
            ),
        ];
        can.into_iter().filter(|&(_, on)| on).map(|(m, _)| m).collect()
    }

    /// Steps the link and performs what it says, as the driver would.
    fn step(&mut self, event: Event, hello: Option<usize>) -> Vec<Action> {
        let seed = self.seed;
        let actions = self.link.step(event);
        for &action in &actions {
            match action {
                Action::Hook => panic!("seed {seed}: a second first HELLO"),
                Action::Unhook => {
                    let gen = self.queue.take();
                    let gen = gen.unwrap_or_else(|| panic!("seed {seed}: Unhook of no queue"));
                    // The torn reader reports the EOF the tear caused.
                    self.readers[gen as usize].push_back(Event::ReadFailed { gen });
                }
                Action::Admit { gen } => {
                    assert_eq!(gen as usize, self.readers.len(), "seed {seed}: a gen skipped");
                    let i = hello.unwrap_or_else(|| panic!("seed {seed}: Admit without a HELLO"));
                    self.admitted = self.procs[i].inc;
                    self.readers.push(VecDeque::new());
                    // The respawn may die again before the redial reaches it.
                    let ok = !(self.deaths_left > 0 && self.rng.below(4) == 0);
                    if ok {
                        let log: Vec<u64> = (0..self.log).collect();
                        let sent: Vec<Frame> = resend(&log, self.barrier, self.fin_sent)
                            .map(|item| match item {
                                Resend::Logged(&seq) => Frame::Data(seq),
                                Resend::Barrier(n) => Frame::Barrier(n),
                                Resend::Fin => Frame::Fin,
                            })
                            .collect();
                        let p = &mut self.procs[i];
                        (p.conn, p.inbox) = (Some(gen), sent.into());
                        self.queue = Some(gen);
                    } else {
                        self.die();
                    }
                    let after = self.step(Event::Redialed { ok }, None);
                    assert!(after.is_empty(), "seed {seed}: a redial caused {after:?}");
                }
                Action::Reject(reason) => {
                    assert_eq!(reason, RejectReason::StaleIncarnation, "seed {seed}");
                }
                Action::Release => {}
                Action::MarkLost => {
                    assert!(!self.cfg.rejoin, "seed {seed}: a peer was lost with rejoin on");
                }
            }
        }
        actions
    }

    /// The peer's running incarnation dies; with rejoin the supervisor
    /// starts the next one from a floor a predecessor reached.
    fn die(&mut self) {
        self.deaths_left -= 1;
        let conn = {
            let p = self.peer();
            p.alive = false;
            p.conn
        };
        if let Some(gen) = conn {
            let (eof, silent) = (self.rng.below(4) != 0, self.rng.below(2) == 0);
            if eof || !silent {
                self.readers[gen as usize].push_back(Event::ReadFailed { gen });
            }
            if silent {
                self.unordered.push(Event::Silent { gen });
            }
        }
        if self.cfg.rejoin {
            let reached = self.procs.iter().map(|p| p.floor).max().unwrap_or(0);
            let floor = self.rng.below(reached + 1);
            let inc = self.peer().inc + 1;
            self.procs.push(Proc::new(inc, floor));
        }
    }

    /// One event of a superseded generation, or any event once the link is
    /// over, must change nothing.
    fn inert(&mut self, event: Event) {
        let before = self.link.state();
        let actions = self.link.step(event);
        assert!(actions.is_empty(), "seed {}: stale {event:?} caused {actions:?}", self.seed);
        assert_eq!(self.link.state(), before, "seed {}: stale {event:?} moved the link", self.seed);
    }

    fn perform(&mut self, m: Move) {
        let seed = self.seed;
        match m {
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
            Move::Read => self.peer().read(seed),
            Move::PeerFin => {
                let gen = self.peer().conn.expect("connected");
                self.peer().finned = true;
                self.readers[gen as usize].push_back(Event::FrameFin { gen });
            }
            Move::PeerExit => {
                let gen = self.peer().conn.expect("connected");
                self.peer().alive = false;
                self.readers[gen as usize].push_back(Event::ReadFailed { gen });
            }
            Move::Die => self.die(),
            Move::Retire => {
                // Its supervisor heard DONE, so it is not respawned: it says so.
                let gen = self.peer().conn.expect("connected");
                (self.peer().alive, self.peer().retired) = (false, true);
                self.deaths_left -= 1;
                self.readers[gen as usize].push_back(Event::ReadFailed { gen });
                self.unordered.push(Event::Finished);
            }
            Move::Hello => {
                self.peer().said_hello = true;
                let (i, inc) = (self.procs.len() - 1, self.peer().inc);
                let actions = self.step(Event::HelloFrom { inc }, Some(i));
                if !self.shut && self.cfg.rejoin {
                    assert!(
                        actions.iter().any(|a| matches!(a, Action::Admit { .. })),
                        "seed {seed}: incarnation {inc} after {} not admitted: {actions:?}",
                        self.admitted
                    );
                }
            }
            Move::StaleHello => {
                let inc = self.rng.below(self.admitted as u64 + 1) as u32;
                let before = self.link.state();
                let actions = self.link.step(Event::HelloFrom { inc });
                let reject = Action::Reject(RejectReason::StaleIncarnation);
                let want = if self.shut { vec![] } else { vec![reject] };
                assert_eq!(actions, want, "seed {seed}: HELLO {inc} after {}", self.admitted);
                assert_eq!(self.link.state(), before, "seed {seed}: a stale HELLO moved the link");
            }
            Move::Report => {
                let busy: Vec<usize> =
                    (0..self.readers.len()).filter(|&g| !self.readers[g].is_empty()).collect();
                let pick = self.rng.below((busy.len() + self.unordered.len()) as u64) as usize;
                let event = match busy.get(pick) {
                    Some(&g) => self.readers[g].pop_front().expect("busy"),
                    None => self.unordered.swap_remove(pick - busy.len()),
                };
                // The supervisor's word is about the host, not a generation.
                let of = match event {
                    Event::FrameFin { gen } | Event::ReadFailed { gen } => Some(gen),
                    Event::Silent { gen } => Some(gen),
                    _ => None,
                };
                if self.shut || self.gen().is_none_or(|gen| of.is_some_and(|of| of < gen)) {
                    self.inert(event);
                } else {
                    self.step(event, None);
                }
            }
            Move::Shutdown => {
                let actions = self.step(Event::Shutdown, None);
                assert!(actions.is_empty(), "seed {seed}: shutdown caused {actions:?}");
                self.shut = true;
            }
        }
        // Up means hooked to that very generation, Down unhooked, and an
        // admission never outlives its redial.
        match self.link.state() {
            LinkState::Up { gen, .. } => assert_eq!(self.queue, Some(gen), "seed {seed}"),
            LinkState::Down { .. } => assert_eq!(self.queue, None, "seed {seed}"),
            LinkState::Joining { .. } => panic!("seed {seed}: an admission outlived its redial"),
            LinkState::Awaiting => panic!("seed {seed}: the link forgot its first HELLO"),
            LinkState::Finned { .. } | LinkState::Lost => {}
        }
    }
}

/// Runs one schedule to its end and checks it; returns the step count.
fn explore(rejoin: bool, seed: u64) -> usize {
    let mut rng = Rng(seed);
    let frames = rng.below(8);
    let barriers = rng.below(4);
    let deaths = rng.below(if rejoin { 4 } else { 2 }) as u32;
    let crash_at = (rng.below(8) == 0).then(|| rng.below(60) as usize);
    let cfg = Config { rejoin, frames, barriers, deaths, crash_at };
    let mut w = World::new(cfg, rng, seed);

    let mut steps = 0;
    while !w.shut || w.pending() {
        steps += 1;
        let moves = w.enabled(steps);
        assert!(
            steps < MAX_STEPS && !moves.is_empty(),
            "seed {seed}: stuck after {steps} steps ({cfg:?}): link {:?}, sent {} frames, \
             barrier {}, FIN {}; peer {:?}",
            w.link.state(),
            w.log,
            w.barrier,
            w.fin_sent,
            w.procs.last()
        );
        let m = moves[w.rng.below(moves.len() as u64) as usize];
        w.perform(m);
    }

    // Shut down: whatever still knocks is inert.
    for inc in 0..=w.admitted + 1 {
        w.inert(Event::HelloFrom { inc });
    }
    let state = w.link.state();
    if cfg.crash_at.is_none() {
        assert!(
            matches!(state, LinkState::Finned { .. } | LinkState::Lost),
            "seed {seed}: a clean teardown left the link {state:?}"
        );
    }
    if let LinkState::Finned { gen, inc } = state {
        // The incarnation that finished holds everything this host sent,
        // in order, the latest barrier count and FIN: its writer flushes
        // the rest of its inbox before the socket closes.
        let seed = w.seed;
        let p = w.procs.iter_mut().find(|p| p.conn == Some(gen)).expect("a finned generation");
        assert_eq!(p.inc, inc, "seed {seed}");
        while !p.inbox.is_empty() {
            p.read(seed);
        }
        let got = (p.floor, p.barrier);
        assert_eq!(got, (frames, barriers), "seed {seed}: incarnation {inc} is missing frames");
        let fin = p.saw_fin || !w.fin_sent || p.retired;
        assert!(fin, "seed {seed}: incarnation {inc} never got our FIN");
    }
    if state == LinkState::Lost {
        assert!(!rejoin && deaths > 0, "seed {seed}: lost without a death");
    }
    steps
}

#[test]
fn every_schedule_ends_finned_lost_or_shut_down() {
    // 2 modes × 10,000 seeds = 20,000 schedules.
    for rejoin in [false, true] {
        for seed in 0..10_000 {
            explore(rejoin, seed);
        }
    }
}

#[test]
fn same_seed_same_schedule() {
    for seed in [7, 20261015] {
        assert_eq!(explore(true, seed), explore(true, seed));
    }
}

// -- before the first HELLO -------------------------------------------------

#[test]
fn a_first_hello_of_any_incarnation_hooks_generation_0() {
    for rejoin in [false, true] {
        for inc in [0, 1, 7, u32::MAX] {
            let mut link = PeerLink::new(rejoin);
            assert_eq!(link.state(), LinkState::Awaiting);
            // No Unhook (nothing was hooked) and no Admit (no redial): this
            // host's own dial is the outbound connection.
            assert_eq!(link.step(Event::HelloFrom { inc }), [Action::Hook]);
            assert_eq!(link.state(), LinkState::Up { gen: 0, inc });
        }
    }
}

#[test]
fn a_second_hello_without_rejoin_is_a_taken_slot() {
    let reject = Action::Reject(RejectReason::BadHostId);
    for inc in [0, 1, u32::MAX] {
        let mut link = PeerLink::new(false);
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
    let mut link = PeerLink::new(false);
    assert_eq!(link.step(Event::Silent { gen: 0 }), [Action::MarkLost]);
    assert_eq!(link.state(), LinkState::Lost);
    assert_eq!(link.step(Event::HelloFrom { inc: 0 }), []);

    let mut link = PeerLink::new(true);
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
        let mut link = PeerLink::new(rejoin);
        assert_eq!(link.step(Event::Shutdown), []);
        for event in [Event::HelloFrom { inc: 0 }, Event::Silent { gen: 0 }, Event::Finished] {
            assert_eq!(link.step(event), [], "rejoin {rejoin}: {event:?} after shutdown");
            assert_eq!(link.state(), LinkState::Awaiting);
        }
    }
}
