//! Schedule explorer for [`cusp_net::recovery::Supervisor`].
//!
//! The supervisor is pure, so this file stands in for everything its two
//! drivers touch — processes, pipes, signals, the clock — with a small fake
//! world, and delivers what that world says in a seeded order: lines of
//! different hosts interleave freely (one pipe per host, read in order and
//! to its end before the host is spawned again, as both drivers guarantee),
//! ticks fall anywhere, signals land late, and copies of a dead
//! generation's lines and exit arrive after its replacement is up. Every
//! schedule must reach `Finish` or `Fail` within a bounded number of steps:
//! a hang is an assertion failure that prints the seed.

use std::collections::VecDeque;
use std::time::Duration;

use cusp_net::recovery::{Action, Event, Exit, HostState, Supervisor};
use cusp_net::{ClusterError, KillDecision, KillMode, RecoveryOptions};

const PHASES: [&str; 5] = ["read", "master", "edge_assign", "alloc", "construct"];
/// Lines of a full run: the listen line, five phases, DONE.
const LINES: usize = PHASES.len() + 2;
const MAX_STEPS: usize = 20_000;

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

/// One fake worker process.
struct Proc {
    incarnation: u32,
    /// Lines printed so far.
    said: usize,
    /// It was handed the peer list (it prints no phase before that).
    told: bool,
    /// A signal on its way: it lands after this many more lines.
    signal: Option<(u64, KillMode)>,
    /// SIGSTOPped: silent, pipe open, until the hard kill.
    stopped: bool,
}

impl Proc {
    fn new(incarnation: u32) -> Self {
        Proc { incarnation, said: 0, told: false, signal: None, stopped: false }
    }
}

#[derive(Clone, Copy)]
struct Config {
    hosts: usize,
    mode: KillMode,
    repeat: bool,
    max_restarts: u32,
}

struct World {
    rng: Rng,
    now_ms: u64,
    procs: Vec<Option<Proc>>,
    /// What each host printed (and how it ended) that the supervisor has
    /// not heard yet.
    pipes: Vec<VecDeque<Event<'static>>>,
    /// Copies of dead generations' events, to be delivered late.
    stale: Vec<Event<'static>>,
    /// Hosts whose listen address the driver knows.
    listened: Vec<bool>,
    /// Incarnations spawned per host, in order.
    spawned: Vec<Vec<u32>>,
    /// A victim printed DONE before its kill landed.
    outran: bool,
    outcome: Option<Result<(), ClusterError>>,
}

impl World {
    /// The process of `host` prints its next line, or meets its signal.
    fn advance(&mut self, host: usize) {
        let Some(p) = self.procs[host].as_mut() else { return };
        let incarnation = p.incarnation;
        if let Some((0, mode)) = p.signal {
            p.signal = None;
            if mode == KillMode::Wedge {
                p.stopped = true;
            } else {
                // Under a kill plan any death past the listen line is one a
                // respawn can repair — the launch driver's classification.
                self.procs[host] = None;
                self.pipes[host].push_back(Event::Exited { host, incarnation, how: Exit::Crashed });
            }
            return;
        }
        if p.stopped || (p.said == 1 && !p.told) {
            return;
        }
        if let Some((left, _)) = p.signal.as_mut() {
            *left -= 1;
        }
        p.said += 1;
        let line = match p.said {
            1 => Event::Listening { host, incarnation },
            LINES => {
                self.outran |= p.signal.is_some();
                self.procs[host] = None;
                Event::Exited { host, incarnation, how: Exit::Finished }
            }
            n => Event::PhaseReached { host, incarnation, phase: PHASES[n - 2] },
        };
        self.pipes[host].push_back(line);
    }

    /// What the drivers do with an action, plus the checks a driver cannot
    /// make: it would not notice a second process for one host.
    fn perform(&mut self, action: Action, cfg: Config, seed: u64) {
        assert!(self.outcome.is_none(), "seed {seed}: {action:?} after the run was over");
        match action {
            Action::Spawn { host, incarnation } => {
                assert!(self.procs[host].is_none(), "seed {seed}: host {host} spawned while alive");
                assert!(self.pipes[host].is_empty(), "seed {seed}: host {host} spawned before EOF");
                let last = self.spawned[host].last().copied().unwrap_or(0);
                assert!(incarnation > last, "seed {seed}: incarnation {incarnation} after {last}");
                self.spawned[host].push(incarnation);
                assert!(
                    self.spawned[host].len() as u32 <= cfg.max_restarts,
                    "seed {seed}: host {host} spawned past its budget"
                );
                self.procs[host] = Some(Proc::new(incarnation));
                let dead = incarnation - 1;
                self.stale.extend([
                    Event::Listening { host, incarnation: dead },
                    Event::PhaseReached { host, incarnation: dead, phase: PHASES[0] },
                    Event::Exited { host, incarnation: dead, how: Exit::Crashed },
                    Event::Exited { host, incarnation: dead, how: Exit::Finished },
                ]);
            }
            Action::Kill { host, mode } => match self.procs[host].as_mut() {
                // SIGKILL ends a stopped process at once; anything else
                // lands after a seeded number of further lines.
                Some(p) => {
                    let delay = if p.stopped { 0 } else { self.rng.below(3) };
                    p.stopped = false;
                    p.signal = Some((delay, mode));
                }
                // It printed DONE and left before the supervisor heard of
                // the phase it was to die in.
                None => self.outran = true,
            },
            Action::TellPeers { host } => {
                assert!(self.listened.iter().all(|&l| l), "seed {seed}: told before all listen");
                if let Some(p) = self.procs[host].as_mut() {
                    p.told = true;
                }
            }
            Action::Finish => self.outcome = Some(Ok(())),
            Action::Fail(e) => self.outcome = Some(Err(e)),
        }
    }
}

/// Runs one schedule to its end and checks it; returns the step count.
fn explore(cfg: Config, seed: u64) -> usize {
    let Config { hosts, mode, repeat, max_restarts } = cfg;
    let mut rng = Rng(seed);
    let victim = rng.below(hosts as u64) as usize;
    let phase = PHASES[rng.below(PHASES.len() as u64) as usize];
    let opts = RecoveryOptions {
        heartbeat_timeout: Duration::from_millis(20),
        max_restarts,
        restart_backoff: Duration::from_millis(10),
    };
    let mut sup = Supervisor::new(hosts, opts, Some((KillDecision { victim, phase, mode }, repeat)));
    let mut w = World {
        rng,
        now_ms: 0,
        procs: (0..hosts).map(|_| Some(Proc::new(0))).collect(),
        pipes: vec![VecDeque::new(); hosts],
        stale: Vec::new(),
        listened: vec![false; hosts],
        spawned: vec![Vec::new(); hosts],
        outran: false,
        outcome: None,
    };
    let states = |sup: &Supervisor| (0..hosts).map(|h| sup.state(h)).collect::<Vec<_>>();

    let mut steps = 0;
    while w.outcome.is_none() {
        steps += 1;
        assert!(
            steps < MAX_STEPS,
            "seed {seed}: neither Finish nor Fail after {MAX_STEPS} steps (hosts {hosts}, \
             {mode:?} @ {phase} on host {victim}, repeat {repeat}, max_restarts {max_restarts}): {:?}",
            states(&sup)
        );
        w.now_ms += w.rng.below(4);
        let host = w.rng.below(hosts as u64) as usize;
        let event = match w.rng.below(4) {
            0 => {
                w.advance(host);
                continue;
            }
            1 => match w.pipes[host].pop_front() {
                Some(event) => event,
                None => continue,
            },
            2 if !w.stale.is_empty() => {
                // A dead generation's straggler must change nothing.
                let i = w.rng.below(w.stale.len() as u64) as usize;
                let before = (states(&sup), sup.kills(), sup.next_deadline());
                let actions = sup.step(w.now_ms, w.stale.swap_remove(i));
                assert!(actions.is_empty(), "seed {seed}: a stale event caused {actions:?}");
                assert_eq!(before, (states(&sup), sup.kills(), sup.next_deadline()), "seed {seed}");
                continue;
            }
            _ => Event::Tick,
        };
        if let Event::Listening { host, .. } = event {
            w.listened[host] = true;
        }
        for action in sup.step(w.now_ms, event) {
            w.perform(action, cfg, seed);
        }
    }

    // Over means over: whatever is still in flight, and any tick, is inert.
    let rest: Vec<_> = w.pipes.iter_mut().flat_map(|p| p.drain(..)).chain(w.stale.drain(..)).collect();
    for event in rest.into_iter().chain([Event::Tick]) {
        let actions = sup.step(w.now_ms + 1_000_000, event);
        assert!(actions.is_empty(), "seed {seed}: {actions:?} after the run was over");
    }
    assert_eq!(sup.next_deadline(), None, "seed {seed}: a deadline outlives the run");

    match w.outcome.unwrap() {
        Ok(()) => {
            assert!(states(&sup).iter().all(|s| *s == HostState::Done), "seed {seed}");
            assert!(w.procs.iter().all(|p| p.is_none()), "seed {seed}: Finish with a live process");
            if repeat {
                assert!(w.outran, "seed {seed}: a repeating kill cannot end in Finish");
            } else {
                assert_eq!(sup.kills(), 1, "seed {seed}: a one-shot plan fires exactly once");
                assert!(max_restarts > 0 || w.outran, "seed {seed}: recovered without a budget");
            }
        }
        Err(e) => {
            assert_eq!(e, ClusterError::HostLost { host: victim, restarts: max_restarts }, "seed {seed}");
            assert_eq!(sup.state(victim), HostState::Lost, "seed {seed}");
            assert!(repeat || max_restarts == 0, "seed {seed}: a one-shot kill lost a host with budget left");
        }
    }
    steps
}

#[test]
fn every_schedule_ends_in_finish_or_fail() {
    // 3 × 3 × 2 × 3 configurations × 1,000 seeds = 54,000 schedules.
    for hosts in [1, 2, 4] {
        for mode in [KillMode::Kill, KillMode::Torn, KillMode::Wedge] {
            for repeat in [false, true] {
                for max_restarts in [0, 1, 3] {
                    let cfg = Config { hosts, mode, repeat, max_restarts };
                    for seed in 0..1_000 {
                        explore(cfg, seed);
                    }
                }
            }
        }
    }
}

#[test]
fn same_seed_same_schedule() {
    let cfg = Config { hosts: 4, mode: KillMode::Wedge, repeat: true, max_restarts: 3 };
    for seed in [7, 20261005] {
        assert_eq!(explore(cfg, seed), explore(cfg, seed));
    }
}
