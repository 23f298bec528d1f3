//! The breadth-first schedule explorer both pure state machines are
//! searched with: `link_schedules.rs` drives a `PeerLink`,
//! `supervisor_schedules.rs` a `Supervisor`, each from a small fake
//! [`World`] that says what can happen next.
//!
//! [`Search::run`] visits every distinct world reachable from the starts
//! within a depth bound, performs every enabled move of each once, and
//! checks the end state of every schedule that ends. A panic in a move or an
//! end check is re-raised with the moves that reach it, as a [`replay`] call.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A fake world around one state machine: what it can do next, doing it
/// (asserting the invariants as it goes), and the check of a world in
/// which nothing more can happen.
pub trait World: Clone + Hash {
    /// What a start is built from; printed in a failing [`replay`].
    type Config: Copy + Debug;
    /// One thing the world does; a schedule is a list of them.
    type Move: Copy + Debug + PartialEq;

    fn new(cfg: Self::Config) -> Self;
    fn config(&self) -> Self::Config;
    /// The moves enabled now; none ends the schedule.
    fn moves(&self) -> Vec<Self::Move>;
    fn perform(&mut self, m: Self::Move);
    /// Checks a schedule that ended.
    fn check_end(&mut self);
}

/// A multiply-rotate hash (FxHash's): the search hashes every world it
/// reaches, and a 64-bit fingerprint of a few hundred thousand worlds does
/// not collide in practice.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn fingerprint(w: &impl Hash) -> u64 {
    let mut h = Fx::default();
    w.hash(&mut h);
    h.finish()
}

/// Runs `check` on `w`; a panic is re-raised with the moves that replay it.
pub fn checked<W: World>(
    w: &mut W,
    path: impl FnOnce() -> Vec<W::Move>,
    check: impl FnOnce(&mut W),
) {
    if let Err(e) = catch_unwind(AssertUnwindSafe(|| check(w))) {
        let why = e
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| e.downcast_ref::<&str>().copied())
            .unwrap_or("a panic");
        panic!("{why}\nreplay({:?}, &{:?})", w.config(), path());
    }
}

/// Performs `moves` from the start, each of which must be enabled.
pub fn replay<W: World>(cfg: W::Config, moves: &[W::Move]) -> W {
    let mut w = W::new(cfg);
    for (i, &m) in moves.iter().enumerate() {
        assert!(w.moves().contains(&m), "{m:?} is not enabled after {:?}", &moves[..i]);
        checked(&mut w, || moves[..=i].to_vec(), |w| w.perform(m));
    }
    w
}

/// The depth-bounded search, breadth first: every distinct world reachable
/// in at most `depth` moves is expanded once, at the depth it is first
/// reached; `seen` keeps the move that reached each one, so a failure
/// prints its whole path.
pub struct Search<W: World> {
    depth: usize,
    seen: HashMap<u64, Option<(u64, W::Move)>>,
    /// Schedules that ended: worlds with no move left.
    pub ended: usize,
    /// The depth of the deepest world reached.
    pub deepest: usize,
}

impl<W: World> Search<W> {
    pub fn new(depth: usize) -> Self {
        Search { depth, seen: HashMap::new(), ended: 0, deepest: 0 }
    }

    /// Distinct worlds visited.
    pub fn states(&self) -> usize {
        self.seen.len()
    }

    /// The moves that lead from a start to the world `at`.
    fn path(&self, mut at: u64) -> Vec<W::Move> {
        let mut path = Vec::new();
        while let Some(&Some((parent, m))) = self.seen.get(&at) {
            path.push(m);
            at = parent;
        }
        path.reverse();
        path
    }

    pub fn run(&mut self, starts: impl IntoIterator<Item = W::Config>) {
        let starts = starts.into_iter().map(W::new);
        let mut level: Vec<(u64, W)> = starts.map(|w| (fingerprint(&w), w)).collect();
        self.seen.extend(level.iter().map(|&(at, _)| (at, None)));
        let mut depth = 0;
        while !level.is_empty() {
            self.deepest = depth;
            let mut next = Vec::new();
            for (at, w) in &level {
                let moves = w.moves();
                if moves.is_empty() {
                    self.ended += 1;
                    checked(&mut w.clone(), || self.path(*at), W::check_end);
                }
                for m in moves.into_iter().filter(|_| depth < self.depth) {
                    let mut w = w.clone();
                    checked(&mut w, || [self.path(*at), vec![m]].concat(), |w| w.perform(m));
                    let to = fingerprint(&w);
                    if let Entry::Vacant(seen) = self.seen.entry(to) {
                        seen.insert(Some((*at, m)));
                        next.push((to, w));
                    }
                }
            }
            level = next;
            depth += 1;
        }
    }
}
