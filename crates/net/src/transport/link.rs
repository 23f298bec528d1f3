//! One peer's connection life, decided once: [`PeerLink`] says whether a
//! broken connection is a loss, a down peer awaiting its respawn or the
//! expected close after FIN, whether a HELLO comes from the incarnation this
//! host's dial reached, a respawn or a stale duplicate, what a LOST the peer
//! sends means, and which reports are about a superseded connection. Its
//! [`PeerLink::step`] touches no clock, socket, thread or atomic, so
//! `tests/link_schedules.rs` explores it against a fake world; `tcp.rs` only
//! detects and acts.

use super::RejectReason;
use crate::cluster::HostId;

/// Where one peer stands: `gen` is the connection generation (0 for the
/// mesh, one more per admission), `inc` the incarnation last admitted.
#[allow(missing_docs)] // the fields are the two names above
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkState {
    /// Generation 0 before the peer's first HELLO (silent from `establish` on).
    Awaiting,
    /// Connected both ways; its reader and the silence watch are live.
    Up { gen: u64, inc: u32 },
    /// The peer sent FIN: that incarnation never needs the mesh again, so a
    /// broken connection or silence is expected from here on.
    Finned { gen: u64, inc: u32 },
    /// Admitted; the redial of its listener is under way.
    Joining { gen: u64, inc: u32 },
    /// Dead, awaiting a newer incarnation (with rejoin only), with no
    /// deadline: whether one comes is the process supervisor's decision.
    Down { gen: u64, inc: u32 },
    /// Dead for good (without rejoin): the run ends in `HostLost`.
    Lost,
}

/// A fact a driver reports to [`PeerLink::step`].
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// The reader of generation `gen` read a FIN frame.
    FrameFin { gen: u64 },
    /// The reader of generation `gen` hit EOF, a torn or corrupt frame.
    ReadFailed { gen: u64 },
    /// Nothing arrived on generation `gen` for the peer timeout.
    Silent { gen: u64 },
    /// The peer's process dialed in with a valid HELLO claiming `inc`.
    HelloFrom { inc: u32 },
    /// This host's dial of the peer's listener was accepted by incarnation
    /// `inc` (the ACCEPT names it); reported once per dial `establish` makes.
    Dialed { inc: u32 },
    /// The reader of generation `gen` read a LOST naming `host`: the peer is
    /// going down because it lost that host.
    Lost { gen: u64, host: u64 },
    /// The peer's supervisor saw it finish: as good as a FIN that died.
    Finished,
    /// The outcome of the redial an [`Action::Admit`] asked for.
    Redialed { ok: bool },
    /// This host tears its transport down; nothing follows.
    Shutdown,
}

/// An effect [`PeerLink::step`] asks its driver to perform.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Accept the HELLO and read its connection as generation 0; the
    /// outbound connection is this host's own dial.
    Hook,
    /// Drop the outbound queue and tear the reader out of its socket.
    Unhook,
    /// Accept the HELLO, redial the peer's listener, send it what
    /// [`resend`] lists and read it as generation `gen`; then report
    /// [`Event::Redialed`].
    Admit { gen: u64 },
    /// Refuse the HELLO, or the dial just reported, with this reason; a
    /// refused dial is made again.
    Reject(RejectReason),
    /// The peer finished: wake whoever waits for every FIN.
    Release,
    /// `host` is lost (the peer itself, or the host its LOST names): abort
    /// the run.
    MarkLost { host: HostId },
}

/// One peer's connection life: a [`LinkState`] moved by [`PeerLink::step`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PeerLink {
    rejoin: bool,
    /// This host, the peer, and how many hosts the run has.
    me: HostId,
    peer: HostId,
    hosts: usize,
    state: LinkState,
    /// The incarnation this host's dial reached, once it has reported.
    dialed: Option<u32>,
    /// [`Event::Shutdown`] arrived.
    closed: bool,
}

impl PeerLink {
    /// Host `me`'s link to `peer` of `hosts`, before either has dialed.
    pub fn new(rejoin: bool, me: HostId, peer: HostId, hosts: usize) -> Self {
        Self { rejoin, me, peer, hosts, state: LinkState::Awaiting, dialed: None, closed: false }
    }

    /// Where the peer stands.
    pub fn state(&self) -> LinkState {
        self.state
    }

    /// Whether the peer has neither dialed in nor been given up on: what
    /// `start` waits out.
    pub fn awaiting(&self) -> bool {
        self.state == LinkState::Awaiting
    }

    /// Whether the peer sent FIN (or its supervisor said it finished): what
    /// `finish` waits for.
    pub fn finned(&self) -> bool {
        matches!(self.state, LinkState::Finned { .. })
    }

    /// The generation whose silence counts, if any: the awaited first HELLO
    /// or the live connection.
    pub fn watched(&self) -> Option<u64> {
        match self.state {
            LinkState::Awaiting => Some(0),
            LinkState::Up { gen, .. } => Some(gen),
            _ => None,
        }
    }

    /// Advances the link by one event. Each rule is written once:
    ///
    /// * after [`Event::Shutdown`], and once lost, nothing changes;
    /// * a report about any generation but the current one changes nothing;
    /// * a HELLO from the incarnation this host's dial reached is hooked as
    ///   generation 0, with no redial;
    /// * until the dial reports, a HELLO is hooked provisionally (with
    ///   rejoin a newer one replaces it), and the report checks it: a dial
    ///   that reached an older incarnation is refused, so it is made again;
    ///   one that reached a newer incarnation unhooks the dead one's
    ///   connection and waits for its successor's HELLO;
    /// * any other HELLO is refused as a taken slot without rejoin; with it,
    ///   it is admitted iff its incarnation is strictly newer than the last
    ///   one hooked, admitted or dialed (equal is a duplicate of the live
    ///   worker, older a zombie): only one process can ever hold a given
    ///   (peer, incarnation);
    /// * a LOST naming a host that is neither this one, the peer nor out of
    ///   range loses that host; any other LOST is a broken connection;
    /// * a failure after FIN is the expected close, in either mode;
    /// * otherwise a failure, or silence before the first HELLO, is `Lost`
    ///   without rejoin and `Down` (awaiting a respawn) with it.
    pub fn step(&mut self, event: Event) -> Vec<Action> {
        use {LinkState::*, RejectReason::*};
        let (gen, inc) = match self.state {
            _ if self.closed => return Vec::new(),
            Lost => return Vec::new(),
            Awaiting => (0, self.dialed.unwrap_or(0)),
            Up { gen, inc } | Finned { gen, inc } | Joining { gen, inc } | Down { gen, inc } => {
                (gen, inc)
            }
        };
        let provisional = self.dialed.is_none() && self.state == Up { gen: 0, inc };
        match event {
            Event::Shutdown => {
                self.closed = true;
                Vec::new()
            }
            Event::Dialed { inc: reached } if provisional && reached < inc => {
                vec![Action::Reject(StaleIncarnation)]
            }
            Event::Dialed { inc: reached } => {
                self.dialed = Some(reached);
                if provisional && reached > inc {
                    self.state = Awaiting;
                    return vec![Action::Unhook];
                }
                Vec::new()
            }
            Event::HelloFrom { inc: claimed }
                if self.state == Awaiting && self.dialed.is_none_or(|d| d == claimed) =>
            {
                self.state = Up { gen: 0, inc: claimed };
                vec![Action::Hook]
            }
            Event::HelloFrom { .. } if !self.rejoin => vec![Action::Reject(BadHostId)],
            Event::HelloFrom { inc: claimed } if claimed <= inc => {
                vec![Action::Reject(StaleIncarnation)]
            }
            Event::HelloFrom { inc: claimed } if provisional => {
                self.state = Up { gen: 0, inc: claimed };
                vec![Action::Hook]
            }
            Event::HelloFrom { inc: claimed } => {
                let hooked = self.state != Down { gen, inc };
                self.state = Joining { gen: gen + 1, inc: claimed };
                let admit = Action::Admit { gen: gen + 1 };
                hooked.then_some(Action::Unhook).into_iter().chain([admit]).collect()
            }
            Event::Redialed { ok } => {
                if let Joining { .. } = self.state {
                    self.state = if ok { Up { gen, inc } } else { Down { gen, inc } };
                }
                Vec::new()
            }
            Event::FrameFin { gen: of }
            | Event::ReadFailed { gen: of }
            | Event::Silent { gen: of }
            | Event::Lost { gen: of, .. }
                if of != gen =>
            {
                Vec::new()
            }
            Event::Lost { host, .. }
                if host < self.hosts as u64 && host != self.me as u64 && host != self.peer as u64 =>
            {
                self.state = Lost;
                vec![Action::MarkLost { host: host as HostId }]
            }
            Event::Lost { .. } => self.step(Event::ReadFailed { gen }),
            Event::FrameFin { .. } | Event::Finished => match self.state {
                Awaiting | Up { .. } | Down { .. } => {
                    self.state = Finned { gen, inc };
                    vec![Action::Release]
                }
                _ => Vec::new(),
            },
            Event::ReadFailed { .. } | Event::Silent { .. } => match self.state {
                Awaiting | Up { .. } if self.rejoin => {
                    self.state = Down { gen, inc };
                    vec![Action::Unhook]
                }
                Awaiting | Up { .. } => {
                    self.state = Lost;
                    vec![Action::MarkLost { host: self.peer }]
                }
                _ => Vec::new(),
            },
        }
    }
}

/// One item [`resend`] lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resend<'a, T> {
    /// A frame of the send log.
    Logged(&'a T),
    /// The latest barrier arrival (monotone, so it subsumes every barrier
    /// frame that died with the old connection).
    Barrier(u64),
    /// FIN, already sent on the old connection.
    Fin,
}

/// What an admission sends on the fresh connection, in order: the whole
/// send log toward the peer (its resequencer floors drop what it already
/// consumed), the latest barrier arrival if there was one, and FIN if this
/// host has finished.
pub fn resend<T>(log: &[T], barrier: u64, fin: bool) -> impl Iterator<Item = Resend<'_, T>> {
    log.iter()
        .map(Resend::Logged)
        .chain((barrier > 0).then_some(Resend::Barrier(barrier)))
        .chain(fin.then_some(Resend::Fin))
}
