//! The transport abstraction: how envelopes move between hosts.
//!
//! Everything above this line — [`crate::Comm`]'s send/recv surface,
//! sequence numbering, the one send log a respawned host is replayed from
//! (`replay.rs`), the resequencer and its dedup floors, fault injection,
//! and [`crate::CommStats`] accounting — is transport-agnostic. A
//! `Transport` is only "ship + barrier":
//!
//! 1. **ship** an [`Envelope`](crate::cluster) toward a remote host, and
//! 2. **wait** at a monotone barrier until every host has arrived.
//!
//! A transport that can readmit a respawned peer (TCP rejoin) re-sends it
//! what the send log replays; it keeps no log of its own.
//!
//! Two implementations exist:
//!
//! - `LocalTransport` — the in-process simulator (the default): all hosts
//!   share one `Fabric`, shipping is a push into the destination's
//!   mailbox through the fault layer, and the barrier is the shared
//!   [`FabricBarrier`](crate::cluster).
//! - [`tcp::TcpTransport`] — one OS process per host, length-delimited
//!   frames over TCP feeding the *same* dispatch/fault/resequencer path
//!   and monotone arrival table; what each peer's connection state means
//!   is decided by one pure [`link::PeerLink`] per peer.
//!
//! The fidelity claim — a TCP run is indistinguishable from a simulated
//! one above the transport line — is what `tests/cross_process.rs`
//! verifies end to end by comparing partition fingerprints.

use std::sync::Arc;

use crate::cluster::{Envelope, Fabric, HostId, Tag};

pub mod link;
pub mod tcp;

pub use tcp::{TcpOptions, TcpTransport, TCP_PROTOCOL_VERSION};

/// Moves envelopes between hosts and synchronizes barriers.
///
/// Implementations must be cheap to call concurrently: `ship` is invoked
/// from pool worker threads during parallel serialization.
pub(crate) trait Transport: Send + Sync {
    /// Spawns any background machinery (reader/writer threads) once the
    /// fabric exists behind its `Arc`. Infallible by construction: binding
    /// and dialing happen before the transport is handed to the cluster;
    /// inbound handshakes complete here (TCP returns once every peer has
    /// dialed in), and a peer that never does fails like any silent peer.
    fn start(&self, _fabric: &Arc<Fabric>) {}

    /// Moves `env` toward remote host `dst` (`dst != env.src`; loopback is
    /// handled above the transport, through the envelope codec).
    fn ship(&self, fabric: &Fabric, dst: HostId, tag: Tag, env: Envelope);

    /// Announces `host`'s `n`-th barrier arrival and blocks until every
    /// host has arrived at least `n` times. Returns `false` if the run
    /// aborted (peer panic or host lost) before the barrier completed.
    fn barrier_wait(&self, fabric: &Fabric, host: HostId, n: u64) -> bool;

    /// Tears the transport down after the host function ends. `clean` is
    /// true when the host completed normally (send FIN, wait for peers)
    /// and false on an unwind (drop connections so peers detect the loss
    /// instead of hanging).
    fn finish(&self, _fabric: &Fabric, _clean: bool) {}

    /// How many dead peers reconnected mid-run (TCP rejoin handshakes
    /// this transport accepted). Zero for transports without a process
    /// boundary to recover across.
    fn rejoin_count(&self) -> u64 {
        0
    }
}

/// The in-process channel simulator: all hosts live in one process and
/// share the fabric, so shipping is a direct mailbox push and the barrier
/// is the fabric's shared arrival table.
pub(crate) struct LocalTransport;

impl Transport for LocalTransport {
    fn ship(&self, fabric: &Fabric, dst: HostId, tag: Tag, env: Envelope) {
        fabric.dispatch(dst, tag, env);
    }

    fn barrier_wait(&self, fabric: &Fabric, host: HostId, n: u64) -> bool {
        fabric.barrier.wait(host, n, || fabric.should_abort())
    }
}

/// Why a TCP transport could not be established or operated.
#[derive(Debug)]
pub enum TransportError {
    /// Could not bind the listener.
    Bind(std::io::Error),
    /// `peer`'s listener refused the connection (or could not be reached).
    Unreachable {
        /// The peer dialed.
        peer: HostId,
        /// The address dialed.
        addr: String,
    },
    /// The peer accepted the connection but rejected the handshake.
    Rejected {
        /// The rejecting peer.
        peer: HostId,
        /// Why it said no.
        reason: RejectReason,
    },
    /// The handshake exchange itself failed or was malformed.
    Handshake {
        /// The peer being handshaken with.
        peer: HostId,
        /// Human-readable detail.
        detail: String,
    },
    /// Invalid transport configuration (host id out of range, duplicate
    /// addresses, ...).
    Config(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Bind(e) => write!(f, "cannot bind listener: {e}"),
            TransportError::Unreachable { peer, addr } => write!(f, "host {peer} at {addr} unreachable"),
            TransportError::Rejected { peer, reason } => {
                write!(f, "host {peer} rejected the handshake: {reason}")
            }
            TransportError::Handshake { peer, detail } => {
                write!(f, "handshake with host {peer} failed: {detail}")
            }
            TransportError::Config(msg) => write!(f, "invalid transport config: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Why an acceptor refused a HELLO. The discriminant travels in the
/// REJECT frame body, so the dialer can report the mismatch precisely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectReason {
    /// The magic bytes did not spell CUSP.
    BadMagic = 1,
    /// Protocol version mismatch.
    BadVersion = 2,
    /// The dialer belongs to a different run (`run_nonce` mismatch).
    BadNonce = 3,
    /// The dialer disagrees about the cluster size.
    BadHosts = 4,
    /// The claimed host id is out of range, ours, or already connected.
    BadHostId = 5,
    /// A reconnecting peer presented an incarnation number no newer than
    /// the one already known for it — a stale or duplicate worker, not a
    /// legitimate respawn.
    StaleIncarnation = 6,
}

impl RejectReason {
    pub(crate) fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(RejectReason::BadMagic),
            2 => Some(RejectReason::BadVersion),
            3 => Some(RejectReason::BadNonce),
            4 => Some(RejectReason::BadHosts),
            5 => Some(RejectReason::BadHostId),
            6 => Some(RejectReason::StaleIncarnation),
            _ => None,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RejectReason::BadMagic => "bad magic",
            RejectReason::BadVersion => "protocol version mismatch",
            RejectReason::BadNonce => "run nonce mismatch (stale or foreign worker)",
            RejectReason::BadHosts => "cluster size mismatch",
            RejectReason::BadHostId => "invalid or duplicate host id",
            RejectReason::StaleIncarnation => "stale incarnation (superseded worker)",
        };
        f.write_str(s)
    }
}
