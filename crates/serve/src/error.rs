//! Typed failure taxonomy of the serving layer.
//!
//! Every way a request can go wrong is a variant here, never a panic: the
//! connection loop turns [`ServeError`]s into wire `Error` responses and
//! the fuzz battery asserts malformed frames land in [`ProtocolError`]
//! rather than aborting or hanging the loop.

use std::io;

/// A malformed frame or payload. These are *deterministic* properties of
/// the bytes — the same input always yields the same variant — which is
/// what lets the proptest fuzzers assert on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame header's magic word is wrong (not a cusp-serve peer).
    BadMagic(u32),
    /// The length prefix exceeds the configured frame cap; reported
    /// *before* any allocation, so an attacker-supplied 4 GiB length
    /// cannot balloon memory.
    Oversize {
        /// Length the prefix claimed.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// Payload bytes do not hash to the header CRC (bit rot or tamper).
    CrcMismatch {
        /// CRC-32 stored in the header.
        stored: u32,
        /// CRC-32 of the received payload.
        actual: u32,
    },
    /// Ran out of bytes mid-header or mid-payload.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// The payload's leading request/response tag is not one we know.
    UnknownTag(u8),
    /// A wire string is not valid UTF-8.
    BadUtf8,
    /// A payload decoded to a full value but bytes were left over —
    /// almost certainly a version skew; rejected rather than ignored.
    TrailingBytes {
        /// Leftover byte count.
        remaining: usize,
    },
    /// A field value is out of its documented domain (zero hosts,
    /// over-long name, ...). The message names the field.
    BadValue(&'static str),
}

impl From<cusp_graph::wire::Truncated> for ProtocolError {
    fn from(e: cusp_graph::wire::Truncated) -> Self {
        ProtocolError::Truncated { needed: e.needed, available: e.available }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            ProtocolError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            ProtocolError::CrcMismatch { stored, actual } => {
                write!(f, "payload CRC mismatch: header {stored:#010x}, actual {actual:#010x}")
            }
            ProtocolError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, {available} available")
            }
            ProtocolError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after payload")
            }
            ProtocolError::BadValue(what) => write!(f, "field out of domain: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Which per-tenant limit a rejected request ran into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaKind {
    /// Resident graph count would exceed `max_graphs`.
    Graphs,
    /// Resident graph bytes would exceed `max_bytes`.
    Bytes,
    /// In-flight partition requests would exceed `max_concurrent_jobs`.
    Jobs,
}

impl std::fmt::Display for QuotaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            QuotaKind::Graphs => "resident graphs",
            QuotaKind::Bytes => "resident bytes",
            QuotaKind::Jobs => "concurrent jobs",
        })
    }
}

/// A request that was understood but cannot be served. Over-quota is a
/// *rejection*, not a queue: the caller gets this immediately and decides
/// whether to retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The frame or payload was malformed.
    Protocol(ProtocolError),
    /// The named tenant or graph name is syntactically invalid (tenant
    /// names become storage directories, so the alphabet is restricted).
    BadName(String),
    /// The tenant has no graph under that name.
    NoSuchGraph {
        /// Tenant the lookup ran under.
        tenant: String,
        /// The graph name that missed.
        graph: String,
    },
    /// The request would exceed a per-tenant quota.
    QuotaExceeded {
        /// Tenant that hit the limit.
        tenant: String,
        /// Which limit.
        kind: QuotaKind,
        /// The configured ceiling.
        limit: u64,
    },
    /// The request referenced an unknown partition policy.
    UnknownPolicy(String),
    /// A field value is out of its served domain (e.g. hosts outside
    /// 1..=64).
    BadRequest(String),
    /// The partition job itself failed (panicked or lost a host); the
    /// server survives and reports it.
    JobFailed(String),
    /// Disk or socket trouble while serving.
    Io(String),
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

impl ServeError {
    /// Stable wire code for the `Error` response (one per variant class,
    /// so clients can branch without string matching).
    pub fn code(&self) -> u8 {
        match self {
            ServeError::Protocol(_) => 1,
            ServeError::BadName(_) => 2,
            ServeError::NoSuchGraph { .. } => 3,
            ServeError::QuotaExceeded { .. } => 4,
            ServeError::UnknownPolicy(_) => 5,
            ServeError::BadRequest(_) => 6,
            ServeError::JobFailed(_) => 7,
            ServeError::Io(_) => 8,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Protocol(e) => write!(f, "protocol: {e}"),
            ServeError::BadName(n) => write!(f, "invalid tenant/graph name '{n}'"),
            ServeError::NoSuchGraph { tenant, graph } => {
                write!(f, "tenant '{tenant}' has no graph '{graph}'")
            }
            ServeError::QuotaExceeded { tenant, kind, limit } => {
                write!(f, "tenant '{tenant}' over quota: {kind} limit {limit}")
            }
            ServeError::UnknownPolicy(p) => write!(f, "unknown policy '{p}'"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::JobFailed(m) => write!(f, "partition job failed: {m}"),
            ServeError::Io(m) => write!(f, "io: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}
