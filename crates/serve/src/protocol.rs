//! The cusp-serve wire protocol: one request (or response) per
//! length-delimited, CRC-checked frame: a magic word, then one checked
//! record of `cusp_graph::wire`, which owns its parse, bounds and checksum.
//!
//! ```text
//! frame:
//!   magic   u32  0x43_53_52_56  ("CSRV" read as LE bytes 'V''R''S''C')
//!   record:
//!     length  u32  payload byte count (<= the negotiated cap)
//!     crc32   u32  CRC-32 (IEEE, reflected) of the payload bytes
//!     payload length bytes
//!
//! payload:
//!   tag     u8   message kind
//!   body    tag-specific fields via the cusp-net WireWriter primitives
//!           (LE scalars, u64 length-prefixed slices, u32-length strings)
//! ```
//!
//! The decode path is total: any byte string maps to `Ok(message)` or a
//! typed [`ProtocolError`] — never a panic, and never an allocation
//! proportional to an attacker-controlled length prefix (lengths are
//! validated against both the frame cap and the bytes actually present
//! before any buffer is sized). The fuzz battery in
//! `tests/protocol_fuzz.rs` holds the codec to exactly that contract,
//! mirroring the corrupt-header style of the `storage.rs` tests.

use std::io::{self, Read, Write};

use cusp_graph::wire::{self, RecordError, Truncated, RECORD_HEADER_BYTES};
use cusp_net::WireWriter;

use crate::error::ProtocolError;

/// Frame magic ("CSRV" in the header doc above).
pub const MAGIC: u32 = 0x4353_5256;
/// Byte count of the magic word.
const MAGIC_BYTES: usize = 4;
/// Frame header byte count (magic + length + crc).
pub const HEADER_BYTES: usize = MAGIC_BYTES + RECORD_HEADER_BYTES;
/// Default cap on one frame's payload: large enough for a few hundred
/// million edges' worth of CSR upload, small enough that a hostile length
/// prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME: u32 = 256 << 20;
/// Cap on tenant / graph / policy name fields.
pub const MAX_NAME: usize = 256;
/// Cap on error-message strings (responses are server-generated, but the
/// decoder is shared, so the bound is enforced on read too).
pub const MAX_MESSAGE: usize = 4096;
/// Most hosts a partition request may ask for (matches the simulated
/// cluster's practical ceiling).
pub const MAX_HOSTS: u32 = 64;
/// Most events one `apply` batch may carry. Bounds both the decode-side
/// allocation and the per-request mutation work a tenant can demand.
pub const MAX_BATCH_EVENTS: usize = 1 << 20;

/// The frame checksum: the workspace's one CRC-32 (IEEE, reflected),
/// shared with the WAL and the checkpoint store.
pub use cusp_graph::wire::crc32;

/// How a served partition was obtained — travels in the `Partitioned`
/// response so clients (and the CI smoke job) can see cache behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Ran the five-phase pipeline.
    Cold,
    /// Returned from the in-memory cache.
    Memory,
    /// Reloaded from the on-disk `.part` cache.
    Disk,
    /// Coalesced onto another request's in-flight job for the same key.
    Coalesced,
}

impl CacheTier {
    fn to_u8(self) -> u8 {
        match self {
            CacheTier::Cold => 0,
            CacheTier::Memory => 1,
            CacheTier::Disk => 2,
            CacheTier::Coalesced => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtocolError> {
        Ok(match v {
            0 => CacheTier::Cold,
            1 => CacheTier::Memory,
            2 => CacheTier::Disk,
            3 => CacheTier::Coalesced,
            _ => return Err(ProtocolError::BadValue("cache tier")),
        })
    }

    /// Lowercase label used by the client CLI and the HTTP front end.
    pub fn label(self) -> &'static str {
        match self {
            CacheTier::Cold => "cold",
            CacheTier::Memory => "memory",
            CacheTier::Disk => "disk",
            CacheTier::Coalesced => "coalesced",
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Upload a CSR graph (optionally weighted) under `tenant`/`name`.
    UploadGraph {
        /// Tenant namespace.
        tenant: String,
        /// Graph name within the tenant.
        name: String,
        /// CSR offsets (`nodes + 1` entries).
        offsets: Vec<u64>,
        /// CSR destinations.
        dests: Vec<u32>,
        /// Per-edge data aligned with `dests`, if weighted.
        weights: Option<Vec<u32>>,
    },
    /// Partition an uploaded graph (served from cache when the key is
    /// warm).
    Partition {
        /// Tenant namespace.
        tenant: String,
        /// Graph name within the tenant.
        graph: String,
        /// Policy name (as accepted by `PolicyKind::parse`).
        policy: String,
        /// Simulated host count (1..=[`MAX_HOSTS`]).
        hosts: u32,
        /// Reader chunk bound; 0 = monolithic.
        chunk_edges: u64,
    },
    /// Degree/size statistics of an uploaded graph.
    GraphStats {
        /// Tenant namespace.
        tenant: String,
        /// Graph name within the tenant.
        graph: String,
    },
    /// Partition-quality analytics for a (possibly cached) partition key.
    Quality {
        /// Tenant namespace.
        tenant: String,
        /// Graph name within the tenant.
        graph: String,
        /// Policy name.
        policy: String,
        /// Simulated host count.
        hosts: u32,
        /// Reader chunk bound; 0 = monolithic.
        chunk_edges: u64,
    },
    /// Names and sizes of the tenant's resident graphs.
    ListGraphs {
        /// Tenant namespace.
        tenant: String,
    },
    /// Server-wide request/cache counters.
    ServerStats,
    /// Apply a mutation batch to an uploaded graph: the events are
    /// journaled to the tenant's WAL, the stored graph advances to the
    /// mutated fingerprint, and every cache entry keyed by the old
    /// fingerprint becomes unreachable. On the wire the batch is the WAL
    /// record payload ([`cusp_graph::wal::encode_batch`]), so the bytes a
    /// client sends are the bytes the server journals.
    Apply {
        /// Tenant namespace.
        tenant: String,
        /// Graph name within the tenant.
        graph: String,
        /// The mutation events, applied in order (all-or-nothing).
        batch: Vec<cusp_graph::GraphEvent>,
    },
}

const TAG_UPLOAD: u8 = 0x01;
const TAG_PARTITION: u8 = 0x02;
const TAG_GRAPH_STATS: u8 = 0x03;
const TAG_QUALITY: u8 = 0x04;
const TAG_LIST: u8 = 0x05;
const TAG_SERVER_STATS: u8 = 0x06;
const TAG_APPLY: u8 = 0x07;

const TAG_R_UPLOADED: u8 = 0x81;
const TAG_R_PARTITIONED: u8 = 0x82;
const TAG_R_GRAPH_STATS: u8 = 0x83;
const TAG_R_QUALITY: u8 = 0x84;
const TAG_R_GRAPHS: u8 = 0x85;
const TAG_R_SERVER_STATS: u8 = 0x86;
const TAG_R_APPLIED: u8 = 0x87;
const TAG_R_ERROR: u8 = 0xFF;

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Upload accepted; the fingerprint is the cache-key graph identity.
    GraphUploaded {
        /// `cusp::graph_fingerprint` of the stored graph.
        fingerprint: u64,
        /// Node count.
        nodes: u64,
        /// Edge count.
        edges: u64,
    },
    /// Partition available (freshly computed or cached).
    Partitioned {
        /// `cusp::partition_fingerprint` over all host partitions.
        fingerprint: u64,
        /// How the result was obtained.
        tier: CacheTier,
        /// Server-side wall time for this request, microseconds.
        wall_micros: u64,
        /// Replication factor of the partition.
        replication_factor: f64,
        /// Edge balance of the partition.
        edge_balance: f64,
    },
    /// Graph statistics.
    GraphStatsReport {
        /// `cusp::graph_fingerprint` of the graph.
        fingerprint: u64,
        /// Node count.
        nodes: u64,
        /// Edge count.
        edges: u64,
        /// Maximum out-degree.
        max_degree: u64,
        /// Whether per-edge data is attached.
        weighted: bool,
    },
    /// Partition-quality analytics.
    QualityReport {
        /// `cusp::partition_fingerprint` of the measured partition.
        fingerprint: u64,
        /// How the partition was obtained.
        tier: CacheTier,
        /// Replication factor.
        replication_factor: f64,
        /// Node balance.
        node_balance: f64,
        /// Edge balance.
        edge_balance: f64,
        /// Total mirrors across hosts.
        total_mirrors: u64,
    },
    /// The tenant's graphs as `(name, nodes, edges)` rows.
    Graphs {
        /// One row per resident graph.
        rows: Vec<(String, u64, u64)>,
    },
    /// Server-wide counters.
    ServerStatsReport {
        /// Requests handled (all kinds).
        requests: u64,
        /// Partition jobs actually run (cache misses).
        jobs_run: u64,
        /// In-memory cache hits.
        mem_hits: u64,
        /// On-disk cache hits.
        disk_hits: u64,
        /// Requests coalesced onto an in-flight job.
        coalesced: u64,
        /// Tenants registered.
        tenants: u64,
        /// Graphs resident across tenants.
        graphs: u64,
    },
    /// Mutation batch applied; the graph now answers to `new_fingerprint`.
    Applied {
        /// Graph fingerprint before the batch (now invalidated).
        old_fingerprint: u64,
        /// Graph fingerprint after the batch (the new cache-key identity).
        new_fingerprint: u64,
        /// Graph-level dirty vertices (event sources + newly materialized
        /// ids; the partition-level dirty set is computed per delta run).
        dirty_vertices: u64,
        /// Node count after the batch.
        nodes: u64,
        /// Edge count after the batch.
        edges: u64,
    },
    /// The request failed; `code` is [`crate::ServeError::code`].
    Error {
        /// Stable error-class code.
        code: u8,
        /// Human-readable description.
        message: String,
    },
}

fn put_str(w: &mut WireWriter, s: &str) {
    w.put_u32(s.len() as u32);
    w.put_raw(s.as_bytes());
}

fn get_str(r: &mut wire::Reader, cap: usize) -> Result<String, ProtocolError> {
    let len = r.u32()? as usize;
    if len > cap {
        return Err(ProtocolError::BadValue("string length"));
    }
    String::from_utf8(r.bytes(len)?.to_vec()).map_err(|_| ProtocolError::BadUtf8)
}

impl Request {
    /// Encodes the request payload (tag + body, no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Request::UploadGraph { tenant, name, offsets, dests, weights } => {
                w.put_u8(TAG_UPLOAD);
                put_str(&mut w, tenant);
                put_str(&mut w, name);
                w.put_u64_slice(offsets);
                w.put_u32_slice(dests);
                match weights {
                    None => w.put_u8(0),
                    Some(ws) => {
                        w.put_u8(1);
                        w.put_u32_slice(ws);
                    }
                }
            }
            Request::Partition { tenant, graph, policy, hosts, chunk_edges } => {
                w.put_u8(TAG_PARTITION);
                put_str(&mut w, tenant);
                put_str(&mut w, graph);
                put_str(&mut w, policy);
                w.put_u32(*hosts);
                w.put_u64(*chunk_edges);
            }
            Request::GraphStats { tenant, graph } => {
                w.put_u8(TAG_GRAPH_STATS);
                put_str(&mut w, tenant);
                put_str(&mut w, graph);
            }
            Request::Quality { tenant, graph, policy, hosts, chunk_edges } => {
                w.put_u8(TAG_QUALITY);
                put_str(&mut w, tenant);
                put_str(&mut w, graph);
                put_str(&mut w, policy);
                w.put_u32(*hosts);
                w.put_u64(*chunk_edges);
            }
            Request::ListGraphs { tenant } => {
                w.put_u8(TAG_LIST);
                put_str(&mut w, tenant);
            }
            Request::ServerStats => w.put_u8(TAG_SERVER_STATS),
            Request::Apply { tenant, graph, batch } => {
                w.put_u8(TAG_APPLY);
                put_str(&mut w, tenant);
                put_str(&mut w, graph);
                // The rest of the payload is the batch exactly as the WAL
                // records it: the wire and the log speak the same bytes.
                w.put_raw(&cusp_graph::wal::encode_batch(batch));
            }
        }
        w.finish().to_vec()
    }

    /// Decodes a request payload. Total: every byte string yields `Ok` or
    /// a typed error.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut r = wire::Reader::new(payload);
        let tag = r.u8()?;
        let req = match tag {
            TAG_UPLOAD => {
                let tenant = get_str(&mut r, MAX_NAME)?;
                let name = get_str(&mut r, MAX_NAME)?;
                let offsets = r.u64_vec()?;
                let dests = r.u32_vec()?;
                let weights = match r.u8()? {
                    0 => None,
                    1 => Some(r.u32_vec()?),
                    _ => return Err(ProtocolError::BadValue("weights flag")),
                };
                Request::UploadGraph { tenant, name, offsets, dests, weights }
            }
            TAG_PARTITION | TAG_QUALITY => {
                let tenant = get_str(&mut r, MAX_NAME)?;
                let graph = get_str(&mut r, MAX_NAME)?;
                let policy = get_str(&mut r, MAX_NAME)?;
                let hosts = r.u32()?;
                if hosts == 0 || hosts > MAX_HOSTS {
                    return Err(ProtocolError::BadValue("hosts"));
                }
                let chunk_edges = r.u64()?;
                if tag == TAG_PARTITION {
                    Request::Partition { tenant, graph, policy, hosts, chunk_edges }
                } else {
                    Request::Quality { tenant, graph, policy, hosts, chunk_edges }
                }
            }
            TAG_GRAPH_STATS => Request::GraphStats {
                tenant: get_str(&mut r, MAX_NAME)?,
                graph: get_str(&mut r, MAX_NAME)?,
            },
            TAG_LIST => Request::ListGraphs { tenant: get_str(&mut r, MAX_NAME)? },
            TAG_SERVER_STATS => Request::ServerStats,
            TAG_APPLY => {
                let tenant = get_str(&mut r, MAX_NAME)?;
                let graph = get_str(&mut r, MAX_NAME)?;
                // The rest of the payload is one WAL batch record. Its
                // leading u32 count is capped here; `decode_batch` checks it
                // against the bytes present before it allocates.
                let rest = &payload[payload.len() - r.remaining()..];
                if r.u32()? as usize > MAX_BATCH_EVENTS {
                    return Err(ProtocolError::BadValue("batch event count"));
                }
                let batch =
                    cusp_graph::wal::decode_batch(rest).map_err(ProtocolError::BadValue)?;
                r.bytes(r.remaining())?; // `decode_batch` accounted for every byte
                Request::Apply { tenant, graph, batch }
            }
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        if !r.is_empty() {
            return Err(ProtocolError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(req)
    }
}

impl Response {
    /// Encodes the response payload (tag + body, no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Response::GraphUploaded { fingerprint, nodes, edges } => {
                w.put_u8(TAG_R_UPLOADED);
                w.put_u64(*fingerprint);
                w.put_u64(*nodes);
                w.put_u64(*edges);
            }
            Response::Partitioned {
                fingerprint,
                tier,
                wall_micros,
                replication_factor,
                edge_balance,
            } => {
                w.put_u8(TAG_R_PARTITIONED);
                w.put_u64(*fingerprint);
                w.put_u8(tier.to_u8());
                w.put_u64(*wall_micros);
                w.put_f64(*replication_factor);
                w.put_f64(*edge_balance);
            }
            Response::GraphStatsReport { fingerprint, nodes, edges, max_degree, weighted } => {
                w.put_u8(TAG_R_GRAPH_STATS);
                w.put_u64(*fingerprint);
                w.put_u64(*nodes);
                w.put_u64(*edges);
                w.put_u64(*max_degree);
                w.put_u8(u8::from(*weighted));
            }
            Response::QualityReport {
                fingerprint,
                tier,
                replication_factor,
                node_balance,
                edge_balance,
                total_mirrors,
            } => {
                w.put_u8(TAG_R_QUALITY);
                w.put_u64(*fingerprint);
                w.put_u8(tier.to_u8());
                w.put_f64(*replication_factor);
                w.put_f64(*node_balance);
                w.put_f64(*edge_balance);
                w.put_u64(*total_mirrors);
            }
            Response::Graphs { rows } => {
                w.put_u8(TAG_R_GRAPHS);
                w.put_u64(rows.len() as u64);
                for (name, nodes, edges) in rows {
                    put_str(&mut w, name);
                    w.put_u64(*nodes);
                    w.put_u64(*edges);
                }
            }
            Response::ServerStatsReport {
                requests,
                jobs_run,
                mem_hits,
                disk_hits,
                coalesced,
                tenants,
                graphs,
            } => {
                w.put_u8(TAG_R_SERVER_STATS);
                for v in [requests, jobs_run, mem_hits, disk_hits, coalesced, tenants, graphs] {
                    w.put_u64(*v);
                }
            }
            Response::Applied {
                old_fingerprint,
                new_fingerprint,
                dirty_vertices,
                nodes,
                edges,
            } => {
                w.put_u8(TAG_R_APPLIED);
                for v in [old_fingerprint, new_fingerprint, dirty_vertices, nodes, edges] {
                    w.put_u64(*v);
                }
            }
            Response::Error { code, message } => {
                w.put_u8(TAG_R_ERROR);
                w.put_u8(*code);
                put_str(&mut w, message);
            }
        }
        w.finish().to_vec()
    }

    /// Decodes a response payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = wire::Reader::new(payload);
        let tag = r.u8()?;
        let resp = match tag {
            TAG_R_UPLOADED => Response::GraphUploaded {
                fingerprint: r.u64()?,
                nodes: r.u64()?,
                edges: r.u64()?,
            },
            TAG_R_PARTITIONED => Response::Partitioned {
                fingerprint: r.u64()?,
                tier: CacheTier::from_u8(r.u8()?)?,
                wall_micros: r.u64()?,
                replication_factor: r.f64()?,
                edge_balance: r.f64()?,
            },
            TAG_R_GRAPH_STATS => Response::GraphStatsReport {
                fingerprint: r.u64()?,
                nodes: r.u64()?,
                edges: r.u64()?,
                max_degree: r.u64()?,
                weighted: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(ProtocolError::BadValue("weighted flag")),
                },
            },
            TAG_R_QUALITY => Response::QualityReport {
                fingerprint: r.u64()?,
                tier: CacheTier::from_u8(r.u8()?)?,
                replication_factor: r.f64()?,
                node_balance: r.f64()?,
                edge_balance: r.f64()?,
                total_mirrors: r.u64()?,
            },
            TAG_R_GRAPHS => {
                let n = r.u64()? as usize;
                // Each row is at least 4 + 8 + 8 bytes; bound the claimed
                // count by what could possibly be present.
                if n > r.remaining() / 20 {
                    return Err(ProtocolError::Truncated {
                        needed: n.saturating_mul(20),
                        available: r.remaining(),
                    });
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = get_str(&mut r, MAX_NAME)?;
                    let nodes = r.u64()?;
                    let edges = r.u64()?;
                    rows.push((name, nodes, edges));
                }
                Response::Graphs { rows }
            }
            TAG_R_SERVER_STATS => Response::ServerStatsReport {
                requests: r.u64()?,
                jobs_run: r.u64()?,
                mem_hits: r.u64()?,
                disk_hits: r.u64()?,
                coalesced: r.u64()?,
                tenants: r.u64()?,
                graphs: r.u64()?,
            },
            TAG_R_APPLIED => Response::Applied {
                old_fingerprint: r.u64()?,
                new_fingerprint: r.u64()?,
                dirty_vertices: r.u64()?,
                nodes: r.u64()?,
                edges: r.u64()?,
            },
            TAG_R_ERROR => Response::Error {
                code: r.u8()?,
                message: get_str(&mut r, MAX_MESSAGE)?,
            },
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        if !r.is_empty() {
            return Err(ProtocolError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(resp)
    }
}

/// Wraps a payload in a frame header.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    wire::put_u32(&mut out, MAGIC);
    wire::put_record(&mut out, payload);
    out
}

/// Checks the magic word that starts a frame; `bytes` is whatever of the
/// frame has arrived.
fn check_magic(bytes: &[u8]) -> Result<(), ProtocolError> {
    match wire::Reader::new(bytes).u32() {
        Ok(MAGIC) => Ok(()),
        Ok(other) => Err(ProtocolError::BadMagic(other)),
        Err(_) => Err(ProtocolError::Truncated { needed: HEADER_BYTES, available: bytes.len() }),
    }
}

/// A record's verdict as a frame's: byte counts move past the magic word.
fn frame_error(e: RecordError) -> ProtocolError {
    match e {
        RecordError::Truncated(Truncated { needed, available }) => ProtocolError::Truncated {
            needed: MAGIC_BYTES + needed,
            available: MAGIC_BYTES + available,
        },
        RecordError::Oversize { len, max } => ProtocolError::Oversize { len, max },
        RecordError::Crc { stored, actual } => ProtocolError::CrcMismatch { stored, actual },
    }
}

/// Decodes one frame from the front of `bytes`, returning the payload and
/// the total bytes consumed. Pure and total — the in-memory half of the
/// socket reader, and what the fuzzers drive directly.
pub fn decode_frame(bytes: &[u8], max_frame: u32) -> Result<(&[u8], usize), ProtocolError> {
    check_magic(bytes)?;
    let (payload, used) = wire::take_record(&bytes[MAGIC_BYTES..], max_frame).map_err(frame_error)?;
    Ok((payload, MAGIC_BYTES + used))
}

/// What [`read_frame`] can yield besides a payload.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// The socket failed (including read timeouts — the connection loop's
    /// anti-hang backstop).
    Io(io::Error),
    /// The bytes arrived but do not form a valid frame.
    Protocol(ProtocolError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Eof => write!(f, "connection closed"),
            RecvError::Io(e) => write!(f, "socket error: {e}"),
            RecvError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Reads one frame off a blocking stream. The header is validated before
/// the payload buffer is allocated, so a hostile length prefix costs
/// nothing; a read timeout set on the socket bounds how long a silent or
/// trickling peer can hold the loop.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Vec<u8>, RecvError> {
    // The whole header in one read; the record parser then sees its part
    // of it chained in front of the stream.
    let mut header = Vec::with_capacity(HEADER_BYTES);
    r.by_ref().take(HEADER_BYTES as u64).read_to_end(&mut header).map_err(RecvError::Io)?;
    if header.is_empty() {
        // Clean EOF (no bytes at all), as distinct from a truncated header.
        return Err(RecvError::Eof);
    }
    check_magic(&header).map_err(RecvError::Protocol)?;
    wire::read_record(&mut (&header[MAGIC_BYTES..]).chain(r), max_frame)
        .map_err(RecvError::Io)?
        .map_err(|e| RecvError::Protocol(frame_error(e)))
}

/// Writes one framed payload to a blocking stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::UploadGraph {
                tenant: "acme".into(),
                name: "web".into(),
                offsets: vec![0, 2, 3],
                dests: vec![1, 2, 0],
                weights: Some(vec![9, 8, 7]),
            },
            Request::Partition {
                tenant: "acme".into(),
                graph: "web".into(),
                policy: "CVC".into(),
                hosts: 4,
                chunk_edges: 1024,
            },
            Request::GraphStats { tenant: "acme".into(), graph: "web".into() },
            Request::Quality {
                tenant: "t".into(),
                graph: "g".into(),
                policy: "HVC".into(),
                hosts: 2,
                chunk_edges: 0,
            },
            Request::ListGraphs { tenant: "acme".into() },
            Request::ServerStats,
            Request::Apply {
                tenant: "acme".into(),
                graph: "web".into(),
                batch: vec![
                    cusp_graph::GraphEvent::AddEdge { src: 0, dst: 9, weight: None },
                    cusp_graph::GraphEvent::AddEdge { src: 1, dst: 2, weight: Some(7) },
                    cusp_graph::GraphEvent::RemoveEdge { src: 2, dst: 0 },
                    cusp_graph::GraphEvent::SetWeight { src: 1, dst: 2, weight: 50 },
                ],
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let back = Request::decode(&req.encode()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::GraphUploaded { fingerprint: 7, nodes: 10, edges: 20 },
            Response::Partitioned {
                fingerprint: u64::MAX,
                tier: CacheTier::Disk,
                wall_micros: 1234,
                replication_factor: 1.5,
                edge_balance: 1.01,
            },
            Response::GraphStatsReport {
                fingerprint: 1,
                nodes: 2,
                edges: 3,
                max_degree: 4,
                weighted: true,
            },
            Response::QualityReport {
                fingerprint: 5,
                tier: CacheTier::Coalesced,
                replication_factor: 2.0,
                node_balance: 1.1,
                edge_balance: 1.2,
                total_mirrors: 33,
            },
            Response::Graphs { rows: vec![("a".into(), 1, 2), ("b".into(), 3, 4)] },
            Response::ServerStatsReport {
                requests: 1,
                jobs_run: 2,
                mem_hits: 3,
                disk_hits: 4,
                coalesced: 5,
                tenants: 6,
                graphs: 7,
            },
            Response::Error { code: 4, message: "over quota".into() },
        ];
        for resp in responses {
            let back = Response::decode(&resp.encode()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn frame_round_trips() {
        let payload = Request::ServerStats.encode();
        let frame = encode_frame(&payload);
        let (got, consumed) = decode_frame(&frame, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(got, &payload[..]);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn frame_rejects_corruption_by_field() {
        let payload = sample_requests()[1].encode();
        let clean = encode_frame(&payload);

        // Bad magic.
        let mut bytes = clean.clone();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&bytes, DEFAULT_MAX_FRAME),
            Err(ProtocolError::BadMagic(_))
        ));

        // Oversize length prefix — rejected before any payload walk.
        let mut bytes = clean.clone();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes, DEFAULT_MAX_FRAME),
            Err(ProtocolError::Oversize { len: u32::MAX, .. })
        ));

        // Flipped payload bit — CRC catches it.
        let mut bytes = clean.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&bytes, DEFAULT_MAX_FRAME),
            Err(ProtocolError::CrcMismatch { .. })
        ));

        // Truncation at every boundary short of complete.
        for cut in [0, 1, HEADER_BYTES - 1, HEADER_BYTES, clean.len() - 1] {
            assert!(
                matches!(
                    decode_frame(&clean[..cut], DEFAULT_MAX_FRAME),
                    Err(ProtocolError::Truncated { .. })
                ),
                "cut at {cut} not reported as truncation"
            );
        }

        // The untouched frame still decodes.
        assert!(decode_frame(&clean, DEFAULT_MAX_FRAME).is_ok());
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_typed() {
        assert_eq!(Request::decode(&[0x7E]), Err(ProtocolError::UnknownTag(0x7E)));
        let mut payload = Request::ServerStats.encode();
        payload.push(0xAA);
        assert_eq!(Request::decode(&payload), Err(ProtocolError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn hostile_string_and_slice_lengths_do_not_allocate() {
        // A string claiming 4 GiB with 3 bytes behind it.
        let mut w = WireWriter::new();
        w.put_u8(TAG_LIST);
        w.put_u32(u32::MAX);
        w.put_raw(b"abc");
        let err = Request::decode(&w.finish()).unwrap_err();
        assert!(
            matches!(err, ProtocolError::BadValue(_) | ProtocolError::Truncated { .. }),
            "{err:?}"
        );

        // An upload whose offsets slice claims u64::MAX elements.
        let mut w = WireWriter::new();
        w.put_u8(TAG_UPLOAD);
        put_str(&mut w, "t");
        put_str(&mut w, "g");
        w.put_u64(u64::MAX);
        let err = Request::decode(&w.finish()).unwrap_err();
        assert!(matches!(err, ProtocolError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn apply_payload_ends_with_the_wal_record_payload() {
        let req = sample_requests().pop().unwrap();
        let Request::Apply { batch, .. } = &req else { panic!("last sample is the Apply") };
        let record = cusp_graph::wal::encode_batch(batch);
        let payload = req.encode();
        assert_eq!(&payload[payload.len() - record.len()..], &record[..]);
        // tag + two u32-length strings ("acme", "web") precede it, nothing else.
        assert_eq!(payload.len() - record.len(), 1 + (4 + 4) + (4 + 3));
    }

    /// An `Apply` payload for tenant "t", graph "g" whose batch bytes are
    /// `batch`.
    fn apply_with(batch: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u8(TAG_APPLY);
        put_str(&mut w, "t");
        put_str(&mut w, "g");
        w.put_raw(batch);
        w.finish().to_vec()
    }

    #[test]
    fn hostile_apply_batches_are_typed() {
        use cusp_graph::wal::encode_batch;
        use cusp_graph::GraphEvent;

        // A batch claiming more events than the cap, with a few bytes
        // behind it — refused on the count alone.
        let mut bytes = (MAX_BATCH_EVENTS as u32 + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 18]);
        assert_eq!(
            Request::decode(&apply_with(&bytes)),
            Err(ProtocolError::BadValue("batch event count"))
        );

        // A count under the cap that the bytes present cannot back.
        let mut bytes = 1000u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 18]);
        assert_eq!(
            Request::decode(&apply_with(&bytes)),
            Err(ProtocolError::BadValue("event count exceeds payload"))
        );

        // An unknown event kind.
        let mut bytes = encode_batch(&[GraphEvent::RemoveEdge { src: 0, dst: 1 }]);
        bytes[4] = 9; // no such kind
        assert_eq!(
            Request::decode(&apply_with(&bytes)),
            Err(ProtocolError::BadValue("bad event tag"))
        );

        // A weighted add cut off before its weight.
        let bytes = encode_batch(&[GraphEvent::AddEdge { src: 0, dst: 1, weight: Some(7) }]);
        assert_eq!(
            Request::decode(&apply_with(&bytes[..bytes.len() - 4])),
            Err(ProtocolError::BadValue("truncated event"))
        );

        // A batch cut off inside its count.
        assert!(matches!(
            Request::decode(&apply_with(&[1, 0])),
            Err(ProtocolError::Truncated { .. })
        ));

        // Bytes after the last event.
        let mut bytes = encode_batch(&[GraphEvent::RemoveEdge { src: 0, dst: 1 }]);
        bytes.push(0xAA);
        assert_eq!(
            Request::decode(&apply_with(&bytes)),
            Err(ProtocolError::BadValue("trailing bytes after events"))
        );
    }
}
