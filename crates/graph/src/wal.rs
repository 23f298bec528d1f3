//! A write-ahead log of graph mutations, and the batch-apply path that
//! turns a [`Csr`] plus a batch of events into the mutated graph.
//!
//! Real deployments receive graphs as a *stream of updates*, not a
//! one-shot file. The WAL records that stream durably so a partition can
//! be maintained incrementally: each appended batch is one unit of
//! mutation, and replaying the log over the original graph reproduces
//! the current graph exactly on every host (the property the delta
//! repartition path in `cusp` builds on).
//!
//! ## File format
//!
//! ```text
//! header:  magic u64 | version u32                       (12 bytes, LE)
//! record:  len u32 | crc32 u32 | payload[len]            (one per batch)
//! payload: count u32 | event*
//! event:   tag u8 (1=AddEdge 2=RemoveEdge 3=SetWeight)
//!          src u32 | dst u32
//!          AddEdge:   has_weight u8 | weight u32 if present
//!          SetWeight: weight u32
//! ```
//!
//! Appends are true appends: one framed record is written at the tail
//! and fsynced before the call returns, so the cost of an append is the
//! size of the *batch*, not the log, and an `Ok` means the batch is
//! durable. A crash mid-append can leave a torn final record — which by
//! construction was never acknowledged — and [`Wal::recover`] repairs
//! exactly that by truncating back to the longest valid prefix.
//! Decoding is *total*: truncation, bit flips, torn records, and
//! version skew all map to a typed [`WalError`], never a panic. The
//! record framing, its checksum and the cursor events are read through
//! are [`crate::wire`]'s; this module keeps the header and the event list.

use std::path::{Path, PathBuf};

use crate::csr::Csr;
use crate::wire::{self, Reader, RecordError};
use crate::{EdgeIdx, Node};

pub use crate::wire::crc32;

/// WAL file magic: `CUSPWAL\0` read as a little-endian `u64`.
pub const WAL_MAGIC: u64 = 0x004C_4157_5053_5543;
/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Header byte count (magic + version).
pub const WAL_HEADER_BYTES: usize = 12;
/// Smallest possible encoded event (tag + src + dst).
const MIN_EVENT_BYTES: usize = 9;

/// One graph mutation. Batches of these are the WAL's unit of commit and
/// the delta repartition path's unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphEvent {
    /// Append an out-edge `src -> dst`. `weight` must be present exactly
    /// when the graph carries per-edge data. May grow the node count to
    /// `max(src, dst) + 1`.
    AddEdge {
        /// Source vertex.
        src: Node,
        /// Destination vertex.
        dst: Node,
        /// Per-edge data, for weighted graphs only.
        weight: Option<u32>,
    },
    /// Remove **all** parallel occurrences of `src -> dst` (a no-op when
    /// the edge is absent).
    RemoveEdge {
        /// Source vertex.
        src: Node,
        /// Destination vertex.
        dst: Node,
    },
    /// Set the weight of every occurrence of `src -> dst` (weighted
    /// graphs only; a no-op when the edge is absent).
    SetWeight {
        /// Source vertex.
        src: Node,
        /// Destination vertex.
        dst: Node,
        /// New per-edge value.
        weight: u32,
    },
}

impl GraphEvent {
    /// The source vertex the event mutates (its adjacency changes, so the
    /// delta path treats it as dirty).
    pub fn src(&self) -> Node {
        match *self {
            GraphEvent::AddEdge { src, .. }
            | GraphEvent::RemoveEdge { src, .. }
            | GraphEvent::SetWeight { src, .. } => src,
        }
    }

    /// The destination vertex the event references.
    pub fn dst(&self) -> Node {
        match *self {
            GraphEvent::AddEdge { dst, .. }
            | GraphEvent::RemoveEdge { dst, .. }
            | GraphEvent::SetWeight { dst, .. } => dst,
        }
    }
}

/// Every way a WAL file can fail to decode. Deterministic properties of
/// the bytes: the same corrupt file always yields the same variant.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem trouble reading or committing the log.
    Io(std::io::Error),
    /// The file does not start with [`WAL_MAGIC`] — not a WAL.
    BadMagic(u64),
    /// The file is a WAL of a format version this build does not speak.
    BadVersion(u32),
    /// The file ends before the header is complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes present.
        available: usize,
    },
    /// A record's length prefix points past the end of the file — a torn
    /// or truncated tail.
    TornTail {
        /// Byte offset of the offending record header.
        offset: usize,
    },
    /// A record's payload does not hash to its stored CRC (bit rot or
    /// tamper).
    Corrupt {
        /// Zero-based index of the bad record.
        record: usize,
    },
    /// A record's CRC checks out but its payload is not a valid event
    /// batch (bad tag, truncated event, trailing bytes) — version skew
    /// inside a record.
    BadEvent {
        /// Zero-based index of the bad record.
        record: usize,
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::BadMagic(m) => write!(f, "bad wal magic {m:#018x}"),
            WalError::BadVersion(v) => write!(f, "unsupported wal version {v}"),
            WalError::Truncated { needed, available } => {
                write!(f, "truncated wal: needed {needed} bytes, {available} available")
            }
            WalError::TornTail { offset } => {
                write!(f, "torn wal tail: record at byte {offset} extends past end of file")
            }
            WalError::Corrupt { record } => write!(f, "wal record {record} fails its CRC"),
            WalError::BadEvent { record, what } => {
                write!(f, "wal record {record} holds an invalid event batch: {what}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Encodes one batch as a WAL record payload (no framing). Shared with
/// the serve protocol so the wire and the log speak the same bytes.
pub fn encode_batch(batch: &[GraphEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    put_batch(&mut out, batch);
    out
}

/// Appends `batch` to `out` in the [`encode_batch`] layout: what a WAL
/// record and an `Apply` request write in place.
pub fn put_batch(out: &mut Vec<u8>, batch: &[GraphEvent]) {
    out.reserve(4 + batch.len() * 14);
    wire::put_u32(out, batch.len() as u32);
    for ev in batch {
        match *ev {
            GraphEvent::AddEdge { src, dst, weight } => {
                out.push(1);
                wire::put_u32(out, src);
                wire::put_u32(out, dst);
                match weight {
                    None => out.push(0),
                    Some(w) => {
                        out.push(1);
                        wire::put_u32(out, w);
                    }
                }
            }
            GraphEvent::RemoveEdge { src, dst } => {
                out.push(2);
                wire::put_u32(out, src);
                wire::put_u32(out, dst);
            }
            GraphEvent::SetWeight { src, dst, weight } => {
                out.push(3);
                wire::put_u32(out, src);
                wire::put_u32(out, dst);
                wire::put_u32(out, weight);
            }
        }
    }
}

/// Decodes one batch payload. Total: claimed counts are validated against
/// the bytes actually present before anything is allocated, and trailing
/// bytes are rejected.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<GraphEvent>, &'static str> {
    let cut = |_: wire::Truncated| "truncated event";
    let mut r = Reader::new(bytes);
    let count = r.u32().map_err(cut)? as usize;
    if count.saturating_mul(MIN_EVENT_BYTES) > r.remaining() {
        return Err("event count exceeds payload");
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = r.u8().map_err(cut)?;
        let src = r.u32().map_err(cut)?;
        let dst = r.u32().map_err(cut)?;
        out.push(match tag {
            1 => {
                let weight = match r.u8().map_err(cut)? {
                    0 => None,
                    1 => Some(r.u32().map_err(cut)?),
                    _ => return Err("bad weight flag"),
                };
                GraphEvent::AddEdge { src, dst, weight }
            }
            2 => GraphEvent::RemoveEdge { src, dst },
            3 => GraphEvent::SetWeight { src, dst, weight: r.u32().map_err(cut)? },
            _ => return Err("bad event tag"),
        });
    }
    if !r.is_empty() {
        return Err("trailing bytes after events");
    }
    Ok(out)
}

/// Parses the text batch format: one event per line, `#` comments. The
/// error names the first line that does not parse.
///
/// ```text
/// add 3 17        # unweighted edge 3 -> 17
/// add 3 17 9      # weighted edge (weighted graphs only)
/// remove 5 2
/// setw 3 17 12
/// ```
pub fn parse_batch_text(text: &str) -> Result<Vec<GraphEvent>, String> {
    let mut events = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = || format!("batch line {}: cannot parse '{}'", no + 1, raw.trim());
        let n = |s: &str| s.parse::<u32>().map_err(|_| bad());
        let toks: Vec<&str> = line.split_whitespace().collect();
        events.push(match toks.as_slice() {
            ["add", s, d] => GraphEvent::AddEdge { src: n(s)?, dst: n(d)?, weight: None },
            ["add", s, d, w] => GraphEvent::AddEdge { src: n(s)?, dst: n(d)?, weight: Some(n(w)?) },
            ["remove", s, d] => GraphEvent::RemoveEdge { src: n(s)?, dst: n(d)? },
            ["setw", s, d, w] => GraphEvent::SetWeight { src: n(s)?, dst: n(d)?, weight: n(w)? },
            _ => return Err(bad()),
        });
    }
    Ok(events)
}

/// A mutation log on disk. Each [`append`](Wal::append) writes one
/// framed record at the tail and fsyncs, and [`load`](Wal::load)
/// replays every committed batch in order.
#[derive(Debug, Clone)]
pub struct Wal {
    path: PathBuf,
}

impl Wal {
    /// A log stored at `path` (the file is created on first append).
    pub fn new(path: impl Into<PathBuf>) -> Wal {
        Wal { path: path.into() }
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Every committed batch, in append order. A missing file is an empty
    /// log; any corruption is a typed error, never a partial replay.
    pub fn load(&self) -> Result<Vec<Vec<GraphEvent>>, WalError> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(WalError::Io(e)),
        };
        decode_wal(&bytes)
    }

    /// Appends one batch as a single framed record at the tail, creating
    /// the file (and its header) on first use, and fsyncs before
    /// returning — an `Ok` means the batch is durable. O(batch), not
    /// O(log): existing records are not re-read; only the header is
    /// sanity-checked, full validation being [`load`](Wal::load)'s job.
    ///
    /// Returns the byte length the log had before this append; pass it
    /// to [`truncate_to`](Wal::truncate_to) to roll the append back if
    /// the caller cannot honor the batch after journaling it.
    pub fn append(&self, batch: &[GraphEvent]) -> Result<u64, WalError> {
        use std::io::{Read, Write};
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)?;
        let len = f.metadata()?.len();
        let mut rec = Vec::new();
        let prior = if len == 0 {
            wire::put_u64(&mut rec, WAL_MAGIC);
            wire::put_u32(&mut rec, WAL_VERSION);
            WAL_HEADER_BYTES as u64
        } else {
            // A fresh descriptor reads from offset 0 (append mode only
            // positions writes).
            let mut header = Vec::with_capacity(WAL_HEADER_BYTES);
            (&f).take(WAL_HEADER_BYTES as u64).read_to_end(&mut header)?;
            validate_header(&header)?;
            len
        };
        wire::put_record_with(&mut rec, |out| put_batch(out, batch));
        f.write_all(&rec)?;
        f.sync_data()?;
        Ok(prior)
    }

    /// Rolls the log back to a byte length previously returned by
    /// [`append`](Wal::append) — the undo half of a journal write whose
    /// batch the caller ultimately rejected. Truncating to a record
    /// boundary keeps the log loadable.
    pub fn truncate_to(&self, len: u64) -> Result<(), WalError> {
        let f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
        f.set_len(len)?;
        f.sync_data()?;
        Ok(())
    }

    /// Loads the longest valid record prefix, repairing tail damage: a
    /// crash mid-append can leave a torn or corrupt *final* record,
    /// which was by construction never acknowledged (append fsyncs
    /// before returning), so truncating it away loses nothing. The file
    /// is rewritten to end at the valid prefix. Header-level damage
    /// (bad magic/version, short header) is still a hard error — that
    /// is not a torn append. Returns the batches plus whether a repair
    /// truncation happened.
    pub fn recover(&self) -> Result<(Vec<Vec<GraphEvent>>, bool), WalError> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
            Err(e) => return Err(WalError::Io(e)),
        };
        validate_header(&bytes)?;
        let (batches, valid_len, err) = decode_records(&bytes);
        if err.is_some() {
            self.truncate_to(valid_len as u64)?;
        }
        Ok((batches, err.is_some()))
    }

    /// Deletes the log (missing file is fine).
    pub fn clear(&self) -> Result<(), WalError> {
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(WalError::Io(e)),
        }
    }
}

/// Decodes a whole WAL file image. Exposed for tests and tooling.
pub fn decode_wal(bytes: &[u8]) -> Result<Vec<Vec<GraphEvent>>, WalError> {
    validate_header(bytes)?;
    let (batches, _, err) = decode_records(bytes);
    match err {
        Some(e) => Err(e),
        None => Ok(batches),
    }
}

/// Checks magic + version, the part of the file an append can't tear.
fn validate_header(bytes: &[u8]) -> Result<(), WalError> {
    let mut r = Reader::new(bytes);
    let (Ok(magic), Ok(version)) = (r.u64(), r.u32()) else {
        return Err(WalError::Truncated { needed: WAL_HEADER_BYTES, available: bytes.len() });
    };
    if magic != WAL_MAGIC {
        return Err(WalError::BadMagic(magic));
    }
    if version != WAL_VERSION {
        return Err(WalError::BadVersion(version));
    }
    Ok(())
}

/// Decodes records after an already-validated header, returning the
/// batches decoded, the byte offset of the first undecodable record (==
/// file length when everything decoded), and the error that stopped
/// decoding, if any. [`decode_wal`] turns the error into a hard
/// failure; [`Wal::recover`] truncates at the offset instead.
fn decode_records(bytes: &[u8]) -> (Vec<Vec<GraphEvent>>, usize, Option<WalError>) {
    let mut batches = Vec::new();
    let mut pos = WAL_HEADER_BYTES;
    while pos < bytes.len() {
        let record = batches.len();
        // No cap beyond the bytes present: `take_record` bounds the claimed
        // length by them before touching the payload.
        let step = wire::take_record(&bytes[pos..], u32::MAX)
            .map_err(|e| match e {
                RecordError::Crc { .. } => WalError::Corrupt { record },
                RecordError::Truncated(_) | RecordError::Oversize { .. } => {
                    WalError::TornTail { offset: pos }
                }
            })
            .and_then(|(payload, used)| match decode_batch(payload) {
                Ok(batch) => Ok((batch, used)),
                Err(what) => Err(WalError::BadEvent { record, what }),
            });
        match step {
            Ok((batch, used)) => {
                batches.push(batch);
                pos += used;
            }
            Err(e) => return (batches, pos, Some(e)),
        }
    }
    (batches, pos, None)
}

/// What a batch can reject over. These are *request* errors — the graph
/// is never partially mutated; apply is all-or-nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// `AddEdge` without a weight on a weighted graph.
    MissingWeight {
        /// Offending edge source.
        src: Node,
        /// Offending edge destination.
        dst: Node,
    },
    /// `AddEdge` with a weight on an unweighted graph.
    UnexpectedWeight {
        /// Offending edge source.
        src: Node,
        /// Offending edge destination.
        dst: Node,
    },
    /// `SetWeight` on an unweighted graph.
    NotWeighted {
        /// Offending edge source.
        src: Node,
        /// Offending edge destination.
        dst: Node,
    },
    /// The supplied weight slice is not aligned with the graph's edges.
    WeightLength {
        /// Weights supplied.
        weights: usize,
        /// Edges in the graph.
        edges: u64,
    },
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::MissingWeight { src, dst } => {
                write!(f, "AddEdge {src}->{dst} lacks a weight on a weighted graph")
            }
            ApplyError::UnexpectedWeight { src, dst } => {
                write!(f, "AddEdge {src}->{dst} carries a weight on an unweighted graph")
            }
            ApplyError::NotWeighted { src, dst } => {
                write!(f, "SetWeight {src}->{dst} on an unweighted graph")
            }
            ApplyError::WeightLength { weights, edges } => {
                write!(f, "{weights} weights supplied for {edges} edges")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// The result of applying one batch: the mutated graph plus the set of
/// dirty vertices — exactly the vertices whose adjacency (destinations or
/// weights) changed, plus any newly materialized node ids.
#[derive(Debug)]
pub struct BatchApplied {
    /// The mutated graph.
    pub graph: Csr,
    /// Mutated per-edge data, aligned with the new CSR edge order (and
    /// present exactly when the input was weighted).
    pub weights: Option<Vec<u32>>,
    /// Sorted, deduplicated dirty vertex ids: every event source plus the
    /// new-node range `old_n..new_n`. Note the *partition*-level dirty
    /// set is larger — master shifts make extra vertices dirty — and is
    /// computed by the delta driver, not here.
    pub dirty: Vec<Node>,
    /// Edges appended.
    pub added: u64,
    /// Edge slots removed (parallel occurrences each count).
    pub removed: u64,
    /// Edge slots reweighted (parallel occurrences each count).
    pub reweighted: u64,
}

impl Csr {
    /// Applies a batch of mutations, producing the mutated graph, its
    /// per-edge data, and the dirty vertex set. The receiver is untouched
    /// (partitions may still be serving it); validation happens up front,
    /// so an `Err` means nothing changed anywhere.
    ///
    /// New edges append at the end of their source's adjacency run in
    /// event order, so every host applying the same batch produces the
    /// same graph bit-for-bit — the property the delta repartition
    /// equivalence oracle depends on.
    pub fn apply_batch(
        &self,
        weights: Option<&[u32]>,
        batch: &[GraphEvent],
    ) -> Result<BatchApplied, ApplyError> {
        if let Some(ws) = weights {
            if ws.len() as u64 != self.num_edges() {
                return Err(ApplyError::WeightLength {
                    weights: ws.len(),
                    edges: self.num_edges(),
                });
            }
        }
        // Validate every event before touching anything.
        for ev in batch {
            match *ev {
                GraphEvent::AddEdge { src, dst, weight } => {
                    if weights.is_some() && weight.is_none() {
                        return Err(ApplyError::MissingWeight { src, dst });
                    }
                    if weights.is_none() && weight.is_some() {
                        return Err(ApplyError::UnexpectedWeight { src, dst });
                    }
                }
                GraphEvent::SetWeight { src, dst, .. } => {
                    if weights.is_none() {
                        return Err(ApplyError::NotWeighted { src, dst });
                    }
                }
                GraphEvent::RemoveEdge { .. } => {}
            }
        }

        let old_n = self.num_nodes();
        let mut new_n = old_n;
        for ev in batch {
            new_n = new_n.max(ev.src() as usize + 1).max(ev.dst() as usize + 1);
        }

        // Per-source event lists, preserving batch order within a source.
        let mut by_src: std::collections::HashMap<Node, Vec<&GraphEvent>> =
            std::collections::HashMap::new();
        for ev in batch {
            by_src.entry(ev.src()).or_default().push(ev);
        }

        let mut offsets = Vec::with_capacity(new_n + 1);
        offsets.push(0 as EdgeIdx);
        let mut dests: Vec<Node> = Vec::with_capacity(self.dests().len());
        let mut out_w: Vec<u32> = Vec::with_capacity(weights.map_or(0, <[u32]>::len));
        let (mut added, mut removed, mut reweighted) = (0u64, 0u64, 0u64);

        for v in 0..new_n {
            let old_run = if v < old_n {
                self.first_edge(v as Node) as usize..self.offsets()[v + 1] as usize
            } else {
                0..0
            };
            match by_src.get(&(v as Node)) {
                None => {
                    // Clean source: copy its run verbatim.
                    dests.extend_from_slice(&self.dests()[old_run.clone()]);
                    if let Some(ws) = weights {
                        out_w.extend_from_slice(&ws[old_run]);
                    }
                }
                Some(events) => {
                    let mut run: Vec<(Node, u32)> = old_run
                        .clone()
                        .map(|i| (self.dests()[i], weights.map_or(0, |ws| ws[i])))
                        .collect();
                    for ev in events {
                        match **ev {
                            GraphEvent::AddEdge { dst, weight, .. } => {
                                run.push((dst, weight.unwrap_or(0)));
                                added += 1;
                            }
                            GraphEvent::RemoveEdge { dst, .. } => {
                                let before = run.len();
                                run.retain(|&(d, _)| d != dst);
                                removed += (before - run.len()) as u64;
                            }
                            GraphEvent::SetWeight { dst, weight, .. } => {
                                for slot in run.iter_mut().filter(|(d, _)| *d == dst) {
                                    slot.1 = weight;
                                    reweighted += 1;
                                }
                            }
                        }
                    }
                    dests.extend(run.iter().map(|&(d, _)| d));
                    if weights.is_some() {
                        out_w.extend(run.iter().map(|&(_, w)| w));
                    }
                }
            }
            offsets.push(dests.len() as EdgeIdx);
        }

        let mut dirty: Vec<Node> = by_src.keys().copied().collect();
        dirty.extend(old_n as Node..new_n as Node);
        dirty.sort_unstable();
        dirty.dedup();

        Ok(BatchApplied {
            graph: Csr::from_parts(offsets, dests),
            weights: weights.map(|_| out_w),
            dirty,
            added,
            removed,
            reweighted,
        })
    }
}

/// Deterministic seeded batch generator for tests, benches, and the CLI:
/// a mix of adds (within the current node range plus a small growth
/// margin), removes of existing edges, and (on weighted graphs)
/// reweights. xorshift-based, so every host and every run agrees.
pub fn seeded_batch(
    graph: &Csr,
    weighted: bool,
    seed: u64,
    events: usize,
) -> Vec<GraphEvent> {
    let n = graph.num_nodes() as u64;
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Vec::with_capacity(events);
    for _ in 0..events {
        let roll = next() % 100;
        if n == 0 || roll < 50 {
            // Add, occasionally growing the id range by a hair.
            let span = n.max(1) + 2;
            let src = (next() % span) as Node;
            let dst = (next() % span) as Node;
            let weight = weighted.then(|| (next() % 1000) as u32);
            out.push(GraphEvent::AddEdge { src, dst, weight });
        } else if roll < 80 || !weighted {
            // Remove: aim at an existing edge when one exists so the
            // event usually does something.
            let src = (next() % n) as Node;
            let es = graph.edges(src);
            let dst = if es.is_empty() {
                (next() % n) as Node
            } else {
                es[(next() as usize) % es.len()]
            };
            out.push(GraphEvent::RemoveEdge { src, dst });
        } else {
            let src = (next() % n) as Node;
            let es = graph.edges(src);
            let dst = if es.is_empty() {
                (next() % n) as Node
            } else {
                es[(next() as usize) % es.len()]
            };
            out.push(GraphEvent::SetWeight { src, dst, weight: (next() % 1000) as u32 });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batches() -> Vec<Vec<GraphEvent>> {
        vec![
            vec![
                GraphEvent::AddEdge { src: 0, dst: 1, weight: None },
                GraphEvent::RemoveEdge { src: 2, dst: 3 },
            ],
            vec![],
            vec![
                GraphEvent::AddEdge { src: 7, dst: 9, weight: Some(42) },
                GraphEvent::SetWeight { src: 1, dst: 0, weight: 5 },
                GraphEvent::RemoveEdge { src: 0, dst: 0 },
            ],
        ]
    }

    fn temp_wal(tag: &str) -> Wal {
        Wal::new(std::env::temp_dir().join(format!(
            "cusp-wal-{}-{tag}.wal",
            std::process::id()
        )))
    }

    #[test]
    fn text_batches_parse_to_the_sample_events() {
        let text = "add 7 9 42   # weighted\n\n  setw 1 0 5\nremove 0 0\n# done\n";
        assert_eq!(parse_batch_text(text), Ok(sample_batches()[2].clone()));
        assert_eq!(parse_batch_text("add 0 1\nremove 2 3"), Ok(sample_batches()[0].clone()));
        let err = |text| parse_batch_text(text).unwrap_err();
        assert_eq!(err("add 0 1\nadd 0 x"), "batch line 2: cannot parse 'add 0 x'");
        assert_eq!(err("move 0 1"), "batch line 1: cannot parse 'move 0 1'");
    }

    #[test]
    fn round_trips_batches_in_order() {
        let wal = temp_wal("roundtrip");
        wal.clear().unwrap();
        let batches = sample_batches();
        for b in &batches {
            wal.append(b).unwrap();
        }
        assert_eq!(wal.load().unwrap(), batches);
        // Appending after reopen preserves earlier records.
        let wal2 = Wal::new(wal.path());
        wal2.append(&batches[0]).unwrap();
        let back = wal2.load().unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back[3], batches[0]);
        wal.clear().unwrap();
    }

    #[test]
    fn missing_file_is_empty_log() {
        let wal = temp_wal("missing");
        wal.clear().unwrap();
        assert!(wal.load().unwrap().is_empty());
    }

    #[test]
    fn rejects_corrupt_header_fields() {
        let wal = temp_wal("header");
        wal.clear().unwrap();
        wal.append(&sample_batches()[0]).unwrap();
        let clean = std::fs::read(wal.path()).unwrap();

        // Magic flip.
        let mut bytes = clean.clone();
        bytes[0] ^= 0xFF;
        assert!(matches!(decode_wal(&bytes), Err(WalError::BadMagic(_))));

        // Version bump: a future format must be rejected, not misread.
        let mut bytes = clean.clone();
        bytes[8..12].copy_from_slice(&(WAL_VERSION + 1).to_le_bytes());
        assert!(matches!(decode_wal(&bytes), Err(WalError::BadVersion(v)) if v == WAL_VERSION + 1));

        // Header truncation at every cut.
        for cut in 0..WAL_HEADER_BYTES {
            assert!(
                matches!(decode_wal(&clean[..cut]), Err(WalError::Truncated { .. })),
                "cut at {cut} not reported as truncation"
            );
        }

        // The untouched file still loads.
        assert!(decode_wal(&clean).is_ok());
        wal.clear().unwrap();
    }

    #[test]
    fn rejects_crc_flip_truncation_and_torn_records() {
        let wal = temp_wal("body");
        wal.clear().unwrap();
        for b in &sample_batches() {
            wal.append(b).unwrap();
        }
        let clean = std::fs::read(wal.path()).unwrap();

        // A flipped payload bit in the first record is a CRC failure.
        let mut bytes = clean.clone();
        bytes[WAL_HEADER_BYTES + 8] ^= 0x10;
        assert!(matches!(decode_wal(&bytes), Err(WalError::Corrupt { record: 0 })));

        // A flipped bit in a later record names that record.
        let mut bytes = clean.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(decode_wal(&bytes), Err(WalError::Corrupt { record: 2 })));

        // Truncating mid-record (torn write) is a torn tail, and so is
        // cutting inside a record header.
        for cut in [clean.len() - 1, clean.len() - 5, WAL_HEADER_BYTES + 3] {
            assert!(
                matches!(decode_wal(&clean[..cut]), Err(WalError::TornTail { .. })),
                "cut at {cut} not reported as torn tail"
            );
        }

        // A length prefix pointing past EOF (hostile or torn) is caught
        // before any allocation.
        let mut bytes = clean.clone();
        bytes[WAL_HEADER_BYTES..WAL_HEADER_BYTES + 4]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_wal(&bytes), Err(WalError::TornTail { offset }) if offset == WAL_HEADER_BYTES));

        // Trailing garbage after the last record is torn, not ignored.
        let mut bytes = clean.clone();
        bytes.extend_from_slice(&[0xAB; 5]);
        assert!(matches!(decode_wal(&bytes), Err(WalError::TornTail { .. })));

        // The untouched file still loads, and append refuses to extend
        // something that is not a WAL (header damage is checked on every
        // append even though record bodies are load's job).
        assert_eq!(decode_wal(&clean).unwrap().len(), 3);
        let mut bytes = clean;
        bytes[0] ^= 0xFF;
        std::fs::write(wal.path(), &bytes).unwrap();
        assert!(matches!(wal.append(&sample_batches()[0]), Err(WalError::BadMagic(_))));
        bytes[0] ^= 0xFF;
        bytes[8..12].copy_from_slice(&(WAL_VERSION + 1).to_le_bytes());
        std::fs::write(wal.path(), &bytes).unwrap();
        assert!(matches!(wal.append(&sample_batches()[0]), Err(WalError::BadVersion(_))));
        std::fs::write(wal.path(), &bytes[..WAL_HEADER_BYTES - 2]).unwrap();
        assert!(matches!(wal.append(&sample_batches()[0]), Err(WalError::Truncated { .. })));
        wal.clear().unwrap();
    }

    #[test]
    fn append_returns_rollback_offset_and_truncate_rolls_back() {
        let wal = temp_wal("rollback");
        wal.clear().unwrap();
        let batches = sample_batches();
        let first_prior = wal.append(&batches[0]).unwrap();
        assert_eq!(first_prior, WAL_HEADER_BYTES as u64, "fresh log starts after the header");
        let second_prior = wal.append(&batches[2]).unwrap();
        assert!(second_prior > first_prior);

        // Rolling back the second append leaves exactly the first batch,
        // and the log stays appendable afterwards.
        wal.truncate_to(second_prior).unwrap();
        assert_eq!(wal.load().unwrap(), vec![batches[0].clone()]);
        wal.append(&batches[1]).unwrap();
        assert_eq!(wal.load().unwrap(), vec![batches[0].clone(), batches[1].clone()]);
        wal.clear().unwrap();
    }

    #[test]
    fn recover_truncates_torn_or_corrupt_tail() {
        let wal = temp_wal("recover");
        wal.clear().unwrap();
        let batches = sample_batches();
        for b in &batches {
            wal.append(b).unwrap();
        }
        let clean = std::fs::read(wal.path()).unwrap();

        // Torn tail (crash mid-append): recover keeps the acknowledged
        // prefix, truncates the tail, and the repaired file loads clean.
        std::fs::write(wal.path(), &clean[..clean.len() - 3]).unwrap();
        assert!(matches!(wal.load(), Err(WalError::TornTail { .. })));
        let (got, repaired) = wal.recover().unwrap();
        assert!(repaired);
        assert_eq!(got, batches[..2].to_vec());
        assert_eq!(wal.load().unwrap(), batches[..2].to_vec());

        // A corrupt final record (partially persisted pages) is likewise
        // dropped; earlier records survive.
        std::fs::write(wal.path(), &clean).unwrap();
        let mut bytes = clean.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(wal.path(), &bytes).unwrap();
        let (got, repaired) = wal.recover().unwrap();
        assert!(repaired);
        assert_eq!(got, batches[..2].to_vec());

        // An intact log recovers without touching the file.
        std::fs::write(wal.path(), &clean).unwrap();
        let (got, repaired) = wal.recover().unwrap();
        assert!(!repaired);
        assert_eq!(got, batches);
        assert_eq!(std::fs::read(wal.path()).unwrap(), clean);

        // Header damage is not a torn append: recover refuses.
        let mut bytes = clean.clone();
        bytes[0] ^= 0xFF;
        std::fs::write(wal.path(), &bytes).unwrap();
        assert!(matches!(wal.recover(), Err(WalError::BadMagic(_))));

        // A missing file is an empty, unrepaired log.
        wal.clear().unwrap();
        let (got, repaired) = wal.recover().unwrap();
        assert!(got.is_empty() && !repaired);
    }

    #[test]
    fn rejects_bad_event_payloads() {
        // CRC-valid record whose payload claims more events than fit.
        let mut payload = 1000u32.to_le_bytes().to_vec();
        payload.push(1);
        let mut bytes = WAL_MAGIC.to_le_bytes().to_vec();
        bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(decode_wal(&bytes), Err(WalError::BadEvent { record: 0, .. })));

        // Bad tag.
        let payload = {
            let mut p = 1u32.to_le_bytes().to_vec();
            p.push(9); // no such tag
            p.extend_from_slice(&[0; 8]);
            p
        };
        let mut bytes = WAL_MAGIC.to_le_bytes().to_vec();
        bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            decode_wal(&bytes),
            Err(WalError::BadEvent { record: 0, what: "bad event tag" })
        ));

        // Trailing bytes inside a record.
        let payload = {
            let mut p = encode_batch(&[GraphEvent::RemoveEdge { src: 1, dst: 2 }]);
            p.push(0xEE);
            p
        };
        let mut bytes = WAL_MAGIC.to_le_bytes().to_vec();
        bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            decode_wal(&bytes),
            Err(WalError::BadEvent { record: 0, what: "trailing bytes after events" })
        ));
    }

    #[test]
    fn crc_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn apply_batch_adds_removes_reweights() {
        // 0 -> 1, 0 -> 2, 1 -> 2, 1 -> 2 (parallel)
        let g = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2), (1, 2)]);
        let ws = vec![10, 20, 30, 31];
        let batch = vec![
            GraphEvent::AddEdge { src: 2, dst: 0, weight: Some(7) },
            GraphEvent::RemoveEdge { src: 1, dst: 2 }, // kills both parallels
            GraphEvent::SetWeight { src: 0, dst: 2, weight: 99 },
            GraphEvent::AddEdge { src: 0, dst: 4, weight: Some(1) }, // grows to 5 nodes
        ];
        let out = g.apply_batch(Some(&ws), &batch).unwrap();
        assert_eq!(out.graph.num_nodes(), 5);
        assert_eq!(out.graph.edges(0), &[1, 2, 4]);
        assert_eq!(out.graph.edges(1), &[] as &[Node]);
        assert_eq!(out.graph.edges(2), &[0]);
        assert_eq!(out.weights.as_deref(), Some(&[10, 99, 1, 7][..]));
        assert_eq!((out.added, out.removed, out.reweighted), (2, 2, 1));
        // Dirty: sources 0, 1, 2 plus new nodes 3, 4.
        assert_eq!(out.dirty, vec![0, 1, 2, 3, 4]);
        // The original graph is untouched.
        assert_eq!(g.edges(1), &[2, 2]);
    }

    #[test]
    fn apply_batch_is_all_or_nothing_on_bad_events() {
        let g = Csr::from_edges(2, &[(0, 1)]);
        let err = g
            .apply_batch(None, &[GraphEvent::AddEdge { src: 0, dst: 1, weight: Some(1) }])
            .unwrap_err();
        assert_eq!(err, ApplyError::UnexpectedWeight { src: 0, dst: 1 });
        let err = g
            .apply_batch(Some(&[5]), &[GraphEvent::AddEdge { src: 0, dst: 1, weight: None }])
            .unwrap_err();
        assert_eq!(err, ApplyError::MissingWeight { src: 0, dst: 1 });
        let err = g
            .apply_batch(None, &[GraphEvent::SetWeight { src: 0, dst: 1, weight: 3 }])
            .unwrap_err();
        assert_eq!(err, ApplyError::NotWeighted { src: 0, dst: 1 });
        let err = g.apply_batch(Some(&[1, 2]), &[]).unwrap_err();
        assert_eq!(err, ApplyError::WeightLength { weights: 2, edges: 1 });
    }

    #[test]
    fn apply_batch_remove_missing_is_noop_and_events_order_within_source() {
        let g = Csr::from_edges(2, &[(0, 1)]);
        let batch = vec![
            GraphEvent::RemoveEdge { src: 1, dst: 0 }, // absent: no-op
            GraphEvent::AddEdge { src: 0, dst: 0, weight: None },
            GraphEvent::RemoveEdge { src: 0, dst: 0 }, // removes what was just added
            GraphEvent::AddEdge { src: 0, dst: 0, weight: None },
        ];
        let out = g.apply_batch(None, &batch).unwrap();
        assert_eq!(out.graph.edges(0), &[1, 0]);
        assert_eq!(out.removed, 1);
        assert_eq!(out.dirty, vec![0, 1]);
    }

    #[test]
    fn wal_replay_reproduces_apply_sequence() {
        let wal = temp_wal("replay");
        wal.clear().unwrap();
        let g0 = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b1 = seeded_batch(&g0, false, 11, 6);
        let g1 = g0.apply_batch(None, &b1).unwrap().graph;
        let b2 = seeded_batch(&g1, false, 12, 6);
        let g2 = g1.apply_batch(None, &b2).unwrap().graph;
        wal.append(&b1).unwrap();
        wal.append(&b2).unwrap();

        let mut replayed = g0;
        for batch in wal.load().unwrap() {
            replayed = replayed.apply_batch(None, &batch).unwrap().graph;
        }
        assert_eq!(replayed, g2);
        wal.clear().unwrap();
    }
}
