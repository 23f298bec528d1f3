//! Durable phase-boundary checkpoints for host-crash recovery.
//!
//! A restarted host (see [`cusp_net::Comm::restart_epoch`]) re-runs the
//! pipeline from the top. Graph reading always re-executes — the input
//! slice is not durable state — but the expensive communicating phases
//! (master assignment, edge assignment) can be skipped if their *outputs*
//! survived the crash. This module persists exactly those outputs, one
//! file per host, written at the phase barrier right after each phase
//! completes:
//!
//! * after **master assignment** ([`Stage::Master`]): the resolved master
//!   locations ([`MastersSnapshot`]) plus the transport state
//!   ([`cusp_net::NetCheckpoint`]) that re-aligns the restarted host's
//!   sequence numbers and barrier count with its peers;
//! * after **edge assignment** ([`Stage::EdgeAssign`]): additionally the
//!   [`EdgeAssignSnapshot`] (incoming sources, mirrors, master list, edge
//!   counts) that allocation and construction consume.
//!
//! Edge-rule partitioning state is deliberately **not** checkpointed: the
//! §IV-B4 replay token ([`crate::ReplayReady`]) resets it to its initial
//! value before construction anyway, so a freshly constructed state on the
//! restarted host is bit-identical to the reset state a crash-free run
//! would have used.
//!
//! The on-disk format follows `storage.rs`: a fixed header (magic,
//! version, stage, host topology), a payload, and a trailing CRC-32.
//! Corruption is handled by *rejection*, never by partial trust — any
//! truncation, bad magic, wrong topology, or checksum mismatch makes
//! [`CheckpointStore::load`] return `None`, and the restarted host simply
//! re-runs everything from the top (still bit-identical under the
//! determinism contract, just slower). Writes go through a temp file and
//! an atomic rename so a crash mid-write leaves the previous checkpoint
//! intact rather than a torn one.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use cusp_graph::wal::crc32;
use cusp_graph::Node;
use cusp_net::{NetCheckpoint, WireReader, WireWriter};

use crate::phases::edge_assign::EdgeAssignOutcome;
use crate::phases::master::{RemoteMasters, ResolvedMasters};
use crate::PartId;

/// File magic: `CUSPCK\0\0`, little-endian.
const MAGIC: u64 = 0x0000_4B43_5053_5543;
/// Format version; bump on any layout change. v2 added the per-phase
/// traffic rows to the embedded `NetCheckpoint` (process-level recovery
/// restores Table V accounting from them); v1 files decode as absent and
/// force a safe full re-run.
const VERSION: u32 = 2;

/// Which phase boundary a checkpoint captures. The discriminants match the
/// pipeline's barrier numbers (read = 1, master = 2, edge assignment = 3),
/// which is also the [`NetCheckpoint::barrier_calls`] value stored inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Master assignment finished; edge assignment had not.
    Master,
    /// Edge assignment finished; construction had not.
    EdgeAssign,
}

impl Stage {
    fn code(self) -> u32 {
        match self {
            Stage::Master => 2,
            Stage::EdgeAssign => 3,
        }
    }

    fn from_code(code: u32) -> Option<Stage> {
        match code {
            2 => Some(Stage::Master),
            3 => Some(Stage::EdgeAssign),
            _ => None,
        }
    }
}

/// Serializable form of [`ResolvedMasters`].
///
/// A pure rule's assignment is a replicated function, so only the fact
/// that it *was* pure is recorded — the restarted host rebuilds the
/// range starts from the (deterministically re-built) rule. Stored assignments
/// persist the dense local range and the remote pairs verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MastersSnapshot {
    /// The master rule was pure; rebuild via
    /// [`crate::phases::master::pure_masters`].
    Pure,
    /// Stored assignments, mirroring [`ResolvedMasters::Stored`].
    Stored {
        /// First node of the locally read range.
        lo: Node,
        /// Master of each node in the local range.
        local: Vec<PartId>,
        /// `(node, master)` pairs for the requested remote nodes.
        remote: Vec<(Node, PartId)>,
    },
}

impl MastersSnapshot {
    /// Captures the resolved masters for persistence.
    pub fn of(masters: &ResolvedMasters) -> MastersSnapshot {
        match masters {
            ResolvedMasters::Pure { .. } => MastersSnapshot::Pure,
            ResolvedMasters::Stored { lo, local, remote } => MastersSnapshot::Stored {
                lo: *lo,
                local: local.clone(),
                remote: remote.iter().collect(),
            },
        }
    }

    /// Rebuilds the stored form. `None` for [`MastersSnapshot::Pure`] —
    /// the caller must rebuild the pure resolver from its rule instead.
    pub fn to_stored(&self) -> Option<ResolvedMasters> {
        match self {
            MastersSnapshot::Pure => None,
            MastersSnapshot::Stored { lo, local, remote } => {
                let map: HashMap<Node, PartId> = remote.iter().copied().collect();
                Some(ResolvedMasters::Stored {
                    lo: *lo,
                    local: local.clone(),
                    remote: RemoteMasters::from_map(&map),
                })
            }
        }
    }

    fn encode(&self, w: &mut WireWriter) {
        match self {
            MastersSnapshot::Pure => w.put_u8(0),
            MastersSnapshot::Stored { lo, local, remote } => {
                w.put_u8(1);
                w.put_u32(*lo);
                w.put_u32_slice(local);
                let keys: Vec<Node> = remote.iter().map(|&(v, _)| v).collect();
                let vals: Vec<PartId> = remote.iter().map(|&(_, p)| p).collect();
                w.put_u32_slice(&keys);
                w.put_u32_slice(&vals);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Option<MastersSnapshot> {
        match r.get_u8().ok()? {
            0 => Some(MastersSnapshot::Pure),
            1 => {
                let lo = r.get_u32().ok()?;
                let local = r.get_u32_vec().ok()?;
                let keys = r.get_u32_vec().ok()?;
                let vals = r.get_u32_vec().ok()?;
                if keys.len() != vals.len() {
                    return None;
                }
                let remote = keys.into_iter().zip(vals).collect();
                Some(MastersSnapshot::Stored { lo, local, remote })
            }
            _ => None,
        }
    }
}

/// Serializable form of [`EdgeAssignOutcome`] — everything allocation and
/// construction need from the edge-assignment exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeAssignSnapshot {
    /// `(node, edge count, master partition)` of sources landing here.
    pub incoming_srcs: Vec<(Node, u32, PartId)>,
    /// `(node, master partition)` of destination proxies to create.
    pub mirrors: Vec<(Node, PartId)>,
    /// Master-proxy nodes of this partition (stored rules only).
    pub my_master_nodes: Option<Vec<Node>>,
    /// Edges this host will receive during construction.
    pub to_receive: u64,
}

impl EdgeAssignSnapshot {
    /// Captures an edge-assignment outcome for persistence.
    pub fn of(ea: &EdgeAssignOutcome) -> EdgeAssignSnapshot {
        EdgeAssignSnapshot {
            incoming_srcs: ea.incoming_srcs.clone(),
            mirrors: ea.mirrors.clone(),
            my_master_nodes: ea.my_master_nodes.clone(),
            to_receive: ea.to_receive,
        }
    }

    /// Rebuilds the outcome a live edge-assignment phase would have
    /// produced.
    pub fn to_outcome(&self) -> EdgeAssignOutcome {
        EdgeAssignOutcome {
            incoming_srcs: self.incoming_srcs.clone(),
            mirrors: self.mirrors.clone(),
            my_master_nodes: self.my_master_nodes.clone(),
            to_receive: self.to_receive,
        }
    }

    fn encode(&self, w: &mut WireWriter) {
        let nodes: Vec<Node> = self.incoming_srcs.iter().map(|&(v, _, _)| v).collect();
        let counts: Vec<u32> = self.incoming_srcs.iter().map(|&(_, c, _)| c).collect();
        let owners: Vec<PartId> = self.incoming_srcs.iter().map(|&(_, _, p)| p).collect();
        w.put_u32_slice(&nodes);
        w.put_u32_slice(&counts);
        w.put_u32_slice(&owners);
        let mnodes: Vec<Node> = self.mirrors.iter().map(|&(v, _)| v).collect();
        let mparts: Vec<PartId> = self.mirrors.iter().map(|&(_, p)| p).collect();
        w.put_u32_slice(&mnodes);
        w.put_u32_slice(&mparts);
        match &self.my_master_nodes {
            None => w.put_u8(0),
            Some(list) => {
                w.put_u8(1);
                w.put_u32_slice(list);
            }
        }
        w.put_u64(self.to_receive);
    }

    fn decode(r: &mut WireReader) -> Option<EdgeAssignSnapshot> {
        let nodes = r.get_u32_vec().ok()?;
        let counts = r.get_u32_vec().ok()?;
        let owners = r.get_u32_vec().ok()?;
        if nodes.len() != counts.len() || nodes.len() != owners.len() {
            return None;
        }
        let incoming_srcs = nodes
            .into_iter()
            .zip(counts)
            .zip(owners)
            .map(|((v, c), p)| (v, c, p))
            .collect();
        let mnodes = r.get_u32_vec().ok()?;
        let mparts = r.get_u32_vec().ok()?;
        if mnodes.len() != mparts.len() {
            return None;
        }
        let mirrors = mnodes.into_iter().zip(mparts).collect();
        let my_master_nodes = match r.get_u8().ok()? {
            0 => None,
            1 => Some(r.get_u32_vec().ok()?),
            _ => return None,
        };
        let to_receive = r.get_u64().ok()?;
        Some(EdgeAssignSnapshot { incoming_srcs, mirrors, my_master_nodes, to_receive })
    }
}

/// One host's durable phase-boundary state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Which phase boundary this captures.
    pub stage: Stage,
    /// Transport state (send sequences, receive floors, barrier count).
    pub net: NetCheckpoint,
    /// Resolved master locations.
    pub masters: MastersSnapshot,
    /// Edge-assignment outputs; present iff `stage` is
    /// [`Stage::EdgeAssign`].
    pub edge_assign: Option<EdgeAssignSnapshot>,
}

/// Per-host checkpoint file management: `host-{h}.ckpt` under a shared
/// directory, written atomically, loaded defensively.
pub struct CheckpointStore {
    path: PathBuf,
    tmp: PathBuf,
    hosts: usize,
    host: usize,
}

impl CheckpointStore {
    /// Opens (creating the directory if needed) the store for one host of
    /// an `hosts`-host cluster.
    pub fn new(dir: &Path, hosts: usize, host: usize) -> io::Result<CheckpointStore> {
        fs::create_dir_all(dir)?;
        Ok(CheckpointStore {
            path: dir.join(format!("host-{host}.ckpt")),
            tmp: dir.join(format!("host-{host}.ckpt.tmp")),
            hosts,
            host,
        })
    }

    /// The checkpoint file this store reads and writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Serializes `ck` and atomically replaces any previous checkpoint
    /// (temp file + rename, so a torn write cannot shadow a good one).
    pub fn save(&self, ck: &Checkpoint) -> io::Result<()> {
        let mut w = WireWriter::new();
        w.put_u64(MAGIC);
        w.put_u32(VERSION);
        w.put_u32(ck.stage.code());
        w.put_u64(self.hosts as u64);
        w.put_u64(self.host as u64);
        ck.net.encode(&mut w);
        ck.masters.encode(&mut w);
        match &ck.edge_assign {
            None => w.put_u8(0),
            Some(ea) => {
                w.put_u8(1);
                ea.encode(&mut w);
            }
        }
        let body = w.finish();
        let crc = crc32(&body);
        let mut file = Vec::with_capacity(body.len() + 4);
        file.extend_from_slice(&body);
        file.extend_from_slice(&crc.to_le_bytes());
        fs::write(&self.tmp, &file)?;
        fs::rename(&self.tmp, &self.path)
    }

    /// Loads the checkpoint, or `None` when the file is missing, for a
    /// different topology, or corrupt in any way (bad magic/version/stage,
    /// truncation, checksum mismatch, trailing garbage, inconsistent
    /// payload). A corrupt checkpoint is indistinguishable from an absent
    /// one by design: the restart falls back to full re-execution.
    pub fn load(&self) -> Option<Checkpoint> {
        let raw = fs::read(&self.path).ok()?;
        if raw.len() < 4 {
            return None;
        }
        let (body, tail) = raw.split_at(raw.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().ok()?);
        if crc32(body) != stored {
            return None;
        }
        let mut r = WireReader::new(Bytes::from(body.to_vec()));
        if r.get_u64().ok()? != MAGIC || r.get_u32().ok()? != VERSION {
            return None;
        }
        let stage = Stage::from_code(r.get_u32().ok()?)?;
        if r.get_u64().ok()? != self.hosts as u64 || r.get_u64().ok()? != self.host as u64 {
            return None;
        }
        let net = NetCheckpoint::decode(&mut r, self.hosts)?;
        let masters = MastersSnapshot::decode(&mut r)?;
        let edge_assign = match r.get_u8().ok()? {
            0 => None,
            1 => Some(EdgeAssignSnapshot::decode(&mut r)?),
            _ => return None,
        };
        if edge_assign.is_some() != (stage == Stage::EdgeAssign) || !r.is_exhausted() {
            return None;
        }
        Some(Checkpoint { stage, net, masters, edge_assign })
    }

    /// Removes any stale checkpoint (called at the start of a fresh run so
    /// a previous run's files cannot leak into this one). Errors are
    /// ignored — a missing file is the goal state.
    pub fn clear(&self) {
        let _ = fs::remove_file(&self.path);
        let _ = fs::remove_file(&self.tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp_net::MAX_TAGS;

    fn sample(stage: Stage) -> Checkpoint {
        let hosts = 3;
        let mut net = NetCheckpoint {
            send_seqs: vec![0; hosts * MAX_TAGS],
            recv_floors: vec![0; hosts * MAX_TAGS],
            barrier_calls: stage.code() as u64,
            stats: vec![cusp_net::PhaseTraffic {
                name: "read".to_string(),
                sent_bytes: vec![0; hosts],
                sent_msgs: vec![0; hosts],
                recv_bytes: vec![7; hosts],
                recv_msgs: vec![1; hosts],
            }],
        };
        net.send_seqs[5] = 17;
        net.recv_floors[2 * MAX_TAGS + 1] = 4;
        let masters = MastersSnapshot::Stored {
            lo: 10,
            local: vec![0, 1, 2, 0, 1],
            remote: vec![(3, 2), (99, 0)],
        };
        let edge_assign = (stage == Stage::EdgeAssign).then(|| EdgeAssignSnapshot {
            incoming_srcs: vec![(10, 3, 0), (11, 1, 2)],
            mirrors: vec![(99, 0)],
            my_master_nodes: Some(vec![10, 12]),
            to_receive: 42,
        });
        Checkpoint { stage, net, masters, edge_assign }
    }

    fn store(dir: &Path) -> CheckpointStore {
        CheckpointStore::new(dir, 3, 1).expect("store opens")
    }

    #[test]
    fn round_trips_both_stages() {
        let dir = std::env::temp_dir().join(format!("cusp-ckpt-rt-{}", std::process::id()));
        let s = store(&dir);
        for stage in [Stage::Master, Stage::EdgeAssign] {
            let ck = sample(stage);
            s.save(&ck).expect("saves");
            assert_eq!(s.load().expect("loads"), ck, "{stage:?}");
        }
        // Pure masters and absent master lists round-trip too.
        let mut ck = sample(Stage::EdgeAssign);
        ck.masters = MastersSnapshot::Pure;
        ck.edge_assign.as_mut().unwrap().my_master_nodes = None;
        s.save(&ck).expect("saves");
        assert_eq!(s.load().expect("loads"), ck);
        s.clear();
        assert!(s.load().is_none(), "cleared checkpoint must read as absent");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_absent() {
        let dir = std::env::temp_dir().join(format!("cusp-ckpt-miss-{}", std::process::id()));
        assert!(store(&dir).load().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_corrupt_header_fields() {
        // Flip one byte in each fixed header field; every mutation must
        // read as absent (mirrors storage.rs's corruption tests).
        let dir = std::env::temp_dir().join(format!("cusp-ckpt-hdr-{}", std::process::id()));
        let s = store(&dir);
        s.save(&sample(Stage::Master)).expect("saves");
        let good = fs::read(s.path()).expect("readable");
        for (offset, what) in [(0, "magic"), (8, "version"), (12, "stage"), (16, "hosts"), (24, "host")] {
            let mut bad = good.clone();
            bad[offset] ^= 0xFF;
            fs::write(s.path(), &bad).expect("writable");
            assert!(s.load().is_none(), "corrupt {what} accepted");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_payload_flip_truncation_and_garbage() {
        let dir = std::env::temp_dir().join(format!("cusp-ckpt-pay-{}", std::process::id()));
        let s = store(&dir);
        s.save(&sample(Stage::EdgeAssign)).expect("saves");
        let good = fs::read(s.path()).expect("readable");

        // Any single payload bit flip fails the CRC.
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0x01;
        fs::write(s.path(), &bad).expect("writable");
        assert!(s.load().is_none(), "payload flip accepted");

        // Truncations at several depths, including mid-header and mid-CRC.
        for cut in [0, 3, 11, good.len() / 2, good.len() - 1] {
            fs::write(s.path(), &good[..cut]).expect("writable");
            assert!(s.load().is_none(), "truncation at {cut} accepted");
        }

        // Trailing garbage breaks the framing even with a valid prefix.
        let mut long = good.clone();
        long.extend_from_slice(&[0u8; 8]);
        fs::write(s.path(), &long).expect("writable");
        assert!(s.load().is_none(), "trailing garbage accepted");

        // Pure garbage.
        fs::write(s.path(), b"not a checkpoint at all").expect("writable");
        assert!(s.load().is_none(), "garbage accepted");

        // And the original still loads (the mutations above were copies).
        fs::write(s.path(), &good).expect("writable");
        assert!(s.load().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_other_topology() {
        let dir = std::env::temp_dir().join(format!("cusp-ckpt-topo-{}", std::process::id()));
        let s = store(&dir);
        s.save(&sample(Stage::Master)).expect("saves");
        // Same file, read back as a different host or cluster size.
        let other_host = CheckpointStore { path: s.path.clone(), tmp: s.tmp.clone(), hosts: 3, host: 2 };
        assert!(other_host.load().is_none(), "wrong host accepted");
        let other_size = CheckpointStore { path: s.path.clone(), tmp: s.tmp.clone(), hosts: 4, host: 1 };
        assert!(other_size.load().is_none(), "wrong cluster size accepted");
        let _ = fs::remove_dir_all(&dir);
    }
}
