//! Durable phase-boundary checkpoints for host-crash recovery.
//!
//! A restarted host (see [`cusp_net::Comm::restart_epoch`]) re-runs the
//! pipeline from the top. Graph reading always re-executes — the input
//! slice is not durable state — but the expensive communicating phases
//! (master assignment, edge assignment) can be skipped if their *outputs*
//! survived the crash. This module persists exactly those outputs — the
//! phases' own result types, not copies of them — one file per host,
//! written at the phase barrier right after each phase completes:
//!
//! * after **master assignment**: the [`ResolvedMasters`] (a pure resolver
//!   stores its `k − 1` range starts, so a load needs no rule to rebuild
//!   it; a stored one its table's node count and known entries) plus the
//!   transport state ([`cusp_net::NetCheckpoint`]) that
//!   re-aligns the restarted host's sequence numbers and barrier count
//!   with its peers;
//! * after **edge assignment**: additionally the [`EdgeAssignOutcome`]
//!   (incoming sources, mirrors, master list, edge counts) that allocation
//!   and construction consume.
//!
//! Edge-rule partitioning state is deliberately **not** checkpointed: the
//! §IV-B4 replay token ([`crate::ReplayReady`]) resets it to its initial
//! value before construction anyway, so a freshly constructed state on the
//! restarted host is bit-identical to the reset state a crash-free run
//! would have used.
//!
//! The file is one checked record (`cusp_graph::wire`: `len u32 | crc32
//! u32 | payload`) whose payload starts with a fixed header (magic,
//! version, host topology) followed by the phase outputs.
//! Corruption is handled by *rejection*, never by partial trust — any
//! truncation, bad magic, wrong topology, or checksum mismatch makes
//! [`CheckpointStore::load`] return `None`, and the restarted host simply
//! re-runs everything from the top (still bit-identical under the
//! determinism contract, just slower). Writes go through a temp file and
//! an atomic rename so a crash mid-write leaves the previous checkpoint
//! intact rather than a torn one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cusp_graph::{wire, Node};
use cusp_net::{NetCheckpoint, WireWriter};

use crate::phases::edge_assign::EdgeAssignOutcome;
use crate::phases::master::{MasterTable, ResolvedMasters, MAX_STORED_PARTS};
use crate::PartId;

/// File magic: `CUSPCK\0\0`, little-endian.
const MAGIC: u64 = 0x0000_4B43_5053_5543;
/// Format version; bump on any layout change. v5 stores a stored-master
/// table as its node count and its known `(node, master)` entries (v4
/// stored the read range's array and the requested ids' answers apart);
/// v4 framed the v3 payload as one checked record instead of appending a
/// CRC. Files of an older version decode as absent and force a safe full
/// re-run.
const VERSION: u32 = 5;

impl ResolvedMasters {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ResolvedMasters::Pure { starts } => {
                w.put_u8(0);
                w.put_u32_slice(starts);
            }
            ResolvedMasters::Stored(table) => {
                w.put_u8(1);
                w.put_u64(table.num_nodes() as u64);
                let (nodes, masters): (Vec<Node>, Vec<PartId>) = table.iter().unzip();
                w.put_u32_slice(&nodes);
                w.put_u32_slice(&masters);
            }
        }
    }

    /// Decodes what [`ResolvedMasters::encode`] wrote for a run over
    /// `parts` partitions; `None` for any entry the table could not hold —
    /// a node count past the id space, a node `≥` it, nodes out of order, or
    /// a master `≥ parts` — never a panic.
    fn decode(r: &mut wire::Reader<'_>, parts: usize) -> Option<ResolvedMasters> {
        match r.u8().ok()? {
            0 => Some(ResolvedMasters::Pure { starts: r.u32_vec().ok()? }),
            1 => {
                let n = r.u64().ok()?;
                let nodes = r.u32_vec().ok()?;
                let masters = r.u32_vec().ok()?;
                if n > Node::MAX as u64 + 1
                    || parts > MAX_STORED_PARTS as usize
                    || nodes.len() != masters.len()
                    || !nodes.windows(2).all(|w| w[0] < w[1])
                    || nodes.last().is_some_and(|&v| v as u64 >= n)
                    || masters.iter().any(|&p| p as usize >= parts)
                {
                    return None;
                }
                let table = MasterTable::new(n as usize, parts as PartId);
                for (v, p) in nodes.into_iter().zip(masters) {
                    table.set(v, p);
                }
                Some(ResolvedMasters::Stored(table))
            }
            _ => None,
        }
    }
}

impl EdgeAssignOutcome {
    fn encode(&self, w: &mut WireWriter) {
        let nodes: Vec<Node> = self.incoming_srcs.iter().map(|&(v, _, _)| v).collect();
        let counts: Vec<u32> = self.incoming_srcs.iter().map(|&(_, c, _)| c).collect();
        let owners: Vec<PartId> = self.incoming_srcs.iter().map(|&(_, _, p)| p).collect();
        w.put_u32_slice(&nodes);
        w.put_u32_slice(&counts);
        w.put_u32_slice(&owners);
        let (mnodes, mparts): (Vec<Node>, Vec<PartId>) = self.mirrors.iter().copied().unzip();
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

    fn decode(r: &mut wire::Reader<'_>) -> Option<EdgeAssignOutcome> {
        let nodes = r.u32_vec().ok()?;
        let counts = r.u32_vec().ok()?;
        let owners = r.u32_vec().ok()?;
        if nodes.len() != counts.len() || nodes.len() != owners.len() {
            return None;
        }
        let incoming_srcs = nodes
            .into_iter()
            .zip(counts)
            .zip(owners)
            .map(|((v, c), p)| (v, c, p))
            .collect();
        let mnodes = r.u32_vec().ok()?;
        let mparts = r.u32_vec().ok()?;
        if mnodes.len() != mparts.len() {
            return None;
        }
        let mirrors = mnodes.into_iter().zip(mparts).collect();
        let my_master_nodes = match r.u8().ok()? {
            0 => None,
            1 => Some(r.u32_vec().ok()?),
            _ => return None,
        };
        let to_receive = r.u64().ok()?;
        Some(EdgeAssignOutcome { incoming_srcs, mirrors, my_master_nodes, to_receive })
    }
}

/// One host's durable phase-boundary state, as [`CheckpointStore::load`]
/// returns it: the outputs of the phases the restarted host may skip.
#[derive(Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Transport state (send sequences, receive floors, barrier count).
    pub net: NetCheckpoint,
    /// Resolved master locations (phase 2's output).
    pub masters: ResolvedMasters,
    /// Phase 3's output; `None` when the checkpoint was taken at the master
    /// boundary, before edge assignment finished.
    pub edge_assign: Option<EdgeAssignOutcome>,
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

    /// Serializes the boundary just crossed — by reference, the driver keeps
    /// using the outputs — and atomically replaces any previous checkpoint
    /// (temp file + rename, so a torn write cannot shadow a good one).
    pub fn save(
        &self,
        net: &NetCheckpoint,
        masters: &ResolvedMasters,
        edge_assign: Option<&EdgeAssignOutcome>,
    ) -> io::Result<()> {
        let mut w = WireWriter::new();
        w.put_u64(MAGIC);
        w.put_u32(VERSION);
        w.put_u64(self.hosts as u64);
        w.put_u64(self.host as u64);
        net.encode(&mut w);
        masters.encode(&mut w);
        match edge_assign {
            None => w.put_u8(0),
            Some(ea) => {
                w.put_u8(1);
                ea.encode(&mut w);
            }
        }
        let mut file = Vec::new();
        wire::put_record(&mut file, &w.finish());
        fs::write(&self.tmp, &file)?;
        fs::rename(&self.tmp, &self.path)
    }

    /// Loads the checkpoint, or `None` when the file is missing, for a
    /// different topology, or corrupt in any way (bad magic/version,
    /// truncation, checksum mismatch, trailing garbage, inconsistent
    /// payload). A corrupt checkpoint is indistinguishable from an absent
    /// one by design: the restart falls back to full re-execution.
    pub fn load(&self) -> Option<Checkpoint> {
        let raw = fs::read(&self.path).ok()?;
        let (body, used) = wire::take_record(&raw, u32::MAX).ok()?;
        if used != raw.len() {
            return None;
        }
        let mut r = wire::Reader::new(body);
        if r.u64().ok()? != MAGIC || r.u32().ok()? != VERSION {
            return None;
        }
        if r.u64().ok()? != self.hosts as u64 || r.u64().ok()? != self.host as u64 {
            return None;
        }
        let net = NetCheckpoint::decode(&mut r, self.hosts)?;
        let masters = ResolvedMasters::decode(&mut r, self.hosts)?;
        let edge_assign = match r.u8().ok()? {
            0 => None,
            1 => Some(EdgeAssignOutcome::decode(&mut r)?),
            _ => return None,
        };
        if !r.is_empty() {
            return None;
        }
        Some(Checkpoint { net, masters, edge_assign })
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
    use crate::config::{CuspConfig, GraphSource};
    use crate::phases::edge_assign::assign_edges;
    use crate::phases::master::{assign_masters, pure_masters};
    use crate::phases::read::read_phase;
    use crate::policies::edges::CartesianEdge;
    use crate::policies::masters::ContiguousEB;
    use cusp_net::MAX_TAGS;

    fn sample(edge_assign: bool) -> Checkpoint {
        let hosts = 3;
        let mut net = NetCheckpoint {
            send_seqs: vec![0; hosts * MAX_TAGS],
            recv_floors: vec![0; hosts * MAX_TAGS],
            barrier_calls: if edge_assign { 3 } else { 2 },
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
        // Read range 10..15 and two requested ids, over 3 partitions.
        let table = MasterTable::new(100, 3);
        for (v, p) in [(3, 2), (10, 0), (11, 1), (12, 2), (13, 0), (14, 1), (99, 0)] {
            table.set(v, p);
        }
        let masters = ResolvedMasters::Stored(table);
        let edge_assign = edge_assign.then(|| EdgeAssignOutcome {
            incoming_srcs: vec![(10, 3, 0), (11, 1, 2)],
            mirrors: vec![(99, 0)],
            my_master_nodes: Some(vec![10, 12]),
            to_receive: 42,
        });
        Checkpoint { net, masters, edge_assign }
    }

    fn store(dir: &Path) -> CheckpointStore {
        CheckpointStore::new(dir, 3, 1).expect("store opens")
    }

    fn save(s: &CheckpointStore, ck: &Checkpoint) {
        s.save(&ck.net, &ck.masters, ck.edge_assign.as_ref()).expect("saves");
    }

    #[test]
    fn round_trips_both_stages() {
        let dir = std::env::temp_dir().join(format!("cusp-ckpt-rt-{}", std::process::id()));
        let s = store(&dir);
        for edge_assign in [false, true] {
            let ck = sample(edge_assign);
            save(&s, &ck);
            assert_eq!(s.load().expect("loads"), ck, "edge_assign: {edge_assign}");
        }
        // Pure masters and absent master lists round-trip too.
        let mut ck = sample(true);
        ck.masters = ResolvedMasters::Pure { starts: vec![4, 9] };
        ck.edge_assign.as_mut().unwrap().my_master_nodes = None;
        save(&s, &ck);
        assert_eq!(s.load().expect("loads"), ck);
        s.clear();
        assert!(s.load().is_none(), "cleared checkpoint must read as absent");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Host 1's real phase outputs from a 4-host run at the edge-assignment
    /// boundary: what the driver hands to [`CheckpointStore::save`].
    fn real_run(stored: bool) -> Checkpoint {
        let g = std::sync::Arc::new(cusp_graph::gen::uniform::erdos_renyi(240, 2400, 29));
        let mut out = cusp_net::Cluster::run(4, move |comm| {
            let cfg = CuspConfig::default();
            let pool = cusp_galois::ThreadPool::new(2);
            let mut r = read_phase(comm, &GraphSource::Memory(g.clone()), &cfg).unwrap();
            let rule = ContiguousEB::new(&r.setup);
            let masters = if stored {
                assign_masters(comm, &pool, &r.setup, &mut r.data, &rule, &(), &cfg)
            } else {
                pure_masters(&rule, r.setup.parts).unwrap()
            };
            let edge_rule = CartesianEdge::new(&r.setup);
            let ea = assign_edges(comm, &pool, &r.setup, &mut r.data, &masters, &edge_rule, &());
            comm.barrier();
            Checkpoint { net: comm.net_checkpoint(), masters, edge_assign: Some(ea) }
        });
        out.results.swap_remove(1)
    }

    #[test]
    fn real_phase_outputs_round_trip() {
        let dir = std::env::temp_dir().join(format!("cusp-ckpt-real-{}", std::process::id()));
        let s = CheckpointStore::new(&dir, 4, 1).expect("store opens");
        for stored in [false, true] {
            let ck = real_run(stored);
            assert_eq!(ck.masters.is_pure(), !stored);
            let ea = ck.edge_assign.as_ref().unwrap();
            assert_eq!(ea.my_master_nodes.is_some(), stored);
            assert!(!ea.incoming_srcs.is_empty() && !ea.mirrors.is_empty(), "vacuous outcome");
            save(&s, &ck);
            let back = s.load().expect("loads");
            // The loaded resolver answers lookups, not just compares equal.
            let known: Vec<Node> = match &ck.masters {
                ResolvedMasters::Pure { .. } => (0..240).collect(),
                ResolvedMasters::Stored(table) => table.iter().map(|(v, _)| v).collect(),
            };
            for v in known {
                assert_eq!(back.masters.of(v), ck.masters.of(v), "stored={stored} master of {v}");
            }
            assert_eq!(back, ck, "stored={stored}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_version_file_is_absent() {
        // A v3 file, as the previous format wrote it: the same payload,
        // unframed, with a trailing CRC — and the same payload framed as a
        // record but still claiming version 3.
        let dir = std::env::temp_dir().join(format!("cusp-ckpt-v3-{}", std::process::id()));
        let s = store(&dir);
        let ck = sample(false);
        let mut w = WireWriter::new();
        w.put_u64(MAGIC);
        w.put_u32(3);
        w.put_u64(3);
        w.put_u64(1);
        ck.net.encode(&mut w);
        ck.masters.encode(&mut w);
        w.put_u8(0); // no edge assignment
        let body = w.finish().to_vec();
        let mut file = body.clone();
        wire::put_u32(&mut file, wire::crc32(&body));
        fs::write(s.path(), &file).expect("writable");
        assert!(s.load().is_none(), "v3 checkpoint accepted");
        let mut framed = Vec::new();
        wire::put_record(&mut framed, &body);
        fs::write(s.path(), &framed).expect("writable");
        assert!(s.load().is_none(), "record-framed v3 payload accepted");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes a file whose record and header are valid for `store(dir)`
    /// (3 hosts, host 1) at `version`, with `masters` as the master bytes.
    fn write_raw(s: &CheckpointStore, version: u32, masters: impl FnOnce(&mut WireWriter)) {
        let mut w = WireWriter::new();
        w.put_u64(MAGIC);
        w.put_u32(version);
        w.put_u64(3);
        w.put_u64(1);
        sample(false).net.encode(&mut w);
        masters(&mut w);
        w.put_u8(0); // no edge assignment
        let mut file = Vec::new();
        wire::put_record(&mut file, &w.finish());
        fs::write(s.path(), &file).expect("writable");
    }

    #[test]
    fn a_v4_file_is_absent() {
        // The sample's stored masters as v4 wrote them: the read range's
        // array, then the requested ids and their answers.
        let dir = std::env::temp_dir().join(format!("cusp-ckpt-v4-{}", std::process::id()));
        let s = store(&dir);
        let v4_masters = |w: &mut WireWriter| {
            w.put_u8(1);
            w.put_u32(10);
            w.put_u32_slice(&[0, 1, 2, 0, 1]);
            w.put_u32_slice(&[3, 99]);
            w.put_u32_slice(&[2, 0]);
        };
        write_raw(&s, 4, v4_masters);
        assert!(s.load().is_none(), "v4 checkpoint accepted");
        // Relabelled as v5 it is not a v5 file either.
        write_raw(&s, VERSION, v4_masters);
        assert!(s.load().is_none(), "v4 payload accepted as v5");
        // The same masters in v5's layout load (the harness is sound).
        write_raw(&s, VERSION, |w| sample(false).masters.encode(w));
        assert_eq!(s.load().expect("v5 loads").masters, sample(false).masters);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_masters_the_table_cannot_hold_are_absent() {
        let dir = std::env::temp_dir().join(format!("cusp-ckpt-tbl-{}", std::process::id()));
        let s = store(&dir);
        let stored = |n: u64, nodes: &[Node], masters: &[PartId]| {
            write_raw(&s, VERSION, |w| {
                w.put_u8(1);
                w.put_u64(n);
                w.put_u32_slice(nodes);
                w.put_u32_slice(masters);
            });
            s.load().map(|ck| ck.masters)
        };
        // The last id of the table and the last partition (3 hosts) load.
        let ok = stored(100, &[0, 99], &[2, 0]).expect("in range");
        assert_eq!(ok.of(0), 2);
        assert_eq!(ok.of(99), 0);
        assert!(stored(0, &[], &[]).is_some(), "an empty table is a table");
        assert!(stored(100, &[0, 100], &[2, 0]).is_none(), "id = n accepted");
        assert!(stored(100, &[0, Node::MAX], &[2, 0]).is_none(), "id > n accepted");
        assert!(stored(100, &[0, 99], &[3, 0]).is_none(), "master = parts accepted");
        assert!(stored(100, &[0, 99], &[2, 65_537]).is_none(), "master past a u16 accepted");
        assert!(stored(100, &[99, 0], &[2, 0]).is_none(), "ids out of order accepted");
        assert!(stored(100, &[5, 5], &[2, 2]).is_none(), "a repeated id accepted");
        assert!(stored(100, &[0, 99], &[2]).is_none(), "a master missing accepted");
        assert!(stored(1 << 33, &[], &[]).is_none(), "a table past the id space accepted");
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
        save(&s, &sample(false));
        let good = fs::read(s.path()).expect("readable");
        // Offsets count from the file start: the record header is 8 bytes.
        for (offset, what) in [(8, "magic"), (16, "version"), (20, "hosts"), (28, "host")] {
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
        save(&s, &sample(true));
        let good = fs::read(s.path()).expect("readable");

        // Any single payload bit flip fails the CRC.
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0x01;
        fs::write(s.path(), &bad).expect("writable");
        assert!(s.load().is_none(), "payload flip accepted");

        // Truncations at several depths, including mid-length, mid-CRC and
        // mid-header.
        for cut in [0, 3, 6, 11, good.len() / 2, good.len() - 1] {
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
        save(&s, &sample(false));
        // Same file, read back as a different host or cluster size.
        let other_host = CheckpointStore { path: s.path.clone(), tmp: s.tmp.clone(), hosts: 3, host: 2 };
        assert!(other_host.load().is_none(), "wrong host accepted");
        let other_size = CheckpointStore { path: s.path.clone(), tmp: s.tmp.clone(), hosts: 4, host: 1 };
        assert!(other_size.load().is_none(), "wrong cluster size accepted");
        let _ = fs::remove_dir_all(&dir);
    }
}
