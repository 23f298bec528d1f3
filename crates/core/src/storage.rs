//! Partition persistence ("These partitions can be written to disk if
//! desired", paper §III-A).
//!
//! Format (`.part`, little-endian):
//!
//! ```text
//! magic          u64   0x5452_4150_5355_43 ("CUSPART")
//! version        u64   1
//! part_id        u32
//! num_parts      u32
//! global_nodes   u64
//! global_edges   u64
//! num_masters    u64
//! num_local      u64
//! class          u8    (0 = OutEdgeCut, 1 = TwoDimensional, 2 = GeneralVertexCut)
//! weighted       u8    (1 = per-edge u32 data follows dests)
//! local2global   u32 × num_local
//! master_of      u32 × num_local
//! offsets        u64 × (num_local + 1)
//! dests          u32 × num_edges
//! data           u32 × num_edges   (weighted only)
//! ```
//!
//! The bytes go through `cusp_graph::wire`: header via `put_*` / `Reader`,
//! arrays streamed through its slice codec. No checksum: the serve cache
//! detects rot by the fingerprint in its `meta` (DESIGN.md §4 "Bytes").

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use cusp_graph::{wire, Csr};

use crate::dist_graph::{DistGraph, PartitionClass};

const MAGIC: u64 = 0x0054_5241_5053_5543;
const VERSION: u64 = 1;

fn class_tag(c: PartitionClass) -> u8 {
    match c {
        PartitionClass::OutEdgeCut => 0,
        PartitionClass::TwoDimensional => 1,
        PartitionClass::GeneralVertexCut => 2,
    }
}

fn class_from(tag: u8) -> io::Result<PartitionClass> {
    Ok(match tag {
        0 => PartitionClass::OutEdgeCut,
        1 => PartitionClass::TwoDimensional,
        2 => PartitionClass::GeneralVertexCut,
        t => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown partition class tag {t}"),
            ))
        }
    })
}

/// Fixed header size: magic + version + part_id + num_parts +
/// global_nodes + global_edges + num_masters + num_local + 2 tag bytes.
const HEADER_BYTES: usize = 8 + 8 + 4 + 4 + 8 + 8 + 8 + 8 + 2;

/// Writes one partition to `path`.
pub fn write_partition(path: &Path, dg: &DistGraph) -> io::Result<()> {
    let mut header = Vec::with_capacity(HEADER_BYTES);
    wire::put_u64(&mut header, MAGIC);
    wire::put_u64(&mut header, VERSION);
    wire::put_u32(&mut header, dg.part_id);
    wire::put_u32(&mut header, dg.num_parts);
    wire::put_u64(&mut header, dg.global_nodes);
    wire::put_u64(&mut header, dg.global_edges);
    wire::put_u64(&mut header, dg.num_masters as u64);
    wire::put_u64(&mut header, dg.num_local() as u64);
    header.push(class_tag(dg.class));
    header.push(u8::from(dg.edge_data.is_some()));
    let mut w = File::create(path)?;
    w.write_all(&header)?;
    let scratch = &mut vec![0u8; wire::SCRATCH_BYTES];
    wire::write_u32s(&mut w, &dg.local2global, scratch)?;
    wire::write_u32s(&mut w, &dg.master_of, scratch)?;
    wire::write_u64s(&mut w, dg.graph.offsets(), scratch)?;
    wire::write_u32s(&mut w, dg.graph.dests(), scratch)?;
    if let Some(data) = &dg.edge_data {
        wire::write_u32s(&mut w, data, scratch)?;
    }
    Ok(())
}

/// Reads a partition written by [`write_partition`].
///
/// Claimed element counts are bounded against the file's actual size
/// *before* any allocation: a corrupt-but-plausible header must surface
/// as `InvalidData` (so cache loads fall back to recompute), never as an
/// allocation-failure abort. So must a destination naming no local proxy
/// or a `master_of` entry naming no partition: one max per array.
pub fn read_partition(path: &Path) -> io::Result<DistGraph> {
    let mut r = File::open(path)?;
    let file_len = r.metadata()?.len();
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let mut h = wire::Reader::new(&header);
    if h.u64()? != MAGIC {
        return Err(bad("bad partition magic".into()));
    }
    let version = h.u64()?;
    if version != VERSION {
        return Err(bad(format!("unsupported partition version {version}")));
    }
    let part_id = h.u32()?;
    let num_parts = h.u32()?;
    let global_nodes = h.u64()?;
    let global_edges = h.u64()?;
    let num_masters = h.u64()?;
    let num_local = h.u64()?;
    let class = class_from(h.u8()?)?;
    let weighted = h.u8()? != 0;
    if num_masters > num_local {
        return Err(bad("num_masters exceeds num_local".into()));
    }
    // Each local node costs 4 (local2global) + 4 (master_of) + 8
    // (offset) = 16 bytes, plus one trailing 8-byte offset.
    let body_bytes = file_len.saturating_sub(HEADER_BYTES as u64);
    let node_bytes = match num_local.checked_mul(16).and_then(|b| b.checked_add(8)) {
        Some(b) if b <= body_bytes => b,
        _ => {
            return Err(bad(format!(
                "corrupt partition: {num_local} local nodes cannot fit in {file_len}-byte file"
            )))
        }
    };
    let num_masters = num_masters as usize;
    let num_local = num_local as usize;
    // Every array below is sized only after its count was bounded by the
    // bytes the file holds; the zeroed buffers are filled in place.
    let scratch = &mut vec![0u8; wire::SCRATCH_BYTES];
    let mut local2global = vec![0u32; num_local];
    wire::read_u32s_into(&mut r, &mut local2global, scratch)?;
    let mut master_of = vec![0u32; num_local];
    wire::read_u32s_into(&mut r, &mut master_of, scratch)?;
    if let Some(&p) = master_of.iter().max().filter(|&&p| p >= num_parts) {
        return Err(bad(format!("corrupt partition: master in partition {p} of {num_parts}")));
    }
    let mut offsets = vec![0u64; num_local + 1];
    wire::read_u64s_into(&mut r, &mut offsets, scratch)?;
    // Validate CSR shape here rather than letting Csr::from_parts assert:
    // a corrupted body must surface as InvalidData, not a panic.
    if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad("corrupt partition: CSR offsets not monotone from zero".into()));
    }
    let num_edges = *offsets.last().unwrap_or(&0);
    // Monotone-but-huge edge counts must also be bounded by the bytes
    // that actually remain after the per-node arrays.
    let per_edge: u64 = if weighted { 8 } else { 4 };
    match num_edges.checked_mul(per_edge) {
        Some(b) if b <= body_bytes - node_bytes => {}
        _ => {
            return Err(bad(format!(
                "corrupt partition: {num_edges} edges cannot fit in {file_len}-byte file"
            )))
        }
    }
    let num_edges = num_edges as usize;
    let mut dests = vec![0u32; num_edges];
    wire::read_u32s_into(&mut r, &mut dests, scratch)?;
    if let Some(&d) = dests.iter().max().filter(|&&d| d as usize >= num_local) {
        return Err(bad(format!("corrupt partition: destination {d} of {num_local} local nodes")));
    }
    let edge_data = if weighted {
        let mut data = vec![0u32; num_edges];
        wire::read_u32s_into(&mut r, &mut data, scratch)?;
        Some(data)
    } else {
        None
    };
    Ok(DistGraph {
        part_id,
        num_parts,
        global_nodes,
        global_edges,
        num_masters,
        local2global,
        master_of,
        graph: Csr::from_parts(offsets, dests),
        edge_data,
        class,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistGraph {
        DistGraph {
            part_id: 1,
            num_parts: 4,
            global_nodes: 100,
            global_edges: 500,
            num_masters: 2,
            local2global: vec![10, 20, 5, 99],
            master_of: vec![1, 1, 0, 3],
            graph: Csr::from_edges(4, &[(0, 2), (0, 3), (1, 2)]),
            edge_data: Some(vec![7, 8, 9]),
            class: PartitionClass::TwoDimensional,
        }
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cusp-storage-{}-{name}", std::process::id()))
    }

    #[test]
    fn round_trip() {
        let dg = sample();
        let path = temp("roundtrip.part");
        write_partition(&path, &dg).unwrap();
        let back = read_partition(&path).unwrap();
        assert_eq!(back.part_id, dg.part_id);
        assert_eq!(back.num_parts, dg.num_parts);
        assert_eq!(back.global_nodes, dg.global_nodes);
        assert_eq!(back.global_edges, dg.global_edges);
        assert_eq!(back.num_masters, dg.num_masters);
        assert_eq!(back.local2global, dg.local2global);
        assert_eq!(back.master_of, dg.master_of);
        assert_eq!(back.graph, dg.graph);
        assert_eq!(back.edge_data, dg.edge_data);
        assert_eq!(back.class, dg.class);
        std::fs::remove_file(&path).ok();
    }

    /// Round-trips every class tag, both weighted and unweighted — the
    /// class byte and the weighted flag are the only format branches, so
    /// this covers the whole header matrix.
    #[test]
    fn round_trip_all_classes_and_weights() {
        for class in [
            PartitionClass::OutEdgeCut,
            PartitionClass::TwoDimensional,
            PartitionClass::GeneralVertexCut,
        ] {
            for weighted in [false, true] {
                let dg = DistGraph {
                    class,
                    edge_data: weighted.then(|| vec![7, 8, 9]),
                    ..sample()
                };
                let path = temp(&format!("rt-{}-{weighted}.part", class_tag(class)));
                write_partition(&path, &dg).unwrap();
                let back = read_partition(&path).unwrap();
                assert_eq!(back.class, class);
                assert_eq!(back.edge_data, dg.edge_data);
                assert_eq!(back.graph, dg.graph);
                std::fs::remove_file(&path).ok();
            }
        }
    }

    /// Corrupts one header field at a time and checks the reader names
    /// the problem rather than mis-parsing the rest of the file.
    #[test]
    fn rejects_corrupt_header_fields() {
        let dg = sample();
        let path = temp("header.part");
        write_partition(&path, &dg).unwrap();
        let clean = std::fs::read(&path).unwrap();

        // Byte offsets from the format doc: magic @0, version @8,
        // class tag @56.
        let cases: [(usize, u8, &str); 3] =
            [(0, 0xFF, "magic"), (8, 9, "version"), (56, 3, "class tag")];
        for (offset, value, what) in cases {
            let mut bytes = clean.clone();
            bytes[offset] = value;
            std::fs::write(&path, &bytes).unwrap();
            let err = read_partition(&path)
                .err()
                .unwrap_or_else(|| panic!("corrupt {what} accepted"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "corrupt {what}");
        }
        // The untouched copy still reads back fine.
        std::fs::write(&path, &clean).unwrap();
        assert!(read_partition(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    /// A header claiming element counts far beyond the file's actual
    /// size must come back as `InvalidData` — not drive a giant
    /// `Vec::with_capacity` that aborts the process on allocation
    /// failure. That contract is what lets the serve cache treat any
    /// load failure as "recompute".
    #[test]
    fn rejects_absurd_counts_without_allocating() {
        let dg = sample();
        let path = temp("absurd.part");
        write_partition(&path, &dg).unwrap();
        let clean = std::fs::read(&path).unwrap();

        // num_local lives at byte 48 (see the format doc). Claim 2^60
        // local nodes in a ~150-byte file.
        let mut bytes = clean.clone();
        bytes[48..56].copy_from_slice(&(1u64 << 60).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err =
            read_partition(&path).err().unwrap_or_else(|| panic!("huge num_local accepted"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "huge num_local");

        // The final CSR offset (num_edges) lives at byte
        // 58 + 4*4 + 4*4 + 4*8 = 122 for the 4-node sample. 2^60 is
        // monotone w.r.t. the earlier offsets but cannot fit.
        let mut bytes = clean.clone();
        bytes[122..130].copy_from_slice(&(1u64 << 60).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err =
            read_partition(&path).err().unwrap_or_else(|| panic!("huge num_edges accepted"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "huge num_edges");

        // The untouched copy still reads back fine.
        std::fs::write(&path, &clean).unwrap();
        assert!(read_partition(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    /// A body naming a local proxy or a partition that does not exist is
    /// refused by name, not handed on to be indexed.
    #[test]
    fn rejects_ids_out_of_range() {
        let dg = sample();
        let path = temp("ids.part");
        write_partition(&path, &dg).unwrap();
        let clean = std::fs::read(&path).unwrap();

        // For the 4-node sample, master_of starts at byte 58 + 4*4 = 74
        // and the destinations at 74 + 4*4 + 5*8 = 130.
        let cases: [(usize, u32, &str); 2] = [
            (74, 4, "master in partition 4 of 4"),
            (130, 4, "destination 4 of 4 local nodes"),
        ];
        for (offset, value, reason) in cases {
            let mut bytes = clean.clone();
            bytes[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = read_partition(&path).err().unwrap_or_else(|| panic!("{reason} accepted"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{reason}");
            assert!(err.to_string().contains(reason), "{err}");
        }
        std::fs::write(&path, &clean).unwrap();
        assert!(read_partition(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = temp("garbage.part");
        std::fs::write(&path, vec![7u8; 128]).unwrap();
        assert!(read_partition(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated() {
        let dg = sample();
        let path = temp("trunc.part");
        write_partition(&path, &dg).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(read_partition(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
