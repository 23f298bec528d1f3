//! The one battery for the workspace's byte layer (`cusp_graph::wire`):
//! the checked record is total and its two parsers agree, the slice codec
//! equals the per-element encoding on every length and through a scratch
//! smaller than the array, the five on-disk / on-wire formats built
//! on them still read and write the bytes the previous commit produced,
//! and the content hash (`wire::Fingerprint`) equals its scalar definition,
//! ignores how a sequence was cut into calls, and moves on every
//! structural change to a real partition but not on a reordering of the
//! edges within a row.

use std::io::Read;

use proptest::prelude::*;

use cusp_graph::wire::{
    self, put_record, read_record, take_record, RecordError, Truncated, RECORD_HEADER_BYTES,
};

/// A `Read` that counts the bytes it has handed out, so a test can assert
/// what a parser pulled off the stream before it gave its verdict.
struct Counting<'a> {
    src: &'a [u8],
    handed_out: usize,
}

impl Read for Counting<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.src.read(buf)?;
        self.handed_out += n;
        Ok(n)
    }
}

/// `read_record` over a whole buffer: its verdict and the bytes it took.
fn read_all(bytes: &[u8], max_len: u32) -> (Result<Vec<u8>, RecordError>, usize) {
    let mut r = Counting { src: bytes, handed_out: 0 };
    let verdict = read_record(&mut r, max_len).expect("a slice never fails to read");
    (verdict, r.handed_out)
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_record(&mut out, payload);
    out
}

/// Both parsers on one input: they must give the same payload or the same
/// error, and the stream parser must take exactly the record's bytes.
fn parsers_agree(bytes: &[u8], max_len: u32) -> Result<(), TestCaseError> {
    let (streamed, handed_out) = read_all(bytes, max_len);
    match take_record(bytes, max_len) {
        Ok((payload, used)) => {
            prop_assert_eq!(streamed.as_deref(), Ok(payload));
            prop_assert_eq!(handed_out, used);
        }
        Err(e) => prop_assert_eq!(streamed, Err(e)),
    }
    Ok(())
}

#[test]
fn record_round_trips_and_reports_what_it_consumed() {
    for payload in [&b""[..], b"x", b"twelve bytes", &[0xAB; 1000]] {
        let mut bytes = framed(payload);
        assert_eq!(bytes.len(), RECORD_HEADER_BYTES + payload.len());
        bytes.extend_from_slice(b"next record");
        let (got, used) = take_record(&bytes, u32::MAX).unwrap();
        assert_eq!((got, used), (payload, RECORD_HEADER_BYTES + payload.len()));
        let (streamed, handed_out) = read_all(&bytes, u32::MAX);
        assert_eq!((streamed.as_deref(), handed_out), (Ok(payload), used));
    }
}

#[test]
fn every_truncation_point_is_a_typed_truncation() {
    let bytes = framed(b"a payload long enough to cut in many places");
    for cut in 0..bytes.len() {
        let needed = if cut < RECORD_HEADER_BYTES { RECORD_HEADER_BYTES } else { bytes.len() };
        let want = Err(RecordError::Truncated(Truncated { needed, available: cut }));
        assert_eq!(take_record(&bytes[..cut], u32::MAX).map(|_| ()), want, "cut {cut}");
        assert_eq!(read_all(&bytes[..cut], u32::MAX).0.map(|_| ()), want, "cut {cut}");
    }
}

#[test]
fn every_single_bit_flip_is_a_typed_error() {
    let bytes = framed(b"sixteen byte pay");
    for bit in 0..bytes.len() * 8 {
        let mut bad = bytes.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        // A flipped length bit is a truncation (longer), a CRC failure
        // (shorter) or oversize; anything else fails the CRC.
        for max_len in [u32::MAX, 64] {
            let err = take_record(&bad, max_len).expect_err("flip accepted");
            assert_eq!(read_all(&bad, max_len).0, Err(err), "bit {bit}");
            if bit >= 32 {
                assert!(matches!(err, RecordError::Crc { .. }), "bit {bit}: {err:?}");
            }
        }
    }
}

#[test]
fn a_hostile_length_prefix_allocates_nothing() {
    let mut bytes = Vec::new();
    wire::put_u32(&mut bytes, u32::MAX);
    wire::put_u32(&mut bytes, 0);
    bytes.extend_from_slice(b"abc");

    // Over the cap: refused on the header alone — the stream parser has
    // taken the 8 header bytes and not one byte of payload.
    let oversize = Err(RecordError::Oversize { len: u32::MAX, max: 1 << 20 });
    assert_eq!(take_record(&bytes, 1 << 20).map(|_| ()), oversize);
    let (verdict, handed_out) = read_all(&bytes, 1 << 20);
    assert_eq!((verdict.map(|_| ()), handed_out), (oversize, RECORD_HEADER_BYTES));

    // Under the cap (there is none): bounded by the bytes present. The
    // stream parser reserves the claimed length only once a full scratch
    // block of payload has arrived, so a 4 GiB claim followed by 3 bytes
    // costs one block, not a 4 GiB allocation.
    let truncated = Err(RecordError::Truncated(Truncated {
        needed: RECORD_HEADER_BYTES + u32::MAX as usize,
        available: bytes.len(),
    }));
    assert_eq!(take_record(&bytes, u32::MAX).map(|_| ()), truncated);
    let (verdict, handed_out) = read_all(&bytes, u32::MAX);
    assert_eq!((verdict.map(|_| ()), handed_out), (truncated, bytes.len()));
}

#[test]
fn a_record_longer_than_a_scratch_block_reads_into_one_buffer_of_its_length() {
    let payload: Vec<u8> = (0..3 * wire::SCRATCH_BYTES + 5).map(|i| (i * 31 % 251) as u8).collect();
    let bytes = framed(&payload);
    let (verdict, handed_out) = read_all(&bytes, u32::MAX);
    let got = verdict.expect("a whole record");
    assert_eq!((&got[..], handed_out), (&payload[..], bytes.len()));
    // The first block's buffer was grown once, to exactly the length.
    assert_eq!(got.capacity(), payload.len());
    for cut in [RECORD_HEADER_BYTES + wire::SCRATCH_BYTES, bytes.len() - 1] {
        let truncated = Err(RecordError::Truncated(Truncated { needed: bytes.len(), available: cut }));
        assert_eq!(read_all(&bytes[..cut], u32::MAX).0.map(|_| ()), truncated, "cut {cut}");
    }
}

/// Bulk == per-element in both directions, in memory, through the cursor
/// and streamed through a scratch of `scratch_bytes`.
macro_rules! codec_check {
    ($name:ident, $t:ty, $encode:ident, $decode:ident, $write:ident, $read_into:ident, $cursor:ident) => {
        fn $name(vs: &[$t], scratch_bytes: usize) {
            let want: Vec<u8> = vs.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut bytes = vec![0u8; want.len()];
            wire::$encode(vs, &mut bytes);
            assert_eq!(bytes, want, "encode, len {}", vs.len());
            let mut back = vec![0; vs.len()];
            wire::$decode(&want, &mut back);
            assert_eq!(back, vs, "decode, len {}", vs.len());
            assert_eq!(wire::Reader::new(&want).$cursor(&mut back), Ok(()));
            assert_eq!(back, vs, "cursor, len {}", vs.len());

            let scratch = &mut vec![0xEE; scratch_bytes];
            let mut file = Vec::new();
            wire::$write(&mut file, vs, scratch).unwrap();
            assert_eq!(file, want, "write, len {} scratch {scratch_bytes}", vs.len());
            let mut back = vec![0; vs.len()];
            wire::$read_into(&mut &file[..], &mut back, scratch).unwrap();
            assert_eq!(back, vs, "read, len {} scratch {scratch_bytes}", vs.len());
        }
    };
}

codec_check!(check_u32s, u32, encode_u32s, decode_u32s, write_u32s, read_u32s_into, u32s_into);
codec_check!(check_u64s, u64, encode_u64s, decode_u64s, write_u64s, read_u64s_into, u64s_into);

#[test]
fn slice_codec_equals_the_scalar_encoding_on_every_short_length() {
    // 0..=67 straddles empty, tail-only, one block, and two blocks plus a
    // tail for both widths; the scratch sizes force 1, 2 and many passes
    // (the 9- and 13-byte ones are not a whole number of elements).
    let v32: Vec<u32> = (0..67u32).map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0x0102_0304).collect();
    let v64: Vec<u64> = (0..67u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    for n in 0..=67 {
        for scratch_bytes in [9, 13, 64, 1024] {
            check_u32s(&v32[..n], scratch_bytes);
            check_u64s(&v64[..n], scratch_bytes);
        }
    }
}

#[test]
fn the_max_reader_decodes_like_the_plain_one_and_returns_the_largest_value() {
    // Every length through two blocks and a tail, the maximum at each
    // position in turn, and scratch sizes that force one and many passes.
    for n in 0..=19usize {
        for at in 0..n.max(1) {
            let mut vs: Vec<u32> = (0..n as u32).map(|i| i * 3).collect();
            if n > 0 {
                vs[at] = 0xF000_0000 + at as u32;
            }
            let mut bytes = vec![0; n * 4];
            wire::encode_u32s(&vs, &mut bytes);
            for scratch_bytes in [4, 13, 1024] {
                let mut back = vec![0; n];
                let max = wire::read_u32s_max_into(&mut &bytes[..], &mut back, &mut vec![0; scratch_bytes]);
                assert_eq!(max.unwrap(), vs.iter().copied().max().unwrap_or(0), "n {n} at {at}");
                assert_eq!(back, vs, "n {n} scratch {scratch_bytes}");
            }
        }
    }
}

#[test]
fn a_scratch_larger_than_the_bound_is_used_up_to_the_bound() {
    // An array of two and a half passes, written with a scratch four times
    // the bound: the writer must still cut it into bound-sized writes.
    struct Widest(usize);
    impl std::io::Write for Widest {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 = self.0.max(buf.len());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let vs = vec![7u32; wire::SCRATCH_BYTES / 4 * 5 / 2];
    let mut w = Widest(0);
    wire::write_u32s(&mut w, &vs, &mut vec![0u8; 4 * wire::SCRATCH_BYTES]).unwrap();
    assert_eq!(w.0, wire::SCRATCH_BYTES);
}

#[test]
fn a_short_stream_is_an_io_error_not_a_partial_array() {
    let mut dst = [0u32; 4];
    let err = wire::read_u32s_into(&mut &[0u8; 15][..], &mut dst, &mut [0u8; 8]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

/// The definition of `wire::Fingerprint`, one element at a time: element
/// `i` steps lane `i mod 4`; the count and the lanes fold through the same
/// step; MurmurHash3's finalizer on top.
fn fingerprint_reference(vs: &[u64]) -> u64 {
    let step = |lane: u64, v: u64| (lane ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    let mut lanes: [u64; 4] =
        [0x6A09_E667_F3BC_C908, 0xBB67_AE85_84CA_A73B, 0x3C6E_F372_FE94_F82B, 0xA54F_F53A_5F1D_36F1];
    for (i, &v) in vs.iter().enumerate() {
        lanes[i % 4] = step(lanes[i % 4], v);
    }
    let mut acc = lanes.iter().fold(vs.len() as u64, |acc, &lane| step(acc, lane));
    acc = (acc ^ (acc >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    acc = (acc ^ (acc >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    acc ^ (acc >> 33)
}

fn digest(absorb: impl FnOnce(&mut wire::Fingerprint)) -> u64 {
    let mut h = wire::Fingerprint::new();
    absorb(&mut h);
    h.finish()
}

fn xorshift_u64s(seed: u64, n: usize) -> Vec<u64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        })
        .collect()
}

#[test]
fn fingerprint_equals_the_scalar_reference() {
    // 0..=40 straddles empty, sub-round, and ten whole rounds plus every
    // tail; then slices long enough that the round loop dominates.
    let cases = (0..=40).map(|n| (7, n)).chain([(1, 1000), (2, 4099), (3, 65_537)]);
    for (seed, n) in cases {
        let v64 = xorshift_u64s(seed, n);
        let v32: Vec<u32> = v64.iter().map(|&v| (v >> 17) as u32).collect();
        let widened: Vec<u64> = v32.iter().map(|&v| v as u64).collect();
        assert_eq!(digest(|h| h.extend(&v64)), fingerprint_reference(&v64), "u64 x{n} seed {seed}");
        assert_eq!(digest(|h| h.extend(&v32)), fingerprint_reference(&widened), "u32 x{n} seed {seed}");
    }
    // Pinned: the serve cache persists these values in `meta` and in its
    // directory names, so a change of definition must be a decision.
    assert_eq!(digest(|_| ()), 0xa1f9_4f6f_a313_d212);
    assert_eq!(digest(|h| h.extend(&[0u32, 1, 2, 3, 4, 5, 6, 7, 8, 9])), 0x7840_6677_0eeb_cc69);
}

#[test]
fn fingerprint_depends_on_the_sequence_not_on_the_calls() {
    let v32: Vec<u32> = xorshift_u64s(11, 41).iter().map(|&v| v as u32).collect();
    let whole = digest(|h| h.extend(&v32));
    let by_element = digest(|h| v32.iter().for_each(|&v| h.word(v as u64)));
    assert_eq!(by_element, whole);
    for cut in 0..=v32.len() {
        let split = digest(|h| {
            h.extend(&v32[..cut]);
            h.extend(&v32[cut..]);
        });
        assert_eq!(split, whole, "cut at {cut}");
    }
    // `array` is the length, then the elements.
    let framed = digest(|h| {
        h.word(v32.len() as u64);
        h.extend(&v32);
    });
    assert_eq!(digest(|h| h.array(&v32)), framed);
}

#[test]
fn fingerprint_moves_on_every_element_and_every_boundary() {
    let vs = xorshift_u64s(13, 41);
    let base = digest(|h| h.extend(&vs));
    // Every step is a bijection of its lane: any one element, any one
    // bit, changes the digest — not "almost surely", always.
    for i in 0..vs.len() {
        for bit in 0..64 {
            let mut bad = vs.clone();
            bad[i] ^= 1 << bit;
            assert_ne!(digest(|h| h.extend(&bad)), base, "element {i} bit {bit}");
        }
    }
    // Two framed arrays: each of the 42 places the boundary can sit
    // gives its own digest, and none equals the unframed sequence.
    let mut seen = std::collections::HashSet::from([base]);
    for cut in 0..=vs.len() {
        let framed = digest(|h| {
            h.array(&vs[..cut]);
            h.array(&vs[cut..]);
        });
        assert!(seen.insert(framed), "boundary at {cut} collides");
    }
}

/// A small real partition: weighted web-crawl graph, CVC on four
/// simulated hosts.
fn real_partition() -> Vec<cusp::DistGraph> {
    use std::sync::Arc;
    let graph = cusp_graph::gen::powerlaw(cusp_graph::gen::PowerLawConfig::webcrawl(48, 3.0, 5));
    let weights: Vec<u32> = (0..graph.num_edges() as u32).map(|e| e.wrapping_mul(2_654_435_761)).collect();
    let source = cusp::GraphSource::MemoryWeighted(Arc::new(graph), Arc::new(weights));
    let cfg = cusp::deterministic_for_comparison(cusp::CuspConfig::default());
    cusp_net::Cluster::run(4, move |comm| {
        cusp::partition_with_policy(comm, source.clone(), cusp::PolicyKind::Cvc, &cfg).dist_graph
    })
    .results
}

#[test]
fn every_structural_change_moves_the_partition_fingerprint() {
    use cusp::{partition_fingerprint, DistGraph};
    use cusp_graph::Csr;

    let parts = real_partition();
    let base = partition_fingerprint(&parts);
    assert_eq!(base, partition_fingerprint(&real_partition()), "not deterministic");
    assert!(parts.iter().all(|p| p.num_local() > 1 && p.graph.num_edges() > 1), "input too small");
    let (mut moved, mut stayed, mut repeated) = (0usize, 0usize, 0usize);
    // `edit` applied to part `h` must change the whole fingerprint and
    // that part's own when `moves`, and leave both alone otherwise; `what`
    // names the edit when it does not.
    let mut check = |h: usize, what: String, moves: bool, edit: &dyn Fn(&mut DistGraph)| {
        let mut changed = parts.clone();
        edit(&mut changed[h]);
        let part = cusp::part_fingerprint(&changed[h]) != cusp::part_fingerprint(&parts[h]);
        let whole = partition_fingerprint(&changed) != base;
        assert_eq!((part, whole), (moves, moves), "{what}: moved (part, whole)");
        *if moves { &mut moved } else { &mut stayed } += 1;
    };
    /// The four `u32` arrays of a part, by index: to read, and to edit.
    fn array_of(p: &DistGraph, which: usize) -> &[u32] {
        match which {
            0 => &p.local2global,
            1 => &p.master_of,
            2 => p.graph.dests(),
            _ => p.edge_data.as_deref().expect("weighted input"),
        }
    }
    fn with_array(p: &mut DistGraph, which: usize, edit: impl FnOnce(&mut Vec<u32>)) {
        match which {
            0 => edit(&mut p.local2global),
            1 => edit(&mut p.master_of),
            2 => {
                let mut dests = p.graph.dests().to_vec();
                edit(&mut dests);
                p.graph = Csr::from_parts(p.graph.offsets().to_vec(), dests);
            }
            _ => edit(p.edge_data.as_mut().expect("weighted input")),
        }
    }
    const ARRAYS: [&str; 4] = ["local2global", "master_of", "dests", "edge_data"];

    for (h, p) in parts.iter().enumerate() {
        for (which, name) in ARRAYS.iter().enumerate() {
            let array = array_of(p, which);
            // Every single element, flipped in its lowest and highest bit.
            for i in 0..array.len() {
                for bit in [0, 31] {
                    check(h, format!("part {h} {name}[{i}] bit {bit}"), true, &|p| {
                        with_array(p, which, |a| a[i] ^= 1 << bit)
                    });
                }
            }
        }
        // The id maps are sequences: every adjacent pair that differs,
        // swapped, moves.
        for (which, name) in ARRAYS.iter().enumerate().take(2) {
            let array = array_of(p, which);
            for i in 0..array.len() - 1 {
                if array[i] != array[i + 1] {
                    check(h, format!("part {h} {name}[{i}] <-> [{}]", i + 1), true, &|p| {
                        with_array(p, which, |a| a.swap(i, i + 1))
                    });
                }
            }
        }
        // A row is a multiset of (dest, weight) pairs. Two whole pairs
        // swapped inside a row are the same row, so nothing moves; a dest
        // swapped alone between two unequal weights, or two unequal dests
        // swapped across a row boundary, is another partition.
        let offsets = p.graph.offsets();
        let (dests, weights) = (p.graph.dests(), p.edge_data.as_deref().expect("weighted input"));
        for i in 0..dests.len() - 1 {
            let in_row = offsets.binary_search(&(i as u64 + 1)).is_err();
            if in_row {
                repeated += (dests[i] == dests[i + 1] && weights[i] != weights[i + 1]) as usize;
                let what = format!("part {h} edge {i} <-> {} (dest and weight)", i + 1);
                check(h, what, false, &|p| {
                    with_array(p, 2, |a| a.swap(i, i + 1));
                    with_array(p, 3, |a| a.swap(i, i + 1));
                });
            }
            if dests[i] != dests[i + 1] && (!in_row || weights[i] != weights[i + 1]) {
                let what = format!("part {h} dests[{i}] <-> [{}], in row: {in_row}", i + 1);
                check(h, what, true, &|p| with_array(p, 2, |a| a.swap(i, i + 1)));
            }
        }
        // Offsets must stay monotone from 0 to the edge count for `Csr`
        // to hold them, so an interior offset moves by one where its
        // neighbours leave room (a swap of two unequal offsets never does).
        for i in 1..offsets.len() - 1 {
            for to in [offsets[i].wrapping_sub(1), offsets[i] + 1] {
                if offsets[i - 1] <= to && to <= offsets[i + 1] {
                    check(h, format!("part {h} offsets[{i}] -> {to}"), true, &|p| {
                        let mut offsets = p.graph.offsets().to_vec();
                        offsets[i] = to;
                        p.graph = Csr::from_parts(offsets, p.graph.dests().to_vec());
                    });
                }
            }
        }
        // One element across the only boundary two equal-width arrays
        // share: the same values in the same order, framed differently.
        check(h, format!("part {h} local2global -> master_of"), true, &|p| {
            let moved = p.local2global.pop().expect("non-empty");
            p.master_of.insert(0, moved);
        });
        check(h, format!("part {h} master_of -> local2global"), true, &|p| {
            let moved = p.master_of.remove(0);
            p.local2global.push(moved);
        });
        // Absent weights are not empty weights.
        let unweighted = DistGraph { edge_data: None, ..p.clone() };
        let empty = DistGraph { edge_data: Some(vec![]), ..p.clone() };
        assert_ne!(cusp::part_fingerprint(&unweighted), cusp::part_fingerprint(&empty), "part {h}");
        assert_ne!(cusp::part_fingerprint(&unweighted), cusp::part_fingerprint(p), "part {h}");
    }
    assert!(moved > 900 && stayed > 30, "only {moved} moving and {stayed} in-row edits possible");
    // Among the in-row swaps, a repeated (src, dest) edge whose two
    // weights trade places: the one multiset edit an ordered hash sees.
    assert!(repeated > 0, "no row repeats a dest with unequal weights");

    // Part order is part of the value.
    for a in 0..parts.len() {
        for b in a + 1..parts.len() {
            let mut reordered = parts.clone();
            reordered.swap(a, b);
            assert_ne!(partition_fingerprint(&reordered), base, "parts {a} <-> {b}");
        }
    }
    // And the whole is exactly the ordered merge of its parts.
    let per_part: Vec<u64> = parts.iter().map(cusp::part_fingerprint).collect();
    assert_eq!(cusp::merge_part_fingerprints(&per_part), base);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary bytes: both record parsers return the same typed verdict.
    #[test]
    fn record_parsers_agree_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        max_len in 0u32..80,
    ) {
        parsers_agree(&bytes, max_len)?;
        parsers_agree(&bytes, u32::MAX)?;
    }

    /// A valid record, then cut, flipped or extended: still the same
    /// verdict from both, and never the original payload from a damaged
    /// record.
    #[test]
    fn record_parsers_agree_on_damaged_records(
        payload in proptest::collection::vec(any::<u8>(), 0..48),
        pos in 0usize..(1 << 16),
        tail in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let clean = framed(&payload);
        let mut extended = clean.clone();
        extended.extend_from_slice(&tail);
        parsers_agree(&extended, u32::MAX)?;
        prop_assert_eq!(take_record(&extended, u32::MAX), Ok((&payload[..], clean.len())));

        parsers_agree(&clean[..pos % clean.len()], u32::MAX)?;
        let mut flipped = clean.clone();
        let bit = pos % (clean.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        parsers_agree(&flipped, u32::MAX)?;
        parsers_agree(&flipped, 48)?;
        prop_assert!(take_record(&flipped, u32::MAX).is_err(), "bit {} flip accepted", bit);
    }

    /// Random arrays through a random scratch, both widths.
    #[test]
    fn slice_codec_equals_the_scalar_encoding_on_random_arrays(
        v32 in proptest::collection::vec(any::<u32>(), 0..600),
        v64 in proptest::collection::vec(any::<u64>(), 0..300),
        scratch_bytes in 8usize..700,
    ) {
        check_u32s(&v32, scratch_bytes);
        check_u64s(&v64, scratch_bytes);
    }
}

// --- Golden bytes: files and a frame written by the commit before this
// --- module existed. "Bytes identical" means these decode here and
// --- re-encode to themselves.

const BGR_V1: [u8; 84] = [
    0x43, 0x55, 0x53, 0x42, 0x47, 0x21, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00,
];
const BGR_V2: [u8; 104] = [
    0x43, 0x55, 0x53, 0x42, 0x47, 0x21, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x1e, 0x00, 0x00, 0x00,
    0x28, 0x00, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde,
];
const PART_WEIGHTED: [u8; 154] = [
    0x43, 0x55, 0x53, 0x50, 0x41, 0x52, 0x54, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xf4, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x0a, 0x00, 0x00, 0x00, 0x14, 0x00,
    0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x63, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x07, 0x00,
    0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x04, 0x03, 0x02, 0x01,
];
const WAL_TWO_BATCHES: [u8; 82] = [
    0x43, 0x55, 0x53, 0x50, 0x57, 0x41, 0x4c, 0x00, 0x01, 0x00, 0x00, 0x00, 0x17, 0x00, 0x00, 0x00,
    0x96, 0x16, 0xbd, 0xab, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x1f, 0x00, 0x00, 0x00, 0x64,
    0xd4, 0x8e, 0x8e, 0x02, 0x00, 0x00, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
    0x01, 0x2a, 0x00, 0x00, 0x00, 0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
    0x00, 0x00,
];
const SERVE_FRAME: [u8; 47] = [
    0x56, 0x52, 0x53, 0x43, 0x23, 0x00, 0x00, 0x00, 0xbe, 0x22, 0x69, 0x78, 0x02, 0x04, 0x00, 0x00,
    0x00, 0x61, 0x63, 0x6d, 0x65, 0x03, 0x00, 0x00, 0x00, 0x77, 0x65, 0x62, 0x03, 0x00, 0x00, 0x00,
    0x43, 0x56, 0x43, 0x04, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cusp-wire-golden-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn golden_graph() -> cusp_graph::Csr {
    cusp_graph::Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (3, 0), (3, 3)])
}

#[test]
fn golden_bgr_v1_and_v2() {
    let dir = temp_dir("bgr");
    let weights = [10, 20, 30, 40, 0xDEAD_BEEF];

    std::fs::write(dir.join("v1.bgr"), BGR_V1).unwrap();
    assert_eq!(cusp_graph::read_bgr(&dir.join("v1.bgr")).unwrap(), golden_graph());
    cusp_graph::write_bgr(&dir.join("v1.out"), &golden_graph()).unwrap();
    assert_eq!(std::fs::read(dir.join("v1.out")).unwrap(), BGR_V1);

    std::fs::write(dir.join("v2.bgr"), BGR_V2).unwrap();
    let (g, w) = cusp_graph::read_bgr_weighted(&dir.join("v2.bgr")).unwrap();
    assert_eq!((g, &w[..]), (golden_graph(), &weights[..]));
    cusp_graph::write_bgr_weighted(&dir.join("v2.out"), &golden_graph(), &weights).unwrap();
    assert_eq!(std::fs::read(dir.join("v2.out")).unwrap(), BGR_V2);

    // A mid-file range read sees the same bytes the whole-file read does.
    let slice = cusp_graph::RangeReader::open(&dir.join("v2.bgr")).unwrap().read_range(1, 4).unwrap();
    assert_eq!((1..=4).map(|v| slice.first_edge(v) - 2).collect::<Vec<_>>(), [0, 1, 1, 3]);
    assert_eq!(slice.dests(), [3, 0, 3]);
    assert_eq!(slice.weights(), Some(&weights[2..]));
    assert_eq!(slice.first_edge(slice.node_lo), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_weighted_part() {
    let dir = temp_dir("part");
    std::fs::write(dir.join("w.part"), PART_WEIGHTED).unwrap();
    let dg = cusp::read_partition(&dir.join("w.part")).unwrap();
    assert_eq!((dg.part_id, dg.num_parts, dg.global_nodes, dg.global_edges), (1, 4, 100, 500));
    assert_eq!(dg.num_masters, 2);
    assert_eq!(dg.local2global, [10, 20, 5, 99]);
    assert_eq!(dg.master_of, [1, 1, 0, 3]);
    assert_eq!(dg.graph, cusp_graph::Csr::from_edges(4, &[(0, 2), (0, 3), (1, 2)]));
    assert_eq!(dg.edge_data.as_deref(), Some(&[7, 8, 0x0102_0304][..]));
    assert_eq!(dg.class, cusp::PartitionClass::TwoDimensional);
    cusp::write_partition(&dir.join("w.out"), &dg).unwrap();
    assert_eq!(std::fs::read(dir.join("w.out")).unwrap(), PART_WEIGHTED);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_wal_of_two_batches() {
    use cusp_graph::wal::{decode_wal, Wal};
    use cusp_graph::GraphEvent;
    let batches = vec![
        vec![
            GraphEvent::AddEdge { src: 0, dst: 1, weight: None },
            GraphEvent::RemoveEdge { src: 2, dst: 3 },
        ],
        vec![
            GraphEvent::AddEdge { src: 7, dst: 9, weight: Some(42) },
            GraphEvent::SetWeight { src: 1, dst: 0, weight: 5 },
        ],
    ];
    assert_eq!(decode_wal(&WAL_TWO_BATCHES).unwrap(), batches);

    // Appending to the golden file's first-batch prefix and to nothing at
    // all both end at the golden bytes.
    let dir = temp_dir("wal");
    let wal = Wal::new(dir.join("fresh.wal"));
    for b in &batches {
        wal.append(b).unwrap();
    }
    assert_eq!(std::fs::read(wal.path()).unwrap(), WAL_TWO_BATCHES);
    let first_len = 12 + 8 + 0x17;
    let wal = Wal::new(dir.join("prefix.wal"));
    std::fs::write(wal.path(), &WAL_TWO_BATCHES[..first_len]).unwrap();
    assert_eq!(wal.append(&batches[1]).unwrap(), first_len as u64);
    assert_eq!(std::fs::read(wal.path()).unwrap(), WAL_TWO_BATCHES);
    assert_eq!(wal.recover().unwrap(), (batches, false));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_serve_frame() {
    use cusp_serve::protocol::{decode_frame, encode_frame, read_frame, Request, DEFAULT_MAX_FRAME};
    let req = Request::Partition {
        tenant: "acme".into(),
        graph: "web".into(),
        policy: "CVC".into(),
        hosts: 4,
        chunk_edges: 1024,
    };
    let (payload, used) = decode_frame(&SERVE_FRAME, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(used, SERVE_FRAME.len());
    assert_eq!(Request::decode(payload).unwrap(), req);
    assert_eq!(read_frame(&mut &SERVE_FRAME[..], DEFAULT_MAX_FRAME).unwrap(), payload);
    assert_eq!(encode_frame(&req.encode()), SERVE_FRAME);
}
