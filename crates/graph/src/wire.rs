//! The workspace's one byte layer. Every format in the repo — `.bgr`,
//! `.part`, checkpoint, WAL, cache `meta`, serve frames, `cusp-net`
//! messages — is little-endian integers in a byte buffer; a format module
//! keeps its magic, version and field list and calls the three primitives
//! here for the bytes:
//!
//! 1. the **slice codec** (`encode_*s`/`decode_*s`, and `write_*s`/
//!    `read_*s_into`, which stream an array through a bounded scratch
//!    block so a file never costs a second copy of it);
//! 2. [`Reader`], a total borrowed cursor: every read is the value or a
//!    [`Truncated`], never a panic;
//! 3. the **checked record** `len u32 | crc32 u32 | payload`
//!    ([`put_record`], [`take_record`] for slices, [`read_record`] for
//!    streams — one header parse and one payload check under both), with
//!    [`crc32`] beneath it.
//!
//! Beside the byte checksum sits the workspace's one *content* hash,
//! [`Fingerprint`]: defined over integer values rather than their bytes,
//! it is what `cusp::graph_fingerprint` and `cusp::part_fingerprint` feed
//! their arrays through, and [`Fingerprint::rows`] is how a partition's
//! rows enter it: as edge multisets, so the order within a row does not
//! count.

use std::io::{self, Read, Write};

/// Stride of the slice codec: one 32-byte block per iteration (a full AVX2
/// register), i.e. 8 `u32`s or 4 `u64`s. The fixed-count inner loops
/// compile to straight-line vector code — wide copies on little-endian
/// targets — and the sub-block tail is handled element-wise.
const BLOCK_BYTES: usize = 32;

/// The bounded-scratch rule: a streaming call stages at most this many
/// bytes at once, whatever scratch it is handed, so reading or writing a
/// file costs the array plus one block. 256 KiB stays in L2 between the
/// `read`/`write` syscall and the codec pass over it.
pub const SCRATCH_BYTES: usize = 256 << 10;
const _: () = assert!(SCRATCH_BYTES <= 1 << 20, "the bounded-scratch rule caps the block at 1 MiB");

/// Elements of `width` bytes one staging pass over `scratch` may hold.
fn elems_per_pass(scratch: &[u8], width: usize) -> usize {
    let n = scratch.len().min(SCRATCH_BYTES) / width;
    assert!(n > 0, "scratch block holds no {width}-byte element");
    n
}

macro_rules! slice_codec {
    ($t:ty, $encode:ident, $decode:ident, $write:ident, $read_into:ident) => {
        #[doc = concat!("Encodes `vs` as little-endian `", stringify!($t), "`s into `dst` (exactly `size_of_val(vs)`")]
        /// bytes), byte-identical to encoding element by element.
        #[inline]
        pub fn $encode(vs: &[$t], dst: &mut [u8]) {
            const W: usize = size_of::<$t>();
            assert_eq!(dst.len(), vs.len() * W, "encode: destination is not the array's byte length");
            let mut blocks = vs.chunks_exact(BLOCK_BYTES / W);
            let mut outs = dst.chunks_exact_mut(BLOCK_BYTES);
            for (blk, out) in (&mut blocks).zip(&mut outs) {
                for j in 0..BLOCK_BYTES / W {
                    out[j * W..(j + 1) * W].copy_from_slice(&blk[j].to_le_bytes());
                }
            }
            for (v, out) in blocks.remainder().iter().zip(outs.into_remainder().chunks_exact_mut(W)) {
                out.copy_from_slice(&v.to_le_bytes());
            }
        }

        #[doc = concat!("Decodes little-endian `", stringify!($t), "`s from `src` (exactly `size_of_val(dst)` bytes) into `dst`.")]
        #[inline]
        pub fn $decode(src: &[u8], dst: &mut [$t]) {
            const W: usize = size_of::<$t>();
            assert_eq!(src.len(), dst.len() * W, "decode: source is not the array's byte length");
            let mut blocks = src.chunks_exact(BLOCK_BYTES);
            let mut outs = dst.chunks_exact_mut(BLOCK_BYTES / W);
            for (blk, out) in (&mut blocks).zip(&mut outs) {
                for j in 0..BLOCK_BYTES / W {
                    out[j] = <$t>::from_le_bytes(blk[j * W..(j + 1) * W].try_into().expect("W bytes"));
                }
            }
            for (b, v) in blocks.remainder().chunks_exact(W).zip(outs.into_remainder()) {
                *v = <$t>::from_le_bytes(b.try_into().expect("W bytes"));
            }
        }

        #[doc = concat!("Writes `vs` to `w` as little-endian `", stringify!($t), "`s, one scratch block at a time.")]
        pub fn $write(w: &mut impl Write, vs: &[$t], scratch: &mut [u8]) -> io::Result<()> {
            const W: usize = size_of::<$t>();
            for run in vs.chunks(elems_per_pass(scratch, W)) {
                let block = &mut scratch[..run.len() * W];
                $encode(run, block);
                w.write_all(block)?;
            }
            Ok(())
        }

        #[doc = concat!("Fills `dst` with little-endian `", stringify!($t), "`s read from `r`, one scratch block at a time.")]
        /// The caller sized `dst`, so it answers for having bounded that size
        /// by the bytes the source can hold.
        pub fn $read_into(r: &mut impl Read, dst: &mut [$t], scratch: &mut [u8]) -> io::Result<()> {
            const W: usize = size_of::<$t>();
            for run in dst.chunks_mut(elems_per_pass(scratch, W)) {
                let block = &mut scratch[..run.len() * W];
                r.read_exact(block)?;
                $decode(block, run);
            }
            Ok(())
        }
    };
}

slice_codec!(u32, encode_u32s, decode_u32s, write_u32s, read_u32s_into);
slice_codec!(u64, encode_u64s, decode_u64s, write_u64s, read_u64s_into);

/// [`decode_u32s`] that also returns the largest value decoded (0 for an
/// empty `dst`). The maximum is kept per lane of the 32-byte block, so a
/// bound check on the values rides the decode loop instead of a second
/// pass over the array.
#[inline]
pub fn decode_u32s_max(src: &[u8], dst: &mut [u32]) -> u32 {
    const LANES: usize = BLOCK_BYTES / 4;
    assert_eq!(src.len(), dst.len() * 4, "decode: source is not the array's byte length");
    let mut max = [0u32; LANES];
    let mut blocks = src.chunks_exact(BLOCK_BYTES);
    let mut outs = dst.chunks_exact_mut(LANES);
    for (blk, out) in (&mut blocks).zip(&mut outs) {
        for j in 0..LANES {
            out[j] = u32::from_le_bytes(blk[j * 4..(j + 1) * 4].try_into().expect("4 bytes"));
            max[j] = max[j].max(out[j]);
        }
    }
    for (b, v) in blocks.remainder().chunks_exact(4).zip(outs.into_remainder()) {
        *v = u32::from_le_bytes(b.try_into().expect("4 bytes"));
        max[0] = max[0].max(*v);
    }
    max.into_iter().fold(0, u32::max)
}

/// [`read_u32s_into`] that also returns the largest value read (0 for an
/// empty `dst`), taken in the decode pass ([`decode_u32s_max`]).
pub fn read_u32s_max_into(r: &mut impl Read, dst: &mut [u32], scratch: &mut [u8]) -> io::Result<u32> {
    let mut max = 0;
    for run in dst.chunks_mut(elems_per_pass(scratch, 4)) {
        let block = &mut scratch[..run.len() * 4];
        r.read_exact(block)?;
        max = max.max(decode_u32s_max(block, run));
    }
    Ok(max)
}

/// Appends a little-endian `u32` to `out`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64` to `out`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` count and that many `u32`s: what [`Reader::u32_vec`]
/// reads back.
pub fn put_u32_vec(out: &mut Vec<u8>, vs: &[u32]) {
    put_u64(out, vs.len() as u64);
    let old = out.len();
    out.resize(old + size_of_val(vs), 0);
    encode_u32s(vs, &mut out[old..]);
}

/// Appends a `u64` count and that many `u64`s: what [`Reader::u64_vec`]
/// reads back.
pub fn put_u64_vec(out: &mut Vec<u8>, vs: &[u64]) {
    put_u64(out, vs.len() as u64);
    let old = out.len();
    out.resize(old + size_of_val(vs), 0);
    encode_u64s(vs, &mut out[old..]);
}

/// A read ran past the end of its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// Bytes the failed read needed.
    pub needed: usize,
    /// Bytes that were actually available.
    pub available: usize,
}

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "truncated: needed {} bytes, {} available", self.needed, self.available)
    }
}

impl std::error::Error for Truncated {}

impl From<Truncated> for io::Error {
    fn from(e: Truncated) -> Self {
        io::Error::new(io::ErrorKind::UnexpectedEof, e)
    }
}

/// A total cursor over borrowed bytes: each read yields the value and
/// advances, or yields [`Truncated`] and consumes nothing.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True when every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The next `n` bytes, borrowed from the underlying buffer.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let Some((head, tail)) = self.buf.split_at_checked(n) else {
            return Err(Truncated { needed: n, available: self.buf.len() });
        };
        self.buf = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) is N bytes long"))
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads exactly `dst.len()` little-endian `u32`s (no length prefix).
    #[inline]
    pub fn u32s_into(&mut self, dst: &mut [u32]) -> Result<(), Truncated> {
        decode_u32s(self.bytes(size_of_val(dst))?, dst);
        Ok(())
    }

    /// Reads exactly `dst.len()` little-endian `u64`s (no length prefix).
    #[inline]
    pub fn u64s_into(&mut self, dst: &mut [u64]) -> Result<(), Truncated> {
        decode_u64s(self.bytes(size_of_val(dst))?, dst);
        Ok(())
    }

    /// Reads a little-endian `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `u64` count and that many `u32`s. The count is held against
    /// the bytes present before anything is sized by it.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, Truncated> {
        let mut r = self.clone();
        let n = r.u64()? as usize;
        let run = r.bytes(n.saturating_mul(4))?;
        let mut out = vec![0u32; n];
        decode_u32s(run, &mut out);
        *self = r;
        Ok(out)
    }

    /// Reads a `u64` count and that many `u64`s, bounded as
    /// [`Reader::u32_vec`].
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, Truncated> {
        let mut r = self.clone();
        let n = r.u64()? as usize;
        let run = r.bytes(n.saturating_mul(8))?;
        let mut out = vec![0u64; n];
        decode_u64s(run, &mut out);
        *self = r;
        Ok(out)
    }
}

/// Byte count of a record header (`len u32 | crc32 u32`).
pub const RECORD_HEADER_BYTES: usize = 8;

/// Why bytes are not a valid record — a deterministic property of the
/// bytes. Each format maps it into its own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The bytes end inside the header or the payload; the counts are from
    /// the start of the record.
    Truncated(Truncated),
    /// The length prefix exceeds the caller's cap — reported before the
    /// payload is looked at, let alone buffered.
    Oversize {
        /// Length the prefix claimed.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The payload does not hash to the stored CRC (bit rot or tamper).
    Crc {
        /// CRC-32 stored in the header.
        stored: u32,
        /// CRC-32 of the payload bytes.
        actual: u32,
    },
}

/// Appends `payload` to `out` framed as one record. Panics if `payload`
/// is longer than the `u32` length prefix can express.
pub fn put_record(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("record payload exceeds u32::MAX bytes");
    out.reserve(RECORD_HEADER_BYTES + payload.len());
    put_u32(out, len);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

/// The one header parse: from the bytes that start a record, the claimed
/// payload length — already checked against `max_len` — and the stored CRC.
fn record_header(bytes: &[u8], max_len: u32) -> Result<(usize, u32), RecordError> {
    let mut r = Reader::new(bytes);
    let (Ok(len), Ok(stored)) = (r.u32(), r.u32()) else {
        let cut = Truncated { needed: RECORD_HEADER_BYTES, available: bytes.len() };
        return Err(RecordError::Truncated(cut));
    };
    if len > max_len {
        return Err(RecordError::Oversize { len, max: max_len });
    }
    Ok((len as usize, stored))
}

/// The one payload check: `body` (the bytes after the header) holds the
/// `len` bytes claimed, and they hash to `stored`.
fn record_payload(body: &[u8], len: usize, stored: u32) -> Result<&[u8], RecordError> {
    let Some(payload) = body.get(..len) else {
        return Err(RecordError::Truncated(Truncated {
            needed: RECORD_HEADER_BYTES.saturating_add(len),
            available: RECORD_HEADER_BYTES + body.len(),
        }));
    };
    let actual = crc32(payload);
    if actual != stored {
        return Err(RecordError::Crc { stored, actual });
    }
    Ok(payload)
}

/// Parses one record off the front of `bytes`, returning its payload and
/// the total bytes consumed. Pure and total: the length prefix is checked
/// against `max_len` and the bytes present before the payload is touched.
pub fn take_record(bytes: &[u8], max_len: u32) -> Result<(&[u8], usize), RecordError> {
    let (len, stored) = record_header(bytes, max_len)?;
    let payload = record_payload(&bytes[RECORD_HEADER_BYTES..], len, stored)?;
    Ok((payload, RECORD_HEADER_BYTES + len))
}

/// Reads one record off a blocking stream: the outer error is the
/// stream's, the inner one says the bytes that arrived are not a record
/// (end of stream inside it is [`RecordError::Truncated`]). The payload
/// buffer grows with the bytes that arrive, so a length prefix under
/// `max_len` still cannot make this allocate what the peer does not send.
pub fn read_record(r: &mut impl Read, max_len: u32) -> io::Result<Result<Vec<u8>, RecordError>> {
    let mut header = Vec::with_capacity(RECORD_HEADER_BYTES);
    r.by_ref().take(RECORD_HEADER_BYTES as u64).read_to_end(&mut header)?;
    let (len, stored) = match record_header(&header, max_len) {
        Ok(h) => h,
        Err(e) => return Ok(Err(e)),
    };
    let mut payload = Vec::with_capacity(len.min(SCRATCH_BYTES));
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    Ok(match record_payload(&payload, len, stored) {
        Ok(_) => Ok(payload),
        Err(e) => Err(e),
    })
}

/// Slice-by-8 tables for [`crc32`]: `[0]` is the classic byte-at-a-time
/// table, `[k][b]` the CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE, reflected — the gzip/zip polynomial), eight bytes per
/// step. The one checksum routine of the workspace: every checked record
/// — WAL, checkpoint, cache `meta`, serve frame — hashes through it.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("8 bytes")) ^ crc as u64;
        crc = 0;
        for k in 0..8 {
            crc ^= CRC_TABLES[7 - k][(x >> (8 * k)) as u8 as usize];
        }
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Lanes of a [`Fingerprint`]: consecutive elements go to consecutive
/// lanes, so four multiply chains are in flight at once.
const LANES: usize = 4;
/// Distinct start values per lane (the fractional bits of √2, √3, √5, √7),
/// so equal elements in neighbouring lanes do not leave equal lanes.
const LANE_SEEDS: [u64; LANES] =
    [0x6A09_E667_F3BC_C908, 0xBB67_AE85_84CA_A73B, 0x3C6E_F372_FE94_F82B, 0xA54F_F53A_5F1D_36F1];
/// Odd (so multiplying by it is a bijection of `u64`): 2⁶⁴ / φ.
const LANE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Brings the well-mixed high bits of a product under the next element.
const LANE_ROT: u32 = 31;

/// One lane step. For a fixed `v` it is a bijection of `lane` (xor, odd
/// multiply, rotate), and for a fixed `lane` it is injective in `v`.
#[inline(always)]
fn lane_step(lane: u64, v: u64) -> u64 {
    (lane ^ v).wrapping_mul(LANE_MUL).rotate_left(LANE_ROT)
}

/// A 64-bit content hash over a sequence of integer *values* (a `u32` is
/// hashed as the `u64` it widens to, so the digest does not depend on
/// byte order or element width). Element `i` of everything absorbed so
/// far steps lane `i mod 4`; [`finish`](Self::finish) folds the element
/// count and the lanes, in order, through the same step and a final
/// avalanche. Two consequences the callers rely on:
///
/// * the digest depends on the sequence only, not on how it was cut into
///   calls — [`word`](Self::word) per element, one [`extend`](Self::extend),
///   or several over consecutive sub-slices all agree;
/// * every step is a bijection of the state it touches, so changing a
///   single element *always* changes the digest (anything else collides
///   with probability ≈ 2⁻⁶⁴; this is a fingerprint, not a MAC).
///
/// Sequences are not self-delimiting: an array whose length can vary is
/// absorbed with [`array`](Self::array), which frames it by its length.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    lanes: [u64; LANES],
    absorbed: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// The state that has absorbed nothing.
    pub fn new() -> Self {
        Fingerprint { lanes: LANE_SEEDS, absorbed: 0 }
    }

    /// Absorbs one value.
    #[inline]
    pub fn word(&mut self, v: u64) {
        let lane = &mut self.lanes[(self.absorbed % LANES as u64) as usize];
        *lane = lane_step(*lane, v);
        self.absorbed += 1;
    }

    /// Absorbs every element of `vs`, in order, unframed.
    pub fn extend<T: Copy + Into<u64>>(&mut self, vs: &[T]) {
        // Element-wise up to the next lane-0 boundary, then whole rounds
        // with the lanes in registers, then the sub-round tail.
        let to_boundary = (LANES as u64 - self.absorbed % LANES as u64) % LANES as u64;
        let (head, rest) = vs.split_at(vs.len().min(to_boundary as usize));
        for &v in head {
            self.word(v.into());
        }
        let mut rounds = rest.chunks_exact(LANES);
        let mut lanes = self.lanes;
        for round in &mut rounds {
            for (lane, &v) in lanes.iter_mut().zip(round) {
                *lane = lane_step(*lane, v.into());
            }
        }
        self.lanes = lanes;
        self.absorbed += (rest.len() - rounds.remainder().len()) as u64;
        for &v in rounds.remainder() {
            self.word(v.into());
        }
    }

    /// Absorbs `vs` framed by its length, so an element cannot move
    /// across the boundary between two arrays unnoticed.
    pub fn array<T: Copy + Into<u64>>(&mut self, vs: &[T]) {
        self.word(vs.len() as u64);
        self.extend(vs);
    }

    /// Absorbs the rows of a CSR as edge multisets: one row digest per
    /// row, in row order, unframed (`offsets` fixes the row count). The
    /// order of edges within a row does not show; which row holds which
    /// edges, and how many, does. Panics unless `offsets` index into
    /// `dests` and `weights`, when given, is as long as `dests`.
    pub fn rows(&mut self, offsets: &[u64], dests: &[u32], weights: Option<&[u32]>) {
        if let Some(ws) = weights {
            assert_eq!(ws.len(), dests.len(), "one weight per edge");
        }
        for w in offsets.windows(2) {
            let row = w[0] as usize..w[1] as usize;
            self.word(row_digest(&dests[row.clone()], weights.map(|ws| &ws[row])));
        }
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        let acc = self.lanes.iter().fold(self.absorbed, |acc, &lane| lane_step(acc, lane));
        avalanche(acc)
    }
}

/// MurmurHash3's 64-bit finalizer: a bijection of `u64` (xor-shifts and
/// odd multiplies) that makes every output bit depend on every input bit.
#[inline(always)]
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// The order-free digest of one row's edges, for [`Fingerprint::rows`]:
/// the wrapping sum of [`avalanche`]`(dest << 32 | weight)` over them,
/// weight 0 when there are none. A sum does not see the order of its
/// terms, so every permutation of a row's `(dest, weight)` pairs agrees.
/// The mix is a bijection, so one changed dest or weight always changes
/// the sum. It is not linear, so rows whose keys merely add up the same
/// (`{1, 4}` and `{2, 3}`), or a dest swapped between two unequal weights,
/// are no likelier to collide than any other two rows.
#[inline]
fn row_digest(dests: &[u32], weights: Option<&[u32]>) -> u64 {
    let key = |d: u32, w: u32| avalanche((d as u64) << 32 | w as u64);
    match weights {
        None => dests.iter().fold(0u64, |s, &d| s.wrapping_add(key(d, 0))),
        Some(ws) => dests.iter().zip(ws).fold(0u64, |s, (&d, &w)| s.wrapping_add(key(d, w))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition the tables are built from: the
    /// reference [`crc32`] must equal on every input.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    fn xorshift_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_equals_the_bitwise_reference() {
        // Every length around the 8-byte step, at every alignment of the
        // tail, then a few large random buffers.
        let bytes = xorshift_bytes(7, 67);
        for n in 0..=67 {
            assert_eq!(crc32(&bytes[..n]), crc32_reference(&bytes[..n]), "length {n}");
        }
        for (seed, n) in [(1, 1000), (2, 4096), (3, 65_537)] {
            let bytes = xorshift_bytes(seed, n);
            assert_eq!(crc32(&bytes), crc32_reference(&bytes), "seed {seed} length {n}");
        }
    }

    #[test]
    fn rows_enter_the_fingerprint_as_multisets() {
        let digest = |offsets: &[u64], dests: &[u32], ws: Option<&[u32]>| {
            let mut h = Fingerprint::new();
            h.rows(offsets, dests, ws);
            h.finish()
        };
        // The definition: one wrapping sum of mixed keys per row, in order.
        let mut by_hand = Fingerprint::new();
        by_hand.word(avalanche(4 << 32 | 7).wrapping_add(avalanche(1 << 32 | 8)));
        by_hand.word(avalanche(2 << 32 | 9));
        let base = digest(&[0, 2, 3], &[4, 1, 2], Some(&[7, 8, 9]));
        assert_eq!(base, by_hand.finish());
        // Pairs permuted within a row agree; a dest swapped between two
        // weights, or an edge moved across the row boundary, does not.
        assert_eq!(digest(&[0, 2, 3], &[1, 4, 2], Some(&[8, 7, 9])), base);
        assert_ne!(digest(&[0, 2, 3], &[1, 4, 2], Some(&[7, 8, 9])), base);
        assert_ne!(digest(&[0, 1, 3], &[4, 1, 2], Some(&[7, 8, 9])), base);
        // Not linear: keys with equal sums are different rows.
        assert_ne!(digest(&[0, 2], &[1, 4], None), digest(&[0, 2], &[2, 3], None));
    }

    #[test]
    fn reader_is_total_and_consumes_nothing_on_failure() {
        let mut r = Reader::new(&[1, 2, 0, 0, 0, 9]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u64(), Err(Truncated { needed: 8, available: 5 }));
        assert_eq!(r.u32(), Ok(2));
        let mut dst = [0u32; 1];
        assert_eq!(r.u32s_into(&mut dst), Err(Truncated { needed: 4, available: 1 }));
        assert_eq!(r.bytes(1), Ok(&[9u8][..]));
        assert!(r.is_empty());
        assert_eq!(r.u8(), Err(Truncated { needed: 1, available: 0 }));
        assert_eq!(r.bytes(usize::MAX), Err(Truncated { needed: usize::MAX, available: 0 }));
    }

    #[test]
    fn counted_runs_are_bounded_by_the_bytes_present() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 2);
        put_u32(&mut bytes, 7);
        put_u32(&mut bytes, 8);
        put_u64(&mut bytes, 1.5f64.to_bits());
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32_vec(), Ok(vec![7, 8]));
        assert_eq!(r.f64(), Ok(1.5));
        assert!(r.is_empty());
        // A count no buffer could hold is refused before anything is
        // sized by it, and the count itself is not consumed.
        let mut hostile = Vec::new();
        put_u64(&mut hostile, u64::MAX);
        let mut r = Reader::new(&hostile);
        assert_eq!(r.u64_vec(), Err(Truncated { needed: usize::MAX, available: 0 }));
        assert_eq!(r.u32_vec(), Err(Truncated { needed: usize::MAX, available: 0 }));
        assert_eq!(r.remaining(), 8);
    }

    #[test]
    fn counted_writers_are_what_the_counted_readers_read() {
        let small: Vec<u32> = (0..11).collect();
        let large: Vec<u64> = (0..9).map(|v| v << 40).collect();
        let mut bytes = Vec::new();
        put_u32_vec(&mut bytes, &small);
        put_u64_vec(&mut bytes, &large);
        put_u32_vec(&mut bytes, &[]);
        assert_eq!(bytes.len(), 8 + 4 * 11 + 8 + 8 * 9 + 8);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32_vec(), Ok(small));
        assert_eq!(r.u64_vec(), Ok(large));
        assert_eq!(r.u32_vec(), Ok(vec![]));
        assert!(r.is_empty());
    }
}
