//! Hand-rolled little-endian wire codec.
//!
//! CuSP serializes node ids and edge lists into flat byte buffers (paper
//! §IV-C3). A fixed-width, explicitly little-endian codec keeps the byte
//! counts reported in Table V deterministic and easy to reason about, and
//! lets serialization/deserialization happen in parallel on thread-local
//! buffers without any framing library.
//! Per-element `put_*`/`get_*` are inlined `bytes` calls; the per-slice
//! ops are one call each into the one slice codec, `cusp_graph::wire`.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cusp_graph::wire;

/// Error returned when a reader runs out of bytes.
pub use cusp_graph::wire::Truncated as WireError;

/// An append-only message writer.
#[derive(Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a new instance with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: BytesMut::with_capacity(cap),
        }
    }

    #[inline]
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    /// True if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    /// Allocated capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Ensures capacity for at least `additional` more bytes. Used by
    /// [`crate::SendBuffers`] to re-arm a writer right after
    /// [`WireWriter::take`] has left it without an allocation.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    #[inline]
    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    #[inline]
    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    #[inline]
    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    #[inline]
    /// Appends a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        self.put_u64_raw_slice(vs);
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_u64(vs.len() as u64);
        self.put_u32_raw_slice(vs);
    }

    /// Appends a `u32` run with **no length prefix**, byte-identical to
    /// calling [`WireWriter::put_u32`] once per element: one pass of the
    /// leaf slice codec ([`wire::encode_u32s`]) straight into the buffer.
    pub fn put_u32_raw_slice(&mut self, vs: &[u32]) {
        let old = self.buf.len();
        self.buf.resize(old + size_of_val(vs), 0);
        wire::encode_u32s(vs, &mut self.buf[old..]);
    }

    /// Appends a `u64` run with **no length prefix**, byte-identical to
    /// calling [`WireWriter::put_u64`] once per element.
    pub fn put_u64_raw_slice(&mut self, vs: &[u64]) {
        let old = self.buf.len();
        self.buf.resize(old + size_of_val(vs), 0);
        wire::encode_u64s(vs, &mut self.buf[old..]);
    }

    /// Writes raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }

    /// Finishes the message, leaving the writer empty (capacity 0) and
    /// reusable. The writer's buffer is not what the message ends up
    /// holding: the vendored `bytes` freezes a `Vec<u8>` by copying it into
    /// a new `Arc<[u8]>`, so this allocates and memcpys the payload once.
    pub fn take(&mut self) -> Bytes {
        self.buf.split().freeze()
    }

    /// Finishes the message, consuming the writer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// A sequential message reader.
pub struct WireReader {
    buf: Bytes,
}

impl WireReader {
    /// Creates a new instance.
    pub fn new(buf: Bytes) -> Self {
        WireReader { buf }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    #[inline]
    /// True when all bytes have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn check(&self, n: usize) -> Result<(), WireError> {
        if self.buf.remaining() < n {
            Err(WireError {
                needed: n,
                available: self.buf.remaining(),
            })
        } else {
            Ok(())
        }
    }

    #[inline]
    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        self.check(1)?;
        Ok(self.buf.get_u8())
    }

    #[inline]
    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.check(4)?;
        Ok(self.buf.get_u32_le())
    }

    #[inline]
    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.check(8)?;
        Ok(self.buf.get_u64_le())
    }

    #[inline]
    /// Reads a little-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        self.check(8)?;
        Ok(self.buf.get_f64_le())
    }

    /// Skips `n` bytes without decoding them.
    ///
    /// This is what lets receivers count records in O(records): read each
    /// header, then `skip` the whole element run.
    #[inline]
    pub fn skip(&mut self, n: usize) -> Result<(), WireError> {
        self.check(n)?;
        self.buf.advance(n);
        Ok(())
    }

    /// Reads exactly `dst.len()` `u32`s (no length prefix) into `dst`,
    /// decoded straight off the payload by the leaf slice codec. A failed
    /// read consumes nothing.
    pub fn get_u32_into(&mut self, dst: &mut [u32]) -> Result<(), WireError> {
        wire::Reader::new(self.buf.chunk()).u32s_into(dst)?;
        self.buf.advance(size_of_val(dst));
        Ok(())
    }

    /// Reads exactly `dst.len()` `u64`s (no length prefix) into `dst`.
    pub fn get_u64_into(&mut self, dst: &mut [u64]) -> Result<(), WireError> {
        wire::Reader::new(self.buf.chunk()).u64s_into(dst)?;
        self.buf.advance(size_of_val(dst));
        Ok(())
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.get_u64()? as usize;
        self.check(n.saturating_mul(8))?;
        let mut out = vec![0u64; n];
        self.get_u64_into(&mut out)?;
        Ok(out)
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.get_u64()? as usize;
        self.check(n.saturating_mul(4))?;
        let mut out = vec![0u32; n];
        self.get_u32_into(&mut out)?;
        Ok(out)
    }
}

/// Version byte of the envelope header format below. Bumped whenever the
/// header layout changes; [`decode_envelope`] rejects anything else, so a
/// TCP peer built from different sources fails the frame decode instead of
/// silently misparsing traffic.
pub const ENVELOPE_VERSION: u8 = 1;

/// Size in bytes of the fixed envelope header that precedes the payload.
pub const ENVELOPE_HEADER_BYTES: usize = 28;

/// A decoded transport envelope: the per-message routing/resequencing
/// metadata plus the payload.
///
/// This is the unit both transports move between hosts. The wire layout is
/// **explicitly little-endian and versioned** (nothing about it depends on
/// the host's native byte order), so the same encoding works in-process
/// and across machines:
///
/// ```text
/// offset  size  field
///      0     1  version      (= ENVELOPE_VERSION)
///      1     1  tag          (mailbox tag, < MAX_TAGS)
///      2     2  reserved     (must be 0)
///      4     4  src          (sending host id, u32 LE)
///      8     4  phase        (sender's accounting phase, u32 LE)
///     12     8  seq          (per-(src, dst, tag) sequence number, u64 LE)
///     20     8  payload_len  (u64 LE)
///     28     …  payload      (exactly payload_len bytes)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEnvelope {
    /// Mailbox tag the payload is addressed to.
    pub tag: u8,
    /// Sending host.
    pub src: u64,
    /// Sender's accounting phase at send time.
    pub phase: u32,
    /// Position in the per-(src, dst, tag) send sequence.
    pub seq: u64,
    /// The application payload.
    pub payload: Bytes,
}

/// Why an envelope failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The buffer ran out before the header or payload was complete — a
    /// torn frame.
    Truncated(WireError),
    /// The version byte is not [`ENVELOPE_VERSION`].
    Version {
        /// The version byte that was found.
        got: u8,
    },
    /// The reserved header bytes were non-zero.
    Reserved,
    /// The header claimed more payload bytes than the frame carries (or
    /// the frame has trailing garbage after the payload).
    Length {
        /// Payload bytes the header claimed.
        claimed: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Truncated(e) => write!(f, "torn envelope: {e}"),
            EnvelopeError::Version { got } => {
                write!(f, "envelope version {got} (expected {ENVELOPE_VERSION})")
            }
            EnvelopeError::Reserved => write!(f, "non-zero reserved envelope header bytes"),
            EnvelopeError::Length { claimed, actual } => {
                write!(f, "envelope length mismatch: header claims {claimed} payload bytes, frame carries {actual}")
            }
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<WireError> for EnvelopeError {
    fn from(e: WireError) -> Self {
        EnvelopeError::Truncated(e)
    }
}

/// Encodes one envelope (header + payload) into a single contiguous
/// buffer, byte-identical on every platform.
pub fn encode_envelope(tag: u8, src: u64, phase: u32, seq: u64, payload: &[u8]) -> Bytes {
    let mut w = WireWriter::with_capacity(ENVELOPE_HEADER_BYTES + payload.len());
    w.put_u8(ENVELOPE_VERSION);
    w.put_u8(tag);
    w.put_u8(0);
    w.put_u8(0);
    w.put_u32(src as u32);
    w.put_u32(phase);
    w.put_u64(seq);
    w.put_u64(payload.len() as u64);
    w.put_raw(payload);
    w.finish()
}

/// Decodes an envelope produced by [`encode_envelope`]. The payload is
/// sliced out of `frame` without copying. Every malformed input — torn
/// header, wrong version, non-zero reserved bytes, payload length that
/// disagrees with the frame — is a typed error, never a panic.
pub fn decode_envelope(frame: Bytes) -> Result<WireEnvelope, EnvelopeError> {
    let mut r = WireReader::new(frame.clone());
    let version = r.get_u8()?;
    if version != ENVELOPE_VERSION {
        return Err(EnvelopeError::Version { got: version });
    }
    let tag = r.get_u8()?;
    let r0 = r.get_u8()?;
    let r1 = r.get_u8()?;
    if r0 != 0 || r1 != 0 {
        return Err(EnvelopeError::Reserved);
    }
    let src = r.get_u32()? as u64;
    let phase = r.get_u32()?;
    let seq = r.get_u64()?;
    let claimed = r.get_u64()?;
    let actual = r.remaining() as u64;
    if claimed != actual {
        return Err(EnvelopeError::Length { claimed, actual });
    }
    Ok(WireEnvelope {
        tag,
        src,
        phase,
        seq,
        payload: frame.slice(ENVELOPE_HEADER_BYTES..),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(std::f64::consts::PI);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert!(r.is_exhausted());
    }

    #[test]
    fn round_trip_slices() {
        let mut w = WireWriter::new();
        let a: Vec<u64> = (0..100).map(|i| i * 31).collect();
        let b: Vec<u32> = (0..50).map(|i| i * 7).collect();
        w.put_u64_slice(&a);
        w.put_u32_slice(&b);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_u64_vec().unwrap(), a);
        assert_eq!(r.get_u32_vec().unwrap(), b);
    }

    #[test]
    fn underrun_is_an_error_not_a_panic() {
        let mut w = WireWriter::new();
        w.put_u32(1);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_u32().unwrap(), 1);
        let err = r.get_u64().unwrap_err();
        assert_eq!(err.needed, 8);
        assert_eq!(err.available, 0);
    }

    #[test]
    fn truncated_slice_is_an_error() {
        let mut w = WireWriter::new();
        w.put_u64(1000); // claims 1000 elements, provides none
        let mut r = WireReader::new(w.finish());
        assert!(r.get_u64_vec().is_err());
    }

    #[test]
    fn take_resets_writer() {
        let mut w = WireWriter::new();
        w.put_u64(42);
        let first = w.take();
        assert_eq!(first.len(), 8);
        assert!(w.is_empty());
        w.put_u8(1);
        assert_eq!(w.take().len(), 1);
    }

    #[test]
    fn raw_slice_matches_scalar_encoding() {
        // The bulk writers must be byte-identical to per-element puts —
        // Table V byte counts depend on it.
        let vals32: Vec<u32> = (0..257u32).map(|i| i.wrapping_mul(0x0101_0101)).collect();
        let vals64: Vec<u64> = (0..129u64).map(|i| i.wrapping_mul(0x0101_0101_0101_0101)).collect();
        let mut bulk = WireWriter::new();
        bulk.put_u32_raw_slice(&vals32);
        bulk.put_u64_raw_slice(&vals64);
        let mut scalar = WireWriter::new();
        for &v in &vals32 {
            scalar.put_u32(v);
        }
        for &v in &vals64 {
            scalar.put_u64(v);
        }
        assert_eq!(&*bulk.finish(), &*scalar.finish());
    }

    #[test]
    fn block_boundary_lengths_round_trip() {
        // The 32-byte-block codec has three regimes (full blocks, tail,
        // empty); sweep lengths straddling every boundary and check both
        // parity with the scalar encoding and the decode round trip.
        for n in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100] {
            let v32: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let v64: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            let mut bulk = WireWriter::new();
            bulk.put_u32_raw_slice(&v32);
            bulk.put_u64_raw_slice(&v64);
            let mut scalar = WireWriter::new();
            for &v in &v32 {
                scalar.put_u32(v);
            }
            for &v in &v64 {
                scalar.put_u64(v);
            }
            assert_eq!(&*bulk.buf, &*scalar.buf, "len {n}");
            let mut r = WireReader::new(bulk.finish());
            let mut o32 = vec![0u32; n];
            let mut o64 = vec![0u64; n];
            r.get_u32_into(&mut o32).unwrap();
            r.get_u64_into(&mut o64).unwrap();
            assert_eq!(o32, v32, "len {n}");
            assert_eq!(o64, v64, "len {n}");
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn reserve_retains_capacity_across_take() {
        let mut w = WireWriter::with_capacity(64);
        w.put_u64(1);
        let _ = w.take();
        assert_eq!(w.capacity(), 0, "take() moves the writer's buffer out");
        w.reserve(64);
        assert!(w.capacity() >= 64);
        w.put_u64(2);
        assert_eq!(w.take().len(), 8);
    }

    #[test]
    fn get_into_reads_raw_runs() {
        let vals: Vec<u32> = (0..100).map(|i| i * 3 + 1).collect();
        let mut w = WireWriter::new();
        w.put_u32_raw_slice(&vals);
        w.put_u64(99);
        let mut r = WireReader::new(w.finish());
        let mut out = vec![0u32; vals.len()];
        r.get_u32_into(&mut out).unwrap();
        assert_eq!(out, vals);
        assert_eq!(r.get_u64().unwrap(), 99);
        assert!(r.is_exhausted());
    }

    #[test]
    fn get_into_empty_and_underrun() {
        let mut w = WireWriter::new();
        w.put_u32(5);
        let mut r = WireReader::new(w.finish());
        r.get_u32_into(&mut []).unwrap(); // empty read is a no-op
        let mut too_big = vec![0u32; 3];
        let err = r.get_u32_into(&mut too_big).unwrap_err();
        assert_eq!(err.needed, 12);
        assert_eq!(err.available, 4);
        // A failed bulk read consumes nothing.
        assert_eq!(r.get_u32().unwrap(), 5);
    }

    #[test]
    fn skip_advances_without_decoding() {
        let mut w = WireWriter::new();
        w.put_u32_raw_slice(&[1, 2, 3]);
        w.put_u8(7);
        let mut r = WireReader::new(w.finish());
        r.skip(12).unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.skip(1).unwrap_err(), WireError { needed: 1, available: 0 });
        r.skip(0).unwrap();
    }

    #[test]
    fn truncated_u64_run_is_an_error_not_a_panic() {
        // Regression: a bulk u64 read one element past the payload must
        // fail with an exact underrun report, not over-read or panic.
        let mut w = WireWriter::new();
        w.put_u64_raw_slice(&[1, 2, 3]);
        let mut r = WireReader::new(w.finish());
        let mut dst = vec![0u64; 4];
        let err = r.get_u64_into(&mut dst).unwrap_err();
        assert_eq!(err, WireError { needed: 32, available: 24 });
        // The reader is still usable and positioned where it was.
        let mut ok = vec![0u64; 3];
        r.get_u64_into(&mut ok).unwrap();
        assert_eq!(ok, vec![1, 2, 3]);
    }

    #[test]
    fn skip_past_end_is_an_error_and_consumes_nothing() {
        let mut w = WireWriter::new();
        w.put_u32(9);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.skip(5).unwrap_err(), WireError { needed: 5, available: 4 });
        // Nothing was consumed by the failed skip.
        assert_eq!(r.get_u32().unwrap(), 9);
    }

    #[test]
    fn absurd_claimed_length_fails_before_allocating() {
        // A corrupted length prefix claiming ~2^61 elements must be
        // rejected by the byte-availability check up front — the
        // `vec![0; n]` allocation would otherwise abort the process.
        for claim in [u64::MAX, u64::MAX / 8, 1u64 << 61] {
            let mut w = WireWriter::new();
            w.put_u64(claim);
            w.put_u32(1);
            let mut r = WireReader::new(w.finish());
            assert!(r.get_u64_vec().is_err(), "claim {claim} must fail");
            let mut w = WireWriter::new();
            w.put_u64(claim);
            w.put_u32(1);
            let mut r = WireReader::new(w.finish());
            assert!(r.get_u32_vec().is_err(), "claim {claim} must fail");
        }
    }

    #[test]
    fn truncated_u32_run_mid_message_reports_exact_deficit() {
        let mut w = WireWriter::new();
        w.put_u8(1);
        w.put_u32_raw_slice(&[10, 20]);
        let payload = w.finish();
        // Drop the last 3 bytes of the message.
        let truncated = payload.slice(0..payload.len() - 3);
        let mut r = WireReader::new(truncated);
        assert_eq!(r.get_u8().unwrap(), 1);
        let mut dst = vec![0u32; 2];
        let err = r.get_u32_into(&mut dst).unwrap_err();
        assert_eq!(err, WireError { needed: 8, available: 5 });
    }

    #[test]
    fn envelope_round_trip() {
        let payload = b"partition payload bytes".as_slice();
        let frame = encode_envelope(7, 3, 2, 41, payload);
        assert_eq!(frame.len(), ENVELOPE_HEADER_BYTES + payload.len());
        let env = decode_envelope(frame).unwrap();
        assert_eq!(env.tag, 7);
        assert_eq!(env.src, 3);
        assert_eq!(env.phase, 2);
        assert_eq!(env.seq, 41);
        assert_eq!(&*env.payload, payload);
    }

    #[test]
    fn envelope_empty_payload_round_trip() {
        let frame = encode_envelope(0, 0, 0, 0, &[]);
        assert_eq!(frame.len(), ENVELOPE_HEADER_BYTES);
        let env = decode_envelope(frame).unwrap();
        assert!(env.payload.is_empty());
        assert_eq!(env.seq, 0);
    }

    #[test]
    fn envelope_layout_is_pinned() {
        // The TCP wire format is a contract: version byte first, then tag,
        // two zero reserved bytes, src/phase as u32 LE, seq and payload_len
        // as u64 LE. Pin every byte so an accidental layout change fails
        // loudly instead of breaking cross-version interop silently.
        let frame = encode_envelope(5, 0x0102_0304, 0x0A0B_0C0D, 0x1122_3344_5566_7788, b"xy");
        let expect: &[u8] = &[
            ENVELOPE_VERSION,
            5,
            0,
            0,
            0x04, 0x03, 0x02, 0x01, // src u32 LE
            0x0D, 0x0C, 0x0B, 0x0A, // phase u32 LE
            0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // seq u64 LE
            2, 0, 0, 0, 0, 0, 0, 0, // payload_len u64 LE
            b'x', b'y',
        ];
        assert_eq!(&*frame, expect);
    }

    #[test]
    fn envelope_rejects_wrong_version() {
        let frame = encode_envelope(1, 2, 3, 4, b"p");
        let mut bad = frame.to_vec();
        bad[0] = ENVELOPE_VERSION + 1;
        let err = decode_envelope(Bytes::from(bad)).unwrap_err();
        assert_eq!(err, EnvelopeError::Version { got: ENVELOPE_VERSION + 1 });
    }

    #[test]
    fn envelope_rejects_nonzero_reserved() {
        let frame = encode_envelope(1, 2, 3, 4, b"p");
        let mut bad = frame.to_vec();
        bad[2] = 0xFF;
        assert_eq!(decode_envelope(Bytes::from(bad)).unwrap_err(), EnvelopeError::Reserved);
    }

    #[test]
    fn envelope_rejects_torn_and_mismatched_frames() {
        let frame = encode_envelope(1, 2, 3, 4, b"payload");
        // Torn inside the header.
        for cut in [0, 1, 4, ENVELOPE_HEADER_BYTES - 1] {
            let torn = frame.slice(0..cut);
            assert!(
                matches!(decode_envelope(torn).unwrap_err(), EnvelopeError::Truncated(_)),
                "cut at {cut}"
            );
        }
        // Header intact but payload short.
        let short = frame.slice(0..frame.len() - 2);
        assert_eq!(
            decode_envelope(short).unwrap_err(),
            EnvelopeError::Length { claimed: 7, actual: 5 }
        );
        // Trailing garbage after the payload.
        let mut long = frame.to_vec();
        long.push(0);
        assert_eq!(
            decode_envelope(Bytes::from(long)).unwrap_err(),
            EnvelopeError::Length { claimed: 7, actual: 8 }
        );
    }

    #[test]
    fn byte_counts_are_exact() {
        // Table V relies on wire sizes being predictable.
        let mut w = WireWriter::new();
        w.put_u64_slice(&[1, 2, 3]);
        assert_eq!(w.len(), 8 + 3 * 8);
        w.put_u32_slice(&[1]);
        assert_eq!(w.len(), 8 + 3 * 8 + 8 + 4);
    }
}
