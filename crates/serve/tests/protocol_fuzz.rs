//! Frame-decoder fuzzing: `decode_frame` / `Request::decode` /
//! `Response::decode` are *total* functions. Whatever bytes arrive —
//! truncated, bit-flipped, oversized length prefixes, garbage tags —
//! the decoder returns a typed [`ProtocolError`]; it never panics,
//! never hangs, and never allocates proportional to a length field that
//! the frame doesn't actually back with bytes.
//!
//! The tail of the file drives a real server socket with garbage to
//! prove the connection loop inherits those guarantees.

use proptest::prelude::*;

use cusp_serve::error::ProtocolError;
use cusp_serve::protocol::{
    crc32, decode_frame, encode_frame, Request, Response, DEFAULT_MAX_FRAME, HEADER_BYTES, MAGIC,
};

/// A modest frame cap for tests so Oversize is reachable with small
/// inputs.
const TEST_MAX_FRAME: u32 = 1 << 20;

fn sample_request(tenant: &str, hosts: u32) -> Request {
    Request::Partition {
        tenant: tenant.to_string(),
        graph: "g1".to_string(),
        policy: "HVC".to_string(),
        hosts,
        chunk_edges: 4096,
    }
}

fn valid_frame() -> Vec<u8> {
    encode_frame(&sample_request("acme", 4).encode())
}

/// An `Apply` covering every event shape of the shared WAL batch codec.
fn sample_apply() -> Request {
    use cusp_graph::GraphEvent;
    Request::Apply {
        tenant: "acme".to_string(),
        graph: "g1".to_string(),
        batch: vec![
            GraphEvent::AddEdge { src: 0, dst: 9, weight: None },
            GraphEvent::AddEdge { src: 1, dst: 2, weight: Some(7) },
            GraphEvent::RemoveEdge { src: 2, dst: 0 },
            GraphEvent::SetWeight { src: 1, dst: 2, weight: 50 },
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary bytes: the frame decoder returns Ok or a typed error.
    /// (A panic or abort fails the test harness itself.)
    #[test]
    fn decode_frame_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_frame(&bytes, TEST_MAX_FRAME);
    }

    /// Arbitrary bytes with a valid magic prefix reach the deeper
    /// header/CRC checks and still return typed errors.
    #[test]
    fn decode_frame_is_total_past_magic(tail in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut bytes = MAGIC.to_le_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        let _ = decode_frame(&bytes, TEST_MAX_FRAME);
    }

    /// Arbitrary payloads (no framing) through both body decoders.
    #[test]
    fn body_decoders_are_total(payload in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }

    /// Any proper prefix of a valid frame is rejected as truncated —
    /// never accepted, never panicking, regardless of the cut point.
    #[test]
    fn truncation_at_any_cut_is_typed(cut in 0usize..1024) {
        let frame = valid_frame();
        let cut = cut % frame.len();
        match decode_frame(&frame[..cut], DEFAULT_MAX_FRAME) {
            Err(ProtocolError::Truncated { .. }) => {}
            other => prop_assert!(false, "cut {cut}: expected Truncated, got {other:?}"),
        }
    }

    /// Flipping any single bit of a valid frame is detected: magic,
    /// length, CRC, and payload corruption all surface as typed errors.
    #[test]
    fn single_bit_flip_is_detected(bit in 0usize..(1 << 16)) {
        let mut frame = valid_frame();
        let bit = bit % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            decode_frame(&frame, DEFAULT_MAX_FRAME).is_err(),
            "bit {bit} flip went undetected"
        );
    }

    /// The same two corruptions against an `Apply`, whose body is a WAL
    /// batch record: inside a frame the CRC catches every flip and every
    /// cut, and the bare body decoder — which a CRC does not shield —
    /// rejects every proper prefix and never panics on a flipped bit (a
    /// flip in a vertex id or weight is a different valid batch; anything
    /// else is a typed error).
    #[test]
    fn apply_corruption_is_typed(pos in 0usize..(1 << 16)) {
        let req = sample_apply();
        let payload = req.encode();
        let frame = encode_frame(&payload);

        let mut flipped = frame.clone();
        let bit = pos % (frame.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(decode_frame(&flipped, DEFAULT_MAX_FRAME).is_err(), "frame bit {bit}");
        let cut = pos % frame.len();
        prop_assert!(
            matches!(decode_frame(&frame[..cut], DEFAULT_MAX_FRAME), Err(ProtocolError::Truncated { .. })),
            "frame cut {cut}"
        );

        let cut = pos % payload.len();
        prop_assert!(Request::decode(&payload[..cut]).is_err(), "body cut {cut} accepted");
        let mut body = payload.clone();
        let bit = pos % (payload.len() * 8);
        body[bit / 8] ^= 1 << (bit % 8);
        if let Ok(back) = Request::decode(&body) {
            prop_assert!(matches!(back, Request::Apply { .. }) && back != req, "body bit {bit}");
        }
    }

    /// A length prefix above the cap is rejected *before* any payload
    /// allocation, whatever the claimed size.
    #[test]
    fn oversize_length_prefix_is_typed(len in (TEST_MAX_FRAME + 1)..u32::MAX) {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        match decode_frame(&frame, TEST_MAX_FRAME) {
            Err(ProtocolError::Oversize { len: got, max }) => {
                prop_assert_eq!(got, len);
                prop_assert_eq!(max, TEST_MAX_FRAME);
            }
            other => prop_assert!(false, "expected Oversize, got {other:?}"),
        }
    }

    /// A well-framed payload with an unassigned tag is a typed
    /// UnknownTag from both body decoders.
    #[test]
    fn garbage_tag_is_typed(tag in 0x08u8..0x81, body in proptest::collection::vec(any::<u8>(), 0..32)) {
        let mut payload = vec![tag];
        payload.extend_from_slice(&body);
        let frame = encode_frame(&payload);
        let (decoded, _) = decode_frame(&frame, DEFAULT_MAX_FRAME).expect("framing is valid");
        match Request::decode(decoded) {
            Err(ProtocolError::UnknownTag(t)) => prop_assert_eq!(t, tag),
            other => prop_assert!(false, "expected UnknownTag, got {other:?}"),
        }
    }

    /// Hostile inner length fields (a string or slice claiming more
    /// bytes than the frame holds) are typed errors, not huge
    /// allocations: the decoders validate claimed lengths against the
    /// bytes actually present.
    #[test]
    fn hostile_inner_lengths_are_typed(claim in 0x1000_0000u32..u32::MAX) {
        // Tag 0x02 = Partition; first field is a length-prefixed tenant
        // string, whose length we forge.
        let mut payload = vec![0x02];
        payload.extend_from_slice(&claim.to_le_bytes());
        let frame = encode_frame(&payload);
        let (decoded, _) = decode_frame(&frame, DEFAULT_MAX_FRAME).expect("framing is valid");
        prop_assert!(Request::decode(decoded).is_err());
    }

    /// Round-trip sanity alongside the negative cases: whatever request
    /// we encode comes back intact through frame + body decode.
    #[test]
    fn valid_frames_roundtrip(hosts in 1u32..65, chunk in 0u64..1_000_000) {
        let req = Request::Partition {
            tenant: "acme".into(),
            graph: "g".into(),
            policy: "CVC".into(),
            hosts,
            chunk_edges: chunk,
        };
        let frame = encode_frame(&req.encode());
        let (payload, consumed) = decode_frame(&frame, DEFAULT_MAX_FRAME).expect("valid frame");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(Request::decode(payload).expect("valid body"), req);
    }
}

/// Concatenated frames decode one at a time: `decode_frame` reports how
/// many bytes it consumed so a stream parser can advance.
#[test]
fn concatenated_frames_decode_in_sequence() {
    let a = encode_frame(&sample_request("acme", 2).encode());
    let b = encode_frame(&Request::ServerStats.encode());
    let mut stream = a.clone();
    stream.extend_from_slice(&b);

    let (p1, used1) = decode_frame(&stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(used1, a.len());
    assert_eq!(Request::decode(p1).unwrap(), sample_request("acme", 2));
    let (p2, used2) = decode_frame(&stream[used1..], DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(used1 + used2, stream.len());
    assert_eq!(Request::decode(p2).unwrap(), Request::ServerStats);
}

/// The CRC covers the payload: same payload always frames identically,
/// and the stored CRC matches an independent computation.
#[test]
fn frame_layout_is_stable() {
    let payload = sample_request("acme", 4).encode();
    let frame = encode_frame(&payload);
    assert_eq!(frame.len(), HEADER_BYTES + payload.len());
    assert_eq!(u32::from_le_bytes(frame[0..4].try_into().unwrap()), MAGIC);
    assert_eq!(u32::from_le_bytes(frame[4..8].try_into().unwrap()), payload.len() as u32);
    assert_eq!(u32::from_le_bytes(frame[8..12].try_into().unwrap()), crc32(&payload));
    assert_eq!(&frame[HEADER_BYTES..], &payload[..]);
}

// --- Socket-level garbage: the server must answer with a typed error
// --- frame (or close), never hang, and keep serving afterwards.

mod socket {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    use cusp_serve::{serve, Client, ClientError, Request, ServeConfig, ServerState};

    fn test_server(name: &str) -> (cusp_serve::ServerHandle, String) {
        let dir = std::env::temp_dir().join(format!("cusp-serve-fuzz-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServerState::new(ServeConfig {
            data_dir: dir,
            read_timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        })
        .expect("state");
        let handle = serve(state, "127.0.0.1:0").expect("bind");
        let addr = handle.addr().to_string();
        (handle, addr)
    }

    /// Pure garbage on the socket: the server answers with an error
    /// frame or closes — within the timeout, so no hang — and a fresh
    /// connection still gets real service.
    #[test]
    fn garbage_bytes_get_typed_rejection_and_server_survives() {
        let (mut handle, addr) = test_server("garbage");

        for garbage in [
            b"GET / HTTP/1.1\r\n\r\n".to_vec(),
            vec![0u8; 64],
            vec![0xFF; 64],
            super::MAGIC.to_le_bytes().to_vec(), // valid magic, then EOF
        ] {
            let mut s = TcpStream::connect(&addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(&garbage).expect("write");
            // Close our write side so a header-starved server sees EOF.
            s.shutdown(std::net::Shutdown::Write).ok();
            let mut buf = Vec::new();
            // Must terminate: an error frame, a clean close, or a reset
            // (the server may close with our trailing bytes unread). A
            // hang trips the read timeout, which fails here.
            match s.read_to_end(&mut buf) {
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
                Err(e) => panic!("server hung or failed oddly on {garbage:?}: {e}"),
            }
        }

        // The server is still healthy after all that.
        let mut client = Client::connect(&addr).expect("connect after garbage");
        match client.request(&Request::ServerStats) {
            Ok(cusp_serve::Response::ServerStatsReport { .. }) => {}
            other => panic!("server unhealthy after garbage: {other:?}"),
        }
        handle.shutdown();
    }

    /// An oversize length prefix is refused with a typed error frame
    /// before the server tries to read (or allocate) the claimed body.
    #[test]
    fn oversize_prefix_on_socket_is_refused() {
        let (mut handle, addr) = test_server("oversize");
        let mut s = TcpStream::connect(&addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut junk = Vec::new();
        junk.extend_from_slice(&super::MAGIC.to_le_bytes());
        junk.extend_from_slice(&u32::MAX.to_le_bytes());
        junk.extend_from_slice(&0u32.to_le_bytes());
        s.write_all(&junk).expect("write");
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).expect("no hang");
        assert!(!buf.is_empty(), "expected a typed error frame before close");
        handle.shutdown();
    }

    /// A malformed *body* inside a well-formed frame gets a typed error
    /// response on the same connection (the framing stays coherent).
    #[test]
    fn bad_body_in_good_frame_returns_server_error() {
        let (mut handle, addr) = test_server("badbody");
        let mut client = Client::connect(&addr).expect("connect");
        // Tag 0x7F is unassigned.
        let mut s = TcpStream::connect(&addr).expect("raw connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(&super::encode_frame(&[0x7F, 1, 2, 3])).unwrap();
        let mut buf = vec![0u8; 4096];
        let n = s.read(&mut buf).expect("response expected");
        assert!(n > 0, "server closed without a typed error frame");

        // And the typed client still works against the same server.
        match client.request(&Request::ServerStats) {
            Ok(_) => {}
            Err(ClientError::Server { .. }) | Err(_) => panic!("healthy request failed"),
        }
        handle.shutdown();
    }
}
