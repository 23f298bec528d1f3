//! The graph upload path: the frame `Client::upload_graph` writes in place
//! from the borrowed CSR is byte for byte the frame of the owned
//! `Request::UploadGraph`, both equal bytes pinned below, a multi-megabyte
//! upload through a live server is acknowledged with the graph's
//! fingerprint, and an out-of-range destination is refused by the decoder
//! on the wire and by the router in process.

use std::io::Write;
use std::net::TcpListener;
use std::sync::Arc;

use cusp_graph::Csr;
use cusp_serve::protocol::{encode_frame, read_frame, Request, Response, DEFAULT_MAX_FRAME};
use cusp_serve::{serve, Client, ClientError, ServeConfig, ServerState};

/// The upload frame of a 3-node, 3-edge unweighted graph (tenant "acme",
/// graph "tiny"): magic, length 0x4E, CRC, tag 1, the two names, the
/// counted offsets `[0, 2, 3, 3]` and dests `[1, 2, 0]`, weights flag 0.
const TINY_FRAME: [u8; 90] = [
    0x56, 0x52, 0x53, 0x43, 0x4E, 0x00, 0x00, 0x00, 0x34, 0xD2, 0x54, 0xB9, 0x01, 0x04, 0x00, 0x00,
    0x00, 0x61, 0x63, 0x6D, 0x65, 0x04, 0x00, 0x00, 0x00, 0x74, 0x69, 0x6E, 0x79, 0x04, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// The upload frame of a 2-node, 3-edge weighted graph (tenant "acme",
/// graph "tiny-w"): offsets `[0, 1, 3]`, dests `[1, 0, 1]`, weights flag 1
/// and weights `[5, 6, 0x01020304]`.
const TINY_WEIGHTED_FRAME: [u8; 104] = [
    0x56, 0x52, 0x53, 0x43, 0x5C, 0x00, 0x00, 0x00, 0x49, 0x7B, 0x09, 0x6D, 0x01, 0x04, 0x00, 0x00,
    0x00, 0x61, 0x63, 0x6D, 0x65, 0x06, 0x00, 0x00, 0x00, 0x74, 0x69, 0x6E, 0x79, 0x2D, 0x77, 0x03,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x01, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x06, 0x00, 0x00, 0x00, 0x04, 0x03, 0x02, 0x01,
];

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cusp-serve-upload-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The frame `Client::upload_graph` writes for `graph`, caught by a
/// listener that answers it with a fixed acknowledgement.
fn client_frame(name: &str, graph: &Csr, weights: Option<&[u32]>) -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let catcher = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let payload = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
        let ack = Response::GraphUploaded { fingerprint: 1, nodes: 2, edges: 3 };
        s.write_all(&ack.frame()).unwrap();
        encode_frame(&payload)
    });
    let ack = Client::connect(&addr).unwrap().upload_graph("acme", name, graph, weights).unwrap();
    assert_eq!(ack, (1, 2, 3));
    catcher.join().unwrap()
}

#[test]
fn upload_frames_are_the_pinned_bytes() {
    let tiny = Csr::from_parts(vec![0, 2, 3, 3], vec![1, 2, 0]);
    let weighted = Csr::from_parts(vec![0, 1, 3], vec![1, 0, 1]);
    let weights = [5, 6, 0x0102_0304];
    let owned = |name: &str, g: &Csr, ws: Option<&[u32]>| Request::UploadGraph {
        tenant: "acme".into(),
        name: name.into(),
        offsets: g.offsets().to_vec(),
        dests: g.dests().to_vec(),
        weights: ws.map(<[u32]>::to_vec),
    };
    for (name, graph, ws, pinned) in [
        ("tiny", &tiny, None, &TINY_FRAME[..]),
        ("tiny-w", &weighted, Some(&weights[..]), &TINY_WEIGHTED_FRAME[..]),
    ] {
        let req = owned(name, graph, ws);
        assert_eq!(req.frame(), pinned, "{name}: Request::frame");
        assert_eq!(encode_frame(&req.encode()), pinned, "{name}: encode_frame of the payload");
        assert_eq!(client_frame(name, graph, ws), pinned, "{name}: Client::upload_graph");
        let payload = read_frame(&mut &pinned[..], DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req, "{name}: decode");
    }
}

#[test]
fn a_multi_megabyte_upload_is_acknowledged_with_its_fingerprint() {
    let dir = temp_dir("large");
    let state = ServerState::new(ServeConfig { data_dir: dir.clone(), ..ServeConfig::default() })
        .expect("state");
    let mut handle = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");
    // 2.4M edges: a frame of about 11 MiB.
    let graph = cusp_graph::gen::generate("webcrawl", 300_000, 8.0, 5).unwrap();
    assert!(8 * graph.offsets().len() + 4 * graph.dests().len() >= 8 << 20);
    let weights: Vec<u32> = (0..graph.num_edges() as u32).map(|e| e.wrapping_mul(0x9E37_79B9)).collect();
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    for ws in [None, Some(&weights[..])] {
        let (fingerprint, nodes, edges) = client.upload_graph("acme", "large", &graph, ws).expect("upload");
        assert_eq!(fingerprint, cusp::graph_fingerprint(&graph, ws), "weighted: {}", ws.is_some());
        assert_eq!((nodes, edges), (graph.num_nodes() as u64, graph.num_edges()));
    }
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn an_out_of_range_destination_is_refused_on_the_wire_and_in_process() {
    let dir = temp_dir("range");
    let state = ServerState::new(ServeConfig { data_dir: dir.clone(), ..ServeConfig::default() })
        .expect("state");
    let mut handle = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");
    // Two nodes; the last destination names a third.
    let bad = Csr::from_parts(vec![0, 1, 2], vec![1, 2]);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    match client.upload_graph("acme", "bad", &bad, None) {
        Err(ClientError::Server { code: 6, message }) => {
            assert!(message.contains("destination id out of range"), "{message}")
        }
        other => panic!("wire upload of an out-of-range destination: {other:?}"),
    }
    // The connection survives a refused upload.
    let good = Csr::from_parts(vec![0, 1, 2], vec![1, 0]);
    assert!(client.upload_graph("acme", "good", &good, None).is_ok());
    let in_process = state.handle(Request::UploadGraph {
        tenant: "acme".into(),
        name: "bad".into(),
        offsets: bad.offsets().to_vec(),
        dests: bad.dests().to_vec(),
        weights: None,
    });
    match in_process {
        Response::Error { code: 6, message } => assert!(message.contains("out of range"), "{message}"),
        other => panic!("in-process upload of an out-of-range destination: {other:?}"),
    }
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
