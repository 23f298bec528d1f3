//! The daemon's front ends answer alike: for the same request, the
//! `cusp-part client` binary (framed protocol) prints the body the HTTP
//! front end returns, errors included, and exits non-zero exactly when
//! HTTP answers with a non-200 status.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;

use cusp_serve::{serve, serve_http, ServeConfig, ServerState};

/// One HTTP/1.1 exchange: `(status, body)`.
fn http(addr: &str, method: &str, target: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect http");
    write!(s, "{method} {target} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write http");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read http");
    let status = raw.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
    let (_, body) = raw.split_once("\r\n\r\n").expect("header end");
    (status, body.to_string())
}

/// One `cusp-part client` run: `(exit code, stdout without its newline)`.
fn client(addr: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cusp-part"))
        .arg("client")
        .args(args)
        .args(["--addr", addr])
        .output()
        .expect("run cusp-part client");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    (out.status.code().expect("exit code"), stdout.trim_end().to_string())
}

#[test]
fn the_client_prints_what_http_returns() {
    let dir = std::env::temp_dir().join(format!("cusp-front-ends-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state =
        ServerState::new(ServeConfig { data_dir: dir.clone(), ..ServeConfig::default() }).unwrap();
    let framed = serve(state.clone(), "127.0.0.1:0").expect("bind framed");
    let web = serve_http(state, "127.0.0.1:0").expect("bind http");
    let (framed, web) = (framed.addr().to_string(), web.addr().to_string());
    let graph = ["--tenant", "t", "--name", "g"];

    // HTTP's `gen` and `cusp-part gen` take one vocabulary and build the
    // same graph, so the server-side generation and the client's upload of
    // the file answer with one fingerprint — for `kron` too, at a node count
    // that is not a power of two.
    for (kind, name) in [("webcrawl", "g"), ("kron", "k")] {
        let target = format!("/v1/t/graphs/{name}/gen?kind={kind}&nodes=3000&degree=6&seed=5");
        let gen = http(&web, "POST", &target);
        assert_eq!(gen.0, 200, "{kind}: {}", gen.1);
        let file = dir.join(format!("{name}.bgr"));
        let file = file.to_str().expect("utf-8 path");
        let made = Command::new(env!("CARGO_BIN_EXE_cusp-part"))
            .args(["gen", "--kind", kind, "--nodes", "3000", "--degree", "6", "--seed", "5"])
            .args(["--out", file])
            .status()
            .expect("run cusp-part gen");
        assert!(made.success(), "{kind}");
        let copy = format!("{name}-copy");
        let upload = ["upload", "--tenant", "t", "--name", &copy, "--graph", file];
        assert_eq!(client(&framed, &upload), (0, gen.1), "{kind}");
    }
    // The daemon's old names are gone, not aliased.
    for kind in ["powerlaw", "kronecker"] {
        let (status, body) = http(&web, "POST", &format!("/v1/t/graphs/old/gen?kind={kind}"));
        assert_eq!(status, 400, "{kind}: {body}");
        assert!(body.contains("unknown generator kind"), "{kind}: {body}");
    }

    // Warm the cache, so both sides see the memory tier.
    let warm = http(&web, "GET", "/v1/t/graphs/g/quality?policy=cvc&hosts=3");
    assert!(warm.1.contains("\"cache\":\"cold\""), "{}", warm.1);

    let quality: &[&str] = &["quality", "--name", "g", "--policy", "cvc", "--hosts", "3"];
    let unknown: &[&str] = &["partition", "--name", "g", "--policy", "zz"];
    let over: &[&str] = &["partition", "--name", "g", "--policy", "cvc", "--hosts", "65"];
    let cases: [(&str, &str, &[&str]); 6] = [
        ("GET", "/v1/t/graphs/g/quality?policy=cvc&hosts=3", quality),
        ("GET", "/v1/t/graphs/g/stats", &["stats", "--name", "g"]),
        ("GET", "/v1/t/graphs", &["list"]),
        // Errors: a missing graph (404), an unknown policy (400) and a
        // host count the router refuses (400).
        ("GET", "/v1/t/graphs/nope/stats", &["stats", "--name", "nope"]),
        ("POST", "/v1/t/graphs/g/partition?policy=zz", unknown),
        ("POST", "/v1/t/graphs/g/partition?policy=cvc&hosts=65", over),
    ];
    for (method, target, verb) in cases {
        let (status, body) = http(&web, method, target);
        let args = [&verb[..1], &["--tenant", "t"], &verb[1..]].concat();
        let (code, printed) = client(&framed, &args);
        assert_eq!(printed, body, "{method} {target}");
        assert_eq!(code == 0, status == 200, "{method} {target}: HTTP {status}, exit {code}");
    }
    // An argument no request can carry, or one the verb does not take,
    // is refused before anything is sent: the same answer, and the
    // client's usage exit code.
    for (query, flag) in [("hosts=x", ["--hosts", "x"]), ("chunk=64", ["--chunk", "64"])] {
        let target = format!("/v1/t/graphs/g/partition?policy=cvc&{query}");
        let (status, body) = http(&web, "POST", &target);
        assert_eq!(status, 400, "{target}");
        let bad = [&["partition"][..], &graph, &["--policy", "cvc"], &flag].concat();
        assert_eq!(client(&framed, &bad), (2, body), "{target}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
