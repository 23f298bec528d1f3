//! A deliberately small HTTP/1.1 front end so the server is curl-able
//! without the framed client. Hand-rolled (no HTTP dependency): one
//! request per connection, `Connection: close`, JSON bodies rendered by
//! hand.
//!
//! Routes (all graph bodies are server-generated — bulk CSR upload
//! belongs on the framed protocol, not in a query string):
//!
//! ```text
//! GET  /healthz
//! GET  /stats
//! GET  /v1/<tenant>/graphs
//! POST /v1/<tenant>/graphs/<name>/gen?kind=uniform&nodes=1000&degree=8&seed=42
//! POST /v1/<tenant>/graphs/<name>/partition?policy=hvc&hosts=4&chunk=0
//! GET  /v1/<tenant>/graphs/<name>/stats
//! GET  /v1/<tenant>/graphs/<name>/quality?policy=hvc&hosts=4&chunk=0
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use cusp_graph::gen::{kronecker, powerlaw, uniform};
use cusp_graph::Csr;

use crate::protocol::Request;
use crate::protocol::Response;
use crate::server::{spawn_listener, ServerHandle};
use crate::state::ServerState;

/// A running HTTP listener: the same handle type as the framed transport.
pub type HttpHandle = ServerHandle;

/// Binds the HTTP front end on `addr`, on the accept loop of
/// [`crate::server`] (which documents how connections are bounded).
pub fn serve_http(state: Arc<ServerState>, addr: &str) -> std::io::Result<HttpHandle> {
    spawn_listener(state, addr, "cusp-serve-http", handle_connection, refuse_over_limit)
}

fn refuse_over_limit(mut stream: TcpStream, limit: usize) {
    let _ = write_http(&mut stream, 429, &json_error(4, &format!("connection limit {limit} reached")));
}

/// Longest accepted request line; anything bigger is hostile or broken.
const MAX_REQUEST_LINE: u64 = 8 * 1024;
/// Total header bytes drained per request — an endless header stream
/// cannot grow memory past this.
const MAX_HEADER_BYTES: u64 = 64 * 1024;

fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut reader = reader.take(MAX_REQUEST_LINE);
    let mut request_line = String::new();
    match reader.read_line(&mut request_line) {
        Ok(0) | Err(_) => return,
        // No newline within the cap means the line was truncated by the
        // limit (or the peer hung up mid-line): reject, don't parse.
        Ok(_) if !request_line.ends_with('\n') => {
            let _ = write_http(&mut stream, 400, &json_error(6, "request line too long"));
            return;
        }
        Ok(_) => {}
    }
    // Drain headers; bodies are unused (everything rides in the query).
    // The `take` bounds total header bytes — past it read_line returns
    // Ok(0) and we stop draining, having already buffered at most the
    // cap.
    let mut reader = reader.into_inner().take(MAX_HEADER_BYTES);
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => continue,
            Err(_) => return,
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => {
            let _ = write_http(&mut stream, 400, "{\"error\":\"malformed request line\"}");
            return;
        }
    };
    let (status, body) = route(state, &method, &target);
    let _ = write_http(&mut stream, status, &body);
}

fn write_http(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Splits `target` into decoded path segments and query pairs.
fn parse_target(target: &str) -> (Vec<&str>, Vec<(&str, &str)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let segs = path.split('/').filter(|s| !s.is_empty()).collect();
    let params = query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
        .collect();
    (segs, params)
}

fn param<'a>(params: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    params.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

fn param_u64(params: &[(&str, &str)], key: &str, default: u64) -> Result<u64, String> {
    match param(params, key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("parameter '{key}' is not a number: '{v}'")),
    }
}

fn route(state: &ServerState, method: &str, target: &str) -> (u16, String) {
    let (segs, params) = parse_target(target);
    match (method, segs.as_slice()) {
        ("GET", ["healthz"]) => (200, "{\"status\":\"ok\"}".to_string()),
        ("GET", ["stats"]) => render(state.handle(Request::ServerStats)),
        ("GET", ["v1", tenant, "graphs"]) => {
            render(state.handle(Request::ListGraphs { tenant: tenant.to_string() }))
        }
        ("POST", ["v1", tenant, "graphs", name, "gen"]) => gen_graph(state, tenant, name, &params),
        ("POST", ["v1", tenant, "graphs", name, "partition"]) => {
            match partition_request(tenant, name, &params, false) {
                Ok(req) => render(state.handle(req)),
                Err(m) => (400, json_error(6, &m)),
            }
        }
        ("GET", ["v1", tenant, "graphs", name, "quality"]) => {
            match partition_request(tenant, name, &params, true) {
                Ok(req) => render(state.handle(req)),
                Err(m) => (400, json_error(6, &m)),
            }
        }
        ("GET", ["v1", tenant, "graphs", name, "stats"]) => render(state.handle(
            Request::GraphStats { tenant: tenant.to_string(), graph: name.to_string() },
        )),
        ("GET" | "POST", _) => (404, json_error(6, &format!("no route for {method} {target}"))),
        _ => (405, json_error(6, &format!("method {method} not allowed"))),
    }
}

fn partition_request(
    tenant: &str,
    graph: &str,
    params: &[(&str, &str)],
    quality: bool,
) -> Result<Request, String> {
    let policy = param(params, "policy").unwrap_or("hvc").to_string();
    let hosts = param_u64(params, "hosts", 4)?;
    // Range (1..=MAX_HOSTS) is enforced in ServerState::partition for
    // every transport; here we only refuse the silent mod-2^32 wrap.
    let hosts = u32::try_from(hosts)
        .map_err(|_| format!("parameter 'hosts' out of range: {hosts}"))?;
    let chunk_edges = param_u64(params, "chunk", 0)?;
    let (tenant, graph) = (tenant.to_string(), graph.to_string());
    Ok(if quality {
        Request::Quality { tenant, graph, policy, hosts, chunk_edges }
    } else {
        Request::Partition { tenant, graph, policy, hosts, chunk_edges }
    })
}

/// Most nodes a server-side generation request may ask for.
const MAX_GEN_NODES: u64 = 1 << 24;
/// Most edges (`nodes * degree`) a generation request may materialize —
/// the generator allocates proportionally, and an allocation failure
/// aborts the process rather than unwinding, so this is a hard cap.
const MAX_GEN_EDGES: u64 = 1 << 27;

/// Bounds a generation request: node count capped, and the edge budget
/// `nodes * degree` computed with overflow treated as over-cap.
fn gen_size(nodes: u64, degree: u64) -> Result<(usize, usize), String> {
    if nodes == 0 || nodes > MAX_GEN_NODES {
        return Err(format!("nodes must be in 1..={MAX_GEN_NODES}"));
    }
    match nodes.checked_mul(degree) {
        Some(edges) if edges <= MAX_GEN_EDGES => Ok((nodes as usize, edges as usize)),
        _ => Err(format!(
            "nodes*degree must be <= {MAX_GEN_EDGES} (got nodes={nodes}, degree={degree})"
        )),
    }
}

/// Generates a graph server-side and routes it through the same upload
/// path as the framed protocol (same validation, quotas, fingerprints).
fn gen_graph(
    state: &ServerState,
    tenant: &str,
    name: &str,
    params: &[(&str, &str)],
) -> (u16, String) {
    let kind = param(params, "kind").unwrap_or("uniform");
    let nodes = match param_u64(params, "nodes", 1024) {
        Ok(n) => n,
        Err(m) => return (400, json_error(6, &m)),
    };
    let degree = match param_u64(params, "degree", 8) {
        Ok(d) => d,
        Err(m) => return (400, json_error(6, &m)),
    };
    let seed = match param_u64(params, "seed", 42) {
        Ok(s) => s,
        Err(m) => return (400, json_error(6, &m)),
    };
    let (nodes, edges) = match gen_size(nodes, degree) {
        Ok(v) => v,
        Err(m) => return (400, json_error(6, &m)),
    };
    let graph: Csr = match kind {
        "uniform" => uniform::erdos_renyi(nodes, edges, seed),
        "powerlaw" => {
            powerlaw::powerlaw(powerlaw::PowerLawConfig::webcrawl(nodes, degree as f64, seed))
        }
        "kronecker" => {
            let scale = (usize::BITS - nodes.leading_zeros() - 1).max(1);
            kronecker::kronecker(kronecker::KroneckerConfig::graph500(
                scale,
                degree.max(1) as u32,
                seed,
            ))
        }
        other => {
            return (400, json_error(6, &format!("unknown generator kind '{other}'")));
        }
    };
    let req = Request::UploadGraph {
        tenant: tenant.to_string(),
        name: name.to_string(),
        offsets: graph.offsets().to_vec(),
        dests: graph.dests().to_vec(),
        weights: None,
    };
    render(state.handle(req))
}

fn json_error(code: u8, message: &str) -> String {
    format!("{{\"error\":{{\"code\":{code},\"message\":\"{}\"}}}}", escape(message))
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a protocol [`Response`] as `(status, json)`.
fn render(resp: Response) -> (u16, String) {
    match resp {
        Response::GraphUploaded { fingerprint, nodes, edges } => (
            200,
            format!(
                "{{\"fingerprint\":\"{fingerprint:016x}\",\"nodes\":{nodes},\"edges\":{edges}}}"
            ),
        ),
        Response::Partitioned { fingerprint, tier, wall_micros, replication_factor, edge_balance } => (
            200,
            format!(
                "{{\"fingerprint\":\"{fingerprint:016x}\",\"cache\":\"{}\",\"wall_micros\":{wall_micros},\"replication_factor\":{replication_factor:.6},\"edge_balance\":{edge_balance:.6}}}",
                tier.label()
            ),
        ),
        Response::GraphStatsReport { fingerprint, nodes, edges, max_degree, weighted } => (
            200,
            format!(
                "{{\"fingerprint\":\"{fingerprint:016x}\",\"nodes\":{nodes},\"edges\":{edges},\"max_degree\":{max_degree},\"weighted\":{weighted}}}"
            ),
        ),
        Response::QualityReport {
            fingerprint,
            tier,
            replication_factor,
            node_balance,
            edge_balance,
            total_mirrors,
        } => (
            200,
            format!(
                "{{\"fingerprint\":\"{fingerprint:016x}\",\"cache\":\"{}\",\"replication_factor\":{replication_factor:.6},\"node_balance\":{node_balance:.6},\"edge_balance\":{edge_balance:.6},\"total_mirrors\":{total_mirrors}}}",
                tier.label()
            ),
        ),
        Response::Graphs { rows } => {
            let items: Vec<String> = rows
                .iter()
                .map(|(name, nodes, edges)| {
                    format!(
                        "{{\"name\":\"{}\",\"nodes\":{nodes},\"edges\":{edges}}}",
                        escape(name)
                    )
                })
                .collect();
            (200, format!("{{\"graphs\":[{}]}}", items.join(",")))
        }
        Response::ServerStatsReport {
            requests,
            jobs_run,
            mem_hits,
            disk_hits,
            coalesced,
            tenants,
            graphs,
        } => (
            200,
            format!(
                "{{\"requests\":{requests},\"jobs_run\":{jobs_run},\"mem_hits\":{mem_hits},\"disk_hits\":{disk_hits},\"coalesced\":{coalesced},\"tenants\":{tenants},\"graphs\":{graphs}}}"
            ),
        ),
        Response::Applied { old_fingerprint, new_fingerprint, dirty_vertices, nodes, edges } => (
            200,
            format!(
                "{{\"old_fingerprint\":\"{old_fingerprint:016x}\",\"new_fingerprint\":\"{new_fingerprint:016x}\",\"dirty_vertices\":{dirty_vertices},\"nodes\":{nodes},\"edges\":{edges}}}"
            ),
        ),
        Response::Error { code, message } => {
            // Wire error codes map onto the closest HTTP class.
            let status = match code {
                3 => 404,
                4 => 429,
                7 | 8 => 500,
                _ => 400,
            };
            (status, json_error(code, &message))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_parsing_handles_query_and_empty_segments() {
        let (segs, params) = parse_target("/v1/acme/graphs/g1/partition?policy=hvc&hosts=4");
        assert_eq!(segs, vec!["v1", "acme", "graphs", "g1", "partition"]);
        assert_eq!(param(&params, "policy"), Some("hvc"));
        assert_eq!(param(&params, "hosts"), Some("4"));
        assert_eq!(param(&params, "missing"), None);

        let (segs, params) = parse_target("/healthz");
        assert_eq!(segs, vec!["healthz"]);
        assert!(params.is_empty());
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn gen_size_bounds_nodes_degree_and_product() {
        assert_eq!(gen_size(1000, 8), Ok((1000, 8000)));
        assert!(gen_size(0, 8).is_err());
        assert!(gen_size(MAX_GEN_NODES + 1, 1).is_err());
        // A modest node count with an absurd degree must be refused, not
        // allocated.
        assert!(gen_size(1 << 10, 1_000_000_000).is_err());
        // nodes * degree overflowing u64 is over-cap, not a wrap.
        assert!(gen_size(1 << 24, u64::MAX).is_err());
        // The cap itself is accepted.
        assert!(gen_size(1 << 20, MAX_GEN_EDGES >> 20).is_ok());
    }

    #[test]
    fn partition_request_rejects_u32_overflowing_hosts() {
        // 2^32 + 4 used to silently truncate to hosts=4.
        let params = [("hosts", "4294967300")];
        let err = partition_request("t", "g", &params, false).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // In-range values still parse.
        let params = [("hosts", "4")];
        assert!(partition_request("t", "g", &params, false).is_ok());
    }
}
