//! What the daemon's front ends share: one request table and one JSON
//! rendering.
//!
//! The framed protocol ([`crate::server`]) carries a [`Request`] and a
//! [`Response`] as bytes. The other two front ends name a request by a
//! verb and arguments — HTTP by method, path and query
//! ([`crate::http`]), `cusp-part client` by verb and flags — and build it
//! through [`VERBS`], one row per verb. Both print the answer as
//! [`Response::to_json`], so `cusp-part client` prints what HTTP returns,
//! byte for byte, errors included.
//!
//! Every row is an HTTP route; a graph body comes from the generator
//! (`gen`), never from a path a request names. Uploading a local `.bgr`
//! or applying a local text batch is `cusp-part client`'s own business
//! ([`crate::Client::upload_graph`], [`crate::Client::apply`]).

use std::fmt::Write;

use cusp_obs::json_string;

use crate::error::ServeError;
use crate::protocol::{Field, Request, Response};

/// One named argument: `(name, value)`.
pub type Arg<'a> = (&'a str, &'a str);

/// A request's arguments; the first pair with a name wins.
pub type Args<'a> = [Arg<'a>];

/// One row of the request table.
pub struct Verb {
    /// The `cusp-part client` verb.
    pub name: &'static str,
    /// HTTP method and path; a `{tenant}` or `{name}` segment binds the
    /// argument of that name.
    pub http: (&'static str, &'static str),
    /// Whether `cusp-part client` offers the verb. `gen` is HTTP's only:
    /// on the client side it is `cusp-part gen`, then `client upload`.
    pub client: bool,
    /// The arguments as flags: the only names [`Verb::request`] takes, and
    /// `cusp-part client`'s usage text.
    pub synopsis: &'static str,
    build: fn(&Args) -> Result<Request, String>,
}

/// The request table.
pub const VERBS: [Verb; 6] = [
    Verb {
        name: "gen",
        http: ("POST", "/v1/{tenant}/graphs/{name}/gen"),
        client: false,
        synopsis: "--tenant T --name N [--kind uniform|webcrawl|kron] [--nodes V] [--degree D] [--seed S]",
        build: gen,
    },
    Verb {
        name: "partition",
        http: ("POST", "/v1/{tenant}/graphs/{name}/partition"),
        client: true,
        synopsis: "--tenant T --name N --policy P [--hosts K] [--chunk-edges E]",
        build: |a| keyed(a, false),
    },
    Verb {
        name: "quality",
        http: ("GET", "/v1/{tenant}/graphs/{name}/quality"),
        client: true,
        synopsis: "--tenant T --name N --policy P [--hosts K] [--chunk-edges E]",
        build: |a| keyed(a, true),
    },
    Verb {
        name: "stats",
        http: ("GET", "/v1/{tenant}/graphs/{name}/stats"),
        client: true,
        synopsis: "--tenant T --name N",
        build: |a| Ok(Request::GraphStats { tenant: text(a, "tenant")?, graph: text(a, "name")? }),
    },
    Verb {
        name: "list",
        http: ("GET", "/v1/{tenant}/graphs"),
        client: true,
        synopsis: "--tenant T",
        build: |a| Ok(Request::ListGraphs { tenant: text(a, "tenant")? }),
    },
    Verb {
        name: "server-stats",
        http: ("GET", "/stats"),
        client: true,
        synopsis: "",
        build: |_| Ok(Request::ServerStats),
    },
];

impl Verb {
    /// The row for a `cusp-part client` verb.
    pub fn named(name: &str) -> Option<&'static Verb> {
        VERBS.iter().find(|v| v.client && v.name == name)
    }

    /// The row HTTP serves at `method` and `path`, with the arguments the
    /// path binds. `Err(404)` when no row has the path, `Err(405)` when
    /// one has it under another method.
    pub fn route<'p>(
        method: &str,
        path: &'p str,
    ) -> Result<(&'static Verb, Vec<Arg<'p>>), u16> {
        let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let mut status = 404;
        for verb in &VERBS {
            let (m, template) = verb.http;
            let parts: Vec<&str> = template.split('/').filter(|s| !s.is_empty()).collect();
            if parts.len() != segs.len() {
                continue;
            }
            let mut bound = Vec::new();
            let matched = parts.iter().zip(&segs).all(|(part, seg)| {
                match part.strip_prefix('{').and_then(|p| p.strip_suffix('}')) {
                    Some(name) => {
                        bound.push((name, *seg));
                        true
                    }
                    None => part == seg,
                }
            });
            if !matched {
                continue;
            }
            if m == method {
                return Ok((verb, bound));
            }
            status = 405;
        }
        Err(status)
    }

    /// Builds this verb's request; an argument the synopsis does not
    /// name, or a missing or malformed one, is a `BadRequest` naming it.
    pub fn request(&self, args: &Args) -> Result<Request, ServeError> {
        let takes = |name: &str| {
            self.synopsis.split([' ', '[', ']']).any(|w| w.strip_prefix("--") == Some(name))
        };
        match args.iter().find(|(name, _)| !takes(name)) {
            Some((name, _)) => Err(format!("{} takes no argument '{name}'", self.name)),
            None => (self.build)(args),
        }
        .map_err(ServeError::BadRequest)
    }
}

fn arg<'a>(args: &Args<'a>, name: &str) -> Option<&'a str> {
    args.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
}

fn text(args: &Args, name: &str) -> Result<String, String> {
    arg(args, name).map(str::to_string).ok_or_else(|| format!("missing argument '{name}'"))
}

fn num<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> Result<T, String> {
    match arg(args, name) {
        None => Ok(default),
        Some(v) => {
            v.parse().map_err(|_| format!("argument '{name}' is not a number in range: '{v}'"))
        }
    }
}

/// Partition or Quality: the cache key's fields. The host range
/// (1..=`MAX_HOSTS`) is enforced by the router for every transport.
fn keyed(a: &Args, quality: bool) -> Result<Request, String> {
    let (tenant, graph, policy) = (text(a, "tenant")?, text(a, "name")?, text(a, "policy")?);
    let hosts = num(a, "hosts", 4)?;
    let chunk_edges = num(a, "chunk-edges", 0)?;
    Ok(if quality {
        Request::Quality { tenant, graph, policy, hosts, chunk_edges }
    } else {
        Request::Partition { tenant, graph, policy, hosts, chunk_edges }
    })
}

/// Most nodes a generation request may ask for.
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

/// Generates a graph on the server and uploads it: the same validation,
/// quotas and fingerprint as any upload.
fn gen(a: &Args) -> Result<Request, String> {
    let degree = num(a, "degree", 8)?;
    let (nodes, _) = gen_size(num(a, "nodes", 1024)?, degree)?;
    let seed = num(a, "seed", 42)?;
    let kind = arg(a, "kind").unwrap_or("uniform");
    let graph = cusp_graph::gen::generate(kind, nodes, degree as f64, seed)?;
    let (offsets, dests) = graph.into_parts();
    Ok(Request::UploadGraph {
        tenant: text(a, "tenant")?,
        name: text(a, "name")?,
        offsets,
        dests,
        weights: None,
    })
}

impl From<ServeError> for Response {
    fn from(e: ServeError) -> Self {
        Response::Error { code: e.code(), message: e.to_string() }
    }
}

impl Response {
    /// The HTTP status of this response: error classes map onto the
    /// closest HTTP class.
    pub fn http_status(&self) -> u16 {
        match self {
            Response::Error { code: 3, .. } => 404,
            Response::Error { code: 4, .. } => 429,
            Response::Error { code: 7 | 8, .. } => 500,
            Response::Error { .. } => 400,
            _ => 200,
        }
    }

    /// The response as one JSON object: its wire fields, in wire order,
    /// under their names. The one rendering HTTP returns and
    /// `cusp-part client` prints.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, field)) in self.fields().1.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            let _ = match field {
                Field::Count(v) => write!(out, "{v}"),
                Field::Fingerprint(v) => write!(out, "\"{v:016x}\""),
                Field::Ratio(v) if v.is_finite() => write!(out, "{v:.6}"),
                Field::Ratio(_) => write!(out, "null"),
                Field::Tier(t) => write!(out, "\"{}\"", t.label()),
                Field::Flag(b) => write!(out, "{b}"),
                Field::Code(c) => write!(out, "{c}"),
                Field::Text(s) => write!(out, "{}", json_string(s)),
                Field::Rows(rows) => {
                    let rows: Vec<String> = rows
                        .iter()
                        .map(|(name, nodes, edges)| {
                            let name = json_string(name);
                            format!("{{\"name\":{name},\"nodes\":{nodes},\"edges\":{edges}}}")
                        })
                        .collect();
                    write!(out, "[{}]", rows.join(","))
                }
            };
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CacheTier;

    #[test]
    fn every_route_binds_its_own_path() {
        for verb in &VERBS {
            let (method, template) = verb.http;
            let path = template.replace("{tenant}", "acme").replace("{name}", "g1");
            let (found, bound) = Verb::route(method, &path).unwrap();
            assert_eq!(found.name, verb.name);
            for (name, value) in bound {
                assert_eq!(value, if name == "tenant" { "acme" } else { "g1" });
                // A bound argument is one the verb takes.
                assert!(verb.synopsis.contains(&format!("--{name} ")), "{}", verb.name);
            }
            let client = Verb::named(verb.name).map(|v| v.name);
            assert_eq!(client, verb.client.then_some(verb.name));
        }
        assert!(Verb::named("gen").is_none());
        assert_eq!(Verb::route("GET", "/v1/acme/graphs/g1/partition").err(), Some(405));
        assert_eq!(Verb::route("GET", "/v1/acme/graphs/g1/nope").err(), Some(404));
        assert_eq!(Verb::route("DELETE", "/stats").err(), Some(405));
        assert_eq!(Verb::route("GET", "//v1//acme/graphs").unwrap().0.name, "list");
    }

    #[test]
    fn arguments_are_named_in_their_errors() {
        let partition = Verb::named("partition").unwrap();
        let args = [("tenant", "t"), ("name", "g"), ("policy", "hvc")];
        assert_eq!(
            partition.request(&args),
            Ok(Request::Partition {
                tenant: "t".into(),
                graph: "g".into(),
                policy: "hvc".into(),
                hosts: 4,
                chunk_edges: 0,
            })
        );
        let err = |args: &Args| match partition.request(args) {
            Err(ServeError::BadRequest(m)) => m,
            other => panic!("{other:?}"),
        };
        assert_eq!(err(&args[..2]), "missing argument 'policy'");
        // 2^32 + 4 must not wrap to hosts = 4.
        let big = [("hosts", "4294967300"), ("tenant", "t"), ("name", "g"), ("policy", "hvc")];
        assert!(err(&big).contains("'hosts'"), "{}", err(&big));
        // A name the verb does not take is refused, not ignored: a stale
        // `chunk=` must not silently partition the whole graph.
        let stale = [("tenant", "t"), ("name", "g"), ("policy", "hvc"), ("chunk", "1024")];
        assert_eq!(err(&stale), "partition takes no argument 'chunk'");
        let server_stats = Verb::named("server-stats").unwrap();
        assert!(server_stats.request(&[("tenant", "t")]).is_err());
        let gen = VERBS.iter().find(|v| v.name == "gen").unwrap();
        assert!(gen.request(&[("tenant", "t"), ("name", "g"), ("kind", "ring")]).is_err());
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
    fn gen_uploads_the_generated_graph() {
        let gen = VERBS.iter().find(|v| v.name == "gen").unwrap();
        for kind in cusp_graph::gen::KINDS {
            let args = [("tenant", "t"), ("name", "g"), ("kind", kind)];
            let graph = cusp_graph::gen::generate(kind, 1024, 8.0, 42).unwrap();
            let (offsets, dests) = graph.into_parts();
            let upload = Request::UploadGraph {
                tenant: "t".into(),
                name: "g".into(),
                offsets,
                dests,
                weights: None,
            };
            assert_eq!(gen.request(&args), Ok(upload), "{kind}");
        }
    }

    #[test]
    fn json_names_the_wire_fields() {
        let cases = [
            (
                Response::Partitioned {
                    fingerprint: 0xab,
                    tier: CacheTier::Memory,
                    wall_micros: 12,
                    replication_factor: 1.5,
                    edge_balance: f64::NAN,
                },
                r#"{"fingerprint":"00000000000000ab","cache":"memory","wall_micros":12,"replication_factor":1.500000,"edge_balance":null}"#,
            ),
            (
                Response::GraphStatsReport {
                    fingerprint: 1,
                    nodes: 2,
                    edges: 3,
                    max_degree: 4,
                    weighted: true,
                },
                r#"{"fingerprint":"0000000000000001","nodes":2,"edges":3,"max_degree":4,"weighted":true}"#,
            ),
            (
                Response::Graphs { rows: vec![("a\"b".into(), 1, 2), ("c".into(), 3, 4)] },
                r#"{"graphs":[{"name":"a\"b","nodes":1,"edges":2},{"name":"c","nodes":3,"edges":4}]}"#,
            ),
            (Response::Graphs { rows: vec![] }, r#"{"graphs":[]}"#),
            (
                ServeError::NoSuchGraph { tenant: "t".into(), graph: "g\n\\\u{1}".into() }.into(),
                r#"{"error":3,"message":"tenant 't' has no graph 'g\n\\\u0001'"}"#,
            ),
        ];
        for (resp, json) in cases {
            assert_eq!(resp.to_json(), json);
        }
    }

    #[test]
    fn error_classes_map_onto_http_statuses() {
        let status = |e: ServeError| Response::from(e).http_status();
        assert_eq!(status(ServeError::NoSuchGraph { tenant: "t".into(), graph: "g".into() }), 404);
        assert_eq!(
            status(ServeError::QuotaExceeded {
                tenant: "t".into(),
                kind: crate::QuotaKind::Jobs,
                limit: 1
            }),
            429
        );
        assert_eq!(status(ServeError::JobFailed("x".into())), 500);
        assert_eq!(status(ServeError::UnknownPolicy("x".into())), 400);
        assert_eq!(Response::Graphs { rows: vec![] }.http_status(), 200);
    }
}
