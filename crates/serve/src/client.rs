//! A blocking typed client for the framed protocol. Used by the
//! `cusp-part client` subcommand (through [`Client::request`]), the
//! benches, and the test batteries.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use cusp_graph::Csr;

use crate::error::ProtocolError;
use crate::protocol::{
    frame_with, put_upload, read_frame, RecvError, Request, Response, DEFAULT_MAX_FRAME,
};

/// Client-side failures. `Server` carries the typed error the server
/// answered with; the other variants are local.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level trouble (connect, read, write, timeout).
    Io(std::io::Error),
    /// The server's bytes did not decode as a frame/response.
    Protocol(ProtocolError),
    /// The server closed the connection instead of answering.
    Disconnected,
    /// The server answered with an `Error` response.
    Server {
        /// `ServeError::code()` on the server side.
        code: u8,
        /// Human-readable description.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Server { code, message } => write!(f, "server error {code}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// One connection speaking the framed protocol.
pub struct Client {
    stream: TcpStream,
    max_frame: u32,
}

impl Client {
    /// Connects with a default 60 s read timeout (partition jobs on big
    /// graphs take a while on the cold path).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Client::connect_with_timeout(addr, Duration::from_secs(60))
    }

    /// Connects with an explicit read timeout.
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, max_frame: DEFAULT_MAX_FRAME })
    }

    /// Sends one request and waits for its response. `Error` responses
    /// come back as `Err(ClientError::Server { .. })`.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.exchange(&req.frame())
    }

    /// Sends one finished frame and waits for the response to it.
    fn exchange(&mut self, frame: &[u8]) -> Result<Response, ClientError> {
        self.stream.write_all(frame)?;
        let payload = match read_frame(&mut self.stream, self.max_frame) {
            Ok(p) => p,
            Err(RecvError::Eof) => return Err(ClientError::Disconnected),
            Err(RecvError::Io(e)) => return Err(ClientError::Io(e)),
            Err(RecvError::Protocol(e)) => return Err(ClientError::Protocol(e)),
        };
        match Response::decode(&payload)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            resp => Ok(resp),
        }
    }

    /// Uploads a CSR under `tenant/name`; returns `(fingerprint, nodes,
    /// edges)`. The frame is written in place from the borrowed arrays:
    /// the graph is copied once, into the frame, and checksummed once.
    pub fn upload_graph(
        &mut self,
        tenant: &str,
        name: &str,
        graph: &Csr,
        weights: Option<&[u32]>,
    ) -> Result<(u64, u64, u64), ClientError> {
        let frame =
            frame_with(|out| put_upload(out, tenant, name, graph.offsets(), graph.dests(), weights));
        match self.exchange(&frame)? {
            Response::GraphUploaded { fingerprint, nodes, edges } => {
                Ok((fingerprint, nodes, edges))
            }
            _ => Err(unexpected()),
        }
    }

    /// Requests a partition; returns the full `Partitioned` response.
    pub fn partition(
        &mut self,
        tenant: &str,
        graph: &str,
        policy: &str,
        hosts: u32,
        chunk_edges: u64,
    ) -> Result<Response, ClientError> {
        let req = Request::Partition {
            tenant: tenant.to_string(),
            graph: graph.to_string(),
            policy: policy.to_string(),
            hosts,
            chunk_edges,
        };
        match self.request(&req)? {
            resp @ Response::Partitioned { .. } => Ok(resp),
            _ => Err(unexpected()),
        }
    }

    /// Requests quality metrics (partitions on demand, served from the
    /// same cache as `partition`).
    pub fn quality(
        &mut self,
        tenant: &str,
        graph: &str,
        policy: &str,
        hosts: u32,
        chunk_edges: u64,
    ) -> Result<Response, ClientError> {
        let req = Request::Quality {
            tenant: tenant.to_string(),
            graph: graph.to_string(),
            policy: policy.to_string(),
            hosts,
            chunk_edges,
        };
        match self.request(&req)? {
            resp @ Response::QualityReport { .. } => Ok(resp),
            _ => Err(unexpected()),
        }
    }

    /// Applies a mutation batch to a resident graph; returns the full
    /// `Applied` response (old/new fingerprint, dirty count, new shape).
    pub fn apply(
        &mut self,
        tenant: &str,
        graph: &str,
        batch: &[cusp_graph::GraphEvent],
    ) -> Result<Response, ClientError> {
        let req = Request::Apply {
            tenant: tenant.to_string(),
            graph: graph.to_string(),
            batch: batch.to_vec(),
        };
        match self.request(&req)? {
            resp @ Response::Applied { .. } => Ok(resp),
            _ => Err(unexpected()),
        }
    }
}

/// A well-formed answer of another kind than the request asks for.
fn unexpected() -> ClientError {
    ClientError::Protocol(ProtocolError::BadValue("response kind does not match the request"))
}
