//! The framed-TCP transport: accept loop, per-connection threads, and a
//! handle that shuts the whole thing down deterministically.
//!
//! Each connection is one thread running a strict request/response loop:
//! read one frame, decode one request, route it through
//! [`ServerState::handle`], write one response frame. Anything malformed
//! on the wire gets a typed `Error` response (when the stream is still
//! coherent enough to answer on) and the connection is closed — a bad
//! frame never desynchronizes later requests because the length prefix
//! was already validated against the CRC'd payload.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::error::ServeError;
use crate::protocol::{read_frame, write_frame, RecvError, Request, Response};
use crate::state::ServerState;

/// A running listener (framed or HTTP); dropping it (or calling
/// [`shutdown`]) stops the accept loop and waits for it to exit.
///
/// [`shutdown`]: ServerHandle::shutdown
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0 in tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, then joins the accept loop. Connection threads
    /// already running finish their current request and exit on the next
    /// read (their sockets keep working; new connections are refused
    /// once the listener is gone).
    pub fn shutdown(&mut self) {
        if let Some(h) = self.accept_thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the blocking accept() with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and spawns the framed-protocol accept loop.
pub fn serve(state: Arc<ServerState>, addr: &str) -> std::io::Result<ServerHandle> {
    spawn_listener(state, addr, "cusp-serve", connection_loop, refuse_over_limit)
}

/// The accept loop both front ends run: one thread per connection running
/// `handle`, and `refuse` answering a connection arriving while
/// `max_connections` are live. Each listener counts its own connections,
/// so a daemon serving both protocols admits up to the limit on each.
pub(crate) fn spawn_listener(
    state: Arc<ServerState>,
    addr: &str,
    thread_name: &'static str,
    handle: fn(&ServerState, TcpStream),
    refuse: fn(TcpStream, usize),
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let live = Arc::new(AtomicUsize::new(0));
    let accept_stop = Arc::clone(&stop);
    let accept_thread =
        std::thread::Builder::new().name(format!("{thread_name}-accept")).spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                if live.load(Ordering::SeqCst) >= state.config.max_connections {
                    refuse(stream, state.config.max_connections);
                    continue;
                }
                live.fetch_add(1, Ordering::SeqCst);
                let state = Arc::clone(&state);
                let conn_live = Arc::clone(&live);
                let spawned = std::thread::Builder::new()
                    .name(format!("{thread_name}-conn"))
                    .spawn(move || {
                        handle(&state, stream);
                        conn_live.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            }
        })?;
    Ok(ServerHandle { addr, stop, accept_thread: Some(accept_thread) })
}

fn refuse_over_limit(mut stream: TcpStream, limit: usize) {
    let resp = Response::Error {
        code: ServeError::Io(String::new()).code(),
        message: format!("connection limit {limit} reached"),
    };
    let _ = write_frame(&mut stream, &resp.encode());
}

/// One connection's request/response loop. Exits on clean EOF, socket
/// error or timeout, or the first malformed frame.
fn connection_loop(state: &ServerState, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream, state.config.max_frame) {
            Ok(p) => p,
            Err(RecvError::Eof) => return,
            Err(RecvError::Io(_)) => return,
            Err(RecvError::Protocol(e)) => {
                // The stream position is untrustworthy after a framing
                // error; answer with the typed error and hang up.
                let resp = Response::Error {
                    code: ServeError::Protocol(e.clone()).code(),
                    message: ServeError::Protocol(e).to_string(),
                };
                let _ = write_frame(&mut stream, &resp.encode());
                return;
            }
        };
        let resp = match Request::decode(&payload) {
            Ok(req) => state.handle(req),
            Err(e) => Response::Error {
                code: ServeError::Protocol(e.clone()).code(),
                message: ServeError::Protocol(e).to_string(),
            },
        };
        if write_frame(&mut stream, &resp.encode()).is_err() {
            return;
        }
        if stream.flush().is_err() {
            return;
        }
    }
}
