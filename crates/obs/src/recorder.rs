//! The recorder: per-thread ring registration, the thread-local dispatch
//! pointer, and the free-function recording API.
//!
//! Design constraints (ISSUE: "near-zero-cost disabled path"):
//!
//! * **Off by default, per thread.** The hot-path switch is a thread-local
//!   `Cell<*const ThreadCtx>`: every recording function performs one
//!   thread-local load and a null check, then returns. No atomics, no
//!   allocation, no locks on the disabled path.
//! * **Scoped, not global.** Tracing is enabled by *attaching* the current
//!   thread to a [`Recorder`] (the simulated cluster attaches each host
//!   thread; thread pools attach their workers by inheriting the spawning
//!   thread's attachment). Two concurrent cluster runs in one process —
//!   the normal situation under `cargo test` — therefore never contaminate
//!   each other's traces.
//! * **Lock-free recording.** An attached thread owns its [`Ring`]
//!   exclusively; recording is a handful of plain stores. The registry
//!   mutex is touched only at attach and drain time.

use std::cell::Cell;
use std::ptr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{self, Event};
use crate::ring::Ring;

/// Default per-thread ring capacity, in events (64 B each).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

thread_local! {
    /// The hot-path dispatch pointer. Null ⇒ tracing disabled on this
    /// thread; recording functions return after this one load.
    static ACTIVE: Cell<*const ThreadCtx> = const { Cell::new(ptr::null()) };
}

/// Per-attached-thread state, owned by the [`AttachGuard`] on that
/// thread's stack.
struct ThreadCtx {
    ring: Arc<Ring>,
    epoch: Instant,
    shared: Arc<Shared>,
    host: u32,
}

impl ThreadCtx {
    #[inline]
    fn ts(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// State shared by all rings of one recorder.
struct Shared {
    epoch: Instant,
    ring_capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
}

/// A tracing session: rings attach to it, [`Recorder::drain`] reads them
/// back out as a [`Trace`].
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with [`DEFAULT_RING_CAPACITY`] events per thread.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder whose per-thread rings hold `ring_capacity` events each;
    /// older events are overwritten (and counted) once a ring wraps.
    pub fn with_capacity(ring_capacity: usize) -> Self {
        Recorder {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                ring_capacity,
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Attaches the current thread: all recording from this thread goes to
    /// a fresh ring until the returned guard drops. `host` labels the
    /// Chrome-trace process, `name` the thread track.
    pub fn attach(&self, host: u32, name: &str) -> AttachGuard {
        attach_shared(Arc::clone(&self.shared), host, name)
    }

    /// Reads every attached ring into a [`Trace`]. Call after all attached
    /// threads have quiesced (for the cluster: after `Cluster::run`
    /// joined its host threads, which transitively joins pool workers).
    pub fn drain(&self) -> Trace {
        let rings = self.shared.rings.lock().expect("the ring registry is never held across recording");
        let mut threads = Vec::with_capacity(rings.len());
        let mut events = Vec::new();
        let mut dropped_events = 0u64;
        for ring in rings.iter() {
            let (raw, dropped) = ring.drain();
            dropped_events += dropped;
            threads.push(ThreadInfo {
                host: ring.host,
                tid: ring.tid,
                name: ring.name.clone(),
                dropped,
            });
            events.extend(raw.iter().filter_map(|r| event::decode(r, ring.host, ring.tid)));
        }
        Trace { threads, events, dropped_events }
    }
}

/// A cloneable handle capturing the current thread's attachment (recorder
/// and host), used to extend tracing onto threads the attached thread
/// spawns — e.g. `cusp-galois` pool workers.
#[derive(Clone)]
pub struct Attachment {
    shared: Arc<Shared>,
    host: u32,
}

impl Attachment {
    /// Attaches the calling thread to the captured recorder under the
    /// captured host.
    pub fn attach(&self, name: &str) -> AttachGuard {
        attach_shared(Arc::clone(&self.shared), self.host, name)
    }

    /// The host id carried by this attachment.
    pub fn host(&self) -> u32 {
        self.host
    }
}

/// Snapshot of the current thread's attachment, if tracing is enabled on
/// this thread. Spawners pass this to their children so worker threads
/// record into the same trace (pool workers inherit the host).
pub fn current() -> Option<Attachment> {
    ACTIVE.with(|a| {
        let p = a.get();
        if p.is_null() {
            return None;
        }
        // SAFETY: non-null only while the owning AttachGuard lives on this
        // thread, so the pointee is valid here.
        let ctx = unsafe { &*p };
        Some(Attachment { shared: Arc::clone(&ctx.shared), host: ctx.host })
    })
}

/// Whether the current thread is attached to a recorder.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.with(|a| !a.get().is_null())
}

/// Keeps the calling thread attached; detaches (restoring any previous
/// attachment) on drop. `!Send` by construction — it must drop on the
/// thread that attached.
pub struct AttachGuard {
    /// Owns the ThreadCtx that ACTIVE points to; never read directly.
    _ctx: Box<ThreadCtx>,
    prev: *const ThreadCtx,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.set(self.prev));
    }
}

fn attach_shared(shared: Arc<Shared>, host: u32, name: &str) -> AttachGuard {
    let ring = {
        let mut rings = shared.rings.lock().expect("the ring registry is never held across recording");
        let ring = Arc::new(Ring::new(
            shared.ring_capacity,
            host,
            rings.len() as u32,
            name.to_string(),
        ));
        rings.push(Arc::clone(&ring));
        ring
    };
    let ctx = Box::new(ThreadCtx { ring, epoch: shared.epoch, shared, host });
    let prev = ACTIVE.with(|a| {
        let p = a.get();
        a.set(&*ctx as *const ThreadCtx);
        p
    });
    AttachGuard { _ctx: ctx, prev }
}

#[inline]
fn with_active(f: impl FnOnce(&ThreadCtx)) {
    ACTIVE.with(|a| {
        let p = a.get();
        if !p.is_null() {
            // SAFETY: non-null only while the owning AttachGuard lives on
            // this thread.
            f(unsafe { &*p })
        }
    })
}

/// Opens a span named `name` on the current thread. No-op when detached.
#[inline]
pub fn span_begin(name: &'static str) {
    with_active(|ctx| ctx.ring.push(event::raw_span_begin(ctx.ts(), name, 0)));
}

/// Opens a span carrying a numeric argument (e.g. a chunk index).
#[inline]
pub fn span_begin_arg(name: &'static str, arg: u64) {
    with_active(|ctx| ctx.ring.push(event::raw_span_begin(ctx.ts(), name, arg)));
}

/// Closes the innermost open span of `name` on the current thread.
#[inline]
pub fn span_end(name: &'static str) {
    with_active(|ctx| ctx.ring.push(event::raw_span_end(ctx.ts(), name)));
}

/// Records a point event.
#[inline]
pub fn instant(name: &'static str, arg: u64) {
    with_active(|ctx| ctx.ring.push(event::raw_instant(ctx.ts(), name, arg)));
}

/// Records a counter sample.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    with_active(|ctx| ctx.ring.push(event::raw_counter(ctx.ts(), name, value)));
}

/// Records a message send from the current thread's host. `(host, dst,
/// tag, seq)` must match the receive-side event for the exporter to draw
/// the flow arrow.
#[inline]
pub fn msg_send(dst: u32, tag: u8, seq: u64, bytes: u64, remote: bool) {
    with_active(|ctx| ctx.ring.push(event::raw_msg_send(ctx.ts(), dst, tag, seq, bytes, remote)));
}

/// Records a message delivered to the application on the current thread's
/// host.
#[inline]
pub fn msg_recv(src: u32, tag: u8, seq: u64, bytes: u64) {
    with_active(|ctx| ctx.ring.push(event::raw_msg_recv(ctx.ts(), src, tag, seq, bytes)));
}

/// RAII convenience: records a span begin now and the matching end on drop
/// (both no-ops when the thread is detached).
pub struct SpanGuard {
    name: &'static str,
}

/// Opens `name` and returns a guard closing it on drop.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_begin(name);
    SpanGuard { name }
}

/// Opens `name` carrying a numeric argument (e.g. a server request tag or
/// cache-key hash) and returns a guard closing it on drop.
#[inline]
pub fn span_arg(name: &'static str, arg: u64) -> SpanGuard {
    span_begin_arg(name, arg);
    SpanGuard { name }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        span_end(self.name);
    }
}

/// One attached thread's identity in a drained [`Trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadInfo {
    /// Simulated host (Chrome-trace process).
    pub host: u32,
    /// Recorder-scoped thread id (Chrome-trace thread).
    pub tid: u32,
    /// Thread track label (e.g. `main`, `worker-1`).
    pub name: String,
    /// Events overwritten on this thread's ring (0 unless it wrapped).
    pub dropped: u64,
}

/// A drained tracing session: thread identities plus all retained events,
/// grouped per thread in record order (each thread's slice is therefore
/// timestamp-monotone).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The attached threads, in attach order (`tid` ascending).
    pub threads: Vec<ThreadInfo>,
    /// All retained events, grouped by thread in record order.
    pub events: Vec<Event>,
    /// Total events lost to ring wrap-around, summed over threads.
    pub dropped_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn detached_thread_records_nothing() {
        assert!(!is_active());
        span_begin("x");
        span_end("x");
        msg_send(1, 0, 0, 10, true);
        assert!(current().is_none());
    }

    #[test]
    fn attach_record_drain() {
        let rec = Recorder::new();
        {
            let _g = rec.attach(3, "main");
            assert!(is_active());
            span_begin("phase");
            msg_send(1, 7, 0, 128, true);
            msg_recv(1, 7, 5, 64);
            instant("steal", 2);
            counter("resident", 42);
            span_end("phase");
        }
        assert!(!is_active());
        let trace = rec.drain();
        assert_eq!(trace.threads.len(), 1);
        assert_eq!(trace.threads[0].host, 3);
        assert_eq!(trace.threads[0].name, "main");
        assert_eq!(trace.dropped_events, 0);
        let kinds: Vec<_> = trace.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::SpanBegin { name: "phase", arg: 0 },
                EventKind::MsgSend { dst: 1, tag: 7, seq: 0, bytes: 128, remote: true },
                EventKind::MsgRecv { src: 1, tag: 7, seq: 5, bytes: 64 },
                EventKind::Instant { name: "steal", arg: 2 },
                EventKind::Counter { name: "resident", value: 42 },
                EventKind::SpanEnd { name: "phase" },
            ]
        );
        // Timestamps are monotone within the thread.
        assert!(trace.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn attachment_extends_to_spawned_threads() {
        let rec = Recorder::new();
        let _g = rec.attach(1, "main");
        let att = current().expect("attached");
        assert_eq!(att.host(), 1);
        std::thread::spawn(move || {
            let _wg = att.attach("worker-0");
            span_begin("pool_task");
            span_end("pool_task");
        })
        .join()
        .unwrap();
        let trace = rec.drain();
        assert_eq!(trace.threads.len(), 2);
        let worker = trace.threads.iter().find(|t| t.name == "worker-0").unwrap();
        assert_eq!(worker.host, 1);
        assert!(trace
            .events
            .iter()
            .any(|e| e.tid == worker.tid
                && e.kind == EventKind::SpanBegin { name: "pool_task", arg: 0 }));
    }

    #[test]
    fn concurrent_recorders_stay_separate() {
        let a = Recorder::new();
        let b = Recorder::new();
        let ta = {
            let a = a.clone();
            std::thread::spawn(move || {
                let _g = a.attach(0, "a");
                span_begin("only-a");
                span_end("only-a");
            })
        };
        let tb = {
            let b = b.clone();
            std::thread::spawn(move || {
                let _g = b.attach(0, "b");
                span_begin("only-b");
                span_end("only-b");
            })
        };
        ta.join().unwrap();
        tb.join().unwrap();
        let names = |t: &Trace| {
            t.events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::SpanBegin { name, .. } => Some(name),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&a.drain()), vec!["only-a"]);
        assert_eq!(names(&b.drain()), vec!["only-b"]);
    }

    #[test]
    fn nested_attach_restores_previous() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        let _og = outer.attach(0, "outer");
        {
            let _ig = inner.attach(9, "inner");
            span_begin("in");
            span_end("in");
        }
        span_begin("out");
        span_end("out");
        assert_eq!(inner.drain().events.len(), 2);
        let outer_trace = outer.drain();
        assert_eq!(outer_trace.events.len(), 2);
        assert!(matches!(
            outer_trace.events[0].kind,
            EventKind::SpanBegin { name: "out", .. }
        ));
    }

    #[test]
    fn span_guard_closes_on_drop() {
        let rec = Recorder::new();
        let _g = rec.attach(0, "main");
        {
            let _s = span("scoped");
        }
        let trace = rec.drain();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[1].kind, EventKind::SpanEnd { name: "scoped" });
    }
}
