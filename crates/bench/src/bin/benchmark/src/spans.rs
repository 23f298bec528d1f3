//! The benchmark's own spans.
//!
//! The traced pass records a span around every call the benchmark makes
//! into a layer's public functions: name, start, end, parent, and the id
//! of the operation (iteration) it belongs to. Nothing inside the program
//! gains a span here — in-program tracing is a later change. Spans stay
//! in memory and are written once, at exit, as a Chrome trace.
//!
//! With tracing off (every end-to-end measurement) [`span`] is one relaxed
//! atomic load and returns an inert guard.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use cusp_obs::{Event, EventKind, ThreadInfo, Trace};

static ENABLED: AtomicBool = AtomicBool::new(false);
static CURRENT_OP: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static NEXT_SPAN: AtomicU32 = AtomicU32::new(0);
static LOG: OnceLock<Log> = OnceLock::new();

struct Log {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    threads: Mutex<Vec<(u32, String)>>,
}

/// Identity of a recorded span, used to parent spans that start on
/// another thread (a host closure under the cluster call that spawned it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub op: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    static TID: Cell<Option<u32>> = const { Cell::new(None) };
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    LOG.get_or_init(|| Log {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        threads: Mutex::new(Vec::new()),
    });
    ENABLED.store(true, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Every span begun from now on belongs to operation `op`.
pub fn set_op(op: u64) {
    CURRENT_OP.store(op, Ordering::Relaxed);
}

/// The innermost open span of the calling thread.
pub fn current() -> Option<SpanId> {
    STACK.with(|s| s.borrow().last().copied().map(SpanId))
}

/// Closes its span when dropped.
pub struct Guard(Option<Open>);

struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    op: u64,
    start_ns: u64,
}

/// Opens a span whose parent is the calling thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    begin(name, current().map(|p| p.0))
}

/// Opens a span under a span of another thread.
pub fn span_under(name: &'static str, parent: Option<SpanId>) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    begin(name, parent.map(|p| p.0))
}

fn begin(name: &'static str, parent: Option<u32>) -> Guard {
    let log = LOG.get().expect("spans enabled without a log");
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard(Some(Open {
        id,
        parent,
        name,
        op: CURRENT_OP.load(Ordering::Relaxed),
        start_ns: log.epoch.elapsed().as_nanos() as u64,
    }))
}

fn thread_id(log: &Log) -> u32 {
    TID.with(|t| {
        t.get().unwrap_or_else(|| {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string();
            log.threads
                .lock()
                .expect("span thread table poisoned")
                .push((id, name));
            t.set(Some(id));
            id
        })
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let Some(log) = LOG.get() else { return };
        let end_ns = log.epoch.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(i) = s.iter().rposition(|&id| id == open.id) {
                s.remove(i);
            }
        });
        let rec = SpanRec {
            id: open.id,
            parent: open.parent,
            name: open.name,
            op: open.op,
            tid: thread_id(log),
            start_ns: open.start_ns,
            end_ns,
        };
        // A poisoned log means another span panicked mid-push; losing this
        // record is better than a second panic during unwinding.
        if let Ok(mut spans) = log.spans.lock() {
            spans.push(rec);
        }
    }
}

/// All spans closed so far, in closing order.
pub fn snapshot() -> Vec<SpanRec> {
    LOG.get().map_or_else(Vec::new, |l| {
        l.spans.lock().expect("span log poisoned").clone()
    })
}

/// Per-name totals: how often a span ran, its total duration and its self
/// time — duration minus the part of its interval its children cover
/// (children on other threads run concurrently, so their union counts).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| union_len(iv, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// The spans as a `cusp_obs::Trace`, ready for `export_chrome_trace`:
/// one Chrome-trace process (pid 0, the benchmark), one track per thread,
/// the operation id as each span's `arg`.
pub fn to_trace(spans: &[SpanRec]) -> Trace {
    let names: BTreeMap<u32, String> = LOG.get().map_or_else(BTreeMap::new, |l| {
        l.threads
            .lock()
            .expect("span thread table poisoned")
            .iter()
            .cloned()
            .collect()
    });
    let mut by_tid: BTreeMap<u32, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut events = Vec::with_capacity(spans.len() * 2);
    let mut threads = Vec::new();
    for (tid, mut recs) in by_tid {
        threads.push(ThreadInfo {
            host: 0,
            tid,
            name: names
                .get(&tid)
                .cloned()
                .unwrap_or_else(|| format!("thread-{tid}")),
            dropped: 0,
        });
        // Spans of one thread nest, so replaying them outermost-first with
        // a stack of pending ends yields begin/end events in time order.
        recs.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns), s.id));
        let mut pending: Vec<&SpanRec> = Vec::new();
        let close = |s: &SpanRec| Event {
            host: 0,
            tid,
            ts_ns: s.end_ns,
            kind: EventKind::SpanEnd { name: s.name },
        };
        for s in recs {
            while pending.last().is_some_and(|top| top.end_ns <= s.start_ns) {
                events.push(close(pending.pop().expect("checked non-empty")));
            }
            events.push(Event {
                host: 0,
                tid,
                ts_ns: s.start_ns,
                kind: EventKind::SpanBegin {
                    name: s.name,
                    arg: s.op,
                },
            });
            pending.push(s);
        }
        while let Some(s) = pending.pop() {
            events.push(close(s));
        }
    }
    Trace {
        threads,
        events,
        dropped_events: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, name: &'static str, tid: u32, s: u64, e: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            op: 1,
            tid,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // run [0,100] has two concurrent host children [10,60] and [20,90]
        // (union 80) — self 20. A host child has a nested child [30,40].
        let spans = vec![
            rec(0, None, "run", 0, 0, 100),
            rec(1, Some(0), "host", 1, 10, 60),
            rec(2, Some(0), "host", 2, 20, 90),
            rec(3, Some(1), "inner", 1, 30, 40),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["run"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            t["host"],
            NameTotals {
                count: 2,
                total_ns: 120,
                self_ns: 110
            }
        );
        assert_eq!(
            t["inner"],
            NameTotals {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
    }

    #[test]
    fn exported_trace_validates() {
        let spans = vec![
            rec(0, None, "run", 0, 0, 100),
            rec(1, Some(0), "a", 0, 0, 40),
            rec(2, Some(0), "b", 0, 40, 100),
            rec(3, Some(0), "host", 1, 10, 60),
        ];
        let json = cusp_obs::export_chrome_trace(&to_trace(&spans));
        let check = cusp_obs::validate_trace_json(&json).expect("valid chrome trace");
        assert_eq!(check.span_events, 8);
    }
}
