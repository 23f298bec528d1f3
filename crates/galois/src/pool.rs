//! A persistent thread pool with a *scoped* SPMD entry point.
//!
//! [`ThreadPool::run`] executes one closure on every worker, passing the
//! worker's thread id (`tid` in `0..threads`), and returns only after every
//! worker has finished. Because `run` blocks until completion, the closure
//! may borrow from the caller's stack even though the workers are
//! long-lived; the lifetime erasure this requires is confined to this
//! module and justified below.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A job handed to the workers: a type-erased pointer to a `Fn(usize) + Sync`
/// closure living on the stack of the thread inside [`ThreadPool::run`].
///
/// # Safety contract
///
/// The pointee must stay alive (and not be mutated) until `done` has been
/// incremented by every worker. `ThreadPool::run` enforces this by parking
/// until `done == threads` before returning, and workers increment `done`
/// strictly after their last use of the pointer (with `Release` ordering,
/// matched by an `Acquire` load on the waiting side).
struct Job {
    /// Type-erased `&(dyn Fn(usize) + Sync)` with its lifetime removed.
    func: *const (dyn Fn(usize) + Sync),
    done: Arc<JobDone>,
}

// SAFETY: the pointee is `Sync` (so `&F` may be shared across threads) and
// the lifetime contract above guarantees it outlives all uses.
unsafe impl Send for Job {}

struct JobDone {
    finished: AtomicUsize,
    panicked: AtomicBool,
    unparker: Mutex<()>,
    condvar: Condvar,
}

impl JobDone {
    fn new() -> Self {
        JobDone {
            finished: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            unparker: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    fn signal(&self) {
        // `Release` pairs with the `Acquire` in `wait`, ordering all worker
        // writes (including through the job closure) before the waiter's
        // return.
        self.finished.fetch_add(1, Ordering::Release);
        let _guard = self.unparker.lock().expect(UNPOISONED);
        self.condvar.notify_all();
    }

    fn wait(&self, expected: usize) {
        let guard = self.unparker.lock().expect(UNPOISONED);
        let unfinished = |_: &mut ()| self.finished.load(Ordering::Acquire) < expected;
        drop(self.condvar.wait_while(guard, unfinished).expect(UNPOISONED));
    }
}

/// The unparker guards no data and is never held across a job, so no
/// panic can poison it.
const UNPOISONED: &str = "the unparker is never held across a job";

enum Message {
    Run(Job),
    Shutdown,
}

/// A fixed-size pool of worker threads supporting scoped SPMD execution.
///
/// Dropping the pool shuts the workers down and joins them.
pub struct ThreadPool {
    senders: Vec<Sender<Message>>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool with `threads` workers (at least 1).
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "ThreadPool needs at least one thread");
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        // If the creating thread is being traced (it is a cluster host
        // thread during a traced run), extend the attachment to the
        // workers so their task spans land under the same host.
        let attachment = cusp_obs::current();
        for tid in 0..threads {
            let (tx, rx) = mpsc::channel::<Message>();
            senders.push(tx);
            let attachment = attachment.clone();
            let handle = std::thread::Builder::new()
                .name(format!("galois-worker-{tid}"))
                .spawn(move || {
                    let _trace_guard =
                        attachment.as_ref().map(|a| a.attach(&format!("worker-{tid}")));
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            Message::Run(job) => {
                                // SAFETY: see `Job` — the pointee is alive
                                // until we signal completion below.
                                let func = unsafe { &*job.func };
                                let result = catch_unwind(AssertUnwindSafe(|| {
                                    let _task = cusp_obs::span("pool_task");
                                    func(tid)
                                }));
                                if result.is_err() {
                                    job.done.panicked.store(true, Ordering::Release);
                                }
                                job.done.signal();
                            }
                            Message::Shutdown => break,
                        }
                    }
                })
                .expect("failed to spawn pool worker");
            handles.push(handle);
        }
        ThreadPool {
            senders,
            handles,
            threads,
        }
    }

    /// Number of worker threads in the pool.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(tid)` on every worker thread and blocks until all have
    /// finished. `f` may freely borrow from the caller's stack.
    ///
    /// # Panics
    /// If any worker invocation panics, the panic is re-raised here (after
    /// all workers finished, so no work is left dangling).
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let done = Arc::new(JobDone::new());
        let func: &(dyn Fn(usize) + Sync) = &f;
        // Erase the lifetime: justified by the wait below.
        let func: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(func) };
        for tx in &self.senders {
            let job = Job {
                func,
                done: Arc::clone(&done),
            };
            tx.send(Message::Run(job)).expect("worker thread died");
        }
        done.wait(self.threads);
        if done.panicked.load(Ordering::Acquire) {
            panic!("a ThreadPool worker panicked during ThreadPool::run");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            // Workers may already be gone if they panicked fatally.
            let _ = tx.send(Message::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_on_every_worker() {
        let pool = ThreadPool::new(4);
        let hits = AtomicU64::new(0);
        pool.run(|tid| {
            assert!(tid < 4);
            hits.fetch_add(1 << (tid * 8), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0x01_01_01_01);
    }

    #[test]
    fn borrows_from_stack() {
        let pool = ThreadPool::new(3);
        let data = [1u64, 2, 3, 4, 5];
        let total = AtomicU64::new(0);
        pool.run(|_tid| {
            total.fetch_add(data.iter().sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 15 * 3);
    }

    #[test]
    fn sequential_runs_reuse_workers() {
        let pool = ThreadPool::new(2);
        let count = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 200);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(2);
        pool.run(|tid| {
            if tid == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn pool_survives_worker_panic() {
        let pool = ThreadPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|_| panic!("boom"));
        }));
        assert!(caught.is_err());
        // Pool is still usable afterwards.
        let n = AtomicU64::new(0);
        pool.run(|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn workers_inherit_tracing_attachment() {
        let rec = cusp_obs::Recorder::new();
        let guard = rec.attach(7, "host");
        let pool = ThreadPool::new(2);
        pool.run(|_| {});
        drop(pool); // joins the workers, so their rings are quiescent
        drop(guard);
        let trace = rec.drain();
        assert_eq!(trace.threads.len(), 3); // host thread + 2 workers
        assert!(trace.threads.iter().all(|t| t.host == 7));
        let tasks = trace
            .events
            .iter()
            .filter(|e| e.kind == cusp_obs::EventKind::SpanBegin { name: "pool_task", arg: 0 })
            .count();
        assert_eq!(tasks, 2);
    }

    #[test]
    fn untraced_pool_records_nothing() {
        let pool = ThreadPool::new(2);
        pool.run(|_| assert!(!cusp_obs::is_active()));
    }
}
