//! Per-thread storage.
//!
//! Galois-style "reducibles": each thread updates a cache-line-padded
//! private slot; the final value is produced by a reduction after the
//! parallel loop. This avoids contended atomics on the hot path.

use std::cell::UnsafeCell;

use crate::pool::ThreadPool;

/// One slot aligned to (at least) a cache line, so slots of different
/// threads never share one.
#[repr(align(128))]
struct CachePadded<T>(T);

/// Per-thread mutable storage indexed by pool thread id.
///
/// Used for thread-local scratch buffers (e.g. per-destination send buffers
/// during graph construction). Access is through [`PerThread::with`], whose
/// contract is that a given `tid` is only ever used by one thread at a time
/// — which [`crate::do_all_with_tid`] guarantees, since each pool worker has
/// a distinct tid.
pub struct PerThread<T> {
    slots: Vec<CachePadded<UnsafeCell<T>>>,
}

// SAFETY: slots are only accessed via `with(tid, ..)` under the documented
// exclusivity contract; `T: Send` is required so values may be created on
// one thread and used on another between parallel sections.
unsafe impl<T: Send> Sync for PerThread<T> {}

impl<T> PerThread<T> {
    /// Creates one slot per pool thread, each initialized by `init(tid)`.
    pub fn new(pool: &ThreadPool, mut init: impl FnMut(usize) -> T) -> Self {
        PerThread {
            slots: (0..pool.threads())
                .map(|tid| CachePadded(UnsafeCell::new(init(tid))))
                .collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Runs `f` with exclusive access to slot `tid`.
    ///
    /// # Safety contract (checked by convention, not the compiler)
    /// Callers must ensure no two threads use the same `tid` concurrently;
    /// `do_all_with_tid` provides this.
    #[inline]
    pub fn with<R>(&self, tid: usize, f: impl FnOnce(&mut T) -> R) -> R {
        // SAFETY: per the documented contract, `tid` grants exclusivity.
        let slot = unsafe { &mut *self.slots[tid].0.get() };
        f(slot)
    }

    /// Consumes the storage, yielding all slot values (for post-loop
    /// reduction on the coordinating thread).
    pub fn into_inner(self) -> Vec<T> {
        self.slots
            .into_iter()
            .map(|c| c.0.into_inner())
            .collect()
    }

    /// Iterates over all slots mutably from a single thread.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|c| c.0.get_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::do_all::do_all_with_tid;

    #[test]
    fn per_thread_collects() {
        let pool = ThreadPool::new(4);
        let locals: PerThread<Vec<usize>> = PerThread::new(&pool, |_| Vec::new());
        do_all_with_tid(&pool, 5000, 8, |tid, i| {
            locals.with(tid, |v| v.push(i));
        });
        let mut all: Vec<usize> = locals.into_inner().into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..5000).collect::<Vec<_>>());
    }

    #[test]
    fn slots_are_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<CachePadded<UnsafeCell<u64>>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<UnsafeCell<u64>>>(), 128);
    }

    #[test]
    fn per_thread_init_sees_tid() {
        let pool = ThreadPool::new(3);
        let pt: PerThread<usize> = PerThread::new(&pool, |tid| tid * 10);
        let vals = pt.into_inner();
        assert_eq!(vals, vec![0, 10, 20]);
    }
}
