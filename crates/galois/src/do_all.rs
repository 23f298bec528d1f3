//! Parallel-for over index ranges with guided dynamic chunking.
//!
//! All threads pull chunks from a shared atomic cursor. Chunk sizes start
//! large (`remaining / (threads * OVERSUBSCRIPTION)`) and shrink toward the
//! grain size as the range drains, which amortizes dispatch overhead while
//! still letting fast threads absorb the tail — the same load-balancing
//! effect as Galois `do_all` with work stealing for range loops.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pool::ThreadPool;

/// How many chunks per thread a guided schedule aims to create, so that the
/// tail of the range is split fine enough to rebalance.
const OVERSUBSCRIPTION: usize = 4;

#[inline]
fn next_chunk(cursor: &AtomicUsize, n: usize, threads: usize, grain: usize) -> Option<(usize, usize)> {
    loop {
        let start = cursor.load(Ordering::Relaxed);
        if start >= n {
            return None;
        }
        let remaining = n - start;
        let guided = remaining / (threads * OVERSUBSCRIPTION);
        let size = guided.max(grain).min(remaining);
        match cursor.compare_exchange_weak(
            start,
            start + size,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return Some((start, start + size)),
            Err(_) => continue,
        }
    }
}

/// Runs `f(i)` for every `i in 0..n` in parallel on `pool`.
///
/// `grain` is the minimum chunk size; use [`crate::DEFAULT_GRAIN`] unless
/// the loop body is unusually heavy (grain 1) or trivial (larger grain).
pub fn do_all<F>(pool: &ThreadPool, n: usize, grain: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    do_all_with_tid(pool, n, grain, |_, i| f(i));
}

/// Like [`do_all`] but also passes the worker's thread id, for use with
/// [`crate::accum::PerThread`] storage.
///
/// Tiny ranges (`n <= grain`) run inline on the calling thread with
/// `tid = 0` — a valid `PerThread` slot, and never live concurrently with
/// worker 0 since pool runs block the caller. Small streamed chunks hit
/// this constantly; waking the pool for a dozen items costs more than the
/// items themselves.
pub fn do_all_with_tid<F>(pool: &ThreadPool, n: usize, grain: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let grain = grain.max(1);
    if n == 0 {
        return;
    }
    if n <= grain {
        for i in 0..n {
            f(0, i);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let threads = pool.threads();
    pool.run(|tid| {
        while let Some((lo, hi)) = next_chunk(&cursor, n, threads, grain) {
            for i in lo..hi {
                f(tid, i);
            }
        }
    });
}

/// Batches at or below this size run inline on the calling thread even when
/// `grain` is smaller: waking the whole pool for a couple of items (the
/// common case in receive loops that drain one message at a time) costs more
/// than processing them in place.
const SMALL_BATCH: usize = 2;

/// Runs `f(&items[i])` for every item of the slice in parallel.
pub fn do_all_items<T, F>(pool: &ThreadPool, items: &[T], grain: usize, f: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    // Mirrors do_all's tiny-range shortcut, extended to SMALL_BATCH items.
    if items.len() <= SMALL_BATCH.max(grain) {
        for it in items {
            f(it);
        }
        return;
    }
    do_all(pool, items.len(), grain, |i| f(&items[i]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let n = 10_000;
        let flags: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        do_all(&pool, n, 8, |i| {
            flags[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_range_is_noop() {
        let pool = ThreadPool::new(2);
        do_all(&pool, 0, 1, |_| panic!("must not be called"));
    }

    #[test]
    fn tiny_range_runs_inline() {
        let pool = ThreadPool::new(2);
        let sum = AtomicU64::new(0);
        do_all(&pool, 3, 64, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn with_tid_passes_valid_tids() {
        let pool = ThreadPool::new(3);
        do_all_with_tid(&pool, 1000, 4, |tid, _i| {
            assert!(tid < 3);
        });
    }

    #[test]
    fn items_variant_sums_slice() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..5000).collect();
        let sum = AtomicU64::new(0);
        do_all_items(&pool, &items, 16, |&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..5000u64).sum());
    }

    #[test]
    fn small_item_batches_run_inline() {
        // A batch of SMALL_BATCH items with grain 1 must run on the calling
        // thread, not the pool workers.
        let pool = ThreadPool::new(4);
        let caller = std::thread::current().id();
        let inline_runs = AtomicU64::new(0);
        let items = [10u64, 20];
        do_all_items(&pool, &items, 1, |_x| {
            assert_eq!(std::thread::current().id(), caller);
            inline_runs.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(inline_runs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn skewed_work_is_balanced() {
        // One index is 1000x heavier; the loop must still finish (liveness
        // smoke test for guided chunking).
        let pool = ThreadPool::new(4);
        let sum = AtomicU64::new(0);
        do_all(&pool, 512, 1, |i| {
            let reps = if i == 0 { 1000 } else { 1 };
            let mut acc = 0u64;
            for r in 0..reps {
                acc = acc.wrapping_add(r);
            }
            sum.fetch_add(acc.max(1), Ordering::Relaxed);
        });
        assert!(sum.load(Ordering::Relaxed) > 0);
    }
}
