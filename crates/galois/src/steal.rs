//! Work-stealing parallel-for for irregular loops.
//!
//! Indices are pre-partitioned into contiguous blocks, one deque per worker:
//! a `Mutex<VecDeque>` of index ranges. A worker drains its own deque from
//! the back and, when it is empty, steals one block from the front of the
//! next non-empty victim's. Compared to the shared-cursor schedule in
//! [`fn@crate::do_all::do_all`], this keeps initial locality (each worker
//! starts on its own contiguous block — important when indices map to
//! contiguous vertex data) while still rebalancing heavy tails such as
//! power-law vertices whose edge lists are orders of magnitude longer than
//! the median.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;

use crate::pool::ThreadPool;

/// A deque lock is held only to pop, never while `f` runs, so no panic
/// can poison it.
const UNPOISONED: &str = "a deque lock is never held across `f`";

/// Runs `f(i)` for every `i in 0..n` using per-thread deques with stealing.
///
/// `grain` bounds the smallest block pushed to a deque.
pub fn do_all_stealing<F>(pool: &ThreadPool, n: usize, grain: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let grain = grain.max(1);
    let threads = pool.threads();
    if n <= grain || threads == 1 {
        (0..n).for_each(f);
        return;
    }

    // Carve 0..n into one contiguous span per worker (locality), split into
    // stealable blocks of ~grain.
    let per_thread = n.div_ceil(threads);
    let deques: Vec<Mutex<VecDeque<Range<usize>>>> = (0..threads)
        .map(|tid| {
            let end = ((tid + 1) * per_thread).min(n);
            let blocks = (tid * per_thread..end).step_by(grain).map(|lo| lo..(lo + grain).min(end));
            Mutex::new(blocks.collect())
        })
        .collect();

    pool.run(|tid| {
        let own = || deques[tid].lock().expect(UNPOISONED).pop_back();
        // Victims in a fixed order: round-robin starting after `tid`.
        let steal = || {
            (1..threads).map(|off| (tid + off) % threads).find_map(|victim| {
                let block = deques[victim].lock().expect(UNPOISONED).pop_front()?;
                cusp_obs::instant("steal", victim as u64);
                Some(block)
            })
        };
        while let Some(block) = own().or_else(steal) {
            block.for_each(&f);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let n = 20_000;
        let flags: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        do_all_stealing(&pool, n, 32, |i| {
            flags[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let sum = AtomicU64::new(0);
        do_all_stealing(&pool, 100, 8, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..100u64).sum());
    }

    #[test]
    fn empty_and_tiny_ranges() {
        let pool = ThreadPool::new(3);
        do_all_stealing(&pool, 0, 8, |_| panic!("no calls expected"));
        let sum = AtomicU64::new(0);
        do_all_stealing(&pool, 2, 8, |i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn heavy_tail_completes() {
        let pool = ThreadPool::new(4);
        let total = AtomicU64::new(0);
        do_all_stealing(&pool, 256, 1, |i| {
            // index 0 simulates a power-law hub
            let work = if i == 0 { 100_000 } else { 10 };
            let mut x = 0u64;
            for k in 0..work {
                x = x.wrapping_mul(31).wrapping_add(k);
            }
            total.fetch_add(x | 1, Ordering::Relaxed);
        });
        assert!(total.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn reusable_across_calls() {
        let pool = ThreadPool::new(2);
        for _ in 0..10 {
            let n = AtomicU64::new(0);
            do_all_stealing(&pool, 1000, 16, |_| {
                n.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(n.load(Ordering::Relaxed), 1000);
        }
    }
}
