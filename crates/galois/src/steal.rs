//! Work-stealing parallel-for for irregular loops.
//!
//! Indices are pre-partitioned into contiguous blocks, one deque per worker
//! (`crossbeam::deque` here is `vendor/crossbeam`'s stand-in: each deque a
//! `Mutex<VecDeque>`, not a lock-free Chase–Lev deque). A worker drains its own deque
//! LIFO and, when empty, steals FIFO from a random victim. Compared to the
//! shared-cursor schedule in [`fn@crate::do_all::do_all`], this keeps initial locality
//! (each worker starts on its own contiguous block — important when indices
//! map to contiguous vertex data) while still rebalancing heavy tails such
//! as power-law vertices whose edge lists are orders of magnitude longer
//! than the median.

use crossbeam::deque::{Steal, Stealer, Worker};

use crate::pool::ThreadPool;

/// Granularity of a stealable unit: a contiguous index sub-range.
#[derive(Clone, Copy, Debug)]
struct Block {
    lo: usize,
    hi: usize,
}

/// Runs `f(i)` for every `i in 0..n` using per-thread deques with stealing.
///
/// `grain` bounds the smallest block pushed to a deque.
pub fn do_all_stealing<F>(pool: &ThreadPool, n: usize, grain: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let grain = grain.max(1);
    if n == 0 {
        return;
    }
    let threads = pool.threads();
    if n <= grain || threads == 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }

    // Carve 0..n into blocks of ~grain and deal them round-robin block-wise
    // so each worker's deque holds a contiguous span of the range (locality)
    // split into stealable units.
    let workers: Vec<Worker<Block>> = (0..threads).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<Block>> = workers.iter().map(|w| w.stealer()).collect();

    let per_thread = n.div_ceil(threads);
    for (tid, w) in workers.iter().enumerate() {
        let span_lo = tid * per_thread;
        let span_hi = ((tid + 1) * per_thread).min(n);
        let mut lo = span_lo;
        while lo < span_hi {
            let hi = (lo + grain).min(span_hi);
            w.push(Block { lo, hi });
            lo = hi;
        }
    }

    // Workers take ownership of their deque through an index; deques are
    // moved into a Vec of Options guarded per-tid.
    let slots: Vec<parking_lot::Mutex<Option<Worker<Block>>>> =
        workers.into_iter().map(|w| parking_lot::Mutex::new(Some(w))).collect();

    pool.run(|tid| {
        let local: Worker<Block> = slots[tid]
            .lock()
            .take()
            .expect("deque already taken: do_all_stealing re-entered with same tid");
        // Simple deterministic victim order: round-robin starting after tid.
        loop {
            if let Some(block) = local.pop() {
                for i in block.lo..block.hi {
                    f(i);
                }
                continue;
            }
            // Local deque empty: try to steal one block.
            let mut stolen = None;
            'victims: for off in 1..stealers.len() {
                let victim = (tid + off) % stealers.len();
                loop {
                    match stealers[victim].steal() {
                        Steal::Success(b) => {
                            cusp_obs::instant("steal", victim as u64);
                            stolen = Some(b);
                            break 'victims;
                        }
                        Steal::Retry => continue,
                        Steal::Empty => break,
                    }
                }
            }
            match stolen {
                Some(block) => {
                    for i in block.lo..block.hi {
                        f(i);
                    }
                }
                None => break,
            }
        }
        *slots[tid].lock() = Some(local);
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
