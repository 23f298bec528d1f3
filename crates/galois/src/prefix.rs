//! Two-pass parallel prefix sums (CuSP paper §IV-C2).
//!
//! Pass 1: each thread sums a contiguous block. The block totals are then
//! scanned sequentially (there are only `threads` of them). Pass 2: each
//! thread re-reads its block, writing running sums offset by its block's
//! scanned base. No fine-grained synchronization is needed because the
//! blocks are disjoint.

// The explicit `for i in 0..n` indexing in the SPMD/scan loops below is
// deliberate (it mirrors per-host/per-block protocol structure).
#![allow(clippy::needless_range_loop)]

use crate::pool::ThreadPool;

/// A `Send + Sync` wrapper for a raw mutable slice pointer, used to let each
/// pool worker write its own disjoint block of the output in pass 2.
struct SlicePtr<T>(*mut T);
unsafe impl<T: Send> Send for SlicePtr<T> {}
unsafe impl<T: Send> Sync for SlicePtr<T> {}

impl<T> SlicePtr<T> {
    /// Accessor so closures capture the `Sync` wrapper, not the raw field.
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

fn block_bounds(len: usize, blocks: usize, b: usize) -> (usize, usize) {
    let per = len.div_ceil(blocks);
    let lo = (b * per).min(len);
    let hi = ((b + 1) * per).min(len);
    (lo, hi)
}

/// Computes the **exclusive** prefix sum of `input` into `out` in parallel
/// and returns the grand total.
///
/// `out[i] = input[0] + ... + input[i-1]`, `out[0] = 0`.
///
/// # Panics
/// Panics if `out.len() != input.len()`.
pub fn exclusive_prefix_sum(pool: &ThreadPool, input: &[u64], out: &mut [u64]) -> u64 {
    assert_eq!(input.len(), out.len(), "output length mismatch");
    let n = input.len();
    if n == 0 {
        return 0;
    }
    let threads = pool.threads();
    // Sequential fallback for small inputs where the two extra passes and
    // pool dispatch cost more than they save.
    if n < 4096 || threads == 1 {
        let mut running = 0u64;
        for i in 0..n {
            out[i] = running;
            running += input[i];
        }
        return running;
    }

    // Pass 1: per-block sums.
    let mut block_sums = vec![0u64; threads];
    {
        let sums_ptr = SlicePtr(block_sums.as_mut_ptr());
        pool.run(|tid| {
            let (lo, hi) = block_bounds(n, threads, tid);
            let s: u64 = input[lo..hi].iter().sum();
            // SAFETY: each tid writes only its own index.
            unsafe { *sums_ptr.get().add(tid) = s };
        });
    }

    // Scan the block sums sequentially.
    let mut bases = vec![0u64; threads];
    let mut running = 0u64;
    for b in 0..threads {
        bases[b] = running;
        running += block_sums[b];
    }
    let total = running;

    // Pass 2: write scanned values per block.
    {
        let out_ptr = SlicePtr(out.as_mut_ptr());
        let bases = &bases;
        pool.run(|tid| {
            let (lo, hi) = block_bounds(n, threads, tid);
            let mut acc = bases[tid];
            for i in lo..hi {
                // SAFETY: blocks are disjoint; each index written once.
                unsafe { *out_ptr.get().add(i) = acc };
                acc += input[i];
            }
        });
    }
    total
}

/// Replaces `data` with its **inclusive** prefix sum in place, in parallel,
/// and returns the grand total. `data[i] = original[0..=i].sum()`.
pub fn inclusive_prefix_sum_in_place(pool: &ThreadPool, data: &mut [u64]) -> u64 {
    let n = data.len();
    if n == 0 {
        return 0;
    }
    let threads = pool.threads();
    if n < 4096 || threads == 1 {
        let mut running = 0u64;
        for x in data.iter_mut() {
            running += *x;
            *x = running;
        }
        return running;
    }

    let mut block_sums = vec![0u64; threads];
    {
        let sums_ptr = SlicePtr(block_sums.as_mut_ptr());
        let data_ref: &[u64] = data;
        pool.run(|tid| {
            let (lo, hi) = block_bounds(n, threads, tid);
            let s: u64 = data_ref[lo..hi].iter().sum();
            unsafe { *sums_ptr.get().add(tid) = s };
        });
    }
    let mut bases = vec![0u64; threads];
    let mut running = 0u64;
    for b in 0..threads {
        bases[b] = running;
        running += block_sums[b];
    }
    let total = running;
    {
        let data_ptr = SlicePtr(data.as_mut_ptr());
        let bases = &bases;
        pool.run(|tid| {
            let (lo, hi) = block_bounds(n, threads, tid);
            let mut acc = bases[tid];
            for i in lo..hi {
                // SAFETY: blocks are disjoint.
                unsafe {
                    acc += *data_ptr.get().add(i);
                    *data_ptr.get().add(i) = acc;
                }
            }
        });
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_exclusive(input: &[u64]) -> (Vec<u64>, u64) {
        let mut out = vec![0u64; input.len()];
        let mut run = 0u64;
        for (i, &x) in input.iter().enumerate() {
            out[i] = run;
            run += x;
        }
        (out, run)
    }

    #[test]
    fn matches_reference_small() {
        let pool = ThreadPool::new(4);
        let input: Vec<u64> = (0..100).map(|i| (i * 7 + 3) % 13).collect();
        let mut out = vec![0; input.len()];
        let total = exclusive_prefix_sum(&pool, &input, &mut out);
        let (expect, expect_total) = reference_exclusive(&input);
        assert_eq!(out, expect);
        assert_eq!(total, expect_total);
    }

    #[test]
    fn matches_reference_large() {
        let pool = ThreadPool::new(4);
        let input: Vec<u64> = (0..100_000).map(|i| (i * 2654435761u64) % 97).collect();
        let mut out = vec![0; input.len()];
        let total = exclusive_prefix_sum(&pool, &input, &mut out);
        let (expect, expect_total) = reference_exclusive(&input);
        assert_eq!(out, expect);
        assert_eq!(total, expect_total);
    }

    #[test]
    fn empty_input() {
        let pool = ThreadPool::new(2);
        let mut out: Vec<u64> = vec![];
        assert_eq!(exclusive_prefix_sum(&pool, &[], &mut out), 0);
    }

    /// The in-place inclusive sum builds allocation's CSR offsets from row
    /// counts stored at `offsets[1..]`, so it is checked on every path —
    /// the sequential fallback (one thread, or fewer than 4096 elements),
    /// its edge, and uneven parallel blocks — against the sequential
    /// reference, and against the exclusive sum shifted by one place.
    #[test]
    fn inclusive_in_place_over_threads_and_lengths() {
        for threads in 1..=4 {
            let pool = ThreadPool::new(threads);
            for n in [0, 1, 4095, 4096, 4097, 100_003] {
                let counts: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 61).collect();
                let (exclusive, want_total) = reference_exclusive(&counts);
                let inclusive: Vec<u64> = exclusive.iter().zip(&counts).map(|(e, c)| e + c).collect();

                let mut data = counts.clone();
                let total = inclusive_prefix_sum_in_place(&pool, &mut data);
                assert_eq!(data, inclusive, "threads {threads}, n {n}");
                assert_eq!(total, want_total, "threads {threads}, n {n}");

                // Row counts at offsets[1..], summed in place, are the
                // offsets the exclusive sum gives, shifted by one place.
                let mut offsets = vec![0u64; n + 1];
                offsets[1..].copy_from_slice(&counts);
                let total = inclusive_prefix_sum_in_place(&pool, &mut offsets[1..]);
                let mut out = vec![0u64; n];
                let ex_total = exclusive_prefix_sum(&pool, &counts, &mut out);
                assert_eq!(out, exclusive, "threads {threads}, n {n}");
                assert_eq!(total, ex_total, "threads {threads}, n {n}");
                out.push(ex_total);
                assert_eq!(offsets, out, "threads {threads}, n {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0u64; 3];
        let _ = exclusive_prefix_sum(&pool, &[1, 2], &mut out);
    }

    #[test]
    fn all_zeros() {
        let pool = ThreadPool::new(3);
        let input = vec![0u64; 10_000];
        let mut out = vec![1u64; 10_000];
        let total = exclusive_prefix_sum(&pool, &input, &mut out);
        assert_eq!(total, 0);
        assert!(out.iter().all(|&x| x == 0));
    }
}
