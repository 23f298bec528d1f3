//! A dense, concurrently markable bitset over node ids, one row per owner
//! (the `dense_bitset` idiom of the Hybrid Edge Partitioner), and the one
//! zeroed allocation it shares with the stored-master table.
//!
//! The edge walks collect *sets* of nodes — the destinations each owner
//! receives edges to, the off-host destinations whose masters must be
//! requested, and on the delta path the dirty roles and the kept-edge
//! destinations (those by a previous partition's local ids). Marking a bit
//! per edge and scanning the row afterwards yields the set sorted and
//! duplicate-free by construction, where a per-edge push list needs a
//! flatten, a sort and a dedup over every edge's entry. It also moves
//! membership tests off the edge: the walks mark unconditionally, and the
//! scan decides per set bit which destinations are mirrors.
//!
//! Both node-indexed structures — these rows and phase 2's
//! [`MasterTable`](crate::phases::master::MasterTable), a `u16` per node —
//! come from [`zeroed`]: one block straight from the allocator, so the ids
//! a host never touches cost address space, not pages.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};

use cusp_graph::Node;

mod sealed {
    /// Element types [`zeroed`](super::zeroed) may hand out: integer
    /// atomics, which have the bit validity of their integer, so all-zero
    /// bytes are a valid value. Sealed in this module, so nothing else can
    /// implement it.
    pub trait ZeroIsValid {}
    impl ZeroIsValid for super::AtomicU64 {}
    impl ZeroIsValid for super::AtomicU16 {}
}

/// `len` zeroed elements in one allocation. The block comes zeroed from
/// the allocator (fresh pages for a large one), so an element that is never
/// written costs address space, not a touched page.
pub(crate) fn zeroed<T: sealed::ZeroIsValid>(len: usize) -> Vec<T> {
    let layout = Layout::array::<T>(len).expect("zeroed table size overflows");
    if layout.size() == 0 {
        return Vec::new();
    }
    // SAFETY: `layout` has non-zero size. The block is allocated by the
    // global allocator with exactly the layout `Vec<T>` uses for capacity
    // `len`, and `T: ZeroIsValid` is an integer atomic, for which all-zero
    // bytes are a valid value — so all `len` elements are initialized.
    unsafe {
        let ptr = alloc_zeroed(layout).cast::<T>();
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        Vec::from_raw_parts(ptr, len, len)
    }
}

/// `rows` dense bitsets over the node range `0..n`, in one allocation of
/// `rows × ⌈n/64⌉` words.
pub(crate) struct NodeBitRows {
    words_per_row: usize,
    words: Vec<AtomicU64>,
}

impl NodeBitRows {
    /// All bits clear, from [`zeroed`]: a row that is never marked costs
    /// address space, not touched pages.
    pub(crate) fn new(rows: usize, n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        NodeBitRows { words_per_row, words: zeroed(rows * words_per_row) }
    }

    /// Sets bit `v` of `row`. Safe to call from any number of threads; a
    /// bit that is already set costs a load, not a locked write, so hub
    /// destinations do not bounce their cache line between workers.
    #[inline]
    pub(crate) fn mark(&self, row: usize, v: Node) {
        let word = &self.words[row * self.words_per_row + v as usize / 64];
        let bit = 1u64 << (v % 64);
        // Relaxed: a bit publishes no other data, and rows are only read
        // after the marking loop has been joined.
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Is bit `v` of `row` set? As with [`NodeBitRows::mark`], `v < n` is the
    /// caller's to guarantee (a larger `v` lands in the next row).
    #[inline]
    pub(crate) fn test(&self, row: usize, v: Node) -> bool {
        let word = &self.words[row * self.words_per_row + v as usize / 64];
        word.load(Ordering::Relaxed) & (1u64 << (v % 64)) != 0
    }

    /// The marked nodes of `row`, ascending.
    pub(crate) fn ones(&self, row: usize) -> impl Iterator<Item = Node> + '_ {
        let words = &self.words[row * self.words_per_row..(row + 1) * self.words_per_row];
        words.iter().enumerate().flat_map(|(w, word)| {
            let mut bits = word.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let v = (w * 64 + bits.trailing_zeros() as usize) as Node;
                    bits &= bits - 1;
                    v
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp_galois::ThreadPool;
    use std::sync::Barrier;

    #[test]
    fn word_edges_and_last_bit() {
        for n in [64usize, 65, 130, 200] {
            let b = NodeBitRows::new(2, n);
            let last = (n - 1) as Node;
            for v in [63, 0, last, 63] {
                b.mark(1, v);
            }
            if n > 64 {
                b.mark(1, 64);
            }
            let mut want = vec![0, 63];
            if n > 64 {
                want.push(64);
            }
            if last > 64 {
                want.push(last);
            }
            assert_eq!(b.ones(1).collect::<Vec<_>>(), want, "n = {n}");
            assert!(want.iter().all(|&v| b.test(1, v) && !b.test(0, v)), "n = {n}");
            assert!(!b.test(1, 1) && !b.test(1, 62), "n = {n}");
            assert_eq!(b.ones(0).count(), 0, "row 0 was never marked (n = {n})");
        }
    }

    #[test]
    fn iteration_is_ascending_and_duplicate_free() {
        let b = NodeBitRows::new(3, 1000);
        let marked: Vec<Node> = (0..1000u32).rev().filter(|v| v % 7 == 3 || v % 64 == 0).collect();
        for &v in marked.iter().chain(&marked) {
            b.mark(2, v);
        }
        let mut want = marked;
        want.sort_unstable();
        assert_eq!(b.ones(2).collect::<Vec<_>>(), want);
        assert_eq!(b.ones(0).count() + b.ones(1).count(), 0);
    }

    #[test]
    fn empty_shapes() {
        assert_eq!(NodeBitRows::new(0, 100).words.len(), 0);
        let b = NodeBitRows::new(4, 0);
        for row in 0..4 {
            assert_eq!(b.ones(row).count(), 0);
        }
    }

    #[test]
    fn concurrent_marks_from_two_pool_threads() {
        // Both workers hammer the same words (every node is marked by both,
        // in opposite directions); the barrier forces them to overlap.
        let n = 4096usize;
        let pool = ThreadPool::new(2);
        let b = NodeBitRows::new(2, n);
        let start = Barrier::new(2);
        pool.run(|tid| {
            start.wait();
            for i in 0..n {
                let v = if tid == 0 { i } else { n - 1 - i } as Node;
                b.mark(1, v);
                if v % 3 == tid as Node {
                    b.mark(0, v);
                }
            }
        });
        assert_eq!(b.ones(1).collect::<Vec<_>>(), (0..n as Node).collect::<Vec<_>>());
        let want: Vec<Node> = (0..n as Node).filter(|v| v % 3 < 2).collect();
        assert_eq!(b.ones(0).collect::<Vec<_>>(), want);
    }
}
