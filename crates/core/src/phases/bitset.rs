//! A dense bitset over node ids, one row per owner (the `dense_bitset`
//! idiom of the Hybrid Edge Partitioner), the per-thread copies the
//! parallel edge walks mark, and the one zeroed allocation phase 2's
//! stored-master table comes from.
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
//! A row is plain words and a mark is one unconditional `|=`: no locked
//! read-modify-write and no test of the bit first. A parallel walk gives
//! every pool thread rows of its own ([`ThreadRows`]) and ORs them together
//! once the walk has joined, which costs `threads − 1` more copies of the
//! rows per host and one pass over their words.
//!
//! Rows come from `vec![0; _]`, and phase 2's
//! [`MasterTable`](crate::phases::master::MasterTable), a `u16` per node,
//! from [`zeroed`]: both are one block straight from the zeroing allocator,
//! so the ids a host never touches cost address space, not pages.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::sync::atomic::AtomicU16;

use cusp_galois::{PerThread, ThreadPool};
use cusp_graph::Node;

mod sealed {
    /// Element types [`zeroed`](super::zeroed) may hand out: integer
    /// atomics, which have the bit validity of their integer, so all-zero
    /// bytes are a valid value. Sealed in this module, so nothing else can
    /// implement it.
    pub trait ZeroIsValid {}
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
    words: Vec<u64>,
}

impl NodeBitRows {
    /// All bits clear. `vec![0; _]` allocates zeroed, so a row that is
    /// never marked costs address space, not touched pages.
    pub(crate) fn new(rows: usize, n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        NodeBitRows { words_per_row, words: vec![0; rows * words_per_row] }
    }

    /// Sets bit `v` of `row`: one unconditional `|=`, so a walk may mark a
    /// destination per edge without a branch on what the word held.
    /// `v < n` is the caller's to guarantee (a larger `v` lands in the
    /// next row, or past the last one and panics).
    #[inline]
    pub(crate) fn mark(&mut self, row: usize, v: Node) {
        self.words[row * self.words_per_row + v as usize / 64] |= 1u64 << (v % 64);
    }

    /// Is bit `v` of `row` set? As with [`NodeBitRows::mark`], `v < n` is the
    /// caller's to guarantee.
    #[inline]
    pub(crate) fn test(&self, row: usize, v: Node) -> bool {
        self.words[row * self.words_per_row + v as usize / 64] & (1u64 << (v % 64)) != 0
    }

    /// ORs every row of `other`, which has the same shape, into this one.
    pub(crate) fn union(&mut self, other: &NodeBitRows) {
        assert_eq!(
            (self.words_per_row, self.words.len()),
            (other.words_per_row, other.words.len()),
            "union of differently shaped bit rows"
        );
        for (word, &theirs) in self.words.iter_mut().zip(&other.words) {
            *word |= theirs;
        }
    }

    /// The marked nodes of `row`, ascending.
    pub(crate) fn ones(&self, row: usize) -> impl Iterator<Item = Node> + '_ {
        let words = &self.words[row * self.words_per_row..(row + 1) * self.words_per_row];
        words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
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

/// [`NodeBitRows`] of one shape, one copy per pool thread: a parallel walk
/// marks its worker's own copy ([`ThreadRows::with`], under
/// `do_all_with_tid`), and [`ThreadRows::union`] ORs the copies together
/// once the walk has joined.
pub(crate) struct ThreadRows(PerThread<NodeBitRows>);

impl ThreadRows {
    /// `pool.threads()` copies of `NodeBitRows::new(rows, n)`.
    pub(crate) fn new(pool: &ThreadPool, rows: usize, n: usize) -> Self {
        ThreadRows(PerThread::new(pool, |_| NodeBitRows::new(rows, n)))
    }

    /// Runs `f` on worker `tid`'s rows, under [`PerThread::with`]'s
    /// contract: no two threads use one `tid` at once, which
    /// `do_all_with_tid` guarantees.
    #[inline]
    pub(crate) fn with<R>(&self, tid: usize, f: impl FnOnce(&mut NodeBitRows) -> R) -> R {
        self.0.with(tid, f)
    }

    /// Every worker's marks, in one set of rows.
    pub(crate) fn union(self) -> NodeBitRows {
        let mut copies = self.0.into_inner().into_iter();
        let mut all = copies.next().expect("a pool has at least one thread");
        for rows in copies {
            all.union(&rows);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn word_edges_and_last_bit() {
        for n in [64usize, 65, 130, 200] {
            let mut b = NodeBitRows::new(2, n);
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
        let mut b = NodeBitRows::new(3, 1000);
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
    fn union_ors_row_by_row() {
        let (mut a, mut b) = (NodeBitRows::new(2, 130), NodeBitRows::new(2, 130));
        for v in [0, 64, 129] {
            a.mark(0, v);
        }
        for v in [64, 65, 1] {
            b.mark(0, v);
        }
        b.mark(1, 100);
        a.union(&b);
        assert_eq!(a.ones(0).collect::<Vec<_>>(), [0, 1, 64, 65, 129]);
        assert_eq!(a.ones(1).collect::<Vec<_>>(), [100]);
    }

    #[test]
    fn per_thread_rows_from_two_pool_threads_union_to_the_serial_rows() {
        // Both workers mark the same words (every node is marked by both,
        // in opposite directions), each into its own rows; the barrier
        // forces them to overlap. Their union is the rows one thread
        // marking everything serially gets.
        let n = 4096usize;
        let pool = ThreadPool::new(2);
        let rows = ThreadRows::new(&pool, 2, n);
        let start = Barrier::new(2);
        let mark = |b: &mut NodeBitRows, tid: usize, i: usize| {
            let v = if tid == 0 { i } else { n - 1 - i } as Node;
            b.mark(1, v);
            if v % 3 == tid as Node {
                b.mark(0, v);
            }
        };
        pool.run(|tid| {
            start.wait();
            rows.with(tid, |b| (0..n).for_each(|i| mark(b, tid, i)));
        });
        let mut serial = NodeBitRows::new(2, n);
        for tid in 0..2 {
            (0..n).for_each(|i| mark(&mut serial, tid, i));
        }
        let union = rows.union();
        assert_eq!(union.words, serial.words);
        assert_eq!(union.ones(1).collect::<Vec<_>>(), (0..n as Node).collect::<Vec<_>>());
        let want: Vec<Node> = (0..n as Node).filter(|v| v % 3 < 2).collect();
        assert_eq!(union.ones(0).collect::<Vec<_>>(), want);
    }
}
