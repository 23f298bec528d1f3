//! Atomic per-vertex value arrays.
//!
//! Vertex values live in `AtomicU64` slots so local scatter loops can
//! update destination proxies from multiple threads: label-propagation
//! apps use `fetch_min`; pagerank accumulates `f64` contributions through
//! a compare-exchange loop on the bit pattern.

use std::sync::atomic::{AtomicU64, Ordering};

/// A shared array of `u64` vertex values.
pub struct U64Values {
    slots: Vec<AtomicU64>,
}

impl U64Values {
    /// Creates a new instance.
    pub fn new(n: usize, init: impl Fn(usize) -> u64) -> Self {
        U64Values {
            slots: (0..n).map(|i| AtomicU64::new(init(i))).collect(),
        }
    }

    #[inline]
    /// Reads slot `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.slots[i].load(Ordering::Relaxed)
    }

    #[inline]
    /// Writes slot `i`.
    pub fn set(&self, i: usize, v: u64) {
        self.slots[i].store(v, Ordering::Relaxed);
    }

    /// Lowers slot `i` to `min(current, v)`; returns true if it changed.
    #[inline]
    pub fn min_in(&self, i: usize, v: u64) -> bool {
        self.slots[i].fetch_min(v, Ordering::Relaxed) > v
    }

    /// Copies all values out (for snapshots).
    pub fn snapshot(&self) -> Vec<u64> {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).collect()
    }
}

/// A shared array of `f64` accumulators (bitwise CAS addition).
pub struct F64Accum {
    slots: Vec<AtomicU64>,
}

impl F64Accum {
    /// Creates a new instance.
    pub fn new(n: usize) -> Self {
        F64Accum {
            slots: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
        }
    }

    #[inline]
    /// Reads slot `i`.
    pub fn get(&self, i: usize) -> f64 {
        f64::from_bits(self.slots[i].load(Ordering::Relaxed))
    }

    /// Atomically adds `v` to slot `i`.
    #[inline]
    pub fn add(&self, i: usize, v: f64) {
        let slot = &self.slots[i];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match slot.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Resets every slot to zero.
    pub fn clear(&self) {
        for s in &self.slots {
            s.store(0f64.to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp_galois::{do_all, ThreadPool};

    #[test]
    fn u64_min_semantics() {
        let v = U64Values::new(3, |_| 100);
        assert!(v.min_in(0, 50));
        assert!(!v.min_in(0, 70), "raising must report no change");
        assert!(!v.min_in(0, 50), "equal must report no change");
        assert_eq!(v.get(0), 50);
        assert_eq!(v.get(1), 100);
    }

    #[test]
    fn u64_parallel_min_converges() {
        let pool = ThreadPool::new(4);
        let v = U64Values::new(1, |_| u64::MAX);
        do_all(&pool, 10_000, 16, |i| {
            v.min_in(0, (10_000 - i) as u64);
        });
        assert_eq!(v.get(0), 1);
    }

    #[test]
    fn f64_parallel_add_is_exact_for_representable_sums() {
        let pool = ThreadPool::new(4);
        let acc = F64Accum::new(2);
        do_all(&pool, 4096, 16, |_| {
            acc.add(0, 0.5);
        });
        assert_eq!(acc.get(0), 2048.0);
        assert_eq!(acc.get(1), 0.0);
        acc.clear();
        assert_eq!(acc.get(0), 0.0);
    }

    #[test]
    fn snapshot_copies() {
        let v = U64Values::new(3, |i| i as u64 * 7);
        assert_eq!(v.snapshot(), vec![0, 7, 14]);
    }
}
