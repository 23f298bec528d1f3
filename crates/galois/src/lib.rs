//! # cusp-galois: shared-memory parallel runtime
//!
//! A small, self-contained reimplementation of the pieces of the Galois
//! system [Nguyen et al., SOSP'13] that CuSP's partitioning phases rely on
//! (paper §IV-C):
//!
//! * [`ThreadPool`] — a persistent pool of worker threads, one per core.
//! * [`fn@do_all::do_all`] / [`do_all_with_tid`] — parallel iteration over an index
//!   range with *guided dynamic chunking*: threads that finish early keep
//!   fetching work, which load-balances skewed per-item costs.
//! * [`do_all_stealing`] — a work-stealing executor (per-worker deques from
//!   `vendor/crossbeam`'s stand-in: mutex-guarded `VecDeque`s, not
//!   Chase–Lev) for very irregular loops such as per-vertex edge
//!   serialization, where a single high-degree vertex can dominate.
//! * [`prefix`] — two-pass parallel prefix sums (paper §IV-C2), used to
//!   compact sparse per-vertex count vectors without fine-grained
//!   synchronization.
//! * [`PerThread`] — per-thread storage so that threads can count/collect
//!   without sharing cache lines.
//!
//! The pool is deliberately *not* global: in the CuSP reproduction each
//! simulated host owns its own pool, mirroring one multi-core machine in a
//! cluster.
//!
//! ```
//! use cusp_galois::{do_all_with_tid, PerThread, ThreadPool};
//!
//! let pool = ThreadPool::new(4);
//! let sums: PerThread<u64> = PerThread::new(&pool, |_| 0);
//! do_all_with_tid(&pool, 1000, 16, |tid, i| sums.with(tid, |s| *s += i as u64));
//! assert_eq!(sums.into_inner().iter().sum::<u64>(), (0..1000u64).sum());
//! ```

#![warn(missing_docs)]

pub mod accum;
pub mod do_all;
pub mod pool;
pub mod prefix;
pub mod steal;

pub use accum::PerThread;
pub use do_all::{do_all, do_all_items, do_all_with_tid};
pub use pool::ThreadPool;
pub use prefix::{exclusive_prefix_sum, inclusive_prefix_sum_in_place};
pub use steal::do_all_stealing;

/// Default grain size (items per chunk lower bound) for `do_all` loops over
/// vertices. Chosen so chunk dispatch overhead stays well under 1% for
/// sub-microsecond loop bodies.
pub const DEFAULT_GRAIN: usize = 64;
