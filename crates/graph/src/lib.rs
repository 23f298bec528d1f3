//! # cusp-graph: graph representations, formats, and generators
//!
//! The substrate beneath the CuSP partitioner (paper §III-A): graphs live
//! on disk in Compressed Sparse Row (CSR) or Compressed Sparse Column (CSC)
//! form, hosts *range-read* contiguous, edge-balanced slices of the file,
//! and converters exist to and from edge lists.
//!
//! Because the paper's inputs (clueweb12, wdc12, …) are multi-terabyte web
//! crawls, this reproduction ships deterministic generators producing
//! scaled-down graphs with the same structural character:
//!
//! * [`fn@gen::kronecker::kronecker`] — the Graph500 Kronecker/RMAT generator with the
//!   paper's weights (0.57, 0.19, 0.19, 0.05), standing in for `kron30`;
//! * [`fn@gen::powerlaw::powerlaw`] — a preferential-attachment web-crawl analogue with
//!   tunable density and skew (heavy in-degree tail, bounded out-degree —
//!   the signature of Table III's crawls), standing in for `gsh15`,
//!   `clueweb12`, and `uk14`;
//! * [`gen::uniform`] — Erdős–Rényi graphs for tests.

#![warn(missing_docs)]

pub mod chunk;
pub mod csr;
pub mod degree;
pub mod dist;
pub mod edgelist;
pub mod file;
pub mod gen;
pub mod metis;
pub mod props;
pub mod wal;
pub mod wire;

pub use chunk::{chunk_boundaries, ChunkBacking, ChunkedSlice};
pub use csr::Csr;
pub use dist::{reading_split, ReadSplit};
pub use file::{
    read_bgr, read_bgr_any, read_bgr_weighted, write_bgr, write_bgr_weighted, RangeReader,
};
pub use props::GraphProps;
pub use wal::{ApplyError, BatchApplied, GraphEvent, Wal, WalError};

/// A vertex id in the *global* graph. `u32` supports graphs up to ~4.3 B
/// vertices, matching the paper's largest input (wdc12: 3.5 B vertices)
/// while halving the memory traffic of `u64` ids.
pub type Node = u32;

/// An edge index (edges can exceed `u32::MAX` even when nodes do not).
pub type EdgeIdx = u64;
pub use file::GraphSlice;

/// Edges per block of the work this crate spreads over threads: the draw
/// blocks of the block-parallel generators, and the least range
/// [`Csr::from_edges`] packs on a thread of its own. A constant of the
/// scheme, not a knob: no output depends on it.
pub(crate) const BLOCK: usize = 1 << 16;

/// The threads this crate's parallel work runs on: every core the process
/// may use.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `work` on every item: the first on the calling thread, each other
/// on a scoped thread of its own. A thread's panic is re-raised as it was.
pub(crate) fn on_threads<T: Send>(items: Vec<T>, work: impl Fn(T) + Sync) {
    let work = &work;
    std::thread::scope(|s| {
        let mut items = items.into_iter();
        let first = items.next();
        let others: Vec<_> = items.map(|item| s.spawn(move || work(item))).collect();
        if let Some(item) = first {
            work(item);
        }
        for thread in others {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}
