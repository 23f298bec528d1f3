//! # cusp-net: a simulated distributed-memory cluster
//!
//! The CuSP paper runs on an MPI/LCI cluster (Stampede2, up to 128 hosts).
//! This crate substitutes an **in-process simulated cluster**: each host is
//! an OS thread, and hosts exchange [`Bytes`] messages through per-(host,
//! tag) mailboxes (a `std::sync::Mutex<VecDeque>` and a `Condvar` each).
//! The substitution preserves everything the paper's experiments measure
//! about communication:
//!
//! * algorithms are written SPMD against a private-memory API ([`Comm`]),
//!   exactly as they would be against MPI;
//! * every byte and message is accounted per *phase* and per *(src, dst)*
//!   pair ([`CommStats`]), so exhibits like Table V (data volume) are exact
//!   counts rather than estimates;
//! * message buffering (paper §IV-D3) is implemented for real in
//!   [`SendBuffers`] with a tunable flush threshold, so the Fig. 7 buffer
//!   sweep exercises the same mechanism;
//! * a configurable α–β [`NetworkModel`] converts the recorded traffic into
//!   *modeled* network time, letting time-shaped claims be checked even
//!   though thread channels are far faster than a real interconnect.
//!
//! ```
//! use cusp_net::{Cluster, Tag};
//!
//! // 4 hosts; each sends its rank to the next and sums what it received.
//! let out = Cluster::run(4, |comm| {
//!     let me = comm.host();
//!     let next = (me + 1) % comm.num_hosts();
//!     comm.send_bytes(next, Tag(0), vec![me as u8].into());
//!     let (_src, data) = comm.recv_any(Tag(0));
//!     data[0] as usize
//! });
//! assert_eq!(out.results.iter().sum::<usize>(), 0 + 1 + 2 + 3);
//! ```

#![warn(missing_docs)]

use std::sync::{LockResult, PoisonError};

pub mod buffer;
pub mod cluster;
pub mod collective;
pub mod fault;
pub mod model;
mod payload;
pub mod recovery;
mod replay;
pub mod serialize;
pub mod stats;
pub mod transport;

pub use buffer::SendBuffers;
pub use cluster::{
    Cluster, ClusterOptions, ClusterOutput, Comm, HostId, Tag, TcpRunOutput, TraceConfig, MAX_TAGS,
};
pub use fault::{CrashPlan, FaultPlan, FaultReport, KillDecision, KillMode, KillPlan};
pub use recovery::{ClusterError, NetCheckpoint, RecoveryOptions, RecoveryReport};
pub use model::NetworkModel;
pub use payload::Bytes;
pub use serialize::{
    decode_envelope, encode_envelope, EnvelopeError, WireEnvelope, WireError, WireReader,
    WireWriter, ENVELOPE_VERSION,
};
pub use stats::{CommStats, PhaseSnapshot, PhaseTraffic};
pub use transport::{RejectReason, TcpOptions, TcpTransport, TransportError, TCP_PROTOCOL_VERSION};

pub use collective::{
    all_gather_bytes, all_reduce_sum_f64, all_reduce_u64, all_reduce_vec_u64, ReduceOp,
};

/// Absorbs lock poisoning. A planned crash or a propagated host panic may
/// unwind a thread that holds a fabric, send-log, peer or stats lock; the
/// survivors must go on to see that original panic (or the lost host), not
/// a second `PoisonError` panic of their own. Every structure under these
/// locks is consistent between statements, so the guard is safe to use.
trait Unpoison<G> {
    fn unpoisoned(self) -> G;
}

impl<G> Unpoison<G> for LockResult<G> {
    #[inline]
    fn unpoisoned(self) -> G {
        self.unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Condvar, Mutex, RwLock};
    use std::time::Duration;

    use super::Unpoison;

    #[test]
    fn unpoisoned_returns_the_guard_after_a_holder_panicked() {
        let (m, rw) = (Mutex::new(7), RwLock::new(vec![1]));
        std::thread::scope(|s| {
            let held = s.spawn(|| {
                let (_m, _rw) = (m.lock().unwrap(), rw.write().unwrap());
                panic!("deliberate: poison both locks");
            });
            assert!(held.join().is_err());
        });
        assert!(m.is_poisoned() && rw.is_poisoned());
        *m.lock().unpoisoned() += 1;
        rw.write().unpoisoned().push(2);
        assert_eq!(*m.lock().unpoisoned(), 8);
        assert_eq!(*rw.read().unpoisoned(), [1, 2]);
        let cv = Condvar::new();
        let (g, timeout) = cv.wait_timeout(m.lock().unpoisoned(), Duration::ZERO).unpoisoned();
        assert!(timeout.timed_out());
        assert_eq!(*g, 8);
        drop(g);
        assert_eq!(m.into_inner().unpoisoned(), 8);
    }
}
