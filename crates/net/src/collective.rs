//! Collective operations built on point-to-point messages.
//!
//! Implemented as gather-to-root + broadcast so that (a) the traffic they
//! generate is visible to the byte accounting like any other message, and
//! (b) the results are bitwise deterministic (reduction order is fixed by
//! host id, independent of arrival order).

use crate::cluster::{Comm, Tag};
use crate::serialize::{WireReader, WireWriter};
use crate::Bytes;

/// Tags reserved for collectives. User code must not send on these.
pub const COLLECTIVE_TAG: Tag = Tag(30);
const ROOT: usize = 0;

/// Element-wise reduction operator for `u64` vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum, variant.
    Sum,
    /// Max, variant.
    Max,
    /// Min, variant.
    Min,
}

impl ReduceOp {
    #[inline]
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// All-reduce a single `u64`; every host returns the reduced value.
///
/// ```
/// use cusp_net::{all_reduce_u64, Cluster, ReduceOp};
/// let out = Cluster::run(3, |comm| {
///     all_reduce_u64(comm, ReduceOp::Max, comm.host() as u64 * 10)
/// });
/// assert_eq!(out.results, vec![20, 20, 20]);
/// ```
pub fn all_reduce_u64(comm: &Comm, op: ReduceOp, value: u64) -> u64 {
    all_reduce_vec_u64(comm, op, std::slice::from_ref(&value))[0]
}

/// All-reduce a `u64` vector element-wise; every host returns the reduced
/// vector. All hosts must pass the same length.
pub fn all_reduce_vec_u64(comm: &Comm, op: ReduceOp, values: &[u64]) -> Vec<u64> {
    let decode = |payload| WireReader::new(payload).get_u64_vec().expect("malformed collective payload");
    let encode = |values: &[u64]| {
        let mut w = WireWriter::new();
        w.put_u64_slice(values);
        w.finish()
    };
    decode(gather_broadcast(comm, encode(values), |payloads| {
        let mut payloads = payloads.into_iter().map(decode);
        let mut acc = payloads.next().expect("the root's own payload");
        for theirs in payloads {
            assert_eq!(theirs.len(), acc.len(), "all_reduce length mismatch between hosts");
            for (a, b) in acc.iter_mut().zip(theirs) {
                *a = op.apply(*a, b);
            }
        }
        encode(&acc)
    }))
}

/// All-reduce an `f64` by summation (used for residuals / scores), in host
/// order.
pub fn all_reduce_sum_f64(comm: &Comm, value: f64) -> f64 {
    let decode = |payload| WireReader::new(payload).get_f64().expect("malformed collective payload");
    let encode = |value| {
        let mut w = WireWriter::new();
        w.put_f64(value);
        w.finish()
    };
    decode(gather_broadcast(comm, encode(value), |payloads| {
        let mut payloads = payloads.into_iter().map(decode);
        let first = payloads.next().expect("the root's own payload");
        encode(payloads.fold(first, |acc, theirs| acc + theirs))
    }))
}

/// All-gather arbitrary byte blobs; returns one entry per host, indexed by
/// host id.
pub fn all_gather_bytes(comm: &Comm, mine: Bytes) -> Vec<Bytes> {
    let frame = gather_broadcast(comm, mine, |all| {
        // The concatenation, as a simple length-prefixed frame.
        let mut w = WireWriter::new();
        w.put_u64(all.len() as u64);
        for blob in &all {
            w.put_u64(blob.len() as u64);
            w.put_raw(blob);
        }
        w.finish()
    });
    parse_gather_frame(&frame).expect("malformed gather frame")
}

/// The one gather–broadcast under every collective. Each host but the
/// root sends it `mine` and waits for its answer; the root receives the
/// others' payloads in host order and sends each of them
/// `answer(payloads)`, where `payloads[h]` is host `h`'s (its own first:
/// the root is host 0). Every host returns the answer; a single host
/// answers its own payload and sends no message.
fn gather_broadcast(comm: &Comm, mine: Bytes, answer: impl FnOnce(Vec<Bytes>) -> Bytes) -> Bytes {
    if comm.host() != ROOT {
        comm.send_bytes(ROOT, COLLECTIVE_TAG, mine);
        return comm.recv_from(ROOT, COLLECTIVE_TAG);
    }
    let k = comm.num_hosts();
    let mut payloads = Vec::with_capacity(k);
    payloads.push(mine);
    payloads.extend((1..k).map(|src| comm.recv_from(src, COLLECTIVE_TAG)));
    let payload = answer(payloads);
    for dst in 1..k {
        comm.send_bytes(dst, COLLECTIVE_TAG, payload.clone());
    }
    payload
}

/// Checked parse of the root's length-prefixed gather frame. Every offset
/// is validated against the payload length before slicing, so a truncated
/// or corrupted frame yields an error instead of an out-of-bounds panic.
fn parse_gather_frame(payload: &Bytes) -> Result<Vec<Bytes>, crate::serialize::WireError> {
    let total = payload.len();
    let mut r = WireReader::new(payload.clone());
    let n = r.get_u64()? as usize;
    let mut offset = 8usize;
    let mut out = Vec::new();
    for _ in 0..n {
        let mut hdr = WireReader::new(payload.slice(offset.min(total)..));
        let len = hdr.get_u64()? as usize;
        offset += 8;
        let end = offset.checked_add(len).filter(|&e| e <= total).ok_or(
            crate::serialize::WireError {
                needed: len,
                available: total.saturating_sub(offset),
            },
        )?;
        out.push(payload.slice(offset..end));
        offset = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    #[test]
    fn all_reduce_sum() {
        let out = Cluster::run(6, |comm| {
            all_reduce_u64(comm, ReduceOp::Sum, comm.host() as u64 + 1)
        });
        assert!(out.results.iter().all(|&v| v == 21));
    }

    #[test]
    fn all_reduce_max_min() {
        let out = Cluster::run(4, |comm| {
            let mx = all_reduce_u64(comm, ReduceOp::Max, comm.host() as u64 * 7);
            let mn = all_reduce_u64(comm, ReduceOp::Min, comm.host() as u64 * 7 + 1);
            (mx, mn)
        });
        assert!(out.results.iter().all(|&(mx, mn)| mx == 21 && mn == 1));
    }

    #[test]
    fn all_reduce_vec_elementwise() {
        let out = Cluster::run(3, |comm| {
            let v = vec![comm.host() as u64, 10, 100 * comm.host() as u64];
            all_reduce_vec_u64(comm, ReduceOp::Sum, &v)
        });
        assert!(out.results.iter().all(|v| *v == vec![3, 30, 300]));
    }

    #[test]
    fn all_reduce_f64_sum() {
        let out = Cluster::run(4, |comm| all_reduce_sum_f64(comm, 0.25));
        assert!(out.results.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn all_gather_returns_indexed_blobs() {
        let out = Cluster::run(4, |comm| {
            let mine = Bytes::from(vec![comm.host() as u8; comm.host() + 1]);
            all_gather_bytes(comm, mine)
        });
        for host_result in &out.results {
            assert_eq!(host_result.len(), 4);
            for (h, blob) in host_result.iter().enumerate() {
                assert_eq!(blob.len(), h + 1);
                assert!(blob.iter().all(|&b| b == h as u8));
            }
        }
    }

    #[test]
    fn single_host_collectives_are_local() {
        let out = Cluster::run(1, |comm| {
            let s = all_reduce_u64(comm, ReduceOp::Sum, 5);
            let g = all_gather_bytes(comm, Bytes::from_static(b"x"));
            (s, g.len())
        });
        assert_eq!(out.results[0], (5, 1));
        assert_eq!(out.stats.grand_total_bytes(), 0);
    }

    #[test]
    fn malformed_gather_frames_are_errors_not_panics() {
        // A frame whose blob length points past the payload end.
        let mut w = WireWriter::new();
        w.put_u64(1); // one blob
        w.put_u64(100); // claims 100 bytes
        w.put_raw(b"only-9-by");
        assert!(parse_gather_frame(&w.finish()).is_err());
        // A frame truncated inside a blob header.
        let mut w = WireWriter::new();
        w.put_u64(2);
        w.put_u64(0);
        assert!(parse_gather_frame(&w.finish()).is_err());
        // A length that would overflow the offset arithmetic.
        let mut w = WireWriter::new();
        w.put_u64(1);
        w.put_u64(u64::MAX);
        assert!(parse_gather_frame(&w.finish()).is_err());
        // A well-formed frame still parses.
        let mut w = WireWriter::new();
        w.put_u64(2);
        w.put_u64(3);
        w.put_raw(b"abc");
        w.put_u64(0);
        let blobs = parse_gather_frame(&w.finish()).unwrap();
        assert_eq!(&*blobs[0], b"abc");
        assert!(blobs[1].is_empty());
    }

    #[test]
    fn collective_traffic_is_counted() {
        let out = Cluster::run(4, |comm| {
            comm.set_phase("collectives");
            all_reduce_u64(comm, ReduceOp::Sum, 1)
        });
        assert!(out.stats.phase("collectives").unwrap().total_bytes() > 0);
    }
}
