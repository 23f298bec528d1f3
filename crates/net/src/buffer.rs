//! Buffered message aggregation (paper §IV-D3).
//!
//! During graph construction CuSP serializes a vertex id plus its edges per
//! record, but does **not** send each record immediately: records destined
//! to the same host accumulate in a per-destination buffer that is flushed
//! once it crosses a size threshold. Larger buffers mean fewer messages and
//! less per-message overhead; the evaluation (Fig. 7) sweeps this threshold
//! from 0 (send immediately) upward.

use crate::cluster::{Comm, HostId, Tag};
use crate::serialize::WireWriter;

/// Per-destination send buffers with a flush threshold in bytes.
///
/// A threshold of `0` sends every record as its own message (the paper's
/// "0 MB" configuration).
pub struct SendBuffers {
    buffers: Vec<WireWriter>,
    threshold: usize,
    /// Capacity re-reserved in a writer right after each flush. Taking a
    /// payload moves the writer's buffer out and leaves it empty — and the
    /// [`Bytes::from`](crate::Bytes::from) a `Vec<u8>` does not adopt that buffer: it
    /// allocates an `Arc<[u8]>`, copies the payload into it and frees the
    /// original, so every flush costs one allocation and one memcpy of the
    /// payload on top of this one. Without the re-reserve the next record
    /// would also regrow the buffer from zero through the doubling sequence.
    /// Capped at `threshold.min(1 << 20)`: threshold-0 runs keep it at 0
    /// (every record becomes a message and leaves an empty writer behind,
    /// so there is nothing worth pre-reserving), and huge thresholds don't
    /// pin a giant buffer per destination.
    retain: usize,
    tag: Tag,
}

impl SendBuffers {
    /// Creates buffers for each of `hosts` destinations, flushed at
    /// `threshold` bytes, sent under `tag`.
    pub fn new(hosts: usize, threshold: usize, tag: Tag) -> Self {
        let retain = threshold.min(1 << 20);
        SendBuffers {
            buffers: (0..hosts).map(|_| WireWriter::with_capacity(retain)).collect(),
            // Normalized once so the per-record hot path is a plain compare:
            // threshold 0 ("send immediately") behaves identically to 1
            // because every non-empty record is at least one byte.
            threshold: threshold.max(1),
            retain,
            tag,
        }
    }

    /// Appends one record for `dst`, built by `write`, flushing if the
    /// buffer crosses the threshold.
    pub fn record(&mut self, comm: &Comm, dst: HostId, write: impl FnOnce(&mut WireWriter)) {
        let buf = &mut self.buffers[dst];
        write(buf);
        if buf.len() >= self.threshold {
            self.flush(comm, dst);
        }
    }

    /// Flushes any remaining data for every destination.
    pub fn flush_all(&mut self, comm: &Comm) {
        for dst in 0..self.buffers.len() {
            if !self.buffers[dst].is_empty() {
                self.flush(comm, dst);
            }
        }
    }

    /// Sends `dst`'s non-empty buffer as one message.
    fn flush(&mut self, comm: &Comm, dst: HostId) {
        let buf = &mut self.buffers[dst];
        let payload = buf.take();
        buf.reserve(self.retain);
        comm.send_bytes(dst, self.tag, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::serialize::WireReader;

    /// Sends `n` records of one u64 each from host 0 to host 1 with the
    /// given threshold; returns the messages the stats counted and each
    /// payload host 1 received, as the values it carries.
    fn run(n: u64, threshold: usize) -> (u64, Vec<Vec<u64>>) {
        let out = Cluster::run(2, move |comm| {
            comm.set_phase("buffered");
            let mut payloads = Vec::new();
            if comm.host() == 0 {
                let mut bufs = SendBuffers::new(2, threshold, Tag(5));
                for i in 0..n {
                    bufs.record(comm, 1, |w| w.put_u64(i));
                }
                bufs.flush_all(comm);
            } else {
                // Receiver drains until it has all n records.
                let mut got = 0;
                while got < n {
                    let (_src, payload) = comm.recv_any(Tag(5));
                    let mut r = WireReader::new(payload);
                    let mut values = Vec::new();
                    while !r.is_exhausted() {
                        values.push(r.get_u64().unwrap());
                    }
                    got += values.len() as u64;
                    payloads.push(values);
                }
            }
            comm.barrier();
            payloads
        });
        let msgs = out.stats.phase("buffered").unwrap().total_messages();
        (msgs, out.results.into_iter().nth(1).unwrap())
    }

    #[test]
    fn zero_threshold_sends_per_record() {
        let (msgs, payloads) = run(50, 0);
        assert_eq!(msgs, 50);
        assert_eq!(payloads, (0..50).map(|i| vec![i]).collect::<Vec<_>>());
    }

    #[test]
    fn large_threshold_sends_one_message() {
        let (msgs, payloads) = run(50, 1 << 20);
        assert_eq!(msgs, 1);
        assert_eq!(payloads, [(0..50).collect::<Vec<u64>>()]);
    }

    #[test]
    fn intermediate_threshold_batches() {
        // 50 records × 8 bytes = 400 bytes; threshold 100 → flush roughly
        // every 13 records (first append crossing 100 triggers), plus tail.
        let (msgs, payloads) = run(50, 100);
        assert!(msgs > 1 && msgs < 50, "got {msgs} messages");
        assert_eq!(payloads.concat(), (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn flush_all_with_no_data_sends_nothing() {
        let out = Cluster::run(2, |comm| {
            comm.set_phase("idle");
            let mut bufs = SendBuffers::new(2, 64, Tag(1));
            bufs.flush_all(comm);
            comm.barrier();
        });
        assert_eq!(out.stats.phase("idle").unwrap().total_messages(), 0);
    }

    #[test]
    fn capacity_is_retained_across_flushes() {
        let out = Cluster::run(2, |comm| {
            if comm.host() == 0 {
                let mut bufs = SendBuffers::new(2, 128, Tag(3));
                for i in 0..200u64 {
                    bufs.record(comm, 1, |w| w.put_u64(i));
                }
                // After at least one flush, the writer must hold its
                // retained capacity without a record having regrown it.
                let cap = bufs.buffers[1].capacity();
                bufs.flush_all(comm);
                cap
            } else {
                // Messages received.
                let (mut got, mut msgs) = (0, 0);
                while got < 200 {
                    got += comm.recv_any(Tag(3)).1.len() / 8;
                    msgs += 1;
                }
                msgs
            }
        });
        let (cap, msgs) = (out.results[0], out.results[1]);
        assert!(msgs > 1, "{msgs} message(s)");
        assert!(cap >= 128, "retained capacity {cap} < threshold 128");
    }

    #[test]
    fn zero_threshold_retains_nothing() {
        let out = Cluster::run(2, |comm| {
            if comm.host() == 0 {
                let mut bufs = SendBuffers::new(2, 0, Tag(4));
                for i in 0..5u64 {
                    bufs.record(comm, 1, |w| w.put_u64(i));
                }
                bufs.flush_all(comm);
                bufs.buffers[1].capacity()
            } else {
                for _ in 0..5 {
                    let _ = comm.recv_any(Tag(4));
                }
                usize::MAX
            }
        });
        assert_eq!(out.results[0], 0, "threshold-0 buffers must not pin capacity");
    }

    #[test]
    fn a_record_flushes_where_its_buffer_crosses_the_threshold() {
        // 13 records of 8 bytes cross 100: three flushes, then the tail.
        let (msgs, payloads) = run(50, 100);
        let bytes: Vec<usize> = payloads.iter().map(|p| 8 * p.len()).collect();
        assert_eq!((msgs, bytes), (4, vec![104, 104, 104, 88]));
    }

    #[test]
    fn record_counting() {
        let (msgs, payloads) = run(7, 1 << 16);
        assert_eq!((msgs, payloads), (1, vec![(0..7).collect()]));
    }
}
