//! Failure-injection and stress tests for the simulated cluster: the
//! substrate must fail loudly (never hang, never corrupt) under host
//! panics, malformed payloads, tag interleavings, and heavy concurrency.

use cusp_net::{all_reduce_u64, Bytes, Cluster, ReduceOp, Tag, WireReader, WireWriter};

#[test]
fn panic_during_collective_does_not_hang() {
    let res = std::panic::catch_unwind(|| {
        Cluster::run(4, |comm| {
            if comm.host() == 2 {
                panic!("dies before joining the collective");
            }
            // Peers block inside the collective; the abort must free them.
            all_reduce_u64(comm, ReduceOp::Sum, 1)
        });
    });
    assert!(res.is_err());
}

#[test]
fn panic_at_barrier_does_not_hang() {
    let res = std::panic::catch_unwind(|| {
        Cluster::run(3, |comm| {
            if comm.host() == 0 {
                panic!("dies before the barrier");
            }
            comm.barrier();
        });
    });
    assert!(res.is_err());
}

#[test]
fn malformed_payload_fails_loudly_not_silently() {
    let res = std::panic::catch_unwind(|| {
        Cluster::run(2, |comm| {
            if comm.host() == 0 {
                // Claims a 1000-element vector but sends 4 bytes.
                let mut w = WireWriter::new();
                w.put_u64(1000);
                w.put_u32(1);
                comm.send_bytes(1, Tag(0), w.finish());
                0
            } else {
                let (_s, payload) = comm.recv_any(Tag(0));
                let mut r = WireReader::new(payload);
                r.get_u64_vec().expect("must underrun") .len()
            }
        });
    });
    assert!(res.is_err(), "truncated payload must be detected");
}

#[test]
fn truncated_bulk_run_fails_loudly_not_silently() {
    // Regression for the bulk decode paths (get_u32_into / skip): a header
    // that claims more elements than the payload carries must surface as an
    // error on the receiver, never an over-read.
    let res = std::panic::catch_unwind(|| {
        Cluster::run(2, |comm| {
            if comm.host() == 0 {
                let mut w = WireWriter::new();
                w.put_u32(10); // claims a 10-element raw run
                w.put_u32_raw_slice(&[1, 2]); // provides 2
                comm.send_bytes(1, Tag(0), w.finish());
                0
            } else {
                let (_s, payload) = comm.recv_any(Tag(0));
                let mut r = WireReader::new(payload);
                let n = r.get_u32().unwrap() as usize;
                let mut dst = vec![0u32; n];
                r.get_u32_into(&mut dst).expect("must underrun");
                dst.len()
            }
        });
    });
    assert!(res.is_err(), "truncated bulk run must be detected");
}

#[test]
fn truncated_skip_fails_loudly_not_silently() {
    let res = std::panic::catch_unwind(|| {
        Cluster::run(2, |comm| {
            if comm.host() == 0 {
                let mut w = WireWriter::new();
                w.put_u32(100); // record claims 100 u32s follow
                w.put_u32_raw_slice(&[7; 3]);
                comm.send_bytes(1, Tag(0), w.finish());
                0
            } else {
                let (_s, payload) = comm.recv_any(Tag(0));
                let mut r = WireReader::new(payload);
                let n = r.get_u32().unwrap() as usize;
                // Skip-scanning a truncated record must error, not advance
                // past the end of the buffer.
                r.skip(n * 4).expect("must underrun");
                0
            }
        });
    });
    assert!(res.is_err(), "truncated skip must be detected");
}

#[test]
fn heavy_concurrent_send_recv_is_lossless() {
    const N: u64 = 2_000;
    let out = Cluster::run(6, |comm| {
        let me = comm.host();
        let k = comm.num_hosts();
        // Everyone floods everyone (including late receivers).
        for round in 0..N {
            let mut w = WireWriter::new();
            w.put_u64(me as u64 * N + round);
            comm.send_bytes((me + 1 + (round as usize % (k - 1))) % k, Tag(3), w.finish());
        }
        // Everyone receives exactly N messages (each host sends N, spread
        // uniformly over peers — with 6 hosts each sends 400 to each of 5
        // peers, so each receives 400 × 5 = N).
        let mut sum = 0u64;
        for _ in 0..N {
            let (_s, payload) = comm.recv_any(Tag(3));
            sum = sum.wrapping_add(WireReader::new(payload).get_u64().unwrap());
        }
        sum
    });
    // Conservation: the grand total of received values equals the grand
    // total of sent values.
    let total_received: u64 = out.results.iter().fold(0u64, |a, &b| a.wrapping_add(b));
    let total_sent: u64 = (0..6u64).fold(0u64, |a, me| {
        (0..N).fold(a, |a, r| a.wrapping_add(me * N + r))
    });
    assert_eq!(total_received, total_sent);
}

#[test]
fn interleaved_tags_with_buffered_recv_from() {
    // A host reads tag A from a specific peer while tag-B and other-peer
    // traffic piles up; nothing may be lost or misdelivered.
    let out = Cluster::run(3, |comm| {
        let me = comm.host();
        match me {
            0 => {
                for i in 0..50u64 {
                    let mut w = WireWriter::new();
                    w.put_u64(i);
                    comm.send_bytes(2, Tag(1), w.finish());
                    let mut w = WireWriter::new();
                    w.put_u64(1000 + i);
                    comm.send_bytes(2, Tag(2), w.finish());
                }
                0
            }
            1 => {
                for i in 0..50u64 {
                    let mut w = WireWriter::new();
                    w.put_u64(2000 + i);
                    comm.send_bytes(2, Tag(1), w.finish());
                }
                0
            }
            _ => {
                let mut sum = 0u64;
                // Drain host 1's tag-1 stream first (buffers host 0's).
                for _ in 0..50 {
                    let p = comm.recv_from(1, Tag(1));
                    sum += WireReader::new(p).get_u64().unwrap();
                }
                // Then host 0's tag-2, then host 0's tag-1.
                for _ in 0..50 {
                    let p = comm.recv_from(0, Tag(2));
                    sum += WireReader::new(p).get_u64().unwrap();
                }
                for _ in 0..50 {
                    let p = comm.recv_from(0, Tag(1));
                    sum += WireReader::new(p).get_u64().unwrap();
                }
                sum
            }
        }
    });
    let expect: u64 = (0..50).sum::<u64>() // host 0, tag 1
        + (0..50).map(|i| 1000 + i).sum::<u64>()
        + (0..50).map(|i| 2000 + i).sum::<u64>();
    assert_eq!(out.results[2], expect);
}

#[test]
fn zero_byte_messages_are_delivered() {
    let out = Cluster::run(2, |comm| {
        if comm.host() == 0 {
            comm.send_bytes(1, Tag(0), Bytes::new());
            0
        } else {
            let (_s, p) = comm.recv_any(Tag(0));
            p.len()
        }
    });
    assert_eq!(out.results[1], 0);
}

#[test]
fn stats_survive_heavy_phase_switching() {
    let out = Cluster::run(4, |comm| {
        for phase in 0..20 {
            comm.set_phase(&format!("phase-{phase}"));
            let next = (comm.host() + 1) % comm.num_hosts();
            comm.send_bytes(next, Tag(0), Bytes::from(vec![0u8; phase + 1]));
            comm.recv_any(Tag(0));
            comm.barrier();
        }
    });
    for phase in 0..20usize {
        let p = out.stats.phase(&format!("phase-{phase}")).unwrap();
        assert_eq!(p.total_messages(), 4);
        assert_eq!(p.total_bytes(), 4 * (phase as u64 + 1));
    }
}
