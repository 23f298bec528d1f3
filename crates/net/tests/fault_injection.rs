//! Chaos tests: the fabric under a seeded [`FaultPlan`] must stay
//! transparent to the application — FIFO order restored, duplicates
//! dropped, nothing lost — while the fault counters prove the chaos
//! actually fired, and everything replays deterministically per seed.

use cusp_net::{
    all_gather_bytes, all_reduce_u64, Bytes, Cluster, ClusterOptions, FaultPlan, ReduceOp, Tag,
    WireReader, WireWriter,
};

fn chaos_opts(seed: u64) -> ClusterOptions {
    ClusterOptions {
        fault: Some(FaultPlan::chaos(seed)),
        ..ClusterOptions::default()
    }
}

/// The environment seed for chaos runs (set by the CI chaos job), or a
/// fixed default.
fn env_seed() -> u64 {
    std::env::var("CUSP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

#[test]
fn fifo_restored_under_chaos() {
    let out = Cluster::run_with(2, chaos_opts(env_seed()), |comm| {
        if comm.host() == 0 {
            for i in 0..500u64 {
                let mut w = WireWriter::new();
                w.put_u64(i);
                comm.send_bytes(1, Tag(0), w.finish());
            }
            Vec::new()
        } else {
            (0..500)
                .map(|_| {
                    let (_s, b) = comm.recv_any(Tag(0));
                    WireReader::new(b).get_u64().unwrap()
                })
                .collect()
        }
    });
    assert_eq!(out.results[1], (0..500).collect::<Vec<u64>>());
    let report = out.faults.expect("fault plan was active");
    assert!(report.total() > 0, "chaos plan should have injected faults: {report:?}");
    assert!(report.delayed > 0, "expected delays: {report:?}");
    assert!(report.duplicated > 0, "expected duplicates: {report:?}");
}

#[test]
fn all_to_all_lossless_under_chaos() {
    const N: u64 = 300;
    let out = Cluster::run_with(4, chaos_opts(env_seed() ^ 1), |comm| {
        let me = comm.host();
        let k = comm.num_hosts();
        for i in 0..N {
            for peer in 0..k {
                if peer != me {
                    let mut w = WireWriter::new();
                    w.put_u64(me as u64 * 1_000_000 + i);
                    comm.send_bytes(peer, Tag(5), w.finish());
                }
            }
        }
        // Each host receives exactly N messages from each peer, in order.
        let mut per_src = vec![Vec::new(); k];
        for _ in 0..N as usize * (k - 1) {
            let (s, b) = comm.recv_any(Tag(5));
            per_src[s].push(WireReader::new(b).get_u64().unwrap());
        }
        per_src
    });
    for (me, per_src) in out.results.iter().enumerate() {
        for (s, vals) in per_src.iter().enumerate() {
            if s == me {
                continue;
            }
            let expect: Vec<u64> = (0..N).map(|i| s as u64 * 1_000_000 + i).collect();
            assert_eq!(vals, &expect, "host {me} saw corrupted stream from {s}");
        }
    }
    assert!(out.faults.unwrap().total() > 0);
}

#[test]
fn collectives_correct_under_chaos() {
    let out = Cluster::run_with(8, chaos_opts(env_seed() ^ 2), |comm| {
        let sum = all_reduce_u64(comm, ReduceOp::Sum, comm.host() as u64 + 1);
        let blobs = all_gather_bytes(comm, Bytes::from(vec![comm.host() as u8; 3]));
        comm.barrier();
        (sum, blobs.len(), blobs.iter().map(|b| b[0] as usize).sum::<usize>())
    });
    for r in &out.results {
        assert_eq!(*r, (36, 8, 28));
    }
}

#[test]
fn same_seed_replays_identical_stats() {
    let workload = |comm: &cusp_net::Comm| {
        comm.set_phase("flood");
        let me = comm.host();
        let k = comm.num_hosts();
        for i in 0..200u64 {
            let peer = (me + 1 + (i as usize % (k - 1))) % k;
            let mut w = WireWriter::new();
            w.put_u64(i);
            comm.send_bytes(peer, Tag(1), w.finish());
        }
        let mut sum = 0u64;
        for _ in 0..200 {
            let (_s, b) = comm.recv_any(Tag(1));
            sum = sum.wrapping_add(WireReader::new(b).get_u64().unwrap());
        }
        comm.barrier();
        sum
    };
    let a = Cluster::run_with(4, chaos_opts(99), workload);
    let b = Cluster::run_with(4, chaos_opts(99), workload);
    assert_eq!(a.results, b.results);
    assert_eq!(a.stats, b.stats, "same seed must replay identical CommStats");
    assert_eq!(a.faults, b.faults, "same seed must replay identical faults");
    // A different seed changes the injected faults (with overwhelming
    // probability at these message counts) but never the results.
    let c = Cluster::run_with(4, chaos_opts(100), workload);
    assert_eq!(a.results, c.results);
    assert_ne!(a.faults, c.faults);
}

#[test]
fn commstats_identical_with_and_without_faults() {
    let workload = |comm: &cusp_net::Comm| {
        comm.set_phase("exchange");
        let me = comm.host();
        let k = comm.num_hosts();
        for peer in 0..k {
            if peer != me {
                comm.send_bytes(peer, Tag(2), Bytes::from(vec![me as u8; 17 + me]));
            }
        }
        for _ in 0..k - 1 {
            comm.recv_any(Tag(2));
        }
        comm.barrier();
    };
    let clean = Cluster::run(4, workload);
    let chaotic = Cluster::run_with(4, chaos_opts(7), workload);
    // Sends are accounted at the application level and receives after
    // dedup/resequencing, so the fault layer is invisible to Table V
    // accounting.
    assert_eq!(clean.stats, chaotic.stats);
    assert!(chaotic.faults.unwrap().total() > 0);
}

#[test]
fn conservation_holds_under_chaos() {
    let out = Cluster::run_with(3, chaos_opts(env_seed() ^ 3), |comm| {
        comm.set_phase("busy");
        let me = comm.host();
        let k = comm.num_hosts();
        for i in 0..100u64 {
            for peer in 0..k {
                if peer != me {
                    let mut w = WireWriter::new();
                    w.put_u64(i);
                    comm.send_bytes(peer, Tag(6), w.finish());
                }
            }
        }
        for _ in 0..100 * (k - 1) {
            comm.recv_any(Tag(6));
        }
        comm.barrier();
    });
    assert!(
        out.stats.unconserved_phases().is_empty(),
        "duplicates/drops must not leak into conservation accounting"
    );
}

#[test]
fn recv_from_with_buffering_under_chaos() {
    let out = Cluster::run_with(3, chaos_opts(env_seed() ^ 4), |comm| {
        let me = comm.host();
        match me {
            0 | 1 => {
                for i in 0..80u64 {
                    let mut w = WireWriter::new();
                    w.put_u64(me as u64 * 100 + i);
                    comm.send_bytes(2, Tag(1), w.finish());
                }
                Vec::new()
            }
            _ => {
                // Drain host 1 first (host 0's stream must buffer), then
                // host 0; both must come out in send order.
                let mut all = Vec::new();
                for src in [1usize, 0] {
                    for _ in 0..80 {
                        let b = comm.recv_from(src, Tag(1));
                        all.push(WireReader::new(b).get_u64().unwrap());
                    }
                }
                all
            }
        }
    });
    let expect: Vec<u64> = (0..80).map(|i| 100 + i).chain(0..80).collect();
    assert_eq!(out.results[2], expect);
}

#[test]
fn quiet_plan_reports_zero_faults() {
    let out = Cluster::run_with(
        2,
        ClusterOptions {
            fault: Some(FaultPlan::quiet(1)),
            ..ClusterOptions::default()
        },
        |comm| {
            if comm.host() == 0 {
                comm.send_bytes(1, Tag(0), Bytes::from_static(b"hi"));
            } else {
                comm.recv_any(Tag(0));
            }
        },
    );
    assert_eq!(out.faults.unwrap().total(), 0);
}
