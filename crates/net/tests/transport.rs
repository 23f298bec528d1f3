//! Behavior-level battery for the TCP transport: the same SPMD functions
//! run over real sockets (every "host" here is a thread owning its own
//! fabric + TcpTransport, exactly like a worker process would) and must be
//! indistinguishable from the in-process simulator above the transport
//! line — same results, same per-phase conservation, same fault-injection
//! decisions, and typed `HostLost` instead of hangs when a peer dies.

use std::net::TcpListener;

use cusp_net::{
    Bytes, Cluster, ClusterError, ClusterOptions, Comm, FaultPlan, FaultReport, Tag, TcpOptions,
    TcpRunOutput, TcpTransport,
};

/// Establishes a full `n`-host mesh over loopback, all endpoints in this
/// process. Mirrors what `cusp-part launch` does across processes.
fn mesh(n: usize, nonce: u64, opts: TcpOptions) -> Vec<TcpTransport> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let peers: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect();
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let peers = peers.clone();
            std::thread::spawn(move || {
                TcpTransport::establish(i, l, &peers, nonce, opts).expect("establish")
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("no panic")).collect()
}

/// Runs `f` SPMD over a TCP mesh with the default [`TcpOptions`], one
/// thread per host, and collects each host's output.
fn run_tcp<R, F>(n: usize, opts: ClusterOptions, f: F) -> Vec<Result<TcpRunOutput<R>, ClusterError>>
where
    R: Send + 'static,
    F: Fn(&Comm) -> R + Clone + Send + 'static,
{
    run_tcp_with(n, opts, TcpOptions::default(), f)
}

fn run_tcp_with<R, F>(
    n: usize,
    opts: ClusterOptions,
    tcp: TcpOptions,
    f: F,
) -> Vec<Result<TcpRunOutput<R>, ClusterError>>
where
    R: Send + 'static,
    F: Fn(&Comm) -> R + Clone + Send + 'static,
{
    let handles: Vec<_> = mesh(n, 0xC0FFEE, tcp)
        .into_iter()
        .map(|t| {
            let f = f.clone();
            std::thread::spawn(move || Cluster::try_run_tcp(t, opts, |comm| f(comm)))
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("host thread panicked")).collect()
}

#[test]
fn ring_exchange_over_tcp_matches_simulator() {
    let app = |comm: &Comm| {
        comm.set_phase("ring");
        let me = comm.host();
        let k = comm.num_hosts();
        let mut w = cusp_net::WireWriter::new();
        w.put_u64(me as u64 * 100);
        comm.send_bytes((me + 1) % k, Tag(1), w.finish());
        let data = comm.recv_from((me + k - 1) % k, Tag(1));
        comm.barrier();
        cusp_net::WireReader::new(data).get_u64().unwrap()
    };
    let sim = Cluster::run(4, app);
    // With rejoin on and no death, no dial is ever redialed.
    for rejoin in [false, true] {
        let opts = TcpOptions { rejoin, ..TcpOptions::default() };
        let tcp = run_tcp_with(4, ClusterOptions::default(), opts, app);
        let tcp: Vec<_> = tcp.into_iter().map(|r| r.expect("clean run")).collect();
        let results: Vec<u64> = tcp.iter().map(|o| o.result).collect();
        assert_eq!(results, sim.results);
        assert_eq!(tcp.iter().map(|o| o.rejoins).sum::<u64>(), 0, "rejoin {rejoin}");

        // Conservation across the merged matrices: each sender's send cells
        // must equal the corresponding receiver's recv cells, exactly as the
        // simulator's single shared collector guarantees.
        let sim_phase = sim.stats.phase("ring").unwrap();
        for src in 0..4 {
            for dst in 0..4 {
                let sent = tcp[src].stats.phase("ring").unwrap().bytes_between(src, dst);
                let recvd = tcp[dst].stats.phase("ring").unwrap().recv_bytes_between(src, dst);
                assert_eq!(sent, recvd, "conservation {src}->{dst}");
                assert_eq!(sent, sim_phase.bytes_between(src, dst), "sim equality {src}->{dst}");
            }
        }
    }
}

#[test]
fn self_sends_stay_uncounted_over_tcp() {
    // The loopback path now rides the wire codec; the accounting contract
    // (self-sends are not network traffic) must be unchanged.
    let out = run_tcp(2, ClusterOptions::default(), |comm| {
        comm.set_phase("only");
        comm.send_bytes(comm.host(), Tag(0), Bytes::from(vec![1u8; 64]));
        let (src, b) = comm.recv_any(Tag(0));
        comm.barrier();
        (src, b.len())
    });
    for (h, r) in out.into_iter().enumerate() {
        let o = r.expect("clean run");
        assert_eq!(o.result, (h, 64));
        assert_eq!(o.stats.phase("only").unwrap().total_bytes(), 0);
    }
}

#[test]
fn barriers_deliver_all_prior_traffic_over_tcp() {
    // The simulator guarantees that traffic sent before a barrier is in
    // the destination mailboxes once the barrier releases; per-connection
    // FIFO ordering of BARRIER frames must preserve that over TCP.
    let out = run_tcp(3, ClusterOptions::default(), |comm| {
        comm.set_phase("burst");
        let me = comm.host();
        let k = comm.num_hosts();
        for peer in (0..k).filter(|&p| p != me) {
            for i in 0..20u64 {
                let mut w = cusp_net::WireWriter::new();
                w.put_u64(me as u64 * 1000 + i);
                comm.send_bytes(peer, Tag(2), w.finish());
            }
        }
        comm.barrier();
        // After the barrier, everything is already here: non-blocking
        // receives must drain all 40 messages without ever waiting.
        let mut got = 0;
        while comm.try_recv_any(Tag(2)).is_some() {
            got += 1;
        }
        comm.barrier();
        got
    });
    for r in out {
        assert_eq!(r.expect("clean run").result, 40);
    }
}

#[test]
fn seeded_faults_decide_identically_over_tcp() {
    // chaos plan: delays/duplicates/drops keyed by (seed, src, dst, tag,
    // seq). Over TCP the receiver's reader thread evaluates the decisions;
    // over the simulator the sender side does. Same pure function, same
    // channels, same sequences → the per-message outcomes and the summed
    // fault counters must match exactly.
    let app = |comm: &Comm| {
        comm.set_phase("chaos");
        let me = comm.host();
        let k = comm.num_hosts();
        for peer in (0..k).filter(|&p| p != me) {
            for i in 0..30u64 {
                let mut w = cusp_net::WireWriter::new();
                w.put_u64(me as u64 * 1_000 + i);
                comm.send_bytes(peer, Tag(0), w.finish());
            }
        }
        let mut sum = 0u64;
        for _ in 0..(k - 1) * 30 {
            let (_src, b) = comm.recv_any(Tag(0));
            sum += cusp_net::WireReader::new(b).get_u64().unwrap();
        }
        comm.barrier();
        sum
    };
    let opts = ClusterOptions { fault: Some(FaultPlan::chaos(5)), ..ClusterOptions::default() };
    let sim = Cluster::run_with(3, opts, app);
    let tcp: Vec<_> = run_tcp(3, opts, app)
        .into_iter()
        .map(|r| r.expect("clean run"))
        .collect();

    // FIFO + resequencer dedup give byte-identical application results.
    assert_eq!(tcp.iter().map(|o| o.result).collect::<Vec<_>>(), sim.results);

    // The injected-fault counters, summed over every host's receive side,
    // equal the simulator's single global report.
    let sim_faults = sim.faults.expect("fault plan armed");
    let mut tcp_faults = FaultReport::default();
    for o in &tcp {
        let f = o.faults.expect("fault plan armed");
        tcp_faults.delayed += f.delayed;
        tcp_faults.duplicated += f.duplicated;
    }
    assert_eq!(tcp_faults, sim_faults);
    assert!(sim_faults.total() > 0, "chaos(5) must actually inject");
}

#[test]
fn peer_panic_over_tcp_is_host_lost_for_survivors() {
    let transports = mesh(3, 0xDEAD, TcpOptions::default());
    let handles: Vec<_> = transports
        .into_iter()
        .map(|t| {
            std::thread::spawn(move || {
                let me = t.host();
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    Cluster::try_run_tcp(t, ClusterOptions::default(), |comm| {
                        comm.set_phase("doomed");
                        if comm.host() == 1 {
                            panic!("deliberate failure on host 1");
                        }
                        // Survivors block on traffic that never comes; the
                        // transport must unwind them instead of hanging.
                        comm.recv_any(Tag(0));
                    })
                }));
                (me, run)
            })
        })
        .collect();
    for h in handles {
        let (me, run) = h.join().expect("test thread panicked");
        match me {
            1 => assert!(run.is_err(), "host 1's own panic propagates"),
            _ => {
                let res = run.expect("survivors do not panic");
                match res {
                    Err(ClusterError::HostLost { host: 1, restarts: 0 }) => {}
                    Err(e) => panic!("host {me}: wanted HostLost for host 1, got {e}"),
                    Ok(_) => panic!("host {me} must not complete"),
                }
            }
        }
    }
}

#[test]
fn clean_fin_teardown_loses_nothing() {
    // Host 0 floods and finishes immediately; host 1 consumes slowly.
    // FIN + the drain window must hand host 1 every message even though
    // host 0's function returned long before host 1 read them.
    const N: u64 = 500;
    let out = run_tcp(2, ClusterOptions::default(), |comm| {
        comm.set_phase("flood");
        if comm.host() == 0 {
            for i in 0..N {
                let mut w = cusp_net::WireWriter::new();
                w.put_u64(i);
                comm.send_bytes(1, Tag(3), w.finish());
            }
            0 // returns without any closing barrier
        } else {
            let mut sum = 0u64;
            for _ in 0..N {
                let (_s, b) = comm.recv_any(Tag(3));
                sum += cusp_net::WireReader::new(b).get_u64().unwrap();
            }
            sum
        }
    });
    let results: Vec<u64> = out.into_iter().map(|r| r.expect("clean run").result).collect();
    assert_eq!(results, vec![0, N * (N - 1) / 2]);
}
