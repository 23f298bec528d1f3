//! Micro-probes of single layers, run only in the traced pass: each calls
//! one layer's public functions directly, on a 2-thread pool or a 2- or
//! 4-host cluster, over inputs that do not depend on the workload. Their
//! rows say what a layer can do on this machine; the run rows say what a
//! workload made it do. Each probe reports the median of a few
//! repetitions.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cusp::{CuspConfig, DistGraph, GraphSource, PolicyKind};
use cusp_dgalois::{bfs, pagerank, PageRankConfig, SyncPlan};
use cusp_galois::{do_all, do_all_stealing, exclusive_prefix_sum, ThreadPool};
use cusp_graph::wal::{encode_batch, Wal};
use cusp_graph::{ChunkBacking, ChunkedSlice, Csr, GraphSlice, RangeReader};
use cusp_net::{
    all_reduce_vec_u64, Cluster, ClusterOptions, Comm, ReduceOp, Tag, TcpOptions, TcpTransport,
    WireReader, WireWriter,
};
use cusp_serve::{CacheTier, Request, Response};

use crate::inputs::{self, Scratch};
use crate::ops::{self, HOSTS};
use crate::report::Report;
use crate::serve_mix::{partitioned, Served, GRAPH, POLICY, TENANT};
use crate::stats;
use crate::{spans, Ctx};

/// Repetitions of a probe whose one run takes milliseconds or more.
const REPS: usize = 5;
/// A tag no library protocol uses.
const PROBE_TAG: Tag = Tag(29);
const STREAM_MSG_BYTES: usize = 256 << 10;

fn time_s(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn reps_s(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps).map(|_| time_s(&mut f)).collect()
}

/// Every probe, each under a span of its own.
pub fn run_all(ctx: &Ctx, report: &mut Report) {
    spans::set_op(0);
    let _all = spans::span("probes");
    let scratch = match Scratch::create(&ctx.scratch_base, &format!("{}-probes", report.workload)) {
        Ok(s) => s,
        Err(e) => {
            report.attempt(1);
            report.fail(format!("probe scratch dir: {e}"));
            return;
        }
    };
    let graph = Arc::new(inputs::web(
        ctx.sizes.probe_nodes,
        inputs::sub_seed(ctx.seed, 7),
    ));
    println!(
        "probe sizes: graph {} nodes {} edges ({} MB as .bgr) | arrays {} elements | {} messages",
        graph.num_nodes(),
        graph.num_edges(),
        (graph.num_nodes() * 8 + graph.num_edges() as usize * 4) / 1_000_000,
        ctx.sizes.probe_items,
        ctx.sizes.probe_msgs
    );
    let mut probe = |name: &'static str, f: &mut dyn FnMut(&mut Report) -> Result<(), String>| {
        let _s = spans::span(name);
        report.attempt(1);
        if let Err(e) = f(report) {
            report.fail(format!("{name}: {e}"));
        }
    };
    probe("probe_graph", &mut |r| {
        graph_probes(ctx, &scratch, &graph, r)
    });
    probe("probe_galois", &mut |r| galois_probes(ctx, r));
    probe("probe_codec", &mut |r| codec_probes(ctx, r));
    probe("probe_net_sim", &mut |r| net_probes(ctx, r, false));
    probe("probe_net_tcp", &mut |r| net_probes(ctx, r, true));
    probe("probe_storage", &mut |r| {
        storage_probes(&scratch, &graph, r)
    });
    probe("probe_serve", &mut |r| serve_probes(ctx, &scratch, r));
    probe("probe_obs", &mut |r| obs_probes(ctx, r));
}

// ---- cusp-graph --------------------------------------------------------

fn graph_probes(
    ctx: &Ctx,
    scratch: &Scratch,
    graph: &Csr,
    report: &mut Report,
) -> Result<(), String> {
    let path = scratch.path("probe.bgr");
    inputs::write_bgr(&path, graph).map_err(|e| format!("write: {e}"))?;
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let n = graph.num_nodes() as u64;

    // One host's quarter, the way the monolithic file reader gets it.
    let mut slice = GraphSlice::empty();
    let mut mbps = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let mut reader = RangeReader::open(&path).map_err(io)?;
        let ends = reader.read_end_offsets().map_err(io)?;
        reader.read_range_into(0, n / 4, &mut slice).map_err(io)?;
        let bytes = ends.len() * 8 + slice.heap_bytes() as usize;
        mbps.push(bytes as f64 / 1e6 / t.elapsed().as_secs_f64());
    }
    report.samples("graph.range_read_mbps", "MB/s", &mbps);

    // The whole file as a stream of bounded chunks.
    let mut chunk_us = Vec::new();
    let mut chunk_mbps = Vec::new();
    for _ in 0..REPS {
        let mut reader = RangeReader::open(&path).map_err(io)?;
        let ends = reader.read_end_offsets().map_err(io)?;
        let mut offsets = Vec::with_capacity(ends.len() + 1);
        offsets.push(0);
        offsets.extend_from_slice(&ends);
        let t = Instant::now();
        let mut chunks = ChunkedSlice::new(
            ChunkBacking::File(reader),
            0,
            n as u32,
            offsets,
            0,
            ctx.sizes.chunk_edges,
        );
        for i in 0..chunks.num_chunks() {
            let c = Instant::now();
            black_box(chunks.load_chunk(i).num_edges());
            chunk_us.push(c.elapsed().as_secs_f64() * 1e6);
        }
        chunk_mbps.push(graph.num_edges() as f64 * 4.0 / 1e6 / t.elapsed().as_secs_f64());
    }
    report.samples("graph.chunk_load_mbps", "MB/s", &chunk_mbps);
    report.samples("graph.chunk_load_p50_us", "us", &chunk_us);

    let file_mb = std::fs::metadata(&path).map_err(io)?.len() as f64 / 1e6;
    let read = reps_s(REPS, || {
        black_box(
            cusp_graph::read_bgr(&path)
                .expect("probe file reads back")
                .num_edges(),
        );
    });
    report.samples(
        "graph.read_bgr_mbps",
        "MB/s",
        &read.iter().map(|s| file_mb / s).collect::<Vec<_>>(),
    );

    // The write path of a mutation: apply in memory, append to the WAL.
    let batch = inputs::batch(graph, 0.005, inputs::sub_seed(ctx.seed, 8));
    let apply = reps_s(REPS, || {
        black_box(
            graph
                .apply_batch(None, &batch)
                .expect("seeded batch applies")
                .graph
                .num_edges(),
        );
    });
    report.samples(
        "graph.apply_batch_ms",
        "ms",
        &apply.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    let wal = Wal::new(scratch.path("probe.wal"));
    let wal_mb = encode_batch(&batch).len() as f64 / 1e6;
    let mut append = Vec::new();
    for _ in 0..REPS {
        wal.clear().map_err(|e| format!("wal clear: {e}"))?;
        let t = Instant::now();
        wal.append(&batch).map_err(|e| format!("wal append: {e}"))?;
        append.push(wal_mb / t.elapsed().as_secs_f64());
    }
    report.samples("graph.wal_append_mbps", "MB/s", &append);
    Ok(())
}

// ---- cusp-galois -------------------------------------------------------

/// A few dependent multiplications per unit of cost; opaque to the
/// optimiser.
fn spin(cost: u32) -> u64 {
    let mut x = cost as u64 | 1;
    for _ in 0..cost {
        x = black_box(x).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 29);
    }
    x
}

fn galois_probes(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let pool = ThreadPool::new(2);
    let n = ctx.sizes.probe_items;

    let calls = (ctx.sizes.probe_msgs / 4).max(16);
    let fork_join = reps_s(REPS, || {
        for _ in 0..calls {
            pool.run(|tid| {
                black_box(tid);
            });
        }
    });
    report.samples(
        "galois.fork_join_ns",
        "ns",
        &fork_join
            .iter()
            .map(|s| s * 1e9 / calls as f64)
            .collect::<Vec<_>>(),
    );

    let trivial = reps_s(REPS, || {
        do_all(&pool, n, 1024, |i| {
            black_box(i);
        })
    });
    report.samples(
        "galois.do_all_mitems_s",
        "Mitems/s",
        &trivial
            .iter()
            .map(|s| n as f64 / 1e6 / s)
            .collect::<Vec<_>>(),
    );

    // Equal total work, laid out evenly or Zipf-skewed with the heavy
    // items first: with perfect stealing the two take the same time.
    let items = (n >> 8).max(256);
    let zipf: Vec<u32> = (0..items).map(|i| (items * 16 / (i + 1)) as u32).collect();
    let total: u64 = zipf.iter().map(|&c| c as u64).sum();
    let even = (total / items as u64) as u32;
    let skewed = reps_s(REPS, || {
        do_all_stealing(&pool, items, 16, |i| {
            black_box(spin(zipf[i]));
        })
    });
    let uniform = reps_s(REPS, || {
        do_all_stealing(&pool, items, 16, |_| {
            black_box(spin(even));
        })
    });
    report.value(
        "galois.steal_skew_ratio",
        "ratio",
        stats::median(&skewed) / stats::median(&uniform),
    );

    let input: Vec<u64> = (0..n as u64).map(|i| i & 7).collect();
    let mut out = vec![0u64; n];
    let prefix = reps_s(REPS, || {
        black_box(exclusive_prefix_sum(&pool, &input, &mut out));
    });
    report.samples(
        "galois.prefix_sum_melems_s",
        "Melems/s",
        &prefix
            .iter()
            .map(|s| n as f64 / 1e6 / s)
            .collect::<Vec<_>>(),
    );
    Ok(())
}

// ---- cusp-net: codec -----------------------------------------------------

fn codec_probes(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let n = (ctx.sizes.probe_items >> 4).max(1 << 10);
    let u32s: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let u64s: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mbps = |bytes: usize, secs: Vec<f64>| {
        secs.iter()
            .map(|s| bytes as f64 / 1e6 / s)
            .collect::<Vec<_>>()
    };

    let mut w = WireWriter::with_capacity(n * 8);
    let enc32 = reps_s(REPS, || {
        w.put_u32_raw_slice(&u32s);
        black_box(w.take());
    });
    report.samples("net.codec_u32_enc_mbps", "MB/s", &mbps(n * 4, enc32));
    let enc64 = reps_s(REPS, || {
        w.put_u64_raw_slice(&u64s);
        black_box(w.take());
    });
    report.samples("net.codec_u64_enc_mbps", "MB/s", &mbps(n * 8, enc64));

    w.put_u32_raw_slice(&u32s);
    let payload32 = w.take();
    let mut out32 = vec![0u32; n];
    let mut failed = false;
    let dec32 = reps_s(REPS, || {
        failed |= WireReader::new(payload32.clone())
            .get_u32_into(&mut out32)
            .is_err();
        black_box(out32[n - 1]);
    });
    report.samples("net.codec_u32_dec_mbps", "MB/s", &mbps(n * 4, dec32));
    w.put_u64_raw_slice(&u64s);
    let payload64 = w.take();
    let mut out64 = vec![0u64; n];
    let dec64 = reps_s(REPS, || {
        failed |= WireReader::new(payload64.clone())
            .get_u64_into(&mut out64)
            .is_err();
        black_box(out64[n - 1]);
    });
    report.samples("net.codec_u64_dec_mbps", "MB/s", &mbps(n * 8, dec64));
    if failed || out32 != u32s || out64 != u64s {
        return Err("codec round trip changed the data".into());
    }
    Ok(())
}

// ---- cusp-net: transports -------------------------------------------------

/// What host 0 measured inside one probe cluster.
#[derive(Clone, Copy, Default)]
struct NetTimes {
    rtt_ns: f64,
    stream_mbps: f64,
    barrier_ns: f64,
    allreduce_us: f64,
}

/// The closure every host of a probe cluster runs: ping-pong and one-way
/// stream between hosts 0 and 1, then barriers and all-reduces among all.
fn net_body(
    comm: &Comm,
    pings: usize,
    stream_msgs: usize,
    barriers: usize,
    reduces: usize,
) -> NetTimes {
    let me = comm.host();
    let small = {
        let mut w = WireWriter::with_capacity(8);
        w.put_u64(0xC05B);
        w.finish()
    };
    let big = {
        let mut w = WireWriter::with_capacity(STREAM_MSG_BYTES);
        w.put_raw(&vec![0xA5u8; STREAM_MSG_BYTES]);
        w.finish()
    };
    let mut out = NetTimes::default();
    comm.barrier();
    let t = Instant::now();
    for _ in 0..pings {
        match me {
            0 => {
                comm.send_bytes(1, PROBE_TAG, small.clone());
                black_box(comm.recv_from(1, PROBE_TAG));
            }
            1 => {
                black_box(comm.recv_from(0, PROBE_TAG));
                comm.send_bytes(0, PROBE_TAG, small.clone());
            }
            _ => {}
        }
    }
    out.rtt_ns = t.elapsed().as_secs_f64() * 1e9 / pings.max(1) as f64;
    comm.barrier();
    let t = Instant::now();
    match me {
        0 => {
            for _ in 0..stream_msgs {
                comm.send_bytes(1, PROBE_TAG, big.clone());
            }
            // The receiver's acknowledgement closes the interval.
            black_box(comm.recv_from(1, PROBE_TAG));
        }
        1 => {
            for _ in 0..stream_msgs {
                black_box(comm.recv_from(0, PROBE_TAG).len());
            }
            comm.send_bytes(0, PROBE_TAG, small.clone());
        }
        _ => {}
    }
    out.stream_mbps = (stream_msgs * STREAM_MSG_BYTES) as f64 / 1e6 / t.elapsed().as_secs_f64();
    comm.barrier();
    let t = Instant::now();
    for _ in 0..barriers {
        comm.barrier();
    }
    out.barrier_ns = t.elapsed().as_secs_f64() * 1e9 / barriers.max(1) as f64;
    let words = vec![me as u64; 4096];
    let t = Instant::now();
    for _ in 0..reduces {
        black_box(all_reduce_vec_u64(comm, ReduceOp::Sum, &words));
    }
    out.allreduce_us = t.elapsed().as_secs_f64() * 1e6 / reduces.max(1) as f64;
    out
}

/// Establishes a loopback mesh of `HOSTS` threads, runs `body` on every
/// host and returns host 0's result with the time establishment took.
fn tcp_cluster<R: Send>(nonce: u64, body: impl Fn(&Comm) -> R + Sync) -> Result<(R, f64), String> {
    let (listeners, peers) = ops::loopback_listeners(HOSTS)?;
    let started = Instant::now();
    let results: Vec<Result<(R, f64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(h, listener)| {
                let (peers, body) = (&peers, &body);
                scope.spawn(move || {
                    let transport =
                        TcpTransport::establish(h, listener, peers, nonce, TcpOptions::default())
                            .map_err(|e| format!("establish: {e}"))?;
                    let established_s = started.elapsed().as_secs_f64();
                    Cluster::try_run_tcp(transport, ClusterOptions::default(), body)
                        .map(|out| (out.result, established_s))
                        .map_err(|e| format!("tcp run: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("tcp probe host panicked".into()))
            })
            .collect()
    });
    let mut first = None;
    let mut established_s: f64 = 0.0;
    for (h, r) in results.into_iter().enumerate() {
        let (value, est) = r?;
        established_s = established_s.max(est);
        if h == 0 {
            first = Some(value);
        }
    }
    Ok((first.expect("host 0 ran"), established_s))
}

fn net_probes(ctx: &Ctx, report: &mut Report, tcp: bool) -> Result<(), String> {
    // A loopback round trip costs several times a simulated one; fewer of
    // them keep the two probes about equally long.
    let pings = if tcp {
        (ctx.sizes.probe_msgs / 4).max(16)
    } else {
        ctx.sizes.probe_msgs
    };
    let stream = (ctx.sizes.probe_msgs / 10).max(8);
    let barriers = (pings / 4).max(8);
    if tcp {
        let mut establish_ms = Vec::new();
        let mut times = NetTimes::default();
        for rep in 0..3 {
            let nonce = inputs::sub_seed(ctx.seed, 500 + rep);
            // The body runs once, on the middle repetition's mesh; the
            // other meshes only time establishment.
            let (t, est) = if rep == 1 {
                tcp_cluster(nonce, |c| net_body(c, pings, stream, barriers, 0))?
            } else {
                tcp_cluster(nonce, |_| NetTimes::default())?
            };
            if rep == 1 {
                times = t;
            }
            establish_ms.push(est * 1e3);
        }
        report.samples("net.tcp_establish_ms", "ms", &establish_ms);
        report.value("net.tcp_rtt_ns", "ns", times.rtt_ns);
        report.value("net.tcp_stream_mbps", "MB/s", times.stream_mbps);
        report.value("net.barrier_tcp_ns", "ns", times.barrier_ns);
    } else {
        let reduces = (pings / 100).max(4);
        let out = Cluster::run(HOSTS, |c| net_body(c, pings, stream, barriers, reduces));
        let times = out.results[0];
        report.value("net.sim_rtt_ns", "ns", times.rtt_ns);
        report.value("net.sim_stream_mbps", "MB/s", times.stream_mbps);
        report.value("net.barrier_sim_ns", "ns", times.barrier_ns);
        report.value("net.allreduce_sim_us", "us", times.allreduce_us);
    }
    Ok(())
}

// ---- cusp (core): partition storage ---------------------------------------

fn storage_probes(scratch: &Scratch, graph: &Arc<Csr>, report: &mut Report) -> Result<(), String> {
    let src = GraphSource::Memory(Arc::clone(graph));
    let op = ops::sim_partition(&src, PolicyKind::Cvc, &CuspConfig::default(), HOSTS, false);
    // Small enough for the library's hash-map oracle to run beside the
    // benchmark's linear one.
    if let Some(v) = crate::partition_workloads::verify_op(graph, &op).first() {
        return Err(format!("probe partition is not valid: {v}"));
    }
    let parts = op.parts;
    let paths: Vec<_> = (0..parts.len())
        .map(|h| scratch.path(&format!("probe-{h}.part")))
        .collect();
    let mut write = Vec::new();
    let mut read = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for (p, dg) in paths.iter().zip(&parts) {
            cusp::write_partition(p, dg).map_err(|e| format!("write_partition: {e}"))?;
        }
        let w = t.elapsed().as_secs_f64();
        let mb: f64 = paths.iter().map(|p| file_mb(p)).sum();
        write.push(mb / w);
        let t = Instant::now();
        let back: Vec<DistGraph> = paths
            .iter()
            .map(|p| cusp::read_partition(p).map_err(|e| format!("read_partition: {e}")))
            .collect::<Result<_, _>>()?;
        read.push(mb / t.elapsed().as_secs_f64());
        if cusp::partition_fingerprint(&back) != cusp::partition_fingerprint(&parts) {
            return Err("partition read back differs from the one written".into());
        }
    }
    report.samples("core.write_partition_mbps", "MB/s", &write);
    report.samples("core.read_partition_mbps", "MB/s", &read);
    Ok(())
}

fn file_mb(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1e6)
}

// ---- cusp-serve ------------------------------------------------------------

fn serve_probes(ctx: &Ctx, scratch: &Scratch, report: &mut Report) -> Result<(), String> {
    let mut served = Served::start(
        ctx.sizes.probe_nodes,
        inputs::sub_seed(ctx.seed, 7),
        scratch.path("probe-serve-data"),
    )?;
    report.value(
        "serve.upload_mbps",
        "MB/s",
        served.upload_bytes() / 1e6 / served.upload_s,
    );
    let request = || Request::Partition {
        tenant: TENANT.into(),
        graph: GRAPH.into(),
        policy: POLICY.into(),
        hosts: HOSTS as u32,
        chunk_edges: 0,
    };
    let tier_of = |r: Response| partitioned(Ok(r)).map(|(_, tier, _)| tier);
    let client = &mut served.clients[0];
    let cold = client
        .request(&request())
        .map_err(|e| format!("cold: {e}"))?;
    if tier_of(cold)? != CacheTier::Cold {
        return Err("first request was not cold".into());
    }

    // The same memory-tier hit through the socket and through the router.
    let n = ctx.sizes.hits_per_client * 2;
    let mut wire_us = Vec::with_capacity(n);
    let mut router_us = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let r = client
            .request(&request())
            .map_err(|e| format!("hit: {e}"))?;
        wire_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let direct = served.state.handle(request());
        router_us.push(t.elapsed().as_secs_f64() * 1e6);
        if tier_of(r)? != CacheTier::Memory || tier_of(direct)? != CacheTier::Memory {
            return Err("hit was not served from memory".into());
        }
    }
    // What the socket adds to a hit; the client-observed hit, disk-hit and
    // apply latencies themselves are `serve_mix`'s own rows.
    report.samples("serve.router_hit_p50_us", "us", &router_us);
    report.value(
        "serve.wire_overhead_us",
        "us",
        stats::median(&wire_us) - stats::median(&router_us),
    );
    served.stop();
    Ok(())
}

// ---- cusp-obs ----------------------------------------------------------------

fn obs_probes(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let n = ctx.sizes.probe_items >> 5;
    let spans_ns = |secs: Vec<f64>| secs.iter().map(|s| s * 1e9 / n as f64).collect::<Vec<_>>();
    let off = reps_s(REPS, || {
        for _ in 0..n {
            black_box(cusp_obs::span("probe_span"));
        }
    });
    report.samples("obs.span_off_ns", "ns", &spans_ns(off));
    let recorder = cusp_obs::Recorder::new();
    let guard = recorder.attach(0, "probe");
    let on = reps_s(REPS, || {
        for _ in 0..n {
            black_box(cusp_obs::span("probe_span"));
        }
    });
    drop(guard);
    black_box(recorder.drain().events.len());
    report.samples("obs.span_on_ns", "ns", &spans_ns(on));
    Ok(())
}

// ---- cusp-dgalois: what the partition is for -----------------------------------

/// One PageRank (ten iterations) and one BFS on the workload's own
/// partitions: the paper's definition of partition quality. Moved by
/// `replication_factor`, not by partitioner speed.
pub fn analytics(parts: &[DistGraph], report: &mut Report) {
    let _s = spans::span("analytics");
    let source = parts
        .iter()
        .flat_map(|p| {
            (0..p.num_masters as u32).map(move |l| (p.graph.out_degree(l), p.global_of(l)))
        })
        .max()
        .map_or(0, |(_, g)| g);
    report.attempt(2);
    let pr_cfg = PageRankConfig {
        max_iterations: 10,
        ..PageRankConfig::default()
    };
    let t = Instant::now();
    let pr = Cluster::run(parts.len(), |comm| {
        let pool = ThreadPool::new(2);
        let dg = &parts[comm.host()];
        let plan = SyncPlan::build(comm, dg);
        pagerank(comm, &pool, dg, &plan, pr_cfg).rounds
    });
    report.value("dgalois.pagerank_s", "s", t.elapsed().as_secs_f64());
    report.value(
        "dgalois.pagerank_bytes",
        "bytes",
        pr.stats.grand_total_bytes() as f64,
    );
    let t = Instant::now();
    let reached = Cluster::run(parts.len(), |comm| {
        let pool = ThreadPool::new(2);
        let dg = &parts[comm.host()];
        let plan = SyncPlan::build(comm, dg);
        bfs(comm, &pool, dg, &plan, source)
            .master_values
            .iter()
            .filter(|(_, d)| *d != cusp_dgalois::INF)
            .count()
    });
    report.value("dgalois.bfs_s", "s", t.elapsed().as_secs_f64());
    if reached.results.iter().sum::<usize>() == 0 {
        report.fail("bfs reached no vertex, not even its source".into());
    }
}

/// Writes the benchmark's spans as a Chrome trace — one file per
/// workload, `trace-<workload>.json`, so that the five children of
/// `run --trace` do not overwrite each other — checks it with the repo's
/// own validator, and prints where the time went by span name.
pub fn finish_trace(out_dir: &Path, report: &mut Report) {
    let recorded = spans::snapshot();
    let json = cusp_obs::export_chrome_trace(&spans::to_trace(&recorded));
    report.attempt(1);
    match cusp_obs::validate_trace_json(&json) {
        Ok(check) => println!(
            "trace: {} spans, {} trace events, valid",
            recorded.len(),
            check.total_events
        ),
        Err(e) => report.fail(format!("trace does not validate: {e}")),
    }
    let path = out_dir.join(format!("trace-{}.json", report.workload));
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, json)) {
        report.fail(format!("write {}: {e}", path.display()));
    } else {
        println!("trace: written to {}", path.display());
    }
    println!(
        "{:<24} {:>8} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in spans::totals_by_name(&recorded) {
        println!(
            "{:<24} {:>8} {:>14.3} {:>14.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}
