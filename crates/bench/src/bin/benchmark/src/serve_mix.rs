//! `serve_mix`: a `cusp-serve` request as the third end-to-end shape, and
//! the workload that writes beside reads.
//!
//! An in-process `cusp_serve::serve` on `127.0.0.1:0` with a data
//! directory in the scratch space holds `web-8m`. Two closed-loop client
//! connections (= nproc) repeat one scripted round:
//!
//! 1. both send the same cold `Partition{CVC,4}` at once — one runs the
//!    pipeline (`Cold`), the other waits on it (`Coalesced`);
//! 2. each sends 200 memory-tier hits, `Partition` and `Quality`
//!    alternating;
//! 3. `clear_memory_caches()`, then one disk-tier hit;
//! 4. `Apply` of a 0.1 % mutation batch — `apply_batch`, WAL append,
//!    fingerprint, invalidation — which makes the next round cold again.
//!
//! `partition_s` here is the client-observed wall of the `Cold` request.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use cusp::{CuspConfig, GraphSource, PolicyKind};
use cusp_graph::Csr;
use cusp_serve::{serve, CacheTier, Client, Response, ServeConfig, ServerHandle, ServerState};

use crate::inputs::{self, Scratch};
use crate::ops::{self, HOSTS};
use crate::partition_workloads::{
    emit_obs_rows, emit_run_rows, single_host_rows, verify_op, RunSamples,
};
use crate::report::Report;
use crate::stats;
use crate::{spans, sysinfo, Ctx};

pub const TENANT: &str = "bench";
pub const GRAPH: &str = "web";
pub const POLICY: &str = "CVC";
const CLIENTS: usize = 2;
/// Fraction of edges one `Apply` touches.
const APPLY_FRAC: f64 = 0.001;

/// A running server with its two client connections and the client-side
/// mirror of the graph it holds (the oracle's reference, and what the
/// next batch is generated against).
pub struct Served {
    pub state: Arc<ServerState>,
    handle: ServerHandle,
    pub clients: Vec<Client>,
    pub mirror: Arc<Csr>,
    pub upload_s: f64,
}

impl Served {
    /// Generates the graph, starts the server and uploads: one complete
    /// set-up.
    pub fn start(nodes: usize, seed: u64, data_dir: std::path::PathBuf) -> Result<Served, String> {
        let _s = spans::span("setup");
        let graph = Arc::new(inputs::web(nodes, seed));
        let _ = std::fs::remove_dir_all(&data_dir);
        let state = {
            let _s = spans::span("server_start");
            ServerState::new(ServeConfig {
                data_dir,
                ..ServeConfig::default()
            })
            .map_err(|e| format!("server state: {e}"))?
        };
        let handle = serve(Arc::clone(&state), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = handle.addr().to_string();
        let mut clients = (0..CLIENTS)
            .map(|_| Client::connect(&addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let t = Instant::now();
        {
            let _s = spans::span("request_upload");
            let (fp, _, edges) = clients[0]
                .upload_graph(TENANT, GRAPH, &graph, None)
                .map_err(|e| format!("upload: {e}"))?;
            if edges != graph.num_edges() || fp != cusp::graph_fingerprint(&graph, None) {
                return Err("upload acknowledged a different graph".into());
            }
        }
        let upload_s = t.elapsed().as_secs_f64();
        Ok(Served {
            state,
            handle,
            clients,
            mirror: graph,
            upload_s,
        })
    }

    pub fn stop(mut self) {
        drop(std::mem::take(&mut self.clients));
        self.handle.shutdown();
    }

    /// A write: a batch touching `frac` of the edges is generated against
    /// the mirror and applied on both sides; the server's new graph
    /// fingerprint must be the mirror's. Returns the request's wall,
    /// seconds.
    pub fn apply(&mut self, frac: f64, seed: u64) -> Result<f64, String> {
        let batch = inputs::batch(&self.mirror, frac, seed);
        let mutated = self
            .mirror
            .apply_batch(None, &batch)
            .map_err(|e| format!("seeded batch rejected: {e}"))?
            .graph;
        let t = Instant::now();
        let r = {
            let _s = spans::span("request_apply");
            self.clients[0].apply(TENANT, GRAPH, &batch)
        };
        let wall = t.elapsed().as_secs_f64();
        match r {
            Ok(Response::Applied {
                new_fingerprint,
                edges,
                ..
            }) if edges == mutated.num_edges()
                && new_fingerprint == cusp::graph_fingerprint(&mutated, None) =>
            {
                self.mirror = Arc::new(mutated);
                Ok(wall)
            }
            Ok(other) => Err(format!("apply acknowledged a different graph: {other:?}")),
            Err(e) => Err(format!("apply failed: {e}")),
        }
    }

    pub fn upload_bytes(&self) -> f64 {
        (self.mirror.offsets().len() * 8 + self.mirror.dests().len() * 4) as f64
    }
}

/// Latencies of one scripted round, seconds.
#[derive(Default)]
pub struct RoundSamples {
    pub cold: Vec<f64>,
    pub coalesced: Vec<f64>,
    pub hit: Vec<f64>,
    pub hit_phase_rps: Vec<f64>,
    pub disk_hit: Vec<f64>,
    pub apply: Vec<f64>,
    pub replication: Vec<f64>,
}

/// What a partition or quality request answered: the partition's
/// fingerprint, the tier it came from, its replication factor.
pub type Answer = Result<(u64, CacheTier, f64), String>;

pub fn partitioned(resp: Result<Response, cusp_serve::ClientError>) -> Answer {
    match resp {
        Ok(Response::Partitioned {
            fingerprint,
            tier,
            replication_factor,
            ..
        }) => Ok((fingerprint, tier, replication_factor)),
        Ok(Response::QualityReport {
            fingerprint,
            tier,
            replication_factor,
            ..
        }) => Ok((fingerprint, tier, replication_factor)),
        Ok(other) => Err(format!("unexpected response {other:?}")),
        Err(e) => Err(format!("request failed: {e}")),
    }
}

/// One scripted round. Every request is one attempted operation; a
/// request that errs, answers from the wrong tier or carries a different
/// fingerprint than its generation's cold run fails and adds no timing.
/// Returns the generation's partition fingerprint.
pub fn round(
    served: &mut Served,
    hits_per_client: usize,
    batch_seed: u64,
    keep: Option<&mut RoundSamples>,
    report: &mut Report,
) -> Result<u64, String> {
    let mut discard = RoundSamples::default();
    let keep = keep.unwrap_or(&mut discard);
    let parent = spans::current();

    // 1. The same cold request from both connections at once.
    let gate = Barrier::new(CLIENTS);
    let cold: Vec<(f64, Answer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .map(|c| {
                let gate = &gate;
                scope.spawn(move || {
                    gate.wait();
                    let _s = spans::span_under("request_cold", parent);
                    let t = Instant::now();
                    let r = c.partition(TENANT, GRAPH, POLICY, HOSTS as u32, 0);
                    (t.elapsed().as_secs_f64(), partitioned(r))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    report.attempt(CLIENTS as u64);
    let mut generation_fp = None;
    let mut tiers = Vec::new();
    for (wall, r) in &cold {
        match r {
            Ok((fp, tier, rf)) => {
                if *generation_fp.get_or_insert(*fp) != *fp {
                    report.fail("cold and coalesced fingerprints differ".into());
                    continue;
                }
                tiers.push(*tier);
                match tier {
                    CacheTier::Cold => {
                        keep.cold.push(*wall);
                        keep.replication.push(*rf);
                    }
                    CacheTier::Coalesced => keep.coalesced.push(*wall),
                    other => report.fail(format!("cold request answered from tier {other:?}")),
                }
            }
            Err(e) => report.fail(e.clone()),
        }
    }
    if tiers.iter().filter(|t| **t == CacheTier::Cold).count() != 1 {
        report.fail(format!("expected exactly one Cold among {tiers:?}"));
    }
    let generation_fp = generation_fp.ok_or("no cold response")?;

    // 2. Memory-tier hits, both connections in closed loops.
    let hit_phase = Instant::now();
    let hits: Vec<Vec<Result<f64, String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .map(|c| {
                scope.spawn(move || {
                    (0..hits_per_client)
                        .map(|i| {
                            let _s = spans::span_under("request_hit", parent);
                            let t = Instant::now();
                            let r = if i % 2 == 0 {
                                c.partition(TENANT, GRAPH, POLICY, HOSTS as u32, 0)
                            } else {
                                c.quality(TENANT, GRAPH, POLICY, HOSTS as u32, 0)
                            };
                            let wall = t.elapsed().as_secs_f64();
                            match partitioned(r)? {
                                (fp, CacheTier::Memory, _) if fp == generation_fp => Ok(wall),
                                (fp, tier, _) => Err(format!("hit answered {tier:?} fp {fp:#x}")),
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let hit_phase_s = hit_phase.elapsed().as_secs_f64();
    let mut ok_hits = 0;
    for r in hits.into_iter().flatten() {
        report.attempt(1);
        match r {
            Ok(wall) => {
                keep.hit.push(wall);
                ok_hits += 1;
            }
            Err(e) => report.fail(e),
        }
    }
    keep.hit_phase_rps.push(ok_hits as f64 / hit_phase_s);

    // 3. One disk-tier hit.
    served.state.clear_memory_caches();
    report.attempt(1);
    let t = Instant::now();
    let r = {
        let _s = spans::span("request_disk_hit");
        served.clients[0].partition(TENANT, GRAPH, POLICY, HOSTS as u32, 0)
    };
    let wall = t.elapsed().as_secs_f64();
    match partitioned(r) {
        Ok((fp, CacheTier::Disk, _)) if fp == generation_fp => keep.disk_hit.push(wall),
        Ok((fp, tier, _)) => report.fail(format!("disk hit answered {tier:?} fp {fp:#x}")),
        Err(e) => report.fail(e),
    }

    // 4. A write, which makes the next round cold again.
    report.attempt(1);
    match served.apply(APPLY_FRAC, batch_seed) {
        Ok(wall) => keep.apply.push(wall),
        Err(e) => report.fail(e),
    }
    Ok(generation_fp)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new("serve_mix");
    if let Err(e) = run_inner(ctx, &mut report) {
        report.attempt(1);
        report.fail(e);
    }
    report
}

fn run_inner(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let scratch =
        Scratch::create(&ctx.scratch_base, "serve_mix").map_err(|e| format!("scratch dir: {e}"))?;
    let seed = inputs::sub_seed(ctx.seed, 1);

    let mut setup_s = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..ctx.setup_reps() {
        if let Some(s) = served.take() {
            s.stop();
        }
        let t = Instant::now();
        served = Some(Served::start(
            ctx.sizes.serve_nodes,
            seed,
            scratch.path("serve-data"),
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut served = served.expect("at least one set-up");
    report.samples("setup_s", "s", &setup_s);

    // As in the partition workloads: the high-water mark of the first
    // round — server, both clients and the mirror together.
    if !sysinfo::reset_peak_rss() {
        println!("note: VmHWM cannot be reset here; peak_rss_mb covers set-up too");
    }

    let hits = ctx.sizes.hits_per_client;
    let mut rounds = 0u64;
    let mut samples = RoundSamples::default();
    // The graph and fingerprint of the last generation that was
    // partitioned: what the oracle re-partitions with the library.
    let mut last_generation: Option<(Arc<Csr>, u64)> = None;
    let mut one_round =
        |served: &mut Served, keep: Option<&mut RoundSamples>, report: &mut Report| {
            rounds += 1;
            spans::set_op(rounds);
            let _s = spans::span("serve_round");
            let before = Arc::clone(&served.mirror);
            let fp = round(
                served,
                hits,
                inputs::sub_seed(ctx.seed, 100 + rounds),
                keep,
                report,
            )?;
            last_generation = Some((before, fp));
            Ok::<(), String>(())
        };
    let mut peak_rss = None;
    for _ in 0..ctx.warmups() {
        one_round(&mut served, None, report)?;
        peak_rss.get_or_insert_with(sysinfo::peak_rss_mib);
    }
    let started = Instant::now();
    while samples.cold.len() < ctx.timed_iters()
        || (!ctx.trace && started.elapsed().as_secs_f64() < ctx.seconds)
    {
        one_round(&mut served, Some(&mut samples), report)?;
    }

    report.samples("partition_s", "s", &samples.cold);
    report.value(
        "peak_rss_mb",
        "MiB",
        peak_rss.unwrap_or_else(sysinfo::peak_rss_mib),
    );
    report.samples("replication_factor", "proxies/vertex", &samples.replication);

    // The serve latencies, client-observed.
    let scaled = |v: &[f64], k: f64| v.iter().map(|x| x * k).collect::<Vec<f64>>();
    report.samples("serve_hit_p50_us", "us", &scaled(&samples.hit, 1e6));
    if let Some(p99) = stats::p99(&samples.hit) {
        report.value("serve.hit_mem_p99_us", "us", p99 * 1e6);
    }
    report.samples(
        "serve_disk_hit_p50_ms",
        "ms",
        &scaled(&samples.disk_hit, 1e3),
    );
    report.samples("serve_cold_p50_ms", "ms", &scaled(&samples.cold, 1e3));
    report.samples("serve_apply_p50_ms", "ms", &scaled(&samples.apply, 1e3));
    report.samples(
        "serve.coalesced_p50_ms",
        "ms",
        &scaled(&samples.coalesced, 1e3),
    );
    report.value(
        "serve.cold_max_ms",
        "ms",
        samples.cold.iter().copied().fold(0.0, f64::max) * 1e3,
    );
    report.samples("serve.rps", "1/s", &samples.hit_phase_rps);

    // Counters must equal what the script implies.
    let c = served.state.counters();
    let expect = [
        ("serve.jobs_run", c.jobs_run, rounds),
        (
            "serve.mem_hits",
            c.mem_hits,
            rounds * (CLIENTS * hits) as u64,
        ),
        ("serve.disk_hits", c.disk_hits, rounds),
        ("serve.coalesced", c.coalesced, rounds),
    ];
    for (name, got, want) in expect {
        report.value(name, "count", got as f64);
        report.attempt(1);
        if got != want {
            report.fail(format!("{name} is {got}, the script implies {want}"));
        }
    }
    served.stop();

    // The oracle: the library's partition of the last generation's graph,
    // under the configuration the server runs jobs with, must be valid
    // and carry the fingerprint the server answered with.
    let (graph, served_fp) = last_generation.expect("at least one round");
    let src = GraphSource::Memory(Arc::clone(&graph));
    let cfg = cusp::deterministic_for_comparison(CuspConfig::default());
    let mut raw = RunSamples::default();
    let mut traced_wall = Vec::new();
    let mut obs = (0, 0);
    let mut last = None;
    let raw_iters = if ctx.trace { ctx.plan.traced_iters } else { 1 };
    for i in 0..raw_iters {
        spans::set_op(rounds + 1 + i as u64);
        report.attempt(1);
        let r = ops::sim_partition(&src, PolicyKind::Cvc, &cfg, HOSTS, false);
        raw.push(&r);
        last = Some(r);
        if ctx.trace {
            report.attempt(1);
            let t = ops::sim_partition(&src, PolicyKind::Cvc, &cfg, HOSTS, true);
            traced_wall.push(t.wall_s);
            obs = t.obs.unwrap_or(obs);
        }
    }
    let last = last.expect("at least one library partition");
    let verify_started = Instant::now();
    {
        let _v = spans::span("verify");
        report.expect_valid(&verify_op(&graph, &last));
        let fp = cusp::partition_fingerprint(&last.parts);
        if fp != served_fp {
            report.fail(format!(
                "served fingerprint {served_fp:#018x} != library partition {fp:#018x}"
            ));
        }
    }
    let verify_s = verify_started.elapsed().as_secs_f64();

    if ctx.trace {
        // The layer rows of this workload describe the library job under a
        // cold request.
        emit_run_rows(report, &raw, &last, graph.num_edges(), verify_s);
        let raw_med = stats::median(&raw.wall);
        report.value(
            "serve.cold_over_raw_frac",
            "ratio",
            stats::median(&samples.cold) / raw_med - 1.0,
        );
        emit_obs_rows(report, &traced_wall, raw_med, obs);
        single_host_rows(report, &src, PolicyKind::Cvc, &cfg, raw_med);
    }
    Ok(())
}
