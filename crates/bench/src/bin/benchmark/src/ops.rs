//! One partition operation, timed from outside.
//!
//! Every timing here is a harness `Instant` around the whole public call
//! — cluster or mesh start to `Vec<DistGraph>` in memory, thread spawn,
//! TCP establish and FIN drain included — never `PhaseTimes::total`.
//! Only the top-level entry points are called (`Cluster::run_with`,
//! `partition_with_policy`, `partition_delta_with_policy`,
//! `TcpTransport::establish`, `partition_with_policy_tcp`).

use std::net::TcpListener;
use std::time::Instant;

use cusp::{CuspConfig, DistGraph, GraphSource, PartitionOutput, PhaseTimes, PolicyKind};
use cusp_graph::GraphEvent;
use cusp_net::{Cluster, ClusterOptions, CommStats, TcpOptions, TcpTransport, TraceConfig};

use crate::spans;
use crate::sysinfo;

/// Hosts of every partition in this benchmark.
pub const HOSTS: usize = 4;

/// What one operation returned, plus what the harness measured around it.
pub struct OpResult {
    /// Harness wall clock of the whole public call, seconds.
    pub wall_s: f64,
    /// CPU seconds (user + system, all threads) the process spent in it.
    pub cpu_s: f64,
    /// Per-host phase times, as the entry point reports them.
    pub times: Vec<PhaseTimes>,
    pub traffic: Traffic,
    /// The simulator's own statistics snapshot, for `check_comm_stats`
    /// (a TCP run has one view per host instead; see [`Traffic`]).
    pub sim_stats: Option<CommStats>,
    pub parts: Vec<DistGraph>,
    pub peak_resident_edges: u64,
    pub dirty_vertices: u64,
    pub reused_edges: u64,
    /// Events and dropped events of the library trace, when it was on.
    pub obs: Option<(u64, u64)>,
}

/// Send- and receive-side traffic matrices per phase, assembled the same
/// way from a simulator snapshot (one `CommStats` knows everything) and
/// from a TCP run (each host's `CommStats` is authoritative only for its
/// own send row and receive column).
pub struct Traffic {
    pub hosts: usize,
    pub phases: Vec<PhaseMatrix>,
}

pub struct PhaseMatrix {
    pub name: String,
    /// `[src * hosts + dst]`, send side.
    pub bytes: Vec<u64>,
    pub msgs: Vec<u64>,
    /// `[src * hosts + dst]`, as counted by the receiver.
    pub recv_bytes: Vec<u64>,
    pub recv_msgs: Vec<u64>,
}

impl Traffic {
    /// `views[h]` is the statistics host `h` reported; the simulator
    /// passes the same snapshot for every host.
    fn from_views(views: &[&CommStats]) -> Traffic {
        let hosts = views.len();
        let mut names: Vec<String> = Vec::new();
        for v in views {
            for n in v.phase_names() {
                if !names.contains(n) {
                    names.push(n.clone());
                }
            }
        }
        let phases = names
            .into_iter()
            .map(|name| {
                let mut m = PhaseMatrix {
                    bytes: vec![0; hosts * hosts],
                    msgs: vec![0; hosts * hosts],
                    recv_bytes: vec![0; hosts * hosts],
                    recv_msgs: vec![0; hosts * hosts],
                    name,
                };
                for src in 0..hosts {
                    for dst in 0..hosts {
                        let i = src * hosts + dst;
                        if let Some(p) = views[src].phase(&m.name) {
                            m.bytes[i] = p.bytes_between(src, dst);
                            m.msgs[i] = p.messages_between(src, dst);
                        }
                        if let Some(p) = views[dst].phase(&m.name) {
                            m.recv_bytes[i] = p.recv_bytes_between(src, dst);
                            m.recv_msgs[i] = p.recv_messages_between(src, dst);
                        }
                    }
                }
                m
            })
            .collect();
        Traffic { hosts, phases }
    }

    fn matching<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a PhaseMatrix> {
        self.phases
            .iter()
            .filter(move |p| p.name.starts_with(prefix))
    }

    /// Bytes sent in every phase whose name starts with `prefix`.
    pub fn bytes(&self, prefix: &str) -> u64 {
        self.matching(prefix)
            .map(|p| p.bytes.iter().sum::<u64>())
            .sum()
    }

    pub fn msgs(&self, prefix: &str) -> u64 {
        self.matching(prefix)
            .map(|p| p.msgs.iter().sum::<u64>())
            .sum()
    }

    /// `(phase, src, dst)` of every cell where what was sent is not what
    /// the receiver counted — the conservation invariant of
    /// `check_comm_stats`, stated over either transport.
    pub fn unconserved(&self) -> Vec<(String, usize, usize)> {
        let mut out = Vec::new();
        for p in &self.phases {
            for i in 0..self.hosts * self.hosts {
                if p.bytes[i] != p.recv_bytes[i] || p.msgs[i] != p.recv_msgs[i] {
                    out.push((p.name.clone(), i / self.hosts, i % self.hosts));
                }
            }
        }
        out
    }

    /// Network time the α–β model predicts for these counts: per phase
    /// the slowest host's `α·messages + β·bytes` (the larger of its send
    /// and receive side), summed over phases. Computed, not measured.
    pub fn modeled_seconds(&self, alpha: f64, beta: f64) -> f64 {
        let k = self.hosts;
        self.phases
            .iter()
            .map(|p| {
                (0..k)
                    .map(|h| {
                        let out_b: u64 = (0..k).map(|d| p.bytes[h * k + d]).sum();
                        let in_b: u64 = (0..k).map(|s| p.bytes[s * k + h]).sum();
                        let out_m: u64 = (0..k).map(|d| p.msgs[h * k + d]).sum();
                        let in_m: u64 = (0..k).map(|s| p.msgs[s * k + h]).sum();
                        alpha * out_m.max(in_m) as f64 + beta * out_b.max(in_b) as f64
                    })
                    .fold(0.0, f64::max)
            })
            .sum()
    }
}

/// Wall clock and CPU clock around one public call.
struct Meter {
    started: Instant,
    cpu0: f64,
}

impl Meter {
    fn start() -> Meter {
        Meter {
            cpu0: sysinfo::cpu_seconds(),
            started: Instant::now(),
        }
    }

    /// `(wall_s, cpu_s)` since the start.
    fn stop(self) -> (f64, f64) {
        (
            self.started.elapsed().as_secs_f64(),
            sysinfo::cpu_seconds() - self.cpu0,
        )
    }
}

fn split_outputs(outs: Vec<PartitionOutput>) -> (Vec<PhaseTimes>, Vec<DistGraph>, u64, u64, u64) {
    let times = outs.iter().map(|o| o.times).collect();
    let peak = outs
        .iter()
        .map(|o| o.peak_resident_edges)
        .max()
        .unwrap_or(0);
    let dirty = outs.first().map_or(0, |o| o.dirty_vertices);
    let reused = outs.iter().map(|o| o.reused_edges).sum();
    let parts = outs.into_iter().map(|o| o.dist_graph).collect();
    (times, parts, peak, dirty, reused)
}

/// Runs `per_host` on a simulated `hosts`-host cluster and times the
/// whole call. `lib_trace` turns on the tracing the library already has.
fn sim_op(
    hosts: usize,
    lib_trace: bool,
    per_host: impl Fn(&cusp_net::Comm) -> PartitionOutput + Sync,
) -> OpResult {
    let opts = ClusterOptions {
        trace: lib_trace.then(TraceConfig::default),
        ..ClusterOptions::default()
    };
    let _run = spans::span("cluster_run");
    let parent = spans::current();
    let meter = Meter::start();
    let out = Cluster::run_with(hosts, opts, |comm| {
        let _h = spans::span_under("host_partition", parent);
        per_host(comm)
    });
    let (times, parts, peak, dirty, reused) = split_outputs(out.results);
    let (wall_s, cpu_s) = meter.stop();
    let views: Vec<&CommStats> = (0..hosts).map(|_| &out.stats).collect();
    OpResult {
        wall_s,
        cpu_s,
        times,
        traffic: Traffic::from_views(&views),
        parts,
        peak_resident_edges: peak,
        dirty_vertices: dirty,
        reused_edges: reused,
        obs: out.trace.map(|t| (t.events.len() as u64, t.dropped_events)),
        sim_stats: Some(out.stats),
    }
}

/// A full partition on the simulator.
pub fn sim_partition(
    src: &GraphSource,
    kind: PolicyKind,
    cfg: &CuspConfig,
    hosts: usize,
    lib_trace: bool,
) -> OpResult {
    sim_op(hosts, lib_trace, |comm| {
        cusp::partition_with_policy(comm, src.clone(), kind, cfg)
    })
}

/// An incremental repartition on the simulator: `src` is the mutated
/// graph, `prev` the previous generation's per-host outputs.
pub fn sim_delta(
    src: &GraphSource,
    kind: PolicyKind,
    cfg: &CuspConfig,
    prev: &[PartitionOutput],
    batch: &[GraphEvent],
    lib_trace: bool,
) -> OpResult {
    sim_op(prev.len(), lib_trace, |comm| {
        cusp::partition_delta_with_policy(comm, src.clone(), kind, cfg, &prev[comm.host()], batch)
    })
}

/// One bound loopback listener per host, and their addresses in host
/// order: what `TcpTransport::establish` takes.
pub fn loopback_listeners(hosts: usize) -> Result<(Vec<TcpListener>, Vec<String>), String> {
    let listeners: Vec<TcpListener> = (0..hosts)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}")))
        .collect::<Result<_, _>>()?;
    let peers = listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.to_string())
                .map_err(|e| format!("addr: {e}"))
        })
        .collect::<Result<_, _>>()?;
    Ok((listeners, peers))
}

/// The same partition with every host a thread owning real loopback
/// sockets: the data path of `cusp-part launch` minus fork/exec. The
/// timed interval covers binding, mesh establishment, the five phases
/// and the FIN drain.
pub fn tcp_partition(
    src: &GraphSource,
    kind: PolicyKind,
    cfg: &CuspConfig,
    hosts: usize,
    run_nonce: u64,
) -> Result<OpResult, String> {
    let _run = spans::span("tcp_mesh_run");
    let parent = spans::current();
    let meter = Meter::start();
    let (listeners, peers) = loopback_listeners(hosts)?;
    let joined: Vec<Result<_, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(h, listener)| {
                let peers = &peers;
                std::thread::Builder::new()
                    .name(format!("tcp-host-{h}"))
                    .spawn_scoped(scope, move || {
                        let transport = {
                            let _e = spans::span_under("tcp_establish", parent);
                            TcpTransport::establish(
                                h,
                                listener,
                                peers,
                                run_nonce,
                                TcpOptions::default(),
                            )
                            .map_err(|e| format!("host {h}: establish: {e}"))?
                        };
                        let _p = spans::span_under("host_partition", parent);
                        cusp::partition_with_policy_tcp(transport, src.clone(), kind, cfg)
                            .map_err(|e| format!("host {h}: {e}"))
                    })
                    .expect("spawn tcp host thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("tcp host thread panicked".into()))
            })
            .collect()
    });
    let mut outs = Vec::with_capacity(hosts);
    let mut stats = Vec::with_capacity(hosts);
    for r in joined {
        let run = r?;
        outs.push(run.result);
        stats.push(run.stats);
    }
    let (times, parts, peak, dirty, reused) = split_outputs(outs);
    let (wall_s, cpu_s) = meter.stop();
    let views: Vec<&CommStats> = stats.iter().collect();
    Ok(OpResult {
        wall_s,
        cpu_s,
        times,
        traffic: Traffic::from_views(&views),
        sim_stats: None,
        parts,
        peak_resident_edges: peak,
        dirty_vertices: dirty,
        reused_edges: reused,
        obs: None,
    })
}
