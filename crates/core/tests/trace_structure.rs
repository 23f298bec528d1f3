//! Determinism of the recorded event *structure*.
//!
//! Timestamps and interleavings vary run to run, but with one worker
//! thread and unbuffered sends the multiset of *algorithmic* events —
//! which phase spans ran on which host, and how many messages flowed per
//! (src, dst, tag) edge — is a function of the input alone. These tests
//! pin that down: the trace is usable as a regression fingerprint, not
//! just a profile.
//!
//! Runtime-internal spans are excluded: how many pool dispatches the
//! construction phase needs depends on when records *arrive* (it drains
//! opportunistically), so `pool_task`/`steal` counts are
//! scheduling-dependent even when the produced partition is
//! bit-identical.

use std::sync::Arc;

use cusp::tags::TAG_EDGES;
use cusp::{
    partition_delta_with_policy, partition_with_policy, CuspConfig, GraphSource, OutputFormat,
    PartitionOutput, PolicyKind,
};
use cusp_graph::gen::uniform::erdos_renyi;
use cusp_net::{Cluster, ClusterOptions, TraceConfig};
use cusp_obs::{EventKind, Structure, Trace};

const HOSTS: usize = 3;

fn det_config(chunk_edges: Option<u64>) -> CuspConfig {
    CuspConfig {
        threads_per_host: 1,
        // Unbuffered: one message per record, so the send multiset does
        // not depend on flush boundaries (chunked runs flush extra).
        buffer_threshold: 0,
        chunk_edges,
        ..CuspConfig::default()
    }
}

/// One traced run of `kind` over the test graph, with each host's output.
fn traced_run(kind: PolicyKind, cfg: &CuspConfig) -> (Trace, Vec<PartitionOutput>) {
    let graph = Arc::new(erdos_renyi(240, 1900, 11));
    let cfg = cfg.clone();
    let opts = ClusterOptions {
        trace: Some(TraceConfig::default()),
        ..ClusterOptions::default()
    };
    let out = Cluster::run_with(HOSTS, opts, move |comm| {
        partition_with_policy(comm, GraphSource::Memory(graph.clone()), kind, &cfg)
    });
    let trace = out.trace.expect("trace requested");
    assert_eq!(trace.dropped_events, 0, "ring too small for this test");
    (trace, out.results)
}

/// One traced CVC delta run over the test graph after a seeded batch,
/// against an untraced full run of the graph before it.
fn traced_delta_run(cfg: &CuspConfig) -> (Trace, Vec<PartitionOutput>) {
    let graph = Arc::new(erdos_renyi(240, 1900, 11));
    let batch = cusp_graph::wal::seeded_batch(&graph, false, 0xD17A, 20);
    let mutated = Arc::new(graph.apply_batch(None, &batch).expect("batch applies").graph);
    let prevs = Cluster::run(HOSTS, |comm| {
        partition_with_policy(comm, GraphSource::Memory(graph.clone()), PolicyKind::Cvc, cfg)
    })
    .results;
    let opts = ClusterOptions {
        trace: Some(TraceConfig::default()),
        ..ClusterOptions::default()
    };
    let out = Cluster::run_with(HOSTS, opts, |comm| {
        let source = GraphSource::Memory(mutated.clone());
        partition_delta_with_policy(comm, source, PolicyKind::Cvc, cfg, &prevs[comm.host()], &batch)
    });
    assert!(out.results.iter().any(|r| r.reused_edges > 0), "nothing kept: not a delta run");
    let trace = out.trace.expect("trace requested");
    assert_eq!(trace.dropped_events, 0, "ring too small for this test");
    (trace, out.results)
}

/// One traced run of `kind` over the test graph.
fn trace_of(kind: PolicyKind, cfg: &CuspConfig) -> Trace {
    traced_run(kind, cfg).0
}

fn traced_structure(cfg: &CuspConfig) -> Structure {
    Structure::of(&trace_of(PolicyKind::Cvc, cfg))
}

/// Outside runtime-internal dispatch, two identical deterministic runs
/// record the identical event structure, down to per-(src, dst, tag)
/// message counts.
#[test]
fn deterministic_runs_have_identical_structure() {
    let a = traced_structure(&det_config(None));
    let b = traced_structure(&det_config(None));
    assert!(a.total_sends() > 0, "expected CVC to move messages");
    assert_eq!(
        a.without_names(&["pool_task", "steal"]),
        b.without_names(&["pool_task", "steal"])
    );
}

/// Chunked execution re-reads and flushes per chunk but must do the same
/// logical work: outside the chunk bookkeeping spans, its event structure
/// matches the monolithic run's.
#[test]
fn chunked_matches_monolithic_structure() {
    let mono = traced_structure(&det_config(None));
    let chunked = traced_structure(&det_config(Some(512)));

    // The chunked run has more "chunk" spans than the monolithic run (whose
    // range is one chunk) and dispatches pool tasks per chunk instead of
    // per phase; every other span, instant, and — crucially — message
    // count must agree.
    let mono_cmp = mono.without_names(&["chunk", "pool_task", "steal"]);
    let chunked_cmp = chunked.without_names(&["chunk", "pool_task", "steal"]);
    assert_eq!(mono_cmp, chunked_cmp);

    // The monolithic run walks its one chunk once per walk on each host —
    // CVC walks twice, in edge assignment and construction — and the
    // chunked run walks more.
    for h in 0..HOSTS as u32 {
        assert_eq!(mono.span_counts.get(&(h, "chunk")), Some(&2), "host {h}");
        assert!(chunked.span_counts.get(&(h, "chunk")) > Some(&2), "host {h}");
    }
}

/// The master phase of a neighbour-aware rule explains itself: under each
/// host's `master` span sit one `master.requests` (with one
/// `master.requested` instant per peer), one `master.round` per sync round
/// — all but the last with a `master.sync` child — and one `master.final`,
/// and nothing of the family opens anywhere else. CVC above never runs
/// that phase body (pure masters), so this cell uses SVC.
#[test]
fn master_phase_records_its_rounds_under_the_master_span() {
    const ROUNDS: u64 = 5;
    let cfg = CuspConfig {
        sync_rounds: ROUNDS as u32,
        ..det_config(None)
    };
    let run = || trace_of(PolicyKind::Svc, &cfg);
    let trace = run();
    let structure = Structure::of(&trace);
    for host in 0..HOSTS as u32 {
        let spans = |name| structure.span_counts.get(&(host, name)).copied().unwrap_or(0);
        assert_eq!(spans("master"), 1);
        assert_eq!(spans("master.requests"), 1);
        assert_eq!(spans("master.round"), ROUNDS);
        assert_eq!(spans("master.sync"), ROUNDS - 1);
        assert_eq!(spans("master.final"), 1);
        assert_eq!(
            structure.instant_counts.get(&(host, "master.requested")),
            Some(&(HOSTS as u64 - 1))
        );
    }

    // Parentage and arguments, from the events of each host's main thread
    // (a thread's events are in record order, so a stack recovers nesting).
    for thread in trace.threads.iter().filter(|t| t.name == "main") {
        let mut stack: Vec<&'static str> = Vec::new();
        let (mut assigned, mut requested, mut counters) = (0u64, 0u64, Vec::new());
        for e in trace.events.iter().filter(|e| e.tid == thread.tid) {
            match e.kind {
                EventKind::SpanBegin { name, arg } => {
                    match name {
                        "master.requests" | "master.round" | "master.final" => {
                            assert_eq!(stack.last(), Some(&"master"), "{name} outside master")
                        }
                        "master.sync" => assert_eq!(stack.last(), Some(&"master.round")),
                        _ => {}
                    }
                    if name == "master.round" {
                        assigned += arg;
                    }
                    stack.push(name);
                }
                EventKind::SpanEnd { name } => assert_eq!(stack.pop(), Some(name)),
                EventKind::Instant { name: "master.requested", arg } => {
                    assert_eq!(stack.last(), Some(&"master.requests"));
                    requested += arg;
                }
                EventKind::Counter { name, value } if name.starts_with("master.") => {
                    assert!(matches!(stack.last(), Some(&"master.sync") | Some(&"master.final")));
                    counters.push((name, value));
                }
                _ => {}
            }
        }
        assert!(stack.is_empty());
        // The rounds cover the host's read range; the answers received over
        // the rounds and the final are the ids requested, no more, no less.
        assert!(assigned > 0 && assigned <= 240, "host {}: {assigned} nodes", thread.host);
        let sum = |which| counters.iter().filter(|c| c.0 == which).map(|c| c.1).sum::<u64>();
        assert_eq!(sum("master.received"), requested, "host {}", thread.host);
        assert_eq!(counters.len() as u64, 2 * ROUNDS, "one answered and one received per sync");
    }
    // Every id a host requested is an id some host answered.
    let total = |which: &str| -> u64 {
        trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Counter { name, value } if name == which => Some(value),
                _ => None,
            })
            .sum()
    };
    assert_eq!(total("master.answered"), total("master.received"));

    // And the whole of it is structure: a second run records the same.
    assert_eq!(
        structure.without_names(&["pool_task", "steal"]),
        Structure::of(&run()).without_names(&["pool_task", "steal"])
    );
}

/// The construction phase splits its tail the same way: under each host's
/// `construct` span sit exactly one `construct.wait` (blocking for the
/// records still in flight after the local walk) and one
/// `construct.freeze` (cursor check, CSR, transpose), for the CSR and the
/// CSC output alike, resident or streamed. Beside them, one
/// `construct.drained_walk` and one `construct.drained_wait` counter say
/// how many record bytes were inserted during the walk and after it: they
/// add up to the `TAG_EDGES` bytes the host received.
#[test]
fn construct_phase_records_its_wait_and_freeze_under_the_construct_span() {
    let shapes = [OutputFormat::Csr, OutputFormat::Csc].into_iter().flat_map(|output| {
        [None, Some(512)].map(|chunk_edges| CuspConfig { output, ..det_config(chunk_edges) })
    });
    for cfg in shapes {
        let label = format!("{:?} chunk {:?}", cfg.output, cfg.chunk_edges);
        let trace = trace_of(PolicyKind::Cvc, &cfg);
        let structure = Structure::of(&trace);
        for host in 0..HOSTS as u32 {
            for name in ["construct", "construct.wait", "construct.freeze"] {
                let spans = structure.span_counts.get(&(host, name)).copied();
                assert_eq!(spans, Some(1), "{label} host {host}: {name}");
            }
        }
        for thread in trace.threads.iter().filter(|t| t.name == "main") {
            let mut stack: Vec<&'static str> = Vec::new();
            let mut drained = Vec::new();
            for e in trace.events.iter().filter(|e| e.tid == thread.tid) {
                match e.kind {
                    EventKind::SpanBegin { name, .. } => {
                        if name.starts_with("construct.") {
                            assert_eq!(stack.last(), Some(&"construct"), "{label}: {name}");
                        }
                        stack.push(name);
                    }
                    EventKind::SpanEnd { name } => assert_eq!(stack.pop(), Some(name)),
                    EventKind::Counter { name, value } if name.starts_with("construct.") => {
                        assert_eq!(stack.last(), Some(&"construct"), "{label}: {name}");
                        drained.push((name, value));
                    }
                    _ => {}
                }
            }
            assert!(stack.is_empty(), "{label} host {}: open spans {stack:?}", thread.host);
            let names: Vec<_> = drained.iter().map(|c| c.0).collect();
            assert_eq!(names, ["construct.drained_walk", "construct.drained_wait"], "{label}");
            // Records arrive on whichever thread drains them.
            let received: u64 = trace
                .events
                .iter()
                .filter(|e| e.host == thread.host)
                .filter_map(|e| match e.kind {
                    EventKind::MsgRecv { tag, bytes, .. } if tag == TAG_EDGES.0 => Some(bytes),
                    _ => None,
                })
                .sum();
            assert!(received > 0, "{label} host {}: no records received", thread.host);
            let inserted: u64 = drained.iter().map(|c| c.1).sum();
            assert_eq!(inserted, received, "{label} host {}", thread.host);
        }
    }
}

/// Memory is attributed from the structures themselves: each host's
/// `edge_assign`, `alloc` and `construct` spans hold one `mem.*` counter —
/// the edge-assignment outcome, the allocated partition and the output —
/// and `mem.output` is the heap of the part the host returned. Pure and
/// stored masters, resident and streamed, CSR and CSC, and a delta run,
/// whose kept edges and exchange make one outcome.
#[test]
fn memory_counters_sit_under_their_phase_spans() {
    let cells = [
        (PolicyKind::Cvc, det_config(None)),
        (PolicyKind::Cvc, det_config(Some(512))),
        (PolicyKind::Svc, det_config(None)),
        (PolicyKind::Hvc, CuspConfig { output: OutputFormat::Csc, ..det_config(None) }),
    ];
    let mut runs: Vec<(String, (Trace, Vec<PartitionOutput>))> = cells
        .into_iter()
        .map(|(kind, cfg)| {
            let label = format!("{kind:?} chunk {:?} {:?}", cfg.chunk_edges, cfg.output);
            (label, traced_run(kind, &cfg))
        })
        .collect();
    runs.push(("Cvc delta".to_owned(), traced_delta_run(&det_config(None))));
    for (label, (trace, parts)) in runs {
        for thread in trace.threads.iter().filter(|t| t.name == "main") {
            let host = thread.host;
            let mut stack: Vec<&'static str> = Vec::new();
            let mut mem = Vec::new();
            for e in trace.events.iter().filter(|e| e.tid == thread.tid) {
                match e.kind {
                    EventKind::SpanBegin { name, .. } => stack.push(name),
                    EventKind::SpanEnd { name } => assert_eq!(stack.pop(), Some(name)),
                    EventKind::Counter { name, value } if name.starts_with("mem.") => {
                        mem.push((name, stack.last().copied(), value));
                    }
                    _ => {}
                }
            }
            let placed: Vec<_> = mem.iter().map(|&(name, span, _)| (name, span)).collect();
            assert_eq!(
                placed,
                [
                    ("mem.edge_assign_outcome", Some("edge_assign")),
                    ("mem.alloc", Some("alloc")),
                    ("mem.output", Some("construct")),
                ],
                "{label} host {host}"
            );
            let part = &parts[host as usize].dist_graph;
            assert_eq!(mem[2].2, part.heap_bytes(), "{label} host {host}: mem.output");
            assert!(mem[0].2 > 0 && mem[1].2 > 0, "{label} host {host}: empty outcome or allocation");
        }
    }
}

/// The edge walks explain themselves too. Under each host's `edge_assign`
/// span sit one `edge_assign.tally` (the walk and the scan of its rows) and
/// one `edge_assign.exchange` (send, receive, merge), on a full run and on
/// a delta run alike; the delta run adds one `delta.kept_tally` under
/// `edge_assign` and one `delta.kept_copy` under `construct`, and a full run
/// records neither. Four hosts, two threads each, CVC.
#[test]
fn edge_walks_record_their_sub_phases_under_their_phase_spans() {
    const HOSTS: usize = 4;
    let cfg = CuspConfig { threads_per_host: 2, ..CuspConfig::default() };
    let graph = Arc::new(erdos_renyi(600, 5000, 23));
    let batch = cusp_graph::wal::seeded_batch(&graph, false, 0xD17A, 20);
    let mutated = Arc::new(graph.apply_batch(None, &batch).expect("batch applies").graph);
    let traced = || ClusterOptions { trace: Some(TraceConfig::default()), ..ClusterOptions::default() };
    let full = Cluster::run_with(HOSTS, traced(), |comm| {
        partition_with_policy(comm, GraphSource::Memory(graph.clone()), PolicyKind::Cvc, &cfg)
    });
    let prevs = full.results;
    let delta = Cluster::run_with(HOSTS, traced(), |comm| {
        let source = GraphSource::Memory(mutated.clone());
        partition_delta_with_policy(comm, source, PolicyKind::Cvc, &cfg, &prevs[comm.host()], &batch)
    });
    assert!(delta.results.iter().any(|r| r.reused_edges > 0), "nothing kept: not a delta run");

    let walks = [("edge_assign.tally", "edge_assign"), ("edge_assign.exchange", "edge_assign")];
    let kept = [("delta.kept_tally", "edge_assign"), ("delta.kept_copy", "construct")];
    for (label, trace, expected) in [
        ("full", full.trace, walks.to_vec()),
        ("delta", delta.trace, [&walks[..], &kept[..]].concat()),
    ] {
        let trace = trace.expect("trace requested");
        assert_eq!(trace.dropped_events, 0, "ring too small for this test");
        let structure = Structure::of(&trace);
        for host in 0..HOSTS as u32 {
            for name in ["edge_assign.tally", "edge_assign.exchange", "delta.kept_tally", "delta.kept_copy"] {
                let want = expected.iter().any(|&(n, _)| n == name) as u64;
                let got = structure.span_counts.get(&(host, name)).copied().unwrap_or(0);
                assert_eq!(got, want, "{label} host {host}: {name}");
            }
        }
        for thread in trace.threads.iter().filter(|t| t.name == "main") {
            let mut stack: Vec<&'static str> = Vec::new();
            for e in trace.events.iter().filter(|e| e.tid == thread.tid) {
                match e.kind {
                    EventKind::SpanBegin { name, .. } => {
                        if let Some(&(_, phase)) = expected.iter().find(|&&(n, _)| n == name) {
                            assert_eq!(stack.last(), Some(&phase), "{label} host {}: {name}", thread.host);
                        }
                        stack.push(name);
                    }
                    EventKind::SpanEnd { name } => assert_eq!(stack.pop(), Some(name)),
                    _ => {}
                }
            }
            assert!(stack.is_empty(), "{label} host {}: open spans {stack:?}", thread.host);
        }
    }
}
