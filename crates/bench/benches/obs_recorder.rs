//! Per-event cost of the `cusp-obs` recorder hot path.
//!
//! Two things matter for the "near-zero overhead when off, low overhead
//! when on" claim:
//!
//! * `disabled_*` — the cost of an instrumentation call on a thread with
//!   no attached recorder. This is the price every instrumented site in
//!   `cusp-net`/`cusp-galois`/`cusp` pays on ordinary untraced runs, so
//!   it must stay at "one thread-local load and a branch".
//! * `attached_*` — the cost of actually recording an event into the
//!   per-thread ring. This bounds the per-event overhead of traced runs;
//!   the end-to-end number is the benchmark's `obs.trace_overhead_frac`
//!   row (see `BENCHMARK.json`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use cusp_obs::Recorder;

fn bench_disabled(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_disabled");
    group.throughput(Throughput::Elements(1));

    // No recorder attached on this thread: every call must bail after the
    // thread-local check without touching the heap.
    group.bench_function("span_begin_end", |b| {
        b.iter(|| {
            cusp_obs::span_begin(black_box("bench_span"));
            cusp_obs::span_end(black_box("bench_span"));
        });
    });

    group.bench_function("msg_send", |b| {
        b.iter(|| {
            cusp_obs::msg_send(black_box(1), black_box(3), black_box(42), black_box(4096), true);
        });
    });

    group.bench_function("counter", |b| {
        b.iter(|| {
            cusp_obs::counter(black_box("bench_counter"), black_box(7));
        });
    });
    group.finish();
}

fn bench_attached(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_attached");
    group.throughput(Throughput::Elements(1));

    // Keep a recorder attached for the duration of each benchmark. The
    // ring wraps during long runs (drops are counted, pushes stay cheap),
    // so steady-state push cost is what gets measured.
    group.bench_function("span_begin_end", |b| {
        let rec = Recorder::new();
        let _guard = rec.attach(0, "bench");
        b.iter(|| {
            cusp_obs::span_begin(black_box("bench_span"));
            cusp_obs::span_end(black_box("bench_span"));
        });
    });

    group.bench_function("msg_send", |b| {
        let rec = Recorder::new();
        let _guard = rec.attach(0, "bench");
        b.iter(|| {
            cusp_obs::msg_send(black_box(1), black_box(3), black_box(42), black_box(4096), true);
        });
    });

    group.bench_function("counter", |b| {
        let rec = Recorder::new();
        let _guard = rec.attach(0, "bench");
        b.iter(|| {
            cusp_obs::counter(black_box("bench_counter"), black_box(7));
        });
    });

    group.bench_function("span_guard", |b| {
        let rec = Recorder::new();
        let _guard = rec.attach(0, "bench");
        b.iter(|| {
            let _span = cusp_obs::span(black_box("bench_span"));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_disabled, bench_attached);
criterion_main!(benches);
