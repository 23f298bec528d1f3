//! The runner's own tests: all five workloads at the test-only `tiny`
//! size, checked against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::inputs::Sizes;
use crate::metrics::{Kind, METRICS, WORKLOADS};
use crate::report::Report;
use crate::{probes, run_workload, spans, Ctx, Plan};

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../../../..")
}

fn tiny(trace: bool) -> Ctx {
    if trace {
        spans::enable();
    }
    Ctx {
        seed: 0xC05B,
        seconds: 0.0,
        trace,
        sizes: Sizes::tiny(),
        plan: Plan {
            setup_reps: 1,
            warmups: 1,
            min_iters: 2,
            traced_iters: 2,
        },
        scratch_base: repo_root().join("results/benchmark/scratch"),
    }
}

fn run(name: &str, trace: bool) -> Report {
    let report = run_workload(name, &tiny(trace)).expect("known workload");
    assert_eq!(report.failed, 0, "{name}: {:?}", report.failures);
    assert!(report.attempted >= 1);
    report
}

/// The value of `"key": "…"` in `obj`.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let at = obj.find(&format!("\"{key}\""))?;
    let rest = &obj[at + key.len() + 2..];
    let open = rest.find('"')?;
    let close = rest[open + 1..].find('"')?;
    Some(rest[open + 1..open + 1 + close].to_string())
}

/// The value of `"key": <number>` in `obj`.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let at = obj.find(&format!("\"{key}\""))?;
    let rest = obj[at + key.len() + 2..]
        .trim_start()
        .strip_prefix(':')?
        .trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The flat objects of the array named `key` in `BENCHMARK.json`.
fn array_objects(key: &str) -> Vec<String> {
    let at = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &BENCHMARK_JSON[at..];
    let body = &body[body.find('[').expect("array")..=body.find(']').expect("array end")];
    body.split('{')
        .skip(1)
        .map(|o| o[..o.find('}').expect("object end")].to_string())
        .collect()
}

#[test]
fn benchmark_json_and_the_registry_agree() {
    type Def = (String, String, String, Kind, Option<f64>);
    let field =
        |obj: &str, key: &str| str_field(obj, key).unwrap_or_else(|| panic!("no {key} in {obj}"));
    let mut from_json: Vec<Def> = Vec::new();
    for obj in array_objects("end_to_end") {
        let bound = num_field(&obj, "bound").expect("bound");
        from_json.push((
            field(&obj, "name"),
            field(&obj, "unit"),
            field(&obj, "better"),
            Kind::E2e,
            Some(bound),
        ));
    }
    for obj in array_objects("per_layer") {
        from_json.push((
            field(&obj, "name"),
            field(&obj, "unit"),
            field(&obj, "better"),
            Kind::Layer,
            None,
        ));
    }
    let from_code: Vec<Def> = METRICS
        .iter()
        .filter(|m| matches!(m.kind, Kind::E2e | Kind::Layer))
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.to_string(),
                m.kind,
                m.bound,
            )
        })
        .collect();
    assert_eq!(from_json, from_code);
    assert!(from_json.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));

    let workloads: Vec<String> = array_objects("workloads")
        .iter()
        .map(|o| str_field(o, "name").expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let paths = &BENCHMARK_JSON[BENCHMARK_JSON.find("\"paths\"").expect("paths")..];
    assert!(
        paths.contains("\"crates/bench/src/bin/benchmark\"")
            && paths.contains("\"results/benchmark\"")
    );
    assert_eq!(
        num_field(BENCHMARK_JSON, "run_seconds"),
        Some(crate::aa::DEFAULT_SECONDS)
    );
}

/// Every row's name once, with the registry's unit, for the rows of `kind`.
fn assert_emits_exactly(report: &Report, kind: Kind) {
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
    for r in &report.rows {
        assert!(
            !r.name.is_empty()
                && r.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{}: bad metric name {:?}",
            report.workload,
            r.name
        );
        assert!(
            seen.insert(&r.name, r.unit).is_none(),
            "{}: {} emitted twice",
            report.workload,
            r.name
        );
        assert!(
            r.summary.median.is_finite(),
            "{}: {} is not finite",
            report.workload,
            r.name
        );
    }
    for m in METRICS.iter().filter(|m| m.kind == kind) {
        assert_eq!(
            seen.get(m.name),
            Some(&m.unit),
            "{}: {} missing or wrong unit",
            report.workload,
            m.name
        );
    }
    let json = report.result_json(kind);
    assert_eq!(
        json.matches("\"value\"").count(),
        METRICS.iter().filter(|m| m.kind == kind).count()
    );
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric_once() {
    for w in WORKLOADS {
        let report = run(w, false);
        assert_emits_exactly(&report, Kind::E2e);
        for m in METRICS {
            match m.kind {
                Kind::E2e => assert!(
                    report.value_of(m.name).unwrap() > 0.0,
                    "{w}: {} must never be 0",
                    m.name
                ),
                // A scoped metric is its own workload's and nobody else's.
                Kind::Scoped(owner) => assert_eq!(
                    report.value_of(m.name).is_some_and(|v| v > 0.0),
                    owner == w,
                    "{w}: {}",
                    m.name
                ),
                _ => {}
            }
        }
    }
}

/// A traced run emits every per-layer metric once and a trace the repo's
/// validator accepts. One test per workload, so that they run in parallel.
fn traced(w: &str) {
    let mut report = run(w, true);
    assert_emits_exactly(&report, Kind::Layer);
    let out = repo_root().join(format!("results/benchmark/scratch/trace-test-{w}"));
    probes::finish_trace(&out, &mut report);
    assert_eq!(report.failed, 0, "{w}: {:?}", report.failures);
    let json = std::fs::read_to_string(out.join(format!("trace-{w}.json"))).expect("trace written");
    let check = cusp_obs::validate_trace_json(&json).expect("valid trace");
    assert!(check.span_events > 0);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn traced_cvc_stream() {
    traced("cvc_stream");
}

#[test]
fn traced_svc_kron() {
    traced("svc_kron");
}

#[test]
fn traced_cvc_tcp() {
    traced("cvc_tcp");
}

#[test]
fn traced_delta_cvc() {
    traced("delta_cvc");
}

#[test]
fn traced_serve_mix() {
    traced("serve_mix");
}

#[test]
fn count_rows_repeat_exactly_on_the_deterministic_workloads() {
    const COUNTS: [&str; 9] = [
        "net.bytes_master",
        "net.bytes_edge_assign",
        "net.bytes_construct",
        "net.msgs_construct",
        "net.bytes_total",
        "net.msgs_total",
        "core.total_mirrors",
        "graph.peak_resident_edges",
        "replication_factor",
    ];
    for w in ["cvc_tcp", "delta_cvc"] {
        let (a, b) = (run(w, false), run(w, false));
        let delta_counts: &[&str] = if w == "delta_cvc" {
            &["core.delta_dirty_vertices", "core.delta_reused_edges"]
        } else {
            &[]
        };
        for name in COUNTS.iter().chain(delta_counts) {
            assert_eq!(
                a.value_of(name),
                b.value_of(name),
                "{w}: {name} differs between two runs"
            );
            assert!(a.value_of(name).is_some(), "{w}: {name} not emitted");
        }
        for name in delta_counts {
            assert!(a.value_of(name).unwrap() > 0.0, "{name}");
        }
    }
}

#[test]
fn another_seed_gives_other_inputs_and_no_failures() {
    let mut ctx = tiny(false);
    let a = run_workload("cvc_stream", &ctx).unwrap();
    ctx.seed = 7;
    let b = run_workload("cvc_stream", &ctx).unwrap();
    assert_eq!((a.failed, b.failed), (0, 0));
    assert_ne!(a.value_of("net.bytes_total"), b.value_of("net.bytes_total"));
}
