//! The metric registry: every metric named in `BENCHMARK.json`, with its
//! unit, whether it is an end-to-end metric (printed with `--trace 0`,
//! bounded) or a per-layer one (printed with `--trace 1`), and for the
//! bounded ones the bound by which two medians of the same code may differ.
//!
//! Every workload emits every `E2e` and `Layer` metric here, because the
//! driver compares them per workload; a test holds those rows and
//! `BENCHMARK.json` equal. An end-to-end metric only one workload has (the
//! serve latencies, the two sides of the delta pair) cannot be in
//! `BENCHMARK.json` for that reason: it is a `Scoped` row, emitted by its
//! workload's untraced run and gated by `benchmark aa` like the others.
//! Rows that are neither (the TCP tax, the delta curve, the analytics
//! runs, the serve counters) are printed as `extra` rows, which the README
//! lists.

/// Which part of the contract a row belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A metric a user of the system sees; measured with tracing off.
    E2e,
    /// An end-to-end metric of the one workload named; measured with
    /// tracing off, bounded, gated by `aa`, outside `BENCHMARK.json`.
    Scoped(&'static str),
    /// A metric of a single layer; measured in the traced pass.
    Layer,
    /// Measured and printed, but not part of `BENCHMARK.json`.
    Extra,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::E2e => "e2e",
            Kind::Scoped(_) => "scoped",
            Kind::Layer => "layer",
            Kind::Extra => "extra",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    /// `lower` or `higher`: which direction is an improvement. Read by the
    /// test that holds this table and `BENCHMARK.json` equal.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// End-to-end and scoped only: the relative difference between two
    /// medians beyond which they do not agree. All of them are "lower is
    /// better", so the same number is the worsening that counts as a
    /// regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::E2e,
        better: "lower",
        bound: Some(bound),
    }
}

const fn scoped(
    name: &'static str,
    unit: &'static str,
    workload: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Scoped(workload),
        better: "lower",
        bound: Some(bound),
    }
}

/// A layer metric that improves downwards: a time, a cost, a count of
/// bytes or messages, an imbalance.
const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Layer,
        better: "lower",
        bound: None,
    }
}

/// A layer metric that improves upwards: a rate, a speed-up, a share
/// explained.
const fn rate(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Layer,
        better: "higher",
        bound: None,
    }
}

const TIME_BOUND: f64 = 0.25;

pub const METRICS: &[MetricDef] = &[
    // ---- end to end ---------------------------------------------------
    // Every time bound is TIME_BOUND, the widest the contract allows, not
    // the issue's 0.10: the driver refuses a benchmark whose ten-seed
    // spread (IQR / median) exceeds the bound and asks for a third of it,
    // and on the shared 2-core box this was sized on whole runs of one
    // workload sit 5-15 % apart for minutes at a time (CPU seconds per
    // operation drift with the wall, so it is the box, not waiting).
    // Memory repeats within 0.01-0.09 (widest on `cvc_tcp`, whose in-flight
    // frames depend on timing), quality within 0.001.
    e2e("setup_s", "s", TIME_BOUND),
    e2e("partition_s", "s", TIME_BOUND),
    e2e("peak_rss_mb", "MiB", 0.2),
    e2e("replication_factor", "proxies/vertex", 0.01),
    // ---- end to end, one workload only (gated by `aa`) -----------------
    // `serve_hit_p50_us` is not here: see the README ("Demoted").
    scoped("delta_s", "s", "delta_cvc", TIME_BOUND),
    scoped("delta_full_s", "s", "delta_cvc", TIME_BOUND),
    scoped("serve_cold_p50_ms", "ms", "serve_mix", TIME_BOUND),
    scoped("serve_disk_hit_p50_ms", "ms", "serve_mix", TIME_BOUND),
    scoped("serve_apply_p50_ms", "ms", "serve_mix", TIME_BOUND),
    // ---- cusp (core): rows read from what the workload's runs return ---
    layer("core.read_s", "s"),
    layer("core.master_s", "s"),
    layer("core.edge_assign_s", "s"),
    layer("core.alloc_s", "s"),
    layer("core.construct_s", "s"),
    rate("core.phase_sum_frac", "ratio"),
    layer("core.host_skew", "ratio"),
    rate("core.medges_s_host", "Medges/s"),
    layer("core.cpu_s", "s"),
    rate("core.cpu_util", "ratio"),
    layer("core.single_host_s", "s"),
    rate("core.speedup_vs_single", "ratio"),
    layer("core.edge_balance", "ratio"),
    layer("core.node_balance", "ratio"),
    layer("core.total_mirrors", "count"),
    layer("core.verify_s", "s"),
    rate("core.write_partition_mbps", "MB/s"),
    rate("core.read_partition_mbps", "MB/s"),
    // ---- cusp-graph ----------------------------------------------------
    layer("graph.peak_resident_edges", "count"),
    rate("graph.range_read_mbps", "MB/s"),
    rate("graph.chunk_load_mbps", "MB/s"),
    layer("graph.chunk_load_p50_us", "us"),
    rate("graph.read_bgr_mbps", "MB/s"),
    layer("graph.apply_batch_ms", "ms"),
    rate("graph.wal_append_mbps", "MB/s"),
    // ---- cusp-galois ---------------------------------------------------
    layer("galois.fork_join_ns", "ns"),
    rate("galois.do_all_mitems_s", "Mitems/s"),
    layer("galois.steal_skew_ratio", "ratio"),
    rate("galois.prefix_sum_melems_s", "Melems/s"),
    // ---- cusp-net ------------------------------------------------------
    layer("net.bytes_master", "bytes"),
    layer("net.bytes_edge_assign", "bytes"),
    layer("net.bytes_construct", "bytes"),
    layer("net.msgs_construct", "count"),
    layer("net.bytes_total", "bytes"),
    layer("net.msgs_total", "count"),
    layer("net.bytes_per_edge", "bytes/edge"),
    layer("net.modeled_omnipath_s", "s"),
    layer("net.cluster_overhead_ms", "ms"),
    rate("net.codec_u32_enc_mbps", "MB/s"),
    rate("net.codec_u32_dec_mbps", "MB/s"),
    rate("net.codec_u64_enc_mbps", "MB/s"),
    rate("net.codec_u64_dec_mbps", "MB/s"),
    layer("net.sim_rtt_ns", "ns"),
    rate("net.sim_stream_mbps", "MB/s"),
    layer("net.tcp_rtt_ns", "ns"),
    rate("net.tcp_stream_mbps", "MB/s"),
    layer("net.barrier_sim_ns", "ns"),
    layer("net.barrier_tcp_ns", "ns"),
    layer("net.allreduce_sim_us", "us"),
    layer("net.tcp_establish_ms", "ms"),
    // ---- cusp-serve (probe on the probe graph) ---------------------------
    layer("serve.router_hit_p50_us", "us"),
    layer("serve.wire_overhead_us", "us"),
    rate("serve.upload_mbps", "MB/s"),
    // ---- cusp-obs ------------------------------------------------------
    layer("obs.trace_overhead_frac", "ratio"),
    layer("obs.events", "count"),
    layer("obs.dropped_events", "count"),
    layer("obs.span_on_ns", "ns"),
    layer("obs.span_off_ns", "ns"),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// The five workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 5] = [
    "cvc_stream",
    "svc_kron",
    "cvc_tcp",
    "delta_cvc",
    "serve_mix",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(ok_name(m.name), "bad name {}", m.name);
            assert!(ok_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert_eq!(
                m.bound.is_some(),
                matches!(m.kind, Kind::E2e | Kind::Scoped(_)),
                "{}",
                m.name
            );
            if let Kind::Scoped(w) = m.kind {
                assert!(WORKLOADS.contains(&w), "{} scoped to unknown {w}", m.name);
            }
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        for w in WORKLOADS {
            assert!(ok_name(w) && seen.insert(w), "workload name {w}");
        }
        let (e2e, layers) = METRICS.iter().fold((0, 0), |(e, l), m| match m.kind {
            Kind::E2e => (e + 1, l),
            Kind::Layer => (e, l + 1),
            _ => (e, l),
        });
        assert!((1..=16).contains(&e2e) && (1..=128).contains(&layers));
    }
}
