//! Per-phase critical-path summary.
//!
//! Folds three inputs into one table:
//!
//! * measured compute time per host, from the phase spans in a drained
//!   [`Trace`];
//! * measured traffic per host and phase ([`PhaseNet`] rows, produced by
//!   the caller from the network layer's `CommStats` — this crate stays a
//!   leaf and never sees `cusp-net` types);
//! * a modeled α–β network cost ([`CostModel`]): per host,
//!   `α · max(msgs_out, msgs_in) + β · max(bytes_out, bytes_in)`.
//!
//! The per-phase *critical path* is the host maximizing compute + modeled
//! network time; the table reports that host's compute/network split so a
//! reader can tell at a glance whether a phase is compute- or
//! communication-bound and which host is the straggler.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::event::EventKind;
use crate::recorder::Trace;

/// One host's measured traffic during one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostNet {
    /// Messages sent to remote hosts.
    pub msgs_out: u64,
    /// Messages received from remote hosts.
    pub msgs_in: u64,
    /// Payload bytes sent to remote hosts.
    pub bytes_out: u64,
    /// Payload bytes received from remote hosts.
    pub bytes_in: u64,
}

/// One phase's measured traffic, per host (index = host id).
#[derive(Clone, Debug, Default)]
pub struct PhaseNet {
    /// Phase name; must match the span name the pipeline records.
    pub name: String,
    /// Per-host traffic, indexed by host id.
    pub hosts: Vec<HostNet>,
}

/// The α–β point-to-point cost model: the one formula behind every
/// modeled network time, here and in `cusp_net` (which re-exports it as
/// `NetworkModel` and prices each host of a phase with
/// [`CostModel::host_seconds`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-message overhead in seconds (software + injection latency).
    pub alpha: f64,
    /// Per-byte transfer cost in seconds (1 / effective bandwidth).
    pub beta: f64,
}

impl CostModel {
    /// A model loosely calibrated to the paper's testbed: 100 Gb/s
    /// Omni-Path (~10 GB/s effective per host) with ~20 µs end-to-end
    /// per-message software overhead (MPI rendezvous path).
    pub fn omni_path() -> Self {
        CostModel { alpha: 20e-6, beta: 1.0 / 10e9 }
    }

    /// A slower commodity 10 GbE-like model (higher α and β) — useful for
    /// sensitivity checks.
    pub fn ten_gbe() -> Self {
        CostModel { alpha: 50e-6, beta: 1.0 / 1.1e9 }
    }

    /// A zero-cost model (modeled network time is always 0).
    pub fn free() -> Self {
        CostModel { alpha: 0.0, beta: 0.0 }
    }

    /// Modeled network seconds for one host's phase traffic:
    /// `α · max(msgs_out, msgs_in) + β · max(bytes_out, bytes_in)`.
    pub fn host_seconds(&self, net: &HostNet) -> f64 {
        self.alpha * net.msgs_out.max(net.msgs_in) as f64
            + self.beta * net.bytes_out.max(net.bytes_in) as f64
    }
}

/// One host's cost within one phase row.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCost {
    /// Host id.
    pub host: u32,
    /// Measured compute seconds (sum of this phase's spans on the host).
    pub compute_s: f64,
    /// Modeled α–β network seconds.
    pub net_s: f64,
    /// Measured traffic backing `net_s`.
    pub net: HostNet,
}

impl HostCost {
    /// Compute plus modeled network seconds.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.net_s
    }
}

/// One phase of the summary: per-host costs plus the critical host.
#[derive(Clone, Debug, Default)]
pub struct PhaseRow {
    /// Phase name.
    pub name: String,
    /// Per-host costs, indexed by host id.
    pub hosts: Vec<HostCost>,
    /// Host with the largest compute + modeled network time.
    pub critical_host: u32,
}

impl PhaseRow {
    /// The critical host's cost entry.
    pub fn critical(&self) -> &HostCost {
        &self.hosts[self.critical_host as usize]
    }
}

/// Sums span durations per `(host, name)`, tolerating nested spans of the
/// same name (only the outermost occurrence accumulates).
fn span_seconds(trace: &Trace) -> HashMap<(u32, &'static str), f64> {
    let mut open: HashMap<(u32, u32, &'static str), Vec<u64>> = HashMap::new();
    let mut total: HashMap<(u32, &'static str), f64> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            EventKind::SpanBegin { name, .. } => {
                open.entry((e.host, e.tid, name)).or_default().push(e.ts_ns);
            }
            EventKind::SpanEnd { name } => {
                if let Some(stack) = open.get_mut(&(e.host, e.tid, name)) {
                    if let Some(begin) = stack.pop() {
                        if stack.is_empty() {
                            *total.entry((e.host, name)).or_insert(0.0) +=
                                e.ts_ns.saturating_sub(begin) as f64 * 1e-9;
                        }
                    }
                }
            }
            _ => {}
        }
    }
    total
}

/// Builds the per-phase summary. `phases` supplies the row order and the
/// measured traffic; compute time comes from `trace` spans whose name
/// equals the phase name. Hosts missing from either side default to zero.
pub fn summarize(trace: &Trace, phases: &[PhaseNet], model: CostModel) -> Vec<PhaseRow> {
    let compute = span_seconds(trace);
    let trace_hosts = trace.threads.iter().map(|t| t.host + 1).max().unwrap_or(0);
    phases
        .iter()
        .map(|phase| {
            let n_hosts = (phase.hosts.len() as u32).max(trace_hosts);
            let mut hosts = Vec::with_capacity(n_hosts as usize);
            for h in 0..n_hosts {
                let net = phase.hosts.get(h as usize).copied().unwrap_or_default();
                // Phase names are recorded from 'static pipeline constants;
                // match by value.
                let compute_s = compute
                    .iter()
                    .find(|((ch, cn), _)| *ch == h && *cn == phase.name)
                    .map(|(_, s)| *s)
                    .unwrap_or(0.0);
                hosts.push(HostCost {
                    host: h,
                    compute_s,
                    net_s: model.host_seconds(&net),
                    net,
                });
            }
            let critical_host = hosts
                .iter()
                .max_by(|a, b| a.total_s().total_cmp(&b.total_s()))
                .map(|h| h.host)
                .unwrap_or(0);
            PhaseRow { name: phase.name.clone(), hosts, critical_host }
        })
        .collect()
}

fn fmt_bytes(b: u64) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 10 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// Renders the summary as an aligned text table. The critical host of each
/// phase is starred; the trailing line per phase gives its compute vs.
/// modeled-network split.
pub fn render(rows: &[PhaseRow], model: CostModel) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "per-phase critical path (alpha={:.1}us/msg, beta={:.3}ns/B)",
        model.alpha * 1e6,
        model.beta * 1e9
    );
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>11} {:>9} {:>9} {:>10} {:>10} {:>11} {:>11}",
        "phase", "host", "compute_ms", "msgs_out", "msgs_in", "bytes_out", "bytes_in", "net_ms",
        "total_ms"
    );
    for row in rows {
        for h in &row.hosts {
            let star = if h.host == row.critical_host { "*" } else { " " };
            let _ = writeln!(
                out,
                "{:<12} {:>4}{} {:>11.3} {:>9} {:>9} {:>10} {:>10} {:>11.3} {:>11.3}",
                row.name,
                h.host,
                star,
                h.compute_s * 1e3,
                h.net.msgs_out,
                h.net.msgs_in,
                fmt_bytes(h.net.bytes_out),
                fmt_bytes(h.net.bytes_in),
                h.net_s * 1e3,
                h.total_s() * 1e3,
            );
        }
        let c = row.critical();
        let _ = writeln!(
            out,
            "  -> {}: critical host {} = {:.3} ms compute + {:.3} ms modeled network",
            row.name,
            c.host,
            c.compute_s * 1e3,
            c.net_s * 1e3
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn traced_two_hosts() -> Trace {
        let rec = Recorder::new();
        for h in 0..2u32 {
            let _g = rec.attach(h, "main");
            crate::span_begin("read");
            std::thread::sleep(std::time::Duration::from_millis(2 * (h as u64 + 1)));
            crate::span_end("read");
        }
        rec.drain()
    }

    #[test]
    fn critical_host_is_slowest_total() {
        let trace = traced_two_hosts();
        let phases = vec![PhaseNet {
            name: "read".into(),
            hosts: vec![
                HostNet { msgs_out: 10, msgs_in: 10, bytes_out: 1000, bytes_in: 1000 },
                HostNet { msgs_out: 1, msgs_in: 1, bytes_out: 10, bytes_in: 10 },
            ],
        }];
        let model = CostModel { alpha: 20e-6, beta: 1.0 / 10e9 };
        let rows = summarize(&trace, &phases, model);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].hosts.len(), 2);
        // Host 1 slept 2x longer; tiny modeled net can't flip it.
        assert_eq!(rows[0].critical_host, 1);
        assert!(rows[0].hosts[0].compute_s > 0.0);
        assert!(rows[0].hosts[1].compute_s > rows[0].hosts[0].compute_s);
        assert!(rows[0].hosts[0].net_s > rows[0].hosts[1].net_s);
    }

    #[test]
    fn model_uses_max_of_in_out() {
        let model = CostModel { alpha: 1.0, beta: 0.0 };
        let s = model.host_seconds(&HostNet { msgs_out: 3, msgs_in: 7, ..Default::default() });
        assert_eq!(s, 7.0);
    }

    #[test]
    fn render_marks_critical_and_mentions_split() {
        let trace = traced_two_hosts();
        let phases = vec![PhaseNet { name: "read".into(), hosts: vec![HostNet::default(); 2] }];
        let model = CostModel { alpha: 20e-6, beta: 1e-10 };
        let rows = summarize(&trace, &phases, model);
        let text = render(&rows, model);
        assert!(text.contains("read"));
        assert!(text.contains("critical host"));
        assert!(text.contains('*'));
    }

    #[test]
    fn missing_phase_span_defaults_to_zero_compute() {
        let rec = Recorder::new();
        let _g = rec.attach(0, "main");
        drop(_g);
        let trace = rec.drain();
        let phases = vec![PhaseNet {
            name: "master".into(),
            hosts: vec![HostNet { msgs_out: 5, msgs_in: 5, bytes_out: 500, bytes_in: 500 }],
        }];
        let model = CostModel { alpha: 1e-6, beta: 1e-9 };
        let rows = summarize(&trace, &phases, model);
        assert_eq!(rows[0].hosts[0].compute_s, 0.0);
        assert!(rows[0].hosts[0].net_s > 0.0);
    }
}
