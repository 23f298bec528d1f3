//! Partitioner configuration, input sources, the phase table, and phase
//! timing.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cusp_graph::Csr;

/// Output representation of the constructed partition (paper §III-A:
/// "CuSP constructs a partition on each host's memory, in either CSR or
/// CSC format, as desired by the user").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OutputFormat {
    #[default]
    /// Csr, variant.
    Csr,
    /// Build CSR, then transpose in memory (Algorithm 4, line 13).
    Csc,
}

/// Where the input graph comes from.
#[derive(Clone)]
pub enum GraphSource {
    /// A `.bgr` file on disk; each host range-reads its slice (the paper's
    /// normal mode — graph reading time is part of partitioning time).
    /// Version-2 files carry per-edge `u32` data through the pipeline.
    File(PathBuf),
    /// An in-memory graph shared by all simulated hosts; each host copies
    /// out only its slice, standing in for a hot page cache.
    Memory(Arc<Csr>),
    /// An in-memory graph with per-edge `u32` data (aligned to the CSR
    /// edge order) — the memory analogue of a version-2 file.
    MemoryWeighted(Arc<Csr>, Arc<Vec<u32>>),
}

/// Tunable knobs of the partitioner. Defaults follow the paper's
/// evaluation setup (§V-A), scaled to a simulated laptop cluster.
#[derive(Clone, Debug)]
pub struct CuspConfig {
    /// Worker threads per host ("CuSP is typically run with as many
    /// threads as cores"; here hosts share one machine, so keep it small).
    pub threads_per_host: usize,
    /// Send-buffer flush threshold in bytes (paper default 8 MB on a real
    /// cluster; 256 KiB here — Fig. 7 sweeps this).
    pub buffer_threshold: usize,
    /// Number of synchronization rounds in the master assignment phase
    /// (paper default 100; Tables VI/VII sweep this).
    pub sync_rounds: u32,
    /// Importance of node count when dividing the graph among readers
    /// (§IV-B1: users can weight node and/or edge balancing).
    pub node_read_weight: u64,
    /// Importance of edge count when dividing the graph among readers.
    pub edge_read_weight: u64,
    /// Output format of the constructed partitions.
    pub output: OutputFormat,
    /// Ablation switch: disable the §IV-D5 "replicate computation" elision
    /// and run the full stored-master protocol even for pure rules.
    pub force_stored_masters: bool,
    /// Upper bound on edges materialized per reader chunk: the budget of
    /// the `ChunkedSlice` every host's range is read as. `None` (the
    /// default) is an unbounded budget, so the whole range is one chunk,
    /// read by the reading phase and resident from then on — the
    /// monolithic behaviour. With `Some(c)` the reading phase keeps only
    /// the O(nodes) offset array resident and the edge-walking phases
    /// (master, edge assignment, construction) pull node-aligned chunks of
    /// at most `c` edges on demand, flushing construction send buffers at
    /// every chunk boundary, so peak resident edge state is O(c) instead
    /// of O(slice). A single node whose degree exceeds `c` gets a chunk of
    /// its own (the bound is `max(c, d_max)`). The produced partitions are
    /// bit-identical for every chunk size.
    pub chunk_edges: Option<u64>,
    /// Directory for durable phase-boundary checkpoints (host-crash
    /// recovery). `None` (the default) disables checkpointing: a restarted
    /// host then re-runs the whole pipeline, which is still correct —
    /// receivers dedupe its re-sent traffic — just slower. With `Some(dir)`
    /// each host writes `host-{h}.ckpt` after the master and edge
    /// assignment phases and, on restart, resumes from the last completed
    /// phase (corrupt or missing checkpoints silently fall back to the
    /// full re-run). Meaningful only together with a
    /// [`cusp_net::CrashPlan`]. Recovery replays re-executed sends, which
    /// every phase reproduces at any `threads_per_host`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Print `CUSP-WORKER-PHASE <name>` on stdout as each pipeline phase
    /// begins. Used by the `cusp-part launch` supervisor to drive seeded
    /// process-kill injection at deterministic phase points (`--kill-seed`):
    /// a `cusp-part worker` then starts each phase only on the driver's `GO`
    /// line on stdin, so a kill lands before the phase does any work.
    /// Off by default — a library embedding should not chat on stdout.
    pub announce_phases: bool,
}

impl Default for CuspConfig {
    fn default() -> Self {
        CuspConfig {
            threads_per_host: 2,
            buffer_threshold: 256 << 10,
            sync_rounds: 10,
            node_read_weight: 0,
            edge_read_weight: 1,
            output: OutputFormat::Csr,
            force_stored_masters: false,
            chunk_edges: None,
            checkpoint_dir: None,
            announce_phases: false,
        }
    }
}

/// The five pipeline phases, in execution order — the one phase table:
/// a phase's name (comm accounting tag, trace span, `CUSP-WORKER-PHASE`
/// marker, kill-plan site and [`PhaseTimes`] key) and whether a barrier
/// ends it both hang off this enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseId {
    /// Graph reading (phase 1).
    Read,
    /// Master assignment (phase 2).
    Master,
    /// Edge assignment (phase 3).
    EdgeAssign,
    /// Graph allocation (phase 4).
    Alloc,
    /// Graph construction (phase 5).
    Construct,
}

impl PhaseId {
    /// The phase's entry in [`PhaseTimes::NAMES`].
    pub const fn name(self) -> &'static str {
        PhaseTimes::NAMES[self as usize]
    }

    /// Whether a barrier separates this phase from the next: true for the
    /// communicating phases; allocation is host-local and runs straight
    /// into construction.
    pub const fn barrier(self) -> bool {
        !matches!(self, PhaseId::Alloc)
    }
}

/// Wall-clock time spent in each partitioning phase (paper Fig. 4).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Graph reading (phase 1).
    pub read: Duration,
    /// Master assignment (phase 2).
    pub master: Duration,
    /// Edge assignment (phase 3).
    pub edge_assign: Duration,
    /// Graph allocation (phase 4).
    pub alloc: Duration,
    /// Graph construction (phase 5).
    pub construct: Duration,
}

impl PhaseTimes {
    /// Canonical phase names, in pipeline order ([`PhaseId`] indexes it).
    /// These are also the comm accounting tags, so the timing table and the
    /// byte-count tables line up by construction.
    pub const NAMES: [&'static str; 5] = ["read", "master", "edge_assign", "alloc", "construct"];

    /// The five fields in [`Self::NAMES`] order — the only place that pairs
    /// a field with its position in the phase table.
    fn slots(&mut self) -> [&mut Duration; 5] {
        [&mut self.read, &mut self.master, &mut self.edge_assign, &mut self.alloc, &mut self.construct]
    }

    /// Records `elapsed` against `phase`. Called by the
    /// [`crate::phases::pipeline::PhaseCtx::run_phase`] timer.
    pub fn record(&mut self, phase: PhaseId, elapsed: Duration) {
        *self.slots()[phase as usize] += elapsed;
    }

    /// The time recorded for the named phase (one of [`Self::NAMES`]).
    pub fn get(&self, phase: &str) -> Duration {
        let i = Self::NAMES
            .iter()
            .position(|&n| n == phase)
            .unwrap_or_else(|| panic!("unknown phase {phase:?} (expected one of {:?})", Self::NAMES));
        let mut copy = *self;
        *copy.slots()[i]
    }

    /// Per-phase `(name, time, share-of-total)` rows in pipeline order —
    /// the Fig. 4-style breakdown. Shares are fractions in `[0, 1]` and
    /// sum to 1 (all zero when no time was recorded at all).
    pub fn breakdown(&self) -> [(&'static str, Duration, f64); 5] {
        let total = self.total().as_secs_f64();
        Self::NAMES.map(|name| {
            let d = self.get(name);
            let share = if total > 0.0 { d.as_secs_f64() / total } else { 0.0 };
            (name, d, share)
        })
    }

    /// Total partitioning time (the quantity in Fig. 3).
    pub fn total(&self) -> Duration {
        self.read + self.master + self.edge_assign + self.alloc + self.construct
    }

    /// Element-wise max — the cluster-level phase breakdown is the max over
    /// hosts, since phases are separated by barriers.
    pub fn max(&self, other: &PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            read: self.read.max(other.read),
            master: self.master.max(other.master),
            edge_assign: self.edge_assign.max(other.edge_assign),
            alloc: self.alloc.max(other.alloc),
            construct: self.construct.max(other.construct),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CuspConfig::default();
        assert!(c.threads_per_host >= 1);
        assert!(c.sync_rounds >= 1);
        assert_eq!(c.edge_read_weight, 1);
        assert_eq!(c.output, OutputFormat::Csr);
    }

    #[test]
    fn phase_times_total_and_max() {
        let a = PhaseTimes {
            read: Duration::from_millis(5),
            master: Duration::from_millis(1),
            edge_assign: Duration::from_millis(2),
            alloc: Duration::from_millis(3),
            construct: Duration::from_millis(4),
        };
        assert_eq!(a.total(), Duration::from_millis(15));
        let b = PhaseTimes {
            read: Duration::from_millis(1),
            master: Duration::from_millis(9),
            ..a
        };
        let m = a.max(&b);
        assert_eq!(m.read, Duration::from_millis(5));
        assert_eq!(m.master, Duration::from_millis(9));
    }
}
