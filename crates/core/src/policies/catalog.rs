//! The Table II policy catalog: named compositions of one `getMaster` and
//! one `getEdgeOwner` function.
//!
//! | Policy | getMaster    | getEdgeOwner |
//! |--------|--------------|--------------|
//! | EEC    | ContiguousEB | Source       |
//! | HVC    | ContiguousEB | Hybrid       |
//! | CVC    | ContiguousEB | Cartesian    |
//! | FEC    | FennelEB     | Source       |
//! | GVC    | FennelEB     | Hybrid       |
//! | SVC    | FennelEB     | Cartesian    |
//!
//! Plus two of the compositions Table II omits (`CEC` = Contiguous +
//! Source, `FNC` = Fennel + Source) and, as an extension, the HDRF greedy
//! vertex-cut (Table I's streaming class) to demonstrate stateful edge
//! rules.

use cusp_net::Comm;

use cusp_graph::GraphEvent;

use crate::config::{CuspConfig, GraphSource};
use crate::dist_graph::PartitionClass;
use crate::phases::delta::partition_delta;
use crate::phases::driver::{partition, PartitionOutput};
use crate::policies::edges::{CartesianEdge, CheckerboardEdge, HybridEdge, JaggedEdge, SourceEdge};
use crate::policies::extensions::{HdrfEdge, Ldg};
use crate::policies::masters::{Contiguous, ContiguousEB, Fennel, FennelEB};
use crate::policy::{EdgeRule, MasterRule, Setup};

/// A named partitioning policy from the paper's evaluation (plus
/// extensions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Edge-balanced Edge-Cut (Gemini).
    Eec,
    /// Hybrid Vertex-Cut (PowerLyra).
    Hvc,
    /// Cartesian Vertex-Cut (D-Galois / BoundedCommunication).
    Cvc,
    /// Fennel Edge-Cut.
    Fec,
    /// Ginger Vertex-Cut (PowerLyra).
    Gvc,
    /// Sugar Vertex-Cut (new in the paper).
    Svc,
    /// Contiguous (node-balanced) Edge-Cut — Table II's omitted variant.
    Cec,
    /// Fennel (node-only score) Edge-Cut — Table II's omitted variant.
    Fnc,
    /// HDRF greedy vertex-cut (extension; stateful edge rule).
    Hdrf,
    /// LDG edge-cut (extension; Stanton–Kliot streaming heuristic).
    Ldg,
    /// CheckerBoard Vertex-Cut (paper §II-A3: blocked rows AND columns).
    Bvc,
    /// Jagged Vertex-Cut, staggered approximation (paper §II-A3).
    Jvc,
}

/// The six policies the paper evaluates (Fig. 3–6).
pub const ALL_POLICIES: [PolicyKind; 6] = [
    PolicyKind::Eec,
    PolicyKind::Hvc,
    PolicyKind::Cvc,
    PolicyKind::Fec,
    PolicyKind::Gvc,
    PolicyKind::Svc,
];

impl PolicyKind {
    /// Every named policy, in declaration order.
    pub const ALL: [PolicyKind; 12] = [
        PolicyKind::Eec,
        PolicyKind::Hvc,
        PolicyKind::Cvc,
        PolicyKind::Fec,
        PolicyKind::Gvc,
        PolicyKind::Svc,
        PolicyKind::Cec,
        PolicyKind::Fnc,
        PolicyKind::Hdrf,
        PolicyKind::Ldg,
        PolicyKind::Bvc,
        PolicyKind::Jvc,
    ];

    /// The paper's abbreviation for the policy.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Eec => "EEC",
            PolicyKind::Hvc => "HVC",
            PolicyKind::Cvc => "CVC",
            PolicyKind::Fec => "FEC",
            PolicyKind::Gvc => "GVC",
            PolicyKind::Svc => "SVC",
            PolicyKind::Cec => "CEC",
            PolicyKind::Fnc => "FNC",
            PolicyKind::Hdrf => "HDRF",
            PolicyKind::Ldg => "LDG",
            PolicyKind::Bvc => "BVC",
            PolicyKind::Jvc => "JVC",
        }
    }

    /// Structural invariant class (paper Table I).
    pub fn class(self) -> PartitionClass {
        match self {
            PolicyKind::Eec
            | PolicyKind::Fec
            | PolicyKind::Cec
            | PolicyKind::Fnc
            | PolicyKind::Ldg => PartitionClass::OutEdgeCut,
            PolicyKind::Cvc | PolicyKind::Svc | PolicyKind::Bvc | PolicyKind::Jvc => {
                PartitionClass::TwoDimensional
            }
            PolicyKind::Hvc | PolicyKind::Gvc | PolicyKind::Hdrf => {
                PartitionClass::GeneralVertexCut
            }
        }
    }

    /// Whether master assignment is non-trivial (FennelEB-based).
    pub fn has_streaming_masters(self) -> bool {
        matches!(
            self,
            PolicyKind::Fec
                | PolicyKind::Gvc
                | PolicyKind::Svc
                | PolicyKind::Fnc
                | PolicyKind::Ldg
        )
    }

    /// Parses the paper abbreviation (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name().eq_ignore_ascii_case(s))
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One partitioning request before the policy's rule types are known: a
/// full run, or (`delta`) an incremental one against the previous output
/// and the batch applied since.
struct Request<'a> {
    comm: &'a Comm,
    source: GraphSource,
    kind: PolicyKind,
    cfg: &'a CuspConfig,
    delta: Option<(&'a PartitionOutput, &'a [GraphEvent])>,
}

impl Request<'_> {
    /// The rule table: each policy's `(getMaster, getEdgeOwner)` pair,
    /// stated once for every entry point.
    fn run(self) -> PartitionOutput {
        match self.kind {
            PolicyKind::Eec => self.with(|s| (ContiguousEB::new(s), SourceEdge)),
            PolicyKind::Hvc => self.with(|s| (ContiguousEB::new(s), HybridEdge::paper_default())),
            PolicyKind::Cvc => self.with(|s| (ContiguousEB::new(s), CartesianEdge::new(s))),
            PolicyKind::Fec => self.with(|s| (FennelEB::new(s), SourceEdge)),
            PolicyKind::Gvc => self.with(|s| (FennelEB::new(s), HybridEdge::paper_default())),
            PolicyKind::Svc => self.with(|s| (FennelEB::new(s), CartesianEdge::new(s))),
            PolicyKind::Cec => self.with(|s| (Contiguous::new(s), SourceEdge)),
            PolicyKind::Fnc => self.with(|s| (Fennel::new(s), SourceEdge)),
            PolicyKind::Hdrf => self.with(|s| (ContiguousEB::new(s), HdrfEdge::new(s))),
            PolicyKind::Ldg => self.with(|s| (Ldg::new(s), SourceEdge)),
            PolicyKind::Bvc => self.with(|s| (ContiguousEB::new(s), CheckerboardEdge::new(s))),
            PolicyKind::Jvc => self.with(|s| (ContiguousEB::new(s), JaggedEdge::new(s))),
        }
    }

    fn with<MR, ER>(self, build: impl Fn(&Setup) -> (MR, ER)) -> PartitionOutput
    where
        MR: MasterRule,
        ER: EdgeRule,
    {
        let Request { comm, source, kind, cfg, delta } = self;
        let class = kind.class();
        match delta {
            None => partition(comm, source, cfg, class, build),
            Some((prev, batch)) => partition_delta(comm, source, cfg, class, build, prev, batch),
        }
    }
}

/// Partitions with one of the named policies — the one-call entry point
/// used by examples and benchmarks.
pub fn partition_with_policy(
    comm: &Comm,
    source: GraphSource,
    kind: PolicyKind,
    cfg: &CuspConfig,
) -> PartitionOutput {
    Request { comm, source, kind, cfg, delta: None }.run()
}

/// Incrementally repartitions with one of the named policies — the
/// delta analogue of [`partition_with_policy`].
///
/// `source` is the **mutated** graph, `prev` this host's output from the
/// previous run of the same policy/config over the pre-mutation graph, and
/// `batch` the applied [`GraphEvent`]s. Policies whose edge rule is
/// stateful (HDRF) or whose master rule is streaming (Fennel-family, LDG)
/// fall back to a full re-partition inside
/// [`partition_delta`].
pub fn partition_delta_with_policy(
    comm: &Comm,
    source: GraphSource,
    kind: PolicyKind,
    cfg: &CuspConfig,
    prev: &PartitionOutput,
    batch: &[GraphEvent],
) -> PartitionOutput {
    Request { comm, source, kind, cfg, delta: Some((prev, batch)) }.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("nope"), None);
        assert_eq!(PolicyKind::parse("cvc"), Some(PolicyKind::Cvc));
    }

    #[test]
    fn classes_match_table_one() {
        assert_eq!(PolicyKind::Eec.class(), PartitionClass::OutEdgeCut);
        assert_eq!(PolicyKind::Hvc.class(), PartitionClass::GeneralVertexCut);
        assert_eq!(PolicyKind::Cvc.class(), PartitionClass::TwoDimensional);
        assert_eq!(PolicyKind::Svc.class(), PartitionClass::TwoDimensional);
    }

    #[test]
    fn streaming_masters_flag() {
        assert!(!PolicyKind::Eec.has_streaming_masters());
        assert!(PolicyKind::Svc.has_streaming_masters());
    }
}
