//! `getEdgeOwner` rules from Algorithm 2 of the paper: `Source`, `Hybrid`,
//! and `Cartesian`, plus the two other 2D block cuts of §II-A3.
//!
//! `get_edge_owner` runs once per edge in edge assignment and once more in
//! the construction replay, so the three grid rules (`Cartesian`,
//! `CheckerBoard`, `Jagged`) do not evaluate their closed forms there: each
//! divides once per partition when it is built, into the tables of a shared
//! `GridOwners`, and answers an edge with two loads and an add.

use cusp_graph::Node;

use crate::dist_graph::PartitionClass;
use crate::policy::{EdgeRule, Setup};
use crate::props::LocalProps;
use crate::PartId;

/// `Source` (Algorithm 2): the edge follows its source's master —
/// producing an outgoing edge-cut.
#[derive(Clone, Copy, Debug, Default)]
pub struct SourceEdge;

impl EdgeRule for SourceEdge {
    type State = ();
    const CLASS: PartitionClass = PartitionClass::OutEdgeCut;

    #[inline]
    fn get_edge_owner(
        &self,
        _prop: &LocalProps,
        _src: Node,
        _dst: Node,
        src_master: PartId,
        _dst_master: PartId,
        _state: &Self::State,
    ) -> PartId {
        src_master
    }
}

/// `Hybrid` (Algorithm 2): PowerLyra's hybrid cut. Low-degree sources keep
/// their edges (edge-cut-like); high-degree sources scatter edges to the
/// destinations' masters (vertex-cut-like), splitting the hubs that
/// dominate power-law graphs.
#[derive(Clone, Copy, Debug)]
pub struct HybridEdge {
    /// Source out-degree above which edges chase the destination.
    pub degree_threshold: u64,
}

impl HybridEdge {
    /// The paper's evaluation threshold (§V-A; PowerLyra's default
    /// hybrid-cut threshold of 100 — the paper's text is truncated at
    /// "threshold of 1…", and 100 reproduces Table V's traffic shape).
    pub fn paper_default() -> Self {
        HybridEdge {
            degree_threshold: 100,
        }
    }
}

impl EdgeRule for HybridEdge {
    type State = ();
    const CLASS: PartitionClass = PartitionClass::GeneralVertexCut;

    #[inline]
    fn get_edge_owner(
        &self,
        prop: &LocalProps,
        src: Node,
        _dst: Node,
        src_master: PartId,
        dst_master: PartId,
        _state: &Self::State,
    ) -> PartId {
        if prop.out_degree(src) > self.degree_threshold {
            dst_master
        } else {
            src_master
        }
    }
}

/// Largest divisor of `k` that is ≤ √k, paired with its cofactor.
pub fn grid_factors(k: PartId) -> (PartId, PartId) {
    assert!(k > 0);
    let mut p_r = (k as f64).sqrt() as PartId;
    while p_r > 1 && !k.is_multiple_of(p_r) {
        p_r -= 1;
    }
    (p_r.max(1), k / p_r.max(1))
}

/// The owner function of a 2D block cut on a `p_r × p_c` grid, tabulated
/// once per rule: `owner = row_base[srcMaster] + col[key]`, where the
/// column key is the destination's master (plus, for [`JaggedEdge`], the
/// source's grid row). Every grid rule blocks the adjacency matrix's rows
/// over the grid rows the same way — `row_base[sm] = floor(sm / p_c) · p_c`
/// — and differs only in how a key picks the grid column, which is the
/// closure each rule hands to [`GridOwners::new`].
#[derive(Clone, Debug)]
struct GridOwners {
    /// First partition of the grid row that holds each source master.
    row_base: Box<[PartId]>,
    /// Grid column of each column key.
    col: Box<[PartId]>,
}

impl GridOwners {
    /// Tabulates `row_base` for the `k` masters of a grid `p_c` columns
    /// wide, and `col` for `keys` column keys.
    fn new(k: PartId, p_c: PartId, keys: PartId, col: impl Fn(PartId) -> PartId) -> Self {
        GridOwners {
            row_base: (0..k).map(|sm| sm / p_c * p_c).collect(),
            col: (0..keys).map(col).collect(),
        }
    }

    #[inline]
    fn owner(&self, src_master: PartId, key: PartId) -> PartId {
        self.row_base[src_master as usize] + self.col[key as usize]
    }
}

/// `Cartesian` (Algorithm 2): the 2D block cut of CVC. Partitions form a
/// `p_r × p_c` grid; the adjacency matrix's row blocks are distributed
/// *blocked* over the grid rows and its column blocks *cyclically* over
/// the grid columns (paper Fig. 1c):
///
/// ```text
/// blockedRowOffset  = floor(srcMaster / p_c) · p_c
/// cyclicColumnOffset = dstMaster mod p_c
/// owner = blockedRowOffset + cyclicColumnOffset
/// ```
#[derive(Clone, Debug)]
pub struct CartesianEdge {
    /// P r.
    pub p_r: PartId,
    /// P c.
    pub p_c: PartId,
    owners: GridOwners,
}

impl CartesianEdge {
    /// Factorizes `parts` into the most square grid `p_r × p_c` with
    /// `p_r ≤ p_c` (e.g. 4 → 2×2, 8 → 2×4, 7 → 1×7).
    pub fn new(setup: &Setup) -> Self {
        let (p_r, p_c) = grid_factors(setup.parts);
        let owners = GridOwners::new(setup.parts, p_c, setup.parts, |dm| dm % p_c);
        CartesianEdge { p_r, p_c, owners }
    }
}

impl EdgeRule for CartesianEdge {
    type State = ();
    const CLASS: PartitionClass = PartitionClass::TwoDimensional;

    #[inline]
    fn get_edge_owner(
        &self,
        _prop: &LocalProps,
        _src: Node,
        _dst: Node,
        src_master: PartId,
        dst_master: PartId,
        _state: &Self::State,
    ) -> PartId {
        self.owners.owner(src_master, dst_master)
    }
}

/// `CheckerBoard` (BVC, paper §II-A3): the other classic 2D block cut.
/// Like [`CartesianEdge`], the adjacency matrix is blocked in both
/// dimensions and owners share a grid row with the source's master — but
/// the column blocks are distributed **blocked** instead of cyclically:
/// `col = floor(dstMaster · p_c / k)`.
#[derive(Clone, Debug)]
pub struct CheckerboardEdge {
    /// Grid rows.
    pub p_r: PartId,
    /// Grid columns.
    pub p_c: PartId,
    owners: GridOwners,
}

impl CheckerboardEdge {
    /// Factorizes `parts` like [`CartesianEdge::new`].
    pub fn new(setup: &Setup) -> Self {
        let k = setup.parts;
        let (p_r, p_c) = grid_factors(k);
        let owners =
            GridOwners::new(k, p_c, k, |dm| (dm as u64 * p_c as u64 / k as u64) as PartId);
        CheckerboardEdge { p_r, p_c, owners }
    }
}

impl EdgeRule for CheckerboardEdge {
    type State = ();
    const CLASS: PartitionClass = PartitionClass::TwoDimensional;

    #[inline]
    fn get_edge_owner(
        &self,
        _prop: &LocalProps,
        _src: Node,
        _dst: Node,
        src_master: PartId,
        dst_master: PartId,
        _state: &Self::State,
    ) -> PartId {
        self.owners.owner(src_master, dst_master)
    }
}

/// `Jagged` (JVC, paper §II-A3), staggered approximation: rows are blocked
/// as in CVC, but each row block uses its own (staggered) column mapping —
/// `col = (dstMaster + row) mod p_c` — so no two row blocks share identical
/// column boundaries. True jagged cuts compute per-row column boundaries
/// from the nonzero distribution; the stagger reproduces their key
/// property (per-row column independence, row-bounded communication)
/// without a second pass over the data.
#[derive(Clone, Debug)]
pub struct JaggedEdge {
    /// Grid rows.
    pub p_r: PartId,
    /// Grid columns.
    pub p_c: PartId,
    /// Grid row of each source master: the stagger added to the column key.
    row: Box<[PartId]>,
    owners: GridOwners,
}

impl JaggedEdge {
    /// Factorizes `parts` like [`CartesianEdge::new`].
    pub fn new(setup: &Setup) -> Self {
        let k = setup.parts;
        let (p_r, p_c) = grid_factors(k);
        // Keys are `dstMaster + row`, at most `(k − 1) + (p_r − 1)`.
        let owners = GridOwners::new(k, p_c, k + p_r - 1, |key| key % p_c);
        JaggedEdge { p_r, p_c, row: (0..k).map(|sm| sm / p_c).collect(), owners }
    }
}

impl EdgeRule for JaggedEdge {
    type State = ();
    const CLASS: PartitionClass = PartitionClass::TwoDimensional;

    #[inline]
    fn get_edge_owner(
        &self,
        _prop: &LocalProps,
        _src: Node,
        _dst: Node,
        src_master: PartId,
        dst_master: PartId,
        _state: &Self::State,
    ) -> PartId {
        self.owners.owner(src_master, dst_master + self.row[src_master as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp_graph::{Csr, GraphSlice, ReadSplit};
    use std::sync::Arc;

    fn props(g: &Csr, _k: PartId) -> (GraphSlice, u64, u64) {
        (
            GraphSlice::window(Arc::new(g.clone()), None, 0, g.num_nodes() as Node),
            g.num_nodes() as u64,
            g.num_edges(),
        )
    }

    fn grid_setup(k: PartId) -> Setup {
        Setup {
            num_nodes: 10,
            num_edges: 10,
            parts: k,
            eb_boundaries: Arc::new(vec![0; k as usize + 1]),
            read_splits: Arc::new(vec![ReadSplit { lo: 0, hi: 10 }]),
        }
    }

    #[test]
    fn grid_tables_equal_the_closed_forms_for_every_master_pair() {
        // The formulas of the three doc comments, divided out per pair: a
        // wrong table entry, key range or stagger fails here.
        let g = Csr::from_edges(2, &[(0, 1)]);
        for k in [1u32, 2, 4, 6, 7, 8, 12, 16, 64, 300] {
            let setup = grid_setup(k);
            let (cvc, bvc, jvc) =
                (CartesianEdge::new(&setup), CheckerboardEdge::new(&setup), JaggedEdge::new(&setup));
            let (p_r, p_c) = grid_factors(k);
            assert_eq!(p_r * p_c, k);
            for rule_grid in [(cvc.p_r, cvc.p_c), (bvc.p_r, bvc.p_c), (jvc.p_r, jvc.p_c)] {
                assert_eq!(rule_grid, (p_r, p_c));
            }
            let (s, n, m) = props(&g, k);
            let p = LocalProps::new(n, m, k, &s);
            for sm in 0..k {
                let row = sm / p_c;
                for dm in 0..k {
                    let want_cvc = row * p_c + dm % p_c;
                    let want_bvc = row * p_c + (dm as u64 * p_c as u64 / k as u64) as PartId;
                    let want_jvc = row * p_c + (dm + row) % p_c;
                    assert_eq!(cvc.get_edge_owner(&p, 0, 1, sm, dm, &()), want_cvc, "CVC k={k} ({sm},{dm})");
                    assert_eq!(bvc.get_edge_owner(&p, 0, 1, sm, dm, &()), want_bvc, "BVC k={k} ({sm},{dm})");
                    assert_eq!(jvc.get_edge_owner(&p, 0, 1, sm, dm, &()), want_jvc, "JVC k={k} ({sm},{dm})");
                }
            }
        }
    }

    #[test]
    fn source_returns_src_master() {
        let g = Csr::from_edges(2, &[(0, 1)]);
        let (s, n, m) = props(&g, 4);
        let p = LocalProps::new(n, m, 4, &s);
        assert_eq!(SourceEdge.get_edge_owner(&p, 0, 1, 3, 1, &()), 3);
    }

    #[test]
    fn hybrid_switches_on_degree() {
        // Node 0 has degree 5, node 1 has degree 1.
        let g = Csr::from_edges(3, &[(0, 1), (0, 2), (0, 1), (0, 2), (0, 1), (1, 2)]);
        let (s, n, m) = props(&g, 4);
        let p = LocalProps::new(n, m, 4, &s);
        let rule = HybridEdge {
            degree_threshold: 3,
        };
        // High-degree source → destination's master.
        assert_eq!(rule.get_edge_owner(&p, 0, 1, 2, 3, &()), 3);
        // Low-degree source → source's master.
        assert_eq!(rule.get_edge_owner(&p, 1, 2, 2, 3, &()), 2);
    }

    #[test]
    fn grid_factorization() {
        assert_eq!(grid_factors(1), (1, 1));
        assert_eq!(grid_factors(4), (2, 2));
        assert_eq!(grid_factors(8), (2, 4));
        assert_eq!(grid_factors(16), (4, 4));
        assert_eq!(grid_factors(12), (3, 4));
        assert_eq!(grid_factors(7), (1, 7)); // prime
        assert_eq!(grid_factors(128), (8, 16));
    }

    #[test]
    fn cartesian_matches_figure_1c() {
        // 4 partitions → 2×2 grid. Row blocks {0,1} and {2,3}; columns
        // cyclic mod 2. Edge with masters (src=0, dst=3) → row block 0,
        // column 3 % 2 = 1 → partition 1.
        let rule = CartesianEdge::new(&grid_setup(4));
        assert_eq!((rule.p_r, rule.p_c), (2, 2));
        let g = Csr::from_edges(2, &[(0, 1)]);
        let (s, n, m) = props(&g, 4);
        let p = LocalProps::new(n, m, 4, &s);
        let owner = |sm: PartId, dm: PartId| rule.get_edge_owner(&p, 0, 1, sm, dm, &());
        assert_eq!(owner(0, 0), 0);
        assert_eq!(owner(0, 1), 1);
        assert_eq!(owner(0, 2), 0);
        assert_eq!(owner(0, 3), 1);
        assert_eq!(owner(1, 0), 0);
        assert_eq!(owner(2, 0), 2);
        assert_eq!(owner(2, 3), 3);
        assert_eq!(owner(3, 2), 2);
    }

    #[test]
    fn checkerboard_and_jagged_stay_in_grid_row() {
        for k in [4u32, 8, 16] {
            let setup = grid_setup(k);
            let bvc = CheckerboardEdge::new(&setup);
            let jvc = JaggedEdge::new(&setup);
            let g = Csr::from_edges(2, &[(0, 1)]);
            let (s, n, m) = props(&g, k);
            let p = LocalProps::new(n, m, k, &s);
            for sm in 0..k {
                for dm in 0..k {
                    for owner in [
                        bvc.get_edge_owner(&p, 0, 1, sm, dm, &()),
                        jvc.get_edge_owner(&p, 0, 1, sm, dm, &()),
                    ] {
                        assert!(owner < k);
                        assert_eq!(owner / bvc.p_c, sm / bvc.p_c, "must stay in src's grid row");
                    }
                }
            }
        }
    }

    #[test]
    fn checkerboard_columns_are_blocked_not_cyclic() {
        // k = 4, 2×2 grid: masters {0,1} map to column 0 and {2,3} to
        // column 1 (blocked), unlike CVC's 0,1,0,1 (cyclic).
        let setup = grid_setup(4);
        let bvc = CheckerboardEdge::new(&setup);
        let g = Csr::from_edges(2, &[(0, 1)]);
        let (s, n, m) = props(&g, 4);
        let p = LocalProps::new(n, m, 4, &s);
        let owner = |dm: PartId| bvc.get_edge_owner(&p, 0, 1, 0, dm, &());
        assert_eq!(owner(0), 0);
        assert_eq!(owner(1), 0);
        assert_eq!(owner(2), 1);
        assert_eq!(owner(3), 1);
    }

    #[test]
    fn jagged_columns_differ_per_row() {
        let setup = grid_setup(4);
        let jvc = JaggedEdge::new(&setup);
        let g = Csr::from_edges(2, &[(0, 1)]);
        let (s, n, m) = props(&g, 4);
        let p = LocalProps::new(n, m, 4, &s);
        // Same destination master, different source rows → different
        // column classes (the jagged property).
        let row0 = jvc.get_edge_owner(&p, 0, 1, 0, 0, &()) % jvc.p_c;
        let row1 = jvc.get_edge_owner(&p, 0, 1, 2, 0, &()) % jvc.p_c;
        assert_ne!(row0, row1);
    }

    #[test]
    fn cartesian_owner_is_in_src_masters_grid_row() {
        // The communication property CVC exploits: an edge's owner shares
        // its grid row with the source's master and its grid column with
        // the destination's master.
        for k in [4u32, 8, 16, 12] {
            let setup = grid_setup(k);
            let rule = CartesianEdge::new(&setup);
            let g = Csr::from_edges(2, &[(0, 1)]);
            let (s, n, m) = props(&g, k);
            let p = LocalProps::new(n, m, k, &s);
            for sm in 0..k {
                for dm in 0..k {
                    let owner = rule.get_edge_owner(&p, 0, 1, sm, dm, &());
                    assert!(owner < k);
                    assert_eq!(owner / rule.p_c, sm / rule.p_c, "same grid row as src master");
                    assert_eq!(owner % rule.p_c, dm % rule.p_c, "same grid col class as dst master");
                }
            }
        }
    }
}
