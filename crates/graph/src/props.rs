//! Graph property reports (paper Table III).

use crate::csr::Csr;
use crate::degree::in_degree_histogram;
use crate::Node;

/// Structural properties of a directed graph, as reported in Table III.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphProps {
    /// Number of vertices.
    pub nodes: u64,
    /// Number of edges.
    pub edges: u64,
    /// Avg degree.
    pub avg_degree: f64,
    /// Max out degree.
    pub max_out_degree: u64,
    /// Max in degree.
    pub max_in_degree: u64,
    /// Size of the graph in `.bgr` format, in bytes.
    pub disk_bytes: u64,
}

impl GraphProps {
    /// Computes properties: one pass over the offsets and one count of the
    /// in-degrees ([`in_degree_histogram`]'s).
    pub fn compute(graph: &Csr) -> Self {
        let n = graph.num_nodes() as u64;
        let m = graph.num_edges();
        let max_out = (0..graph.num_nodes() as Node)
            .map(|v| graph.out_degree(v))
            .max()
            .unwrap_or(0);
        // The histogram ends at the largest in-degree.
        let max_in = in_degree_histogram(graph).len().saturating_sub(1) as u64;
        GraphProps {
            nodes: n,
            edges: m,
            avg_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
            max_out_degree: max_out,
            max_in_degree: max_in,
            disk_bytes: 32 + n * 8 + m * 4,
        }
    }

    /// One formatted row of a Table III-style report.
    pub fn row(&self, name: &str) -> String {
        format!(
            "{:<10} |V|={:<12} |E|={:<14} |E|/|V|={:<8.1} maxOut={:<10} maxIn={:<12} disk={:.1} MB",
            name,
            self.nodes,
            self.edges,
            self.avg_degree,
            self.max_out_degree,
            self.max_in_degree,
            self.disk_bytes as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_basic_props() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]);
        let p = GraphProps::compute(&g);
        assert_eq!(p.nodes, 4);
        assert_eq!(p.edges, 5);
        assert_eq!(p.max_out_degree, 3);
        assert_eq!(p.max_in_degree, 3); // node 3
        assert!((p.avg_degree - 1.25).abs() < 1e-12);
        assert_eq!(p.disk_bytes, 32 + 4 * 8 + 5 * 4);
    }

    #[test]
    fn empty_graph_props() {
        let p = GraphProps::compute(&Csr::from_edges(0, &[]));
        assert_eq!(p.nodes, 0);
        assert_eq!(p.max_out_degree, 0);
        assert_eq!(p.avg_degree, 0.0);
    }

    #[test]
    fn row_is_human_readable() {
        let g = Csr::from_edges(2, &[(0, 1)]);
        let row = GraphProps::compute(&g).row("tiny");
        assert!(row.contains("tiny"));
        assert!(row.contains("|V|=2"));
    }
}
