//! Umbrella crate re-exporting the CuSP reproduction workspace.
pub use cusp;
pub mod cli;
pub use cusp_dgalois as dgalois;
pub use cusp_galois as galois;
pub use cusp_graph as graph;
pub use cusp_net as net;
pub use cusp_xtrapulp as xtrapulp;
