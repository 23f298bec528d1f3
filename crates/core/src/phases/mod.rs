//! The five partitioning phases (paper §IV-B, Fig. 2):
//! reading → master assignment → edge assignment → allocation →
//! construction, orchestrated by [`driver`].

pub mod alloc;
pub(crate) mod bitset;
pub mod construct;
pub mod delta;
pub mod driver;
pub mod edge_assign;
pub mod master;
pub mod pipeline;
pub mod read;
