//! Max-flow and exact densest subgraph.
//!
//! The paper's densest-subgraph experiments (Table IV) compare
//! *approximate* algorithms; their quality claims rest on the classical
//! 0.5-approximation guarantee of core-based candidates. This crate
//! provides the exact optimum so the guarantee can be *verified* in
//! tests: [`dinic::Dinic`] is a standard max-flow implementation and
//! [`goldberg::densest_subgraph`] is Goldberg's binary-search reduction
//! of densest subgraph to min-cut.

pub mod dinic;
pub mod goldberg;

pub use dinic::Dinic;
pub use goldberg::densest_subgraph;
