//! Dynamic graphs: exact core maintenance under batched edge updates.
//!
//! The paper points to hierarchical core *maintenance* \[15\] as the
//! dynamic counterpart of PHCD. This crate maintains coreness under
//! batches of edge insertions and removals by recomputation:
//!
//! * [`DynamicGraph`] — an adjacency-set graph supporting edge insertion
//!   and removal, convertible to/from [`hcd_graph::CsrGraph`];
//! * [`DynamicCore`] — coreness kept exact after every batch:
//!   [`DynamicCore::apply_batch`] mutates the edge set, builds one CSR
//!   snapshot of the new graph, and recomputes coreness on it with
//!   parallel PKC (Liu & Dong, *Parallel k-Core Decomposition: Theory
//!   and Practice*, see PAPERS.md). The [`BatchReport`] names the
//!   vertices whose coreness moved and the endpoints the applied updates
//!   touched. PKC runs through [`hcd_par::Executor`] regions (`pkc.*`),
//!   so cancellation, deadlines, fault injection, and metrics govern
//!   maintenance exactly as they govern construction; counters
//!   `dynamic.affected_vertices` / `dynamic.traversal_edges` report the
//!   n and 2m the recompute examined;
//! * the CSR a batch built is handed out once by
//!   [`DynamicCore::take_csr`], so the serving layer runs PHCD on it
//!   without converting the graph a second time; [`DynamicCore::hcd`]
//!   rebuilds the hierarchy on demand for other callers.
//!
//! A full recompute beats an incremental traversal on graphs with one
//! giant core (DESIGN.md, "Write path: rebuild on publish"). Every
//! update path is property-tested against a sequential recomputation.

pub mod graph;
pub mod maintain;

pub use graph::DynamicGraph;
pub use maintain::{BatchReport, DynamicCore, EdgeUpdate};
