//! Dynamic graphs: exact core maintenance under batched edge updates.
//!
//! The paper points to hierarchical core *maintenance* \[15\] as the
//! dynamic counterpart of PHCD. This crate maintains coreness under
//! batches of edge insertions and removals by recomputation:
//!
//! * [`DynamicGraph`] — the edge set as one sorted [`hcd_graph::CsrGraph`]
//!   behind an `Arc`. A batch sorts its net arc changes and builds the
//!   next CSR in one merge pass: untouched row ranges are copied whole,
//!   only the touched rows are merged, and no-op and duplicate detection
//!   is a binary search in a sorted row;
//! * [`DynamicCore`] — coreness kept exact after every batch:
//!   [`DynamicCore::apply_batch`] merges the batch (histogram
//!   `dynamic.merge`) and recomputes coreness on the new CSR with
//!   [`hcd_decomp::try_core_decomposition`]: bin-sort peeling on a
//!   one-worker executor, parallel PKC (Liu & Dong, *Parallel k-Core
//!   Decomposition: Theory and Practice*, see PAPERS.md) on any other.
//!   The [`BatchReport`] names the vertices whose coreness moved and the
//!   endpoints the applied updates touched. Either peel runs through
//!   [`hcd_par::Executor`] regions (`bz.peel` or `pkc.*`), so cancellation, deadlines, fault injection, and metrics govern
//!   maintenance exactly as they govern construction; counters
//!   `dynamic.affected_vertices` / `dynamic.traversal_edges` report the
//!   n and 2m the recompute examined;
//! * the merged CSR is shared ([`DynamicGraph::csr`]), so the serving
//!   layer runs PHCD on it and publishes it without a copy; any other
//!   caller builds the hierarchy on demand with
//!   `hcd_core::try_phcd(dc.graph().csr(), &dc.decomposition(), exec)`.
//!
//! A full recompute beats an incremental traversal on graphs with one
//! giant core (DESIGN.md, "Write path: rebuild on publish"). Every
//! update path is checked against a sequential recomputation, and the
//! merge against a `BTreeSet` model on every single update of every
//! graph on at most five vertices.

pub mod graph;
pub mod maintain;

pub use graph::DynamicGraph;
pub use maintain::{BatchReport, DynamicCore, EdgeUpdate};
