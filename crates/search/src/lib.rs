//! Subgraph search on the HCD (paper §IV).
//!
//! Given a graph, its core decomposition, and its HCD, find the k-core
//! with the highest score under a community scoring metric. Metrics are
//! functions of five *primary values* of a subgraph `S` (§II-D): `n(S)`,
//! `m(S)`, `b(S)` (boundary edges), `Δ(S)` (triangles), `t(S)` (triplets)
//! — metrics needing only the first three are **type-A**, the rest
//! **type-B**.
//!
//! * [`pbks()`](pbks::pbks) — **the paper's parallel algorithm** (Algorithms 3–5):
//!   vertex-centric contribution counting, a triangle pass over
//!   κ-oriented edges that finds each triangle once at its κ-minimum
//!   corner, and parallel bottom-up tree accumulation.
//!   Work-efficient: `O(n)` for type-A after `O(m)` preprocessing,
//!   `O(m^1.5)` for type-B.
//! * [`bks()`](bks::bks) — the serial baseline \[10\]: coreness-descending sweep over
//!   adjacency lists pre-sorted by coreness (the bin-sort vertex
//!   ordering whose parallelization problems motivated PBKS).
//! * [`densest`] — PBKS-D / Opt-D / CoreApp-style approximate densest
//!   subgraph (Table IV).
//! * [`clique`] — exact maximum clique (branch & bound with coreness
//!   pruning), used for Table IV's `MC ⊆ S*` column.
//! * [`bestk`] — the §VI extension: score entire k-core *sets* and pick
//!   the best `k`.

pub mod ablation;
pub mod accumulate;
pub mod bestk;
pub mod bks;
pub mod clique;
pub mod densest;
pub mod metrics;
mod motifs;
pub mod pbks;
pub mod preprocess;

pub use accumulate::{accumulate_bottom_up, try_accumulate_bottom_up};
pub use bestk::{best_k, core_set_scores, try_best_k, try_core_set_scores};
pub use bks::bks;
pub use clique::max_clique;
pub use metrics::{score_cmp, Metric, MetricKind, PrimaryValues};
pub use pbks::{pbks, pbks_scores, try_pbks, try_pbks_on, try_pbks_scores, BestCore};
pub use preprocess::SearchContext;

#[cfg(test)]
pub(crate) mod testutil;

#[cfg(test)]
mod proptests;
