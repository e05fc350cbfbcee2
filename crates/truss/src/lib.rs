//! k-truss decomposition and its hierarchy (paper §VI, "Other Cohesive
//! Subgraph Model").
//!
//! A *k-truss* is a maximal subgraph in which every edge participates in
//! at least `k − 2` triangles (within the subgraph); the *trussness*
//! `t(e)` of an edge is the largest `k` whose k-truss contains it.
//! Exactly like k-cores, the k-trusses of all levels nest into a forest —
//! the **hierarchical truss decomposition (HTD)** — whose tree nodes hold
//! the edges of trussness `k` inside one (triangle-connected) k-truss.
//!
//! The paper closes by noting that the PHCD/PBKS framework transfers to
//! other hierarchical models "such as k-truss"; this crate carries that
//! out:
//!
//! * [`edges::EdgeIndex`] — dense edge ids and O(log d) arc→edge lookup;
//! * [`decompose::truss_decomposition`] — serial support-peeling
//!   (Wang–Cheng style), `O(m^1.5)`;
//! * [`hierarchy::phtd`] — **parallel HTD construction**: the PHCD
//!   kernel (`hcd_core::forest`) with triangle links, with edges in
//!   place of vertices and triangle connectivity in place of adjacency;
//! * [`hierarchy::naive_htd`] — the brute-force oracle used in tests.

pub mod decompose;
pub mod edges;
pub mod hierarchy;

pub use decompose::{truss_decomposition, TrussDecomposition};
pub use edges::EdgeIndex;
pub use hierarchy::{naive_htd, phtd, try_phtd, Htd, TrussNode};

#[cfg(test)]
mod proptests;
