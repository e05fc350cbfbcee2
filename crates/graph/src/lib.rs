//! Graph substrate for hierarchical core decomposition.
//!
//! This crate provides the compact, immutable [`CsrGraph`] representation
//! that every algorithm in the workspace operates on, together with the
//! tooling needed to obtain one:
//!
//! * [`GraphBuilder`] — assemble an undirected simple graph from an edge
//!   list (deduplicating, symmetrizing, and dropping self-loops),
//! * [`io`] — text edge-list and compact binary readers/writers,
//! * [`traversal`] — BFS and connected components,
//! * [`subgraph`] — induced subgraphs with id remapping,
//! * [`hash`] — a fast integer-keyed hash map (FxHash-style), used across
//!   the workspace instead of SipHash-based `std` maps.
//!
//! All graphs are undirected and simple: every edge `{u, v}` with `u != v`
//! appears exactly once in each endpoint's adjacency list, and adjacency
//! lists are sorted by vertex id.

pub mod builder;
pub mod crc32;
pub mod csr;
pub mod error;
pub mod hash;
pub mod io;
pub mod stats;
pub mod subgraph;
pub mod traversal;

pub use builder::GraphBuilder;
pub use crc32::{crc32, Crc32};
pub use csr::{CsrGraph, VertexId};
pub use error::{GraphError, IoFormatError};
pub use hash::{FxHashMap, FxHashSet};
pub use subgraph::InducedSubgraph;

#[cfg(test)]
mod proptests;
