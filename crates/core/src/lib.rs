//! Hierarchical core decomposition (HCD): index and construction.
//!
//! The HCD of a graph organizes all k-cores into a forest (paper §II-B):
//! every k-core `S` whose k-shell slice `S ∩ H_k` is non-empty gets a
//! *tree node* holding exactly those vertices, and tree edges record
//! containment between k-cores of consecutive (present) levels.
//!
//! This crate provides:
//!
//! * [`Hcd`] — the index (`V(Ti)`, `P(Ti)`, `C(Ti)`, `tid(v)`), with full
//!   validation, canonical comparison, subtree/k-core reconstruction, and
//!   DOT export ([`index`], [`query`]).
//! * [`rank`] — Algorithm 1: parallel vertex-rank computation and shell
//!   bucketing.
//! * [`phcd()`](phcd::phcd) — **Algorithm 2 (PHCD)**: the paper's parallel construction
//!   via union-find with pivot, correct under sequential, real-thread,
//!   and simulated execution.
//! * [`forest`] — the hierarchy kernel PHCD runs on, shared with the
//!   truss hierarchy (PHTD) of `hcd-truss`.
//! * [`lcps()`](lcps::lcps) — the serial state-of-the-art baseline: Matula–Beck
//!   priority search \[7\].
//! * [`rc`] — local k-core search, the ingredient of the divide-and-
//!   conquer alternative (§III-E) benchmarked as `RC` in Table III.
//! * [`lb`] — the union-find lower bound (`LB` in Table III).
//! * [`oracle`] — brute-force HCD construction by repeated filtered
//!   connected components; the ground truth for every test.
//! * [`repair`] — surgical forest repair after a batch of edge updates:
//!   rebuilds only the tree nodes of the dirty region a maintenance
//!   batch reports, keeping the rest of the published forest verbatim.
//!
//! HCD construction is P-complete (paper Theorem 1), so a polylog-depth
//! parallelization is not expected; PHCD instead delivers near-linear
//! *work* with one parallel round per shell level.

pub mod forest;
pub mod index;
pub mod io;
pub mod lb;
pub mod lcps;
pub mod oracle;
pub mod phcd;
pub mod query;
pub mod rank;
pub mod rc;
pub mod repair;
pub mod stats;

pub use index::{CanonicalHcd, Hcd, TreeNode, NO_NODE};
pub use lcps::lcps;
pub use oracle::naive_hcd;
pub use phcd::{phcd, try_phcd};
pub use rank::VertexRanks;

#[cfg(test)]
mod proptests;
#[cfg(test)]
pub(crate) mod testutil;
