//! # hcd — Hierarchical Core Decomposition in Parallel
//!
//! A Rust reproduction of *"Hierarchical Core Decomposition in Parallel:
//! From Construction to Subgraph Search"* (Chu, Zhang, Zhang, Lin, Zhang —
//! ICDE 2022).
//!
//! This facade crate re-exports the full workspace:
//!
//! * [`graph`] — CSR graph substrate (construction, I/O, traversal),
//! * [`unionfind`] — sequential and concurrent union-find **with pivot**,
//! * [`par`] — the parallel executor (real threads on a work-assisting
//!   pool, or deterministic work-span simulation),
//! * [`decomp`] — core decomposition (serial Batagelj–Zaversnik, parallel
//!   PKC-style peeling),
//! * [`core`] — the HCD index and its construction algorithms (**PHCD**
//!   on the hierarchy kernel it shares with PHTD, LCPS, RC, LB,
//!   brute-force oracle),
//! * [`search`] — subgraph search on the HCD (**PBKS**, BKS, community
//!   metrics, densest subgraph, maximum clique, best-k),
//! * [`truss`] — the §VI extension: k-truss decomposition and its
//!   parallel hierarchy construction (PHTD) on PHCD's kernel,
//! * [`flow`] — max-flow and Goldberg's exact densest subgraph (test
//!   oracle),
//! * [`serve`] — the snapshot-isolated query service with batched
//!   edge updates and opt-in crash-safe durability (checksummed WAL +
//!   atomic snapshot checkpoints + recovery),
//! * [`datasets`] — seeded synthetic graph generators and the paper
//!   dataset stand-in registry.
//!
//! ## Quickstart
//!
//! ```
//! use hcd::prelude::*;
//!
//! // A small graph: a 4-clique hanging off a cycle.
//! let g = GraphBuilder::new()
//!     .edges([(0, 1), (1, 2), (2, 3), (3, 0)]) // 4-cycle (coreness 2)
//!     .edges([(3, 4), (4, 5), (5, 6), (6, 4), (5, 3), (6, 3)]) // near-clique
//!     .build();
//!
//! // 1. Core decomposition.
//! let cores = core_decomposition(&g);
//!
//! // 2. Hierarchical core decomposition (parallel construction).
//! let exec = Executor::sequential();
//! let hcd = phcd(&g, &cores, &exec);
//!
//! // 3. Search the k-core with the best average degree (PBKS-D).
//! let pre = SearchContext::new(&g, &cores, &hcd);
//! let best = pbks(&pre, &Metric::AverageDegree, &exec).expect("non-empty graph");
//! assert!(best.score > 0.0);
//! ```

pub use hcd_core as core;
pub use hcd_datasets as datasets;
pub use hcd_decomp as decomp;
pub use hcd_dynamic as dynamic;
pub use hcd_flow as flow;
pub use hcd_graph as graph;
pub use hcd_par as par;
pub use hcd_search as search;
pub use hcd_serve as serve;
pub use hcd_truss as truss;
pub use hcd_unionfind as unionfind;

/// Convenient glob import for examples and quick experiments.
pub mod prelude;
