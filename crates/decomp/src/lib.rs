//! Core decomposition algorithms.
//!
//! The coreness `c(v)` of a vertex is the largest `k` such that `v`
//! belongs to a k-core (a maximal connected subgraph of minimum degree
//! `k`). Computing `c(v)` for all vertices is the *core decomposition*,
//! the mandatory input of both HCD construction (paper §III) and subgraph
//! search (§IV).
//!
//! Two independent implementations are provided and cross-checked in
//! tests:
//!
//! * [`bz::core_decomposition`] — the serial Batagelj–Zaversnik bin-sort
//!   peeling algorithm, `O(n + m)` \[19\].
//! * [`pkc::try_pkc_core_decomposition`] — parallel level-synchronous peeling
//!   in the style of ParK/PKC \[20\], \[24\]: frontier expansion via
//!   atomic degree decrements, with vertices filed in degree buckets so
//!   that the scan work is `O(n + m)` as well (one bucket entry per
//!   degree value a vertex passes through).
//!
//! [`try_core_decomposition`] picks between them by the executor alone.
//! An executor that runs one chunk at a time and does not simulate
//! (`num_workers() == 1`, not simulated) gets the bin-sort peel, run in
//! the single-chunk region `bz.peel`: with one thread, PKC's CAS
//! decrements, bucket re-filing and one region per level and wave buy
//! nothing. Every other executor gets PKC, so the simulated paper
//! curves keep measuring the parallel peel.

pub mod bz;
pub mod pkc;

pub use bz::core_decomposition;
pub use pkc::try_pkc_core_decomposition;

use hcd_graph::{CsrGraph, VertexId};
use hcd_par::{Executor, ParError};

/// Core decomposition of `g` with the peel that suits `exec`: bin-sort
/// peeling (region `bz.peel`) on an executor that runs one chunk at a
/// time and does not simulate, PKC (regions `pkc.*`,
/// [`try_pkc_core_decomposition`]) on every other one. Both return the
/// same coreness; on `Err` (panic, cancellation, deadline) nothing is
/// kept and the executor stays usable.
///
/// # Examples
///
/// ```
/// use hcd_decomp::{core_decomposition, try_core_decomposition};
/// use hcd_graph::GraphBuilder;
/// use hcd_par::Executor;
///
/// let g = GraphBuilder::new().edges([(0, 1), (1, 2), (2, 0), (2, 3)]).build();
/// let seq = try_core_decomposition(&g, &Executor::sequential()).unwrap();
/// let sim = try_core_decomposition(&g, &Executor::simulated(2)).unwrap();
/// assert_eq!(seq, core_decomposition(&g));
/// assert_eq!(seq, sim);
/// ```
pub fn try_core_decomposition(
    g: &CsrGraph,
    exec: &Executor,
) -> Result<CoreDecomposition, ParError> {
    if exec.num_workers() == 1 && !exec.is_simulated() {
        bz::try_bz_core_decomposition(g, exec)
    } else {
        try_pkc_core_decomposition(g, exec)
    }
}

/// The result of a core decomposition.
///
/// # Examples
///
/// ```
/// use hcd_graph::GraphBuilder;
/// use hcd_decomp::core_decomposition;
///
/// // Triangle with a pendant vertex.
/// let g = GraphBuilder::new().edges([(0, 1), (1, 2), (2, 0), (2, 3)]).build();
/// let cores = core_decomposition(&g);
/// assert_eq!(cores.coreness(0), 2);
/// assert_eq!(cores.coreness(3), 1);
/// assert_eq!(cores.kmax(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDecomposition {
    coreness: Vec<u32>,
    kmax: u32,
}

impl CoreDecomposition {
    /// Wraps a raw coreness array.
    pub fn from_coreness(coreness: Vec<u32>) -> Self {
        let kmax = coreness.iter().copied().max().unwrap_or(0);
        CoreDecomposition { coreness, kmax }
    }

    /// Coreness of `v`.
    #[inline]
    pub fn coreness(&self, v: VertexId) -> u32 {
        self.coreness[v as usize]
    }

    /// The graph degeneracy: the largest `k` with a non-empty k-core.
    #[inline]
    pub fn kmax(&self) -> u32 {
        self.kmax
    }

    /// The raw coreness array.
    pub fn as_slice(&self) -> &[u32] {
        &self.coreness
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.coreness.len()
    }

    /// Whether the decomposition covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.coreness.is_empty()
    }

    /// Groups vertices into shells: `shells()[k]` lists the vertices of
    /// coreness `k` in ascending id (the k-shell `H_k`).
    pub fn shells(&self) -> Vec<Vec<VertexId>> {
        let mut shells = vec![Vec::new(); self.kmax as usize + 1];
        for (v, &c) in self.coreness.iter().enumerate() {
            shells[c as usize].push(v as VertexId);
        }
        shells
    }

    /// The vertices of the `k`-core set `K_k` (all vertices of coreness
    /// `>= k`), ascending.
    pub fn core_set(&self, k: u32) -> Vec<VertexId> {
        (0..self.coreness.len() as VertexId)
            .filter(|&v| self.coreness[v as usize] >= k)
            .collect()
    }

    /// Definitional sanity check: in the subgraph induced by vertices of
    /// coreness `>= c(v)`, `v` must keep at least `c(v)` neighbors. This
    /// is necessary (not sufficient) for correctness and cheap; full
    /// correctness is established in tests by cross-checking independent
    /// algorithms.
    pub fn check_feasible(&self, g: &CsrGraph) -> Result<(), String> {
        if self.coreness.len() != g.num_vertices() {
            return Err("coreness length mismatch".into());
        }
        for v in g.vertices() {
            let c = self.coreness(v);
            let supporters = g
                .neighbors(v)
                .iter()
                .filter(|&&u| self.coreness(u) >= c)
                .count();
            if (supporters as u32) < c {
                return Err(format!(
                    "vertex {v} has coreness {c} but only {supporters} supporters"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_graph::GraphBuilder;

    #[test]
    fn shells_partition_vertices() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)])
            .build();
        let cd = core_decomposition(&g);
        let shells = cd.shells();
        let total: usize = shells.iter().map(Vec::len).sum();
        assert_eq!(total, g.num_vertices());
        assert_eq!(shells[2], vec![0, 1, 2]);
        assert_eq!(shells[1], vec![3, 4, 5]);
    }

    #[test]
    fn core_set_is_suffix_union_of_shells() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build();
        let cd = core_decomposition(&g);
        assert_eq!(cd.core_set(2), vec![0, 1, 2]);
        assert_eq!(cd.core_set(1), vec![0, 1, 2, 3]);
        assert_eq!(cd.core_set(3), Vec::<VertexId>::new());
    }

    #[test]
    fn feasibility_check_passes_on_valid_input() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build();
        let cd = core_decomposition(&g);
        assert!(cd.check_feasible(&g).is_ok());
    }

    #[test]
    fn feasibility_check_catches_inflation() {
        let g = GraphBuilder::new().edges([(0, 1)]).build();
        let bogus = CoreDecomposition::from_coreness(vec![5, 5]);
        assert!(bogus.check_feasible(&g).is_err());
    }

    #[test]
    fn the_executor_picks_the_peel() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build();
        for (exec, peel) in [
            (Executor::sequential(), "bz."),
            (Executor::assist(1), "bz."),
            (Executor::assist(2), "pkc."),
            (Executor::simulated(1), "pkc."),
        ] {
            exec.set_metrics_enabled(true);
            let cd = try_core_decomposition(&g, &exec).unwrap();
            assert_eq!(cd, core_decomposition(&g));
            let m = exec.take_metrics();
            let names: Vec<_> = m.regions.iter().map(|r| r.name).collect();
            assert!(
                !names.is_empty() && names.iter().all(|n| n.starts_with(peel)),
                "{exec:?}: {names:?}"
            );
        }
    }

    #[test]
    fn empty_graph_decomposition() {
        let g = GraphBuilder::new().build();
        let cd = core_decomposition(&g);
        assert_eq!(cd.kmax(), 0);
        assert!(cd.is_empty());
        assert!(cd.shells().len() == 1 && cd.shells()[0].is_empty());
    }
}

#[cfg(test)]
mod proptests;
