//! Iterative local h-index core decomposition (MPM-style).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use hcd_graph::CsrGraph;
use hcd_par::{Executor, ParError, CHECKPOINT_STRIDE};

use crate::CoreDecomposition;

/// Core decomposition as the fixed point of the neighborhood h-index
/// operator (Montresor et al. \[21\]; Lü et al., Nature Comm. 2016).
///
/// Starting from `c⁰(v) = d(v)`, each round recomputes
/// `cᵗ⁺¹(v) = H({cᵗ(u) : u ∈ N(v)})`, the largest `h` such that `v` has at
/// least `h` neighbors of value `≥ h`. Values decrease monotonically and
/// converge to the coreness in at most `kmax` rounds (usually far fewer).
/// Used both as a secondary parallel baseline and as an *independent
/// oracle* to cross-check BZ and PKC in tests.
pub fn hindex_core_decomposition(g: &CsrGraph, exec: &Executor) -> CoreDecomposition {
    match try_hindex_core_decomposition(g, exec) {
        Ok(cores) => cores,
        Err(e) => e.raise(),
    }
}

/// Fallible version of [`hindex_core_decomposition`]: the per-round
/// neighborhood scan polls the executor's cancellation checkpoint at a
/// coarse edge stride, so deadlines and cancel tokens abort the
/// iteration promptly even on a single long round (see `hcd_par`
/// failure model).
pub fn try_hindex_core_decomposition(
    g: &CsrGraph,
    exec: &Executor,
) -> Result<CoreDecomposition, ParError> {
    let n = g.num_vertices();
    if n == 0 {
        return Ok(CoreDecomposition::from_coreness(Vec::new()));
    }

    let values: Vec<AtomicU32> = (0..n as u32)
        .map(|v| AtomicU32::new(g.degree(v) as u32))
        .collect();
    let changed = AtomicBool::new(true);
    let max_deg = g.max_degree();

    let mut rounds = 0usize;
    while changed.swap(false, Ordering::AcqRel) {
        rounds += 1;
        exec.region("hindex.round").try_for_each_chunk(
            n,
            // Scratch: counting array for the h-index computation.
            || vec![0u32; max_deg + 1],
            |_, counts, range| {
                let mut since = 0usize;
                for v in range {
                    let d = g.degree(v as u32) as u32;
                    if d == 0 {
                        continue;
                    }
                    since += d as usize;
                    if since >= CHECKPOINT_STRIDE {
                        exec.checkpoint()?;
                        since = 0;
                    }
                    // Count neighbor values clamped at d.
                    let mut touched: Vec<u32> = Vec::with_capacity(g.degree(v as u32));
                    for &u in g.neighbors(v as u32) {
                        let val = values[u as usize].load(Ordering::Relaxed).min(d);
                        counts[val as usize] += 1;
                        touched.push(val);
                    }
                    // h-index: largest h with at least h neighbors >= h.
                    let mut h = 0u32;
                    let mut cum = 0u32;
                    let mut k = d;
                    loop {
                        cum += counts[k as usize];
                        if cum >= k {
                            h = k;
                            break;
                        }
                        if k == 0 {
                            break;
                        }
                        k -= 1;
                    }
                    for val in touched {
                        counts[val as usize] = 0;
                    }
                    let old = values[v].load(Ordering::Relaxed);
                    if h < old {
                        values[v].store(h, Ordering::Relaxed);
                        changed.store(true, Ordering::Release);
                    }
                }
                Ok(())
            },
        )?;
        debug_assert!(rounds <= n + 1, "h-index iteration failed to converge");
    }

    let coreness: Vec<u32> = values.into_iter().map(AtomicU32::into_inner).collect();
    Ok(CoreDecomposition::from_coreness(coreness))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bz::core_decomposition;
    use hcd_graph::GraphBuilder;

    #[test]
    fn matches_bz_on_mixed_graph() {
        let g = GraphBuilder::new()
            .edges([
                (0, 1),
                (0, 2),
                (1, 2), // triangle
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 2), // cycle through 2
                (6, 7), // isolated edge
            ])
            .min_vertices(10)
            .build();
        let expected = core_decomposition(&g);
        for exec in [Executor::sequential(), Executor::assist(3)] {
            assert_eq!(hindex_core_decomposition(&g, &exec), expected);
        }
    }

    #[test]
    fn clique_converges_immediately() {
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                b = b.edge(u, v);
            }
        }
        let g = b.build();
        let cd = hindex_core_decomposition(&g, &Executor::sequential());
        assert!(cd.as_slice().iter().all(|&c| c == 5));
    }

    #[test]
    fn long_path_requires_many_rounds_but_converges() {
        let mut b = GraphBuilder::new();
        for i in 0..200u32 {
            b = b.edge(i, i + 1);
        }
        let g = b.build();
        let cd = hindex_core_decomposition(&g, &Executor::simulated(4));
        assert!(cd.as_slice().iter().all(|&c| c == 1));
    }

    #[test]
    fn empty_and_isolated() {
        let g = GraphBuilder::new().min_vertices(5).build();
        let cd = hindex_core_decomposition(&g, &Executor::sequential());
        assert_eq!(cd.as_slice(), &[0, 0, 0, 0, 0]);
    }

    #[test]
    fn respects_cancellation() {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2), (2, 0)]).build();
        let exec = Executor::sequential();
        let token = hcd_par::CancelToken::new();
        exec.set_cancel(token.clone());
        token.cancel();
        assert_eq!(
            try_hindex_core_decomposition(&g, &exec).map(|_| ()),
            Err(hcd_par::ParError::Cancelled)
        );
        // Clean rerun after clearing converges to the right answer.
        exec.clear_cancel();
        assert_eq!(hindex_core_decomposition(&g, &exec), core_decomposition(&g));
    }
}
