//! Ablation variant of the type-A score computation: no §IV-A
//! preprocessing.
//!
//! The paper's preprocessing stores per-vertex greater/equal coreness
//! neighbor counts once, amortized over all subsequent metric queries.
//! This module recomputes those counts inline on every query by scanning
//! the adjacency list, quantifying what the preprocessing buys
//! (`ablation_preprocessing` bench target).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use hcd_core::Hcd;
use hcd_decomp::CoreDecomposition;
use hcd_graph::{CsrGraph, VertexId};
use hcd_par::{Executor, ParError, CHECKPOINT_STRIDE};

use crate::metrics::{GraphTotals, Metric, PrimaryValues};
use crate::pbks::Contrib;

/// Type-A scores without preprocessing: neighbor coreness classes are
/// recounted from the adjacency lists inside the scoring pass. The
/// adjacency rescan polls the executor's cancellation checkpoint at a
/// coarse edge stride (see `hcd_par` failure model).
pub fn try_type_a_scores_inline(
    g: &CsrGraph,
    cores: &CoreDecomposition,
    hcd: &Hcd,
    metric: &Metric,
    exec: &Executor,
) -> Result<Vec<f64>, ParError> {
    let num_nodes = hcd.num_nodes();
    let n_acc: Vec<AtomicU64> = (0..num_nodes).map(|_| AtomicU64::new(0)).collect();
    let m2_acc: Vec<AtomicU64> = (0..num_nodes).map(|_| AtomicU64::new(0)).collect();
    let b_acc: Vec<AtomicI64> = (0..num_nodes).map(|_| AtomicI64::new(0)).collect();

    exec.region("ablation.inline").try_for_each_chunk(
        g.num_vertices(),
        || (),
        |_, _, range| {
            let mut since = 0usize;
            for v in range {
                let v = v as VertexId;
                let c = cores.coreness(v);
                // The ablated part: rescan the adjacency per query.
                let mut gt = 0u64;
                let mut eq = 0u64;
                for &u in g.neighbors(v) {
                    let cu = cores.coreness(u);
                    if cu > c {
                        gt += 1;
                    } else if cu == c {
                        eq += 1;
                    }
                }
                let lt = g.degree(v) as i64 - gt as i64 - eq as i64;
                let i = hcd.tid(v) as usize;
                n_acc[i].fetch_add(1, Ordering::Relaxed);
                m2_acc[i].fetch_add(2 * gt + eq, Ordering::Relaxed);
                b_acc[i].fetch_add(lt - gt as i64, Ordering::Relaxed);
                since += g.degree(v) + 1;
                if since >= CHECKPOINT_STRIDE {
                    exec.checkpoint()?;
                    since = 0;
                }
            }
            Ok(())
        },
    )?;

    let mut contribs: Vec<Contrib> = (0..num_nodes)
        .map(|i| Contrib {
            n: n_acc[i].load(Ordering::Relaxed),
            m2: m2_acc[i].load(Ordering::Relaxed),
            b: b_acc[i].load(Ordering::Relaxed),
            triangles: 0,
            triplets: 0,
        })
        .collect();
    crate::accumulate::try_accumulate_bottom_up(hcd, &mut contribs, Contrib::merge, exec)?;
    let totals = GraphTotals {
        n: g.num_vertices() as u64,
        m: g.num_edges() as u64,
    };
    Ok(contribs
        .into_iter()
        .map(|c| {
            let p: PrimaryValues = c.into_primary();
            metric.score(&p, &totals)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbks::try_pbks_scores;
    use crate::preprocess::SearchContext;
    use crate::testutil::search_fixture;

    #[test]
    fn inline_variant_matches_preprocessed() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let exec = Executor::assist(2);
        for metric in [
            Metric::AverageDegree,
            Metric::Conductance,
            Metric::Modularity,
        ] {
            let inline = try_type_a_scores_inline(&g, &cores, &hcd, &metric, &exec).unwrap();
            let (pre, _) = try_pbks_scores(&ctx, &metric, &exec).unwrap();
            assert_eq!(inline, pre, "{}", metric.name());
        }
    }
}
