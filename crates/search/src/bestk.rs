//! Finding the best `k` (paper §VI): score entire k-core *sets*.
//!
//! Where [`pbks()`](crate::pbks::pbks) scores each individual (connected) k-core, this
//! extension scores the k-core **set** `K_k` — the union of all k-cores —
//! for every `k`, and returns the `k` with the highest score. Following
//! the §VI recipe: (i) compute each vertex's contribution in parallel,
//! aggregated per *level* instead of per tree node; (ii) suffix-sum the
//! levels from `kmax` down (the `k`-core set contains every shell
//! `>= k`); (iii) score each level.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use hcd_graph::VertexId;
use hcd_par::{Executor, ParError};

use crate::metrics::{Metric, MetricKind, PrimaryValues};
use crate::motifs::{try_count_motifs, MotifNames};
use crate::preprocess::SearchContext;

/// Score and primary values of one k-core set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelScore {
    /// The level `k`.
    pub k: u32,
    /// Score of `K_k` under the queried metric.
    pub score: f64,
    /// Primary values of `K_k`.
    pub primaries: PrimaryValues,
}

/// Scores every k-core set `K_0 ⊇ K_1 ⊇ … ⊇ K_kmax`.
pub fn core_set_scores(
    ctx: &SearchContext<'_>,
    metric: &Metric,
    exec: &Executor,
) -> Vec<LevelScore> {
    match try_core_set_scores(ctx, metric, exec) {
        Ok(scores) => scores,
        Err(e) => e.raise(),
    }
}

/// Fallible version of [`core_set_scores`]: returns `Err` if a region
/// panics, is cancelled, or exceeds the executor's deadline. Type-B
/// metrics run the `O(m^1.5)` triangle kernel shared with PBKS, bucketed
/// by coreness; it polls the cancellation checkpoint every
/// `CHECKPOINT_STRIDE` probes, so a deadline takes effect mid-pass
/// rather than after it (see `hcd_par` failure model).
pub fn try_core_set_scores(
    ctx: &SearchContext<'_>,
    metric: &Metric,
    exec: &Executor,
) -> Result<Vec<LevelScore>, ParError> {
    let nk = ctx.cores.kmax() as usize + 1;
    let n_acc: Vec<AtomicU64> = (0..nk).map(|_| AtomicU64::new(0)).collect();
    let m2_acc: Vec<AtomicU64> = (0..nk).map(|_| AtomicU64::new(0)).collect();
    let b_acc: Vec<AtomicI64> = (0..nk).map(|_| AtomicI64::new(0)).collect();

    exec.region("bestk.contrib").try_for_each_chunk(
        ctx.g.num_vertices(),
        || (),
        |_, _, range| {
            for v in range {
                let v = v as VertexId;
                let cv = ctx.cores.coreness(v) as usize;
                let gt = ctx.gt(v) as u64;
                n_acc[cv].fetch_add(1, Ordering::Relaxed);
                m2_acc[cv].fetch_add(2 * gt + ctx.eq(v) as u64, Ordering::Relaxed);
                b_acc[cv].fetch_add(ctx.lt(v) as i64 - gt as i64, Ordering::Relaxed);
            }
            Ok(())
        },
    )?;
    let motifs = (metric.kind() == MetricKind::TypeB)
        .then(|| try_count_motifs(ctx, exec, &BESTK_MOTIFS, ctx.cores.as_slice(), nk))
        .transpose()?;

    // Suffix sums: K_k = shells k..=kmax.
    let totals = ctx.totals();
    let mut acc = crate::pbks::Contrib::default();
    let mut out = Vec::with_capacity(nk);
    for k in (0..nk).rev() {
        acc.n += n_acc[k].load(Ordering::Relaxed);
        acc.m2 += m2_acc[k].load(Ordering::Relaxed);
        acc.b += b_acc[k].load(Ordering::Relaxed);
        if let Some(m) = &motifs {
            acc.triangles += m.triangles[k];
            acc.triplets += m.triplets[k];
        }
        let primaries = acc.into_primary();
        out.push(LevelScore {
            k: k as u32,
            score: metric.score(&primaries, &totals),
            primaries,
        });
    }
    out.reverse();
    Ok(out)
}

const BESTK_MOTIFS: MotifNames = MotifNames {
    orient: "bestk.orient",
    triangles: "bestk.triangles",
    probes: "bestk.triangle_probes",
};

/// The best `k` for the metric: `argmax_k score(K_k)` (ties toward the
/// larger, more selective `k`).
pub fn best_k(ctx: &SearchContext<'_>, metric: &Metric, exec: &Executor) -> Option<LevelScore> {
    match try_best_k(ctx, metric, exec) {
        Ok(best) => best,
        Err(e) => e.raise(),
    }
}

/// Fallible version of [`best_k`].
pub fn try_best_k(
    ctx: &SearchContext<'_>,
    metric: &Metric,
    exec: &Executor,
) -> Result<Option<LevelScore>, ParError> {
    Ok(try_core_set_scores(ctx, metric, exec)?
        .into_iter()
        .max_by(|a, b| crate::metrics::score_cmp(a.score, b.score).then(a.k.cmp(&b.k))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{primaries_by_definition, search_fixture};

    #[test]
    fn core_set_primaries_match_brute_force() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        for exec in [Executor::sequential(), Executor::assist(3)] {
            let scores = core_set_scores(&ctx, &Metric::ClusteringCoefficient, &exec);
            for ls in &scores {
                let members = cores.core_set(ls.k);
                let want = primaries_by_definition(&g, &members);
                assert_eq!(ls.primaries, want, "k={}", ls.k);
            }
        }
    }

    #[test]
    fn k0_covers_whole_graph() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let scores = core_set_scores(&ctx, &Metric::AverageDegree, &Executor::sequential());
        assert_eq!(scores[0].primaries.n, g.num_vertices() as u64);
        assert_eq!(scores[0].primaries.m2, 2 * g.num_edges() as u64);
        assert_eq!(scores[0].primaries.b, 0);
    }

    #[test]
    fn best_k_for_density_is_deep() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let best = best_k(&ctx, &Metric::InternalDensity, &Executor::sequential()).unwrap();
        // The 4-core set (the near-clique S4) is the densest level.
        assert_eq!(best.k, 4);
    }

    #[test]
    fn best_k_matches_across_modes_and_survives_fault_rerun() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let want = best_k(
            &ctx,
            &Metric::ClusteringCoefficient,
            &Executor::sequential(),
        )
        .unwrap();
        for exec in [Executor::assist(4), Executor::simulated(3)] {
            // An injected panic fails cleanly...
            exec.set_fault_plan(hcd_par::FaultPlan::new().inject(0, 0, hcd_par::Fault::Panic));
            let err = try_best_k(&ctx, &Metric::ClusteringCoefficient, &exec).unwrap_err();
            assert!(matches!(err, hcd_par::ParError::Panicked { .. }));
            exec.clear_fault_plan();
            // ...and the rerun on the same executor is correct.
            let got = best_k(&ctx, &Metric::ClusteringCoefficient, &exec).unwrap();
            assert_eq!(got, want, "mode {}", exec.mode_name());
        }
    }

    #[test]
    fn nan_scores_never_win_or_panic() {
        // No built-in metric emits NaN, but custom scores can. The argmax
        // previously used `partial_cmp().unwrap()` and panicked; now NaN
        // ranks below every real score and a real candidate wins.
        let mk = |k, score| LevelScore {
            k,
            score,
            primaries: PrimaryValues::default(),
        };
        let candidates = vec![mk(0, f64::NAN), mk(1, 1.5), mk(2, f64::NAN), mk(3, 0.5)];
        let best = candidates
            .into_iter()
            .max_by(|a, b| crate::metrics::score_cmp(a.score, b.score).then(a.k.cmp(&b.k)))
            .unwrap();
        assert_eq!(best.k, 1);
    }

    #[test]
    fn deadline_fires_inside_triangle_loop_within_one_stride() {
        // A 70-clique: the forward pass probes Σ i·(69 − i) ≈ 54k `N⁺`
        // entries, far past CHECKPOINT_STRIDE. Sequential mode runs each
        // region as a single chunk, so once the triangle region's
        // pre-chunk deadline check passes there are no further chunk
        // boundaries — only the in-body stride poll can observe the
        // deadline expiring mid-chunk (armed here by an injected
        // straggler delay on that region, which outlasts it).
        let mut b = hcd_graph::GraphBuilder::new();
        for u in 0..70u32 {
            for v in (u + 1)..70 {
                b = b.edge(u, v);
            }
        }
        let g = b.build();
        let cores = hcd_decomp::core_decomposition(&g);
        let hcd = hcd_core::phcd(&g, &cores, &Executor::sequential());
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let exec = Executor::sequential().with_metrics();
        // Regions: 0 = bestk.contrib, 1 = bestk.orient, 2 = bestk.triangles.
        exec.set_fault_plan(hcd_par::FaultPlan::new().inject(2, 0, hcd_par::Fault::Delay(50_000)));
        exec.set_deadline(hcd_par::Deadline::from_now(
            std::time::Duration::from_millis(10),
        ));
        let err = try_core_set_scores(&ctx, &Metric::ClusteringCoefficient, &exec).unwrap_err();
        assert_eq!(err, hcd_par::ParError::DeadlineExceeded);
        let m = exec.take_metrics();
        let tri = m.get("bestk.triangles").expect("triangle region ran");
        assert_eq!(tri.deadline_exceeded, 1);
        assert_eq!(tri.checkpoints, 1, "the first stride poll fired");
        // The executor survives; cleared, the same query completes.
        exec.clear_deadline();
        exec.clear_fault_plan();
        assert!(try_core_set_scores(&ctx, &Metric::ClusteringCoefficient, &exec).is_ok());
    }
}
