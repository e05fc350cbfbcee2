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
use hcd_par::{Executor, ParError, CHECKPOINT_STRIDE};

use crate::metrics::{Metric, MetricKind, PrimaryValues};
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

/// Fallible version of [`core_set_scores`]: returns `Err` if the
/// contribution region panics, is cancelled, or exceeds the executor's
/// deadline. The triangle enumeration is `O(m^1.5)` — by far the longest
/// loop of this extension — so it polls the cancellation checkpoint at a
/// coarse per-wedge work stride; a deadline takes effect within one
/// `CHECKPOINT_STRIDE` of scanned edges rather than after the full pass
/// (see `hcd_par` failure model).
pub fn try_core_set_scores(
    ctx: &SearchContext<'_>,
    metric: &Metric,
    exec: &Executor,
) -> Result<Vec<LevelScore>, ParError> {
    let kmax = ctx.cores.kmax() as usize;
    let nk = kmax + 1;
    let n_acc: Vec<AtomicU64> = (0..nk).map(|_| AtomicU64::new(0)).collect();
    let m2_acc: Vec<AtomicU64> = (0..nk).map(|_| AtomicU64::new(0)).collect();
    let b_acc: Vec<AtomicI64> = (0..nk).map(|_| AtomicI64::new(0)).collect();
    let ta_acc: Vec<AtomicU64> = (0..nk).map(|_| AtomicU64::new(0)).collect();
    let tp_acc: Vec<AtomicU64> = (0..nk).map(|_| AtomicU64::new(0)).collect();
    let type_b = metric.kind() == MetricKind::TypeB;
    let n = ctx.g.num_vertices();

    struct Scratch {
        marks: Vec<bool>,
        counts: Vec<u32>,
    }

    exec.region("bestk.contrib").try_for_each_chunk(
        n,
        || Scratch {
            marks: vec![false; n],
            counts: vec![0; nk],
        },
        |_, scratch, range| {
            let mut since = 0usize;
            for v in range {
                let v = v as VertexId;
                let cv = ctx.cores.coreness(v) as usize;
                let gt = ctx.gt(v) as u64;
                let eq = ctx.eq(v) as u64;
                let lt = ctx.lt(v) as i64;
                n_acc[cv].fetch_add(1, Ordering::Relaxed);
                m2_acc[cv].fetch_add(2 * gt + eq, Ordering::Relaxed);
                b_acc[cv].fetch_add(lt - gt as i64, Ordering::Relaxed);
                since += 1;
                if since >= CHECKPOINT_STRIDE {
                    exec.checkpoint()?;
                    since = 0;
                }
                if !type_b {
                    continue;
                }

                // Triangles: credit the level of the lowest-rank corner.
                let dv = ctx.g.degree(v);
                let rv = ctx.ranks.rank(v);
                for &u in ctx.g.neighbors(v) {
                    scratch.marks[u as usize] = true;
                }
                for &u in ctx.g.neighbors(v) {
                    let du = ctx.g.degree(u);
                    if du < dv || (du == dv && u < v) {
                        // The wedge scan below is the O(m^1.5) hot loop:
                        // poll once per scanned adjacency stride so a
                        // deadline fires mid-vertex, not after it.
                        since += du;
                        if since >= CHECKPOINT_STRIDE {
                            exec.checkpoint()?;
                            since = 0;
                        }
                        let ru = ctx.ranks.rank(u);
                        for &w in ctx.g.neighbors(u) {
                            if scratch.marks[w as usize] {
                                let rw = ctx.ranks.rank(w);
                                if rw < ru && rw < rv {
                                    ta_acc[ctx.cores.coreness(w) as usize]
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                }
                for &u in ctx.g.neighbors(v) {
                    scratch.marks[u as usize] = false;
                }

                // Triplets centered at v, credited to the level at which
                // they appear (minimum endpoint coreness).
                let mut gt_k = gt + eq;
                tp_acc[cv].fetch_add(gt_k * gt_k.saturating_sub(1) / 2, Ordering::Relaxed);
                if cv > 0 {
                    for &u in ctx.g.neighbors(v) {
                        let cu = ctx.cores.coreness(u) as usize;
                        if cu < cv {
                            scratch.counts[cu] += 1;
                        }
                    }
                    for k in (0..cv).rev() {
                        let cnt = scratch.counts[k] as u64;
                        if cnt > 0 {
                            tp_acc[k]
                                .fetch_add(cnt * (cnt - 1) / 2 + gt_k * cnt, Ordering::Relaxed);
                            gt_k += cnt;
                            scratch.counts[k] = 0;
                        }
                    }
                }
            }
            Ok(())
        },
    )?;

    // Suffix sums: K_k = shells k..=kmax.
    let totals = ctx.totals();
    let mut acc = crate::pbks::Contrib::default();
    let mut out = Vec::with_capacity(nk);
    for k in (0..nk).rev() {
        acc.n += n_acc[k].load(Ordering::Relaxed);
        acc.m2 += m2_acc[k].load(Ordering::Relaxed);
        acc.b += b_acc[k].load(Ordering::Relaxed);
        acc.triangles += ta_acc[k].load(Ordering::Relaxed);
        acc.triplets += tp_acc[k].load(Ordering::Relaxed);
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
        // A 70-clique: the wedge scan alone is far past CHECKPOINT_STRIDE
        // edge reads. Sequential mode runs the whole region as a single
        // chunk, so after the pre-chunk deadline check passes there are no
        // further chunk boundaries — only the in-body stride poll can
        // observe the deadline expiring mid-chunk (armed here by an
        // injected straggler delay that outlasts it).
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
        let exec = Executor::sequential();
        exec.set_fault_plan(hcd_par::FaultPlan::new().inject(0, 0, hcd_par::Fault::Delay(50_000)));
        exec.set_deadline(hcd_par::Deadline::from_now(
            std::time::Duration::from_millis(10),
        ));
        let err = try_core_set_scores(&ctx, &Metric::ClusteringCoefficient, &exec).unwrap_err();
        assert_eq!(err, hcd_par::ParError::DeadlineExceeded);
        // The executor survives; cleared, the same query completes.
        exec.clear_deadline();
        exec.clear_fault_plan();
        assert!(try_core_set_scores(&ctx, &Metric::ClusteringCoefficient, &exec).is_ok());
    }
}
