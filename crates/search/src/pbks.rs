//! PBKS: parallel subgraph search on the HCD (paper Algorithms 3–5).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use hcd_graph::VertexId;
use hcd_par::{Executor, ParError, CHECKPOINT_STRIDE};

use crate::accumulate::try_accumulate_bottom_up;
use crate::metrics::{Metric, MetricKind, PrimaryValues};
use crate::preprocess::SearchContext;

/// The winning k-core of a subgraph search.
#[derive(Debug, Clone, PartialEq)]
pub struct BestCore {
    /// Tree node id of the k-core (reconstruct the vertex set with
    /// `hcd.subtree_vertices(node)`).
    pub node: u32,
    /// The core's level `k`.
    pub k: u32,
    /// Its score under the queried metric.
    pub score: f64,
    /// Its fully accumulated primary values.
    pub primaries: PrimaryValues,
}

/// Per-node raw contributions before tree accumulation. Boundary-edge
/// contributions are signed: a vertex removes `gt` previously-boundary
/// edges and adds `lt` new ones, so node-local sums can be negative until
/// the whole subtree is merged.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Contrib {
    pub n: u64,
    pub m2: u64,
    pub b: i64,
    pub triangles: u64,
    pub triplets: u64,
}

impl Contrib {
    pub(crate) fn merge(&mut self, o: &Contrib) {
        self.n += o.n;
        self.m2 += o.m2;
        self.b += o.b;
        self.triangles += o.triangles;
        self.triplets += o.triplets;
    }

    pub(crate) fn into_primary(self) -> PrimaryValues {
        debug_assert!(self.b >= 0, "accumulated boundary count negative");
        debug_assert!(self.m2 % 2 == 0, "accumulated doubled edge count odd");
        PrimaryValues {
            n: self.n,
            m2: self.m2,
            b: self.b.max(0) as u64,
            triangles: self.triangles,
            triplets: self.triplets,
        }
    }
}

/// Computes the vertex-centric type-A contributions (Algorithm 4, lines
/// 2–9): each vertex, processed independently, adds one vertex, its
/// greater/half-of-equal coreness edges, and its signed boundary delta to
/// its own tree node.
pub(crate) fn try_type_a_contributions(
    ctx: &SearchContext<'_>,
    exec: &Executor,
) -> Result<Vec<Contrib>, ParError> {
    let num_nodes = ctx.hcd.num_nodes();
    let n_acc: Vec<AtomicU64> = (0..num_nodes).map(|_| AtomicU64::new(0)).collect();
    let m2_acc: Vec<AtomicU64> = (0..num_nodes).map(|_| AtomicU64::new(0)).collect();
    let b_acc: Vec<AtomicI64> = (0..num_nodes).map(|_| AtomicI64::new(0)).collect();

    exec.region("pbks.type_a").try_for_each_chunk(
        ctx.g.num_vertices(),
        || (),
        |_, _, range| {
            for v in range {
                let v = v as VertexId;
                let i = ctx.hcd.tid(v) as usize;
                let gt = ctx.gt(v) as u64;
                let eq = ctx.eq(v) as u64;
                let lt = ctx.lt(v) as i64;
                n_acc[i].fetch_add(1, Ordering::Relaxed);
                m2_acc[i].fetch_add(2 * gt + eq, Ordering::Relaxed);
                b_acc[i].fetch_add(lt - gt as i64, Ordering::Relaxed);
            }
            Ok(())
        },
    )?;

    Ok((0..num_nodes)
        .map(|i| Contrib {
            n: n_acc[i].load(Ordering::Relaxed),
            m2: m2_acc[i].load(Ordering::Relaxed),
            b: b_acc[i].load(Ordering::Relaxed),
            triangles: 0,
            triplets: 0,
        })
        .collect())
}

/// Computes the triangle and triplet contributions (Algorithm 5, lines
/// 2–15), added onto `contribs` in place.
///
/// *Triangles* are enumerated once per edge `(v, u)` with
/// `(d(u), u) < (d(v), v)`, checking `u`'s neighbors against a per-worker
/// membership bitmap of `N(v)`; each triangle is credited to the tree
/// node of its lowest-vertex-rank corner — `O(Σ min(d(u), d(v))) =
/// O(m^1.5)` work. *Triplets* centered at `v` are counted per coreness
/// level with a per-worker counting array indexed by coreness, reset via
/// a touched list — `O(d(v) + c(v)) = O(d(v))` per vertex, no adjacency
/// sorting needed.
pub(crate) fn try_type_b_contributions(
    ctx: &SearchContext<'_>,
    exec: &Executor,
    contribs: &mut [Contrib],
) -> Result<(), ParError> {
    let num_nodes = ctx.hcd.num_nodes();
    let ta: Vec<AtomicU64> = (0..num_nodes).map(|_| AtomicU64::new(0)).collect();
    let tp: Vec<AtomicU64> = (0..num_nodes).map(|_| AtomicU64::new(0)).collect();
    let n = ctx.g.num_vertices();
    let kmax = ctx.cores.kmax() as usize;

    struct Scratch {
        /// Membership bitmap of N(v) for the triangle pass.
        marks: Vec<bool>,
        /// Count of N(v) ∩ H_k for the triplet pass.
        counts: Vec<u32>,
        /// One representative of N(v) ∩ H_k.
        reps: Vec<VertexId>,
    }

    // Triangle work is wildly skewed (proportional to the degrees around
    // each vertex), so chunk by degree weight rather than vertex count.
    let deg_prefix: Vec<u64> = {
        let mut p = Vec::with_capacity(n + 1);
        p.push(0u64);
        for v in 0..n as u32 {
            p.push(p.last().unwrap() + ctx.g.degree(v) as u64 + 1);
        }
        p
    };
    // The triangle pass is the most expensive loop in the search — poll
    // the cancellation checkpoint at a coarse per-vertex work stride.
    // Neighbor probes (the inner `w` loop) are the pass's true work
    // measure, O(Σ min(d(u), d(v))); tallied chunk-locally and flushed
    // with one atomic add per chunk.
    let probe_work = AtomicU64::new(0);
    exec.region("pbks.triangles").try_for_each_chunk_weighted(
        &deg_prefix,
        || Scratch {
            marks: vec![false; n],
            counts: vec![0; kmax + 1],
            reps: vec![0; kmax + 1],
        },
        |_, scratch, range| {
            let mut probes = 0u64;
            let mut since = 0usize;
            for v in range {
                let v = v as VertexId;
                let dv = ctx.g.degree(v);
                let cv = ctx.cores.coreness(v);
                let rv = ctx.ranks.rank(v);
                since += dv + 1;
                if since >= CHECKPOINT_STRIDE {
                    exec.checkpoint()?;
                    since = 0;
                }

                // --- Triangles (lines 2-7) ---
                for &u in ctx.g.neighbors(v) {
                    scratch.marks[u as usize] = true;
                }
                for &u in ctx.g.neighbors(v) {
                    let du = ctx.g.degree(u);
                    if du < dv || (du == dv && u < v) {
                        let ru = ctx.ranks.rank(u);
                        probes += du as u64;
                        for &w in ctx.g.neighbors(u) {
                            if scratch.marks[w as usize] {
                                let rw = ctx.ranks.rank(w);
                                if rw < ru && rw < rv {
                                    ta[ctx.hcd.tid(w) as usize].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                }
                for &u in ctx.g.neighbors(v) {
                    scratch.marks[u as usize] = false;
                }

                // --- Triplets (lines 8-15) ---
                let mut gt_k = (ctx.gt(v) + ctx.eq(v)) as u64;
                tp[ctx.hcd.tid(v) as usize]
                    .fetch_add(gt_k * gt_k.saturating_sub(1) / 2, Ordering::Relaxed);
                if cv > 0 {
                    // Bucket lower-coreness neighbors by coreness.
                    for &u in ctx.g.neighbors(v) {
                        let cu = ctx.cores.coreness(u);
                        if cu < cv {
                            scratch.counts[cu as usize] += 1;
                            scratch.reps[cu as usize] = u;
                        }
                    }
                    for k in (0..cv).rev() {
                        let cnt = scratch.counts[k as usize] as u64;
                        if cnt > 0 {
                            let w = scratch.reps[k as usize];
                            let pairs = cnt * (cnt - 1) / 2 + gt_k * cnt;
                            tp[ctx.hcd.tid(w) as usize].fetch_add(pairs, Ordering::Relaxed);
                            gt_k += cnt;
                            scratch.counts[k as usize] = 0;
                        }
                    }
                }
            }
            probe_work.fetch_add(probes, Ordering::Relaxed);
            Ok(())
        },
    )?;
    exec.add_counter("pbks.triangle_probes", probe_work.load(Ordering::Relaxed));

    for (i, c) in contribs.iter_mut().enumerate() {
        c.triangles += ta[i].load(Ordering::Relaxed);
        c.triplets += tp[i].load(Ordering::Relaxed);
    }
    Ok(())
}

/// Scores every k-core (tree node) under `metric`: contributions →
/// bottom-up accumulation → `get_metric` (Algorithm 3). Returns
/// `(scores, primaries)` indexed by node id.
pub fn pbks_scores(
    ctx: &SearchContext<'_>,
    metric: &Metric,
    exec: &Executor,
) -> (Vec<f64>, Vec<PrimaryValues>) {
    match try_pbks_scores(ctx, metric, exec) {
        Ok(out) => out,
        Err(e) => e.raise(),
    }
}

/// Fallible version of [`pbks_scores`]: returns `Err` if any region
/// panics, is cancelled, or exceeds the executor's deadline. On `Err` all
/// intermediate state is discarded and the executor stays usable (see
/// `hcd_par` failure model).
pub fn try_pbks_scores(
    ctx: &SearchContext<'_>,
    metric: &Metric,
    exec: &Executor,
) -> Result<(Vec<f64>, Vec<PrimaryValues>), ParError> {
    let mut contribs = try_type_a_contributions(ctx, exec)?;
    if metric.kind() == MetricKind::TypeB {
        try_type_b_contributions(ctx, exec, &mut contribs)?;
    }
    try_accumulate_bottom_up(ctx.hcd, &mut contribs, Contrib::merge, exec)?;
    let primaries: Vec<PrimaryValues> = contribs.into_iter().map(Contrib::into_primary).collect();
    let totals = ctx.totals();
    let mut scores = vec![0.0f64; primaries.len()];
    {
        struct SendPtr(*mut f64);
        unsafe impl Send for SendPtr {}
        unsafe impl Sync for SendPtr {}
        let out = SendPtr(scores.as_mut_ptr());
        exec.region("pbks.score").try_for_each_chunk(
            primaries.len(),
            || (),
            |_, _, range| {
                let _ = &out;
                for i in range {
                    // SAFETY: disjoint slots.
                    unsafe { *out.0.add(i) = metric.score(&primaries[i], &totals) };
                }
                Ok(())
            },
        )?;
    }
    Ok((scores, primaries))
}

/// PBKS: the k-core with the highest score under `metric`.
///
/// Ties are broken toward the smallest node id, which (given PHCD's
/// deterministic id assignment) makes the result reproducible. Returns
/// `None` only for an empty graph.
pub fn pbks(ctx: &SearchContext<'_>, metric: &Metric, exec: &Executor) -> Option<BestCore> {
    match try_pbks(ctx, metric, exec) {
        Ok(best) => best,
        Err(e) => e.raise(),
    }
}

/// PBKS against a *shared snapshot*: builds the [`SearchContext`] from
/// borrowed index parts and runs the search in one call.
///
/// This is the entry point the serving layer uses — a snapshot bundles
/// `(graph, cores, hcd)` behind an `Arc`, and each best-community query
/// borrows them for the duration of the call; nothing in the context
/// outlives the borrow, so concurrent queries on the same snapshot are
/// safe and queries on different snapshots never observe each other.
/// The `O(m)` preprocessing runs under `exec` (region
/// `search.preprocess`) on every call; callers answering many searches
/// against one snapshot should build a [`SearchContext`] once and call
/// [`try_pbks`] directly.
pub fn try_pbks_on(
    g: &hcd_graph::CsrGraph,
    cores: &hcd_decomp::CoreDecomposition,
    hcd: &hcd_core::Hcd,
    metric: &Metric,
    exec: &Executor,
) -> Result<Option<BestCore>, ParError> {
    let ctx = SearchContext::try_with_executor(g, cores, hcd, exec)?;
    try_pbks(&ctx, metric, exec)
}

/// Fallible version of [`pbks`]: `Ok(None)` only for an empty graph,
/// `Err` if the search failed (panic, cancellation, or deadline).
pub fn try_pbks(
    ctx: &SearchContext<'_>,
    metric: &Metric,
    exec: &Executor,
) -> Result<Option<BestCore>, ParError> {
    let (scores, primaries) = try_pbks_scores(ctx, metric, exec)?;
    let best = (0..scores.len()).max_by(|&a, &b| {
        crate::metrics::score_cmp(scores[a], scores[b]).then(b.cmp(&a)) // prefer the smaller id on ties
    });
    Ok(best.map(|best| BestCore {
        node: best as u32,
        k: ctx.hcd.node(best as u32).k,
        score: scores[best],
        primaries: primaries[best],
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{primaries_by_definition, search_fixture};

    #[test]
    fn primaries_match_brute_force_on_figure1() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        for exec in [
            Executor::sequential(),
            Executor::assist(4),
            Executor::simulated(3),
        ] {
            let (_, primaries) = pbks_scores(&ctx, &Metric::ClusteringCoefficient, &exec);
            for i in 0..hcd.num_nodes() as u32 {
                let members = hcd.subtree_vertices(i);
                let want = primaries_by_definition(&g, &members);
                assert_eq!(
                    primaries[i as usize],
                    want,
                    "node {i} (k={}) mode {}",
                    hcd.node(i).k,
                    exec.mode_name()
                );
            }
        }
    }

    #[test]
    fn figure1_best_average_degree_is_the_4core() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let best = pbks(&ctx, &Metric::AverageDegree, &Executor::sequential()).unwrap();
        // S4 is a 6-vertex near-clique: average degree 14*2/6 ≈ 4.67,
        // denser than S3.1 (9 vertices, 20 edges, 4.44) and the rest.
        assert_eq!(best.k, 4);
        assert!((best.score - 14.0 * 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn every_metric_finds_some_core() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        for metric in Metric::ALL {
            let best = pbks(&ctx, &metric, &Executor::assist(2)).unwrap();
            assert!(best.score.is_finite(), "{}", metric.name());
            assert!((best.node as usize) < hcd.num_nodes());
        }
    }

    #[test]
    fn empty_graph_returns_none() {
        let g = hcd_graph::GraphBuilder::new().build();
        let cores = hcd_decomp::core_decomposition(&g);
        let hcd = hcd_core::phcd(&g, &cores, &Executor::sequential());
        let ctx = SearchContext::new(&g, &cores, &hcd);
        assert!(pbks(&ctx, &Metric::AverageDegree, &Executor::sequential()).is_none());
    }
}
