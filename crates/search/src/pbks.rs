//! PBKS: parallel subgraph search on the HCD (paper Algorithms 3–5).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use hcd_graph::VertexId;
use hcd_par::{Executor, ParError};

use crate::accumulate::try_accumulate_bottom_up;
use crate::metrics::{Metric, MetricKind, PrimaryValues};
use crate::motifs::{try_count_motifs, MotifNames};
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

/// Computes the triangle and triplet contributions (Algorithm 5), added
/// onto `contribs` in place: the shared κ-oriented kernel, bucketed by
/// tree node. Each triangle is enumerated once, at its κ-minimum corner,
/// in `O(Σ_v Σ_{u ∈ N⁺(v)} |N⁺(u)|) = O(m^1.5)` work after an `O(m)`
/// orientation scan that also buckets the triplets (see
/// [`crate::motifs`]).
pub(crate) fn try_type_b_contributions(
    ctx: &SearchContext<'_>,
    exec: &Executor,
    contribs: &mut [Contrib],
) -> Result<(), ParError> {
    let counts = try_count_motifs(ctx, exec, &PBKS_MOTIFS, ctx.hcd.tids(), contribs.len())?;
    for (i, c) in contribs.iter_mut().enumerate() {
        c.triangles += counts.triangles[i];
        c.triplets += counts.triplets[i];
    }
    Ok(())
}

const PBKS_MOTIFS: MotifNames = MotifNames {
    orient: "pbks.orient",
    triangles: "pbks.triangles",
    probes: "pbks.triangle_probes",
};

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
