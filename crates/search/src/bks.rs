//! BKS: the serial subgraph-search baseline \[10\].
//!
//! BKS sweeps the coreness levels from `kmax` down to 0, relying at each
//! level on the totals already computed for larger coreness — the
//! "barriers between levels" that make it unsuitable for parallel
//! execution — and answers neighbor-coreness queries from adjacency lists
//! pre-sorted by coreness (a bin-sort *vertex ordering* over all arcs,
//! whose multi-threaded bucket accesses are the second obstacle the paper
//! identifies). PBKS replaces both mechanisms; this module keeps them so
//! the comparison measured in Table V and Figures 6–9 is faithful.

use hcd_graph::{CsrGraph, VertexId};

use crate::metrics::{Metric, MetricKind, PrimaryValues};
use crate::pbks::{BestCore, Contrib};
use crate::preprocess::SearchContext;

/// Adjacency lists re-ordered by neighbor coreness (descending, ties by
/// id) — BKS's vertex-ordering preprocessing, built with two stable
/// counting sorts over the arc list in `O(n + m + kmax)`.
pub struct SortedAdjacency {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
}

impl SortedAdjacency {
    /// Builds the ordering for `g` given each vertex's coreness.
    pub fn build(g: &CsrGraph, coreness: &[u32]) -> Self {
        let n = g.num_vertices();
        let arcs = g.num_arcs();
        let kmax = coreness.iter().copied().max().unwrap_or(0) as usize;

        // Pass 1: stable counting sort of all arcs (src, dst) by
        // c(dst) descending. Arcs start ordered by (src, dst asc).
        let by_core: Vec<(VertexId, VertexId)> = {
            let mut counts = vec![0usize; kmax + 2];
            for v in g.vertices() {
                for &u in g.neighbors(v) {
                    counts[kmax - coreness[u as usize] as usize + 1] += 1;
                }
            }
            for i in 0..=kmax {
                counts[i + 1] += counts[i];
            }
            let mut out = vec![(0, 0); arcs];
            for v in g.vertices() {
                for &u in g.neighbors(v) {
                    let bucket = kmax - coreness[u as usize] as usize;
                    out[counts[bucket]] = (v, u);
                    counts[bucket] += 1;
                }
            }
            out
        };

        // Pass 2: stable counting sort by src; within each src the
        // coreness-descending order from pass 1 is preserved.
        let mut offsets = vec![0usize; n + 1];
        for &(v, _) in &by_core {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as VertexId; arcs];
        for &(v, u) in &by_core {
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        SortedAdjacency { offsets, neighbors }
    }

    /// The coreness-descending adjacency slice of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Scores every k-core serially in the BKS style, building the vertex
/// ordering on the fly. Returns `(scores, primaries)` indexed by tree
/// node id — identical values to [`crate::pbks::try_pbks_scores`], by
/// construction.
pub fn bks_scores(ctx: &SearchContext<'_>, metric: &Metric) -> (Vec<f64>, Vec<PrimaryValues>) {
    let sorted = SortedAdjacency::build(ctx.g, ctx.cores.as_slice());
    bks_scores_with(ctx, &sorted, metric)
}

/// Scores every k-core with a prebuilt vertex ordering — BKS's
/// preprocessing analogue of [`crate::SearchContext`]'s neighbor counts.
/// Benchmarks that exclude preprocessing time (Figures 6/8, Table V)
/// reuse one [`SortedAdjacency`] across queries, like the paper.
pub fn bks_scores_with(
    ctx: &SearchContext<'_>,
    sorted: &SortedAdjacency,
    metric: &Metric,
) -> (Vec<f64>, Vec<PrimaryValues>) {
    let g = ctx.g;
    let cores = ctx.cores;
    let hcd = ctx.hcd;
    let num_nodes = hcd.num_nodes();

    let mut contribs = vec![Contrib::default(); num_nodes];

    // Nodes grouped by level for the descending sweep.
    let kmax = cores.kmax();
    let mut nodes_at: Vec<Vec<u32>> = vec![Vec::new(); kmax as usize + 1];
    for (i, node) in hcd.nodes().iter().enumerate() {
        nodes_at[node.k as usize].push(i as u32);
    }

    // Triangle counting (type-B only): the paper's serial enumeration,
    // attributed to the lowest-rank corner. PBKS's κ-oriented pass
    // credits every triangle to the same tree node (see `motifs`).
    if metric.kind() == MetricKind::TypeB {
        let mut marks = vec![false; g.num_vertices()];
        for v in g.vertices() {
            let dv = g.degree(v);
            let rv = ctx.ranks.rank(v);
            for &u in g.neighbors(v) {
                marks[u as usize] = true;
            }
            for &u in g.neighbors(v) {
                let du = g.degree(u);
                if du < dv || (du == dv && u < v) {
                    let ru = ctx.ranks.rank(u);
                    for &w in g.neighbors(u) {
                        if marks[w as usize] {
                            let rw = ctx.ranks.rank(w);
                            if rw < ru && rw < rv {
                                contribs[hcd.tid(w) as usize].triangles += 1;
                            }
                        }
                    }
                }
            }
            for &u in g.neighbors(v) {
                marks[u as usize] = false;
            }
        }
    }

    // Level sweep, kmax -> 0, with per-level barriers.
    let mut totals_ready = vec![false; num_nodes];
    for k in (0..=kmax).rev() {
        // Vertex contributions at this level, answered from the sorted
        // adjacency by scanning coreness runs.
        for v in ctx.ranks.shell(k).iter().copied() {
            let i = hcd.tid(v) as usize;
            let adj = sorted.neighbors(v);
            let gt = adj.iter().take_while(|&&u| cores.coreness(u) > k).count() as u64;
            let eq = adj[gt as usize..]
                .iter()
                .take_while(|&&u| cores.coreness(u) == k)
                .count() as u64;
            let lt = adj.len() as u64 - gt - eq;
            contribs[i].n += 1;
            contribs[i].m2 += 2 * gt + eq;
            contribs[i].b += lt as i64 - gt as i64;

            if metric.kind() == MetricKind::TypeB {
                // Triplets centered at v, per coreness run of the sorted
                // adjacency (this is where the vertex ordering pays off
                // for the serial algorithm).
                let mut gt_k = gt + eq;
                contribs[i].triplets += gt_k * gt_k.saturating_sub(1) / 2;
                let mut pos = (gt + eq) as usize;
                while pos < adj.len() {
                    let w = adj[pos];
                    let ck = cores.coreness(w);
                    let mut cnt = 0u64;
                    while pos < adj.len() && cores.coreness(adj[pos]) == ck {
                        cnt += 1;
                        pos += 1;
                    }
                    contribs[hcd.tid(w) as usize].triplets += cnt * (cnt - 1) / 2 + gt_k * cnt;
                    gt_k += cnt;
                }
            }
        }
        // Merge children (all at larger levels, already final) into the
        // level-k nodes — the "relies on the results of larger coreness"
        // dependency.
        for &i in &nodes_at[k as usize] {
            let children = hcd.node(i).children.clone();
            for c in children {
                debug_assert!(totals_ready[c as usize]);
                let child = contribs[c as usize];
                contribs[i as usize].merge(&child);
            }
            totals_ready[i as usize] = true;
        }
    }

    let primaries: Vec<PrimaryValues> = contribs.into_iter().map(|c| c.into_primary()).collect();
    let totals = ctx.totals();
    let scores = primaries.iter().map(|p| metric.score(p, &totals)).collect();
    (scores, primaries)
}

/// BKS: the serial search for the best k-core under `metric`.
pub fn bks(ctx: &SearchContext<'_>, metric: &Metric) -> Option<BestCore> {
    let (scores, primaries) = bks_scores(ctx, metric);
    let best = (0..scores.len())
        .max_by(|&a, &b| crate::metrics::score_cmp(scores[a], scores[b]).then(b.cmp(&a)))?;
    Some(BestCore {
        node: best as u32,
        k: ctx.hcd.node(best as u32).k,
        score: scores[best],
        primaries: primaries[best],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbks::try_pbks_scores;
    use crate::testutil::search_fixture;
    use hcd_par::Executor;

    #[test]
    fn sorted_adjacency_orders_by_coreness_desc() {
        let (g, cores, _) = search_fixture();
        let sorted = SortedAdjacency::build(&g, cores.as_slice());
        for v in g.vertices() {
            let adj = sorted.neighbors(v);
            assert_eq!(adj.len(), g.degree(v));
            for w in adj.windows(2) {
                let (c0, c1) = (cores.coreness(w[0]), cores.coreness(w[1]));
                assert!(c0 > c1 || (c0 == c1 && w[0] < w[1]), "v={v}");
            }
            // Same multiset of neighbors.
            let mut a: Vec<_> = adj.to_vec();
            a.sort_unstable();
            assert_eq!(a.as_slice(), g.neighbors(v));
        }
    }

    #[test]
    fn bks_equals_pbks_on_all_metrics() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let exec = Executor::sequential();
        for metric in Metric::ALL {
            let (s_bks, p_bks) = bks_scores(&ctx, &metric);
            let (s_pbks, p_pbks) = try_pbks_scores(&ctx, &metric, &exec).unwrap();
            assert_eq!(p_bks, p_pbks, "{}", metric.name());
            assert_eq!(s_bks, s_pbks, "{}", metric.name());
        }
    }

    #[test]
    fn bks_best_matches_pbks_best() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        for metric in Metric::ALL {
            let a = bks(&ctx, &metric).unwrap();
            let b = crate::pbks::try_pbks(&ctx, &metric, &Executor::assist(2))
                .unwrap()
                .unwrap();
            assert_eq!(a, b, "{}", metric.name());
        }
    }
}
