//! Influential community search on the HCD (paper §VII, cf. ICP-Index
//! \[11\]).
//!
//! Given per-vertex influence weights, the *influence* of a k-core is the
//! minimum weight of its members; a top-r query asks for the `r` k-cores
//! of level at least `k` with the highest influence. The HCD makes this
//! index-able: the influence of every k-core is a bottom-up `min`
//! accumulation over the forest, computed once in parallel, after which
//! any `(k, r)` query is answered by scanning node summaries.

use hcd_par::{Executor, ParError, CHECKPOINT_STRIDE};

use crate::accumulate::try_accumulate_bottom_up;
use crate::preprocess::SearchContext;

/// A precomputed index answering top-r influential-community queries.
pub struct InfluenceIndex {
    /// `influence[i]`: min weight over the subtree (original k-core) of
    /// node `i`.
    influence: Vec<f64>,
    /// `(k, node)` pairs sorted by influence descending, for fast top-r.
    by_influence: Vec<(u32, u32)>,
}

/// One query answer: a k-core and its influence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfluentialCommunity {
    /// Tree node id (vertex set via `hcd.subtree_vertices(node)`).
    pub node: u32,
    /// The core's level.
    pub k: u32,
    /// `min` weight over the core's members.
    pub influence: f64,
}

impl InfluenceIndex {
    /// Builds the index: per-node min weight, then a parallel bottom-up
    /// `min` accumulation, then one sort. `O(n + |T| log |T|)` work.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the vertex count or any
    /// weight is NaN.
    pub fn build(ctx: &SearchContext<'_>, weights: &[f64], exec: &Executor) -> Self {
        match Self::try_build(ctx, weights, exec) {
            Ok(idx) => idx,
            Err(e) => e.raise(),
        }
    }

    /// Fallible version of [`InfluenceIndex::build`]: the per-node min
    /// pass polls the executor's cancellation checkpoint at a coarse
    /// member-count stride, so deadlines and cancel tokens abort the
    /// build promptly (see `hcd_par` failure model).
    ///
    /// # Panics
    ///
    /// Same contract panics as [`InfluenceIndex::build`] (wrong weight
    /// count, NaN weights) — those are caller bugs, not runtime failures.
    pub fn try_build(
        ctx: &SearchContext<'_>,
        weights: &[f64],
        exec: &Executor,
    ) -> Result<Self, ParError> {
        assert_eq!(
            weights.len(),
            ctx.g.num_vertices(),
            "one weight per vertex required"
        );
        assert!(
            weights.iter().all(|w| !w.is_nan()),
            "weights must not be NaN"
        );
        let hcd = ctx.hcd;
        let mut influence = vec![f64::INFINITY; hcd.num_nodes()];
        {
            struct SendPtr(*mut f64);
            unsafe impl Send for SendPtr {}
            unsafe impl Sync for SendPtr {}
            let out = SendPtr(influence.as_mut_ptr());
            exec.region("influence.node_min").try_for_each_chunk(
                hcd.num_nodes(),
                || (),
                |_, _, range| {
                    let _ = &out;
                    let mut since = 0usize;
                    for i in range {
                        let members = &hcd.node(i as u32).vertices;
                        let min = members
                            .iter()
                            .map(|&v| weights[v as usize])
                            .fold(f64::INFINITY, f64::min);
                        // SAFETY: disjoint slots.
                        unsafe { *out.0.add(i) = min };
                        since += members.len() + 1;
                        if since >= CHECKPOINT_STRIDE {
                            exec.checkpoint()?;
                            since = 0;
                        }
                    }
                    Ok(())
                },
            )?;
        }
        try_accumulate_bottom_up(
            hcd,
            &mut influence,
            |a, b| {
                if *b < *a {
                    *a = *b;
                }
            },
            exec,
        )?;
        let mut by_influence: Vec<(u32, u32)> = (0..hcd.num_nodes() as u32)
            .map(|i| (hcd.node(i).k, i))
            .collect();
        by_influence.sort_by(|&(_, a), &(_, b)| {
            influence[b as usize]
                .total_cmp(&influence[a as usize])
                .then(a.cmp(&b))
        });
        Ok(InfluenceIndex {
            influence,
            by_influence,
        })
    }

    /// Influence of node `i`'s original k-core.
    pub fn influence(&self, i: u32) -> f64 {
        self.influence[i as usize]
    }

    /// The top-`r` most influential k-cores with level `>= k`.
    ///
    /// Cores are returned in descending influence; containment is
    /// irrelevant for distinct levels (an inner core's influence is
    /// always `>=` its parent's, so nested cores can legitimately appear
    /// together, exactly as in \[11\]).
    pub fn top_r(&self, hcd: &hcd_core::Hcd, k: u32, r: usize) -> Vec<InfluentialCommunity> {
        self.by_influence
            .iter()
            .filter(|&&(level, _)| level >= k)
            .take(r)
            .map(|&(level, node)| InfluentialCommunity {
                node,
                k: level,
                influence: self.influence[node as usize],
            })
            .collect::<Vec<_>>()
            .into_iter()
            .inspect(|c| debug_assert_eq!(hcd.node(c.node).k, c.k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::search_fixture;
    use hcd_core::NO_NODE;

    fn weights_by_id(n: usize) -> Vec<f64> {
        (0..n).map(|v| v as f64).collect()
    }

    #[test]
    fn influence_is_subtree_min() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let weights = weights_by_id(g.num_vertices());
        for exec in [Executor::sequential(), Executor::assist(3)] {
            let idx = InfluenceIndex::build(&ctx, &weights, &exec);
            for i in 0..hcd.num_nodes() as u32 {
                let want = hcd
                    .subtree_vertices(i)
                    .into_iter()
                    .map(|v| weights[v as usize])
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(idx.influence(i), want, "node {i}");
            }
        }
    }

    #[test]
    fn top_r_is_sorted_and_level_filtered() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let weights = weights_by_id(g.num_vertices());
        let idx = InfluenceIndex::build(&ctx, &weights, &Executor::sequential());
        let top = idx.top_r(&hcd, 3, 10);
        assert!(!top.is_empty());
        for c in &top {
            assert!(c.k >= 3);
        }
        for w in top.windows(2) {
            assert!(w[0].influence >= w[1].influence);
        }
        // The 4-core S4 = {0..5} has influence 0 (vertex 0); the 3-core
        // S3.2 = {9..12} has influence 9 and must rank first.
        assert_eq!(top[0].influence, 9.0);
        assert_eq!(hcd.node(top[0].node).k, 3);
    }

    #[test]
    fn children_at_least_as_influential_as_parents() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let weights = weights_by_id(g.num_vertices());
        let idx = InfluenceIndex::build(&ctx, &weights, &Executor::assist(2));
        for i in 0..hcd.num_nodes() as u32 {
            let node = hcd.node(i);
            if node.parent != NO_NODE {
                assert!(idx.influence(i) >= idx.influence(node.parent));
            }
        }
    }

    #[test]
    fn r_larger_than_forest_returns_everything_at_level() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        let weights = weights_by_id(g.num_vertices());
        let idx = InfluenceIndex::build(&ctx, &weights, &Executor::sequential());
        let top = idx.top_r(&hcd, 0, 100);
        assert_eq!(top.len(), hcd.num_nodes());
    }

    #[test]
    #[should_panic(expected = "one weight per vertex")]
    fn wrong_weight_length_panics() {
        let (g, cores, hcd) = search_fixture();
        let ctx = SearchContext::new(&g, &cores, &hcd);
        InfluenceIndex::build(&ctx, &[1.0, 2.0], &Executor::sequential());
    }
}
