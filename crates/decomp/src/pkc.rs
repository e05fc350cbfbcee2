//! Parallel level-synchronous core decomposition (ParK/PKC style).

use std::sync::atomic::{AtomicU32, Ordering};

use hcd_graph::{CsrGraph, VertexId};
use hcd_par::{Executor, ParError, CHECKPOINT_STRIDE};

use crate::CoreDecomposition;

/// Parallel peeling in the style of ParK \[24\] / PKC \[20\].
///
/// For each level `k = 0, 1, …` the frontier of vertices whose current
/// degree equals `k` is peeled; removing a frontier vertex decrements its
/// neighbors' degrees with a CAS loop that never drops a degree below the
/// current level, and the thread whose decrement lands a neighbor exactly
/// on the level claims it for the next frontier (so every vertex is
/// peeled exactly once).
///
/// ## Bucket-major frontier layout
///
/// Instead of rescanning a compacted alive list at every level (the
/// original PKC strategy, `O(n·kmax)` scan work), vertices are kept in
/// *degree buckets*: the initial fill places `v` in `bucket[deg(v)]`, and
/// every decrement that lands above the current level re-files the vertex
/// lazily by appending a `(new_degree, v)` entry. Level `k` then drains
/// only `bucket[k]`, so same-level vertices are scanned contiguously and
/// total scan work is `O(n + m)` — each vertex contributes one entry per
/// degree value it passes through. Entries whose recorded degree no
/// longer matches (the vertex was decremented further before its bucket
/// came up) are stale and skipped; at most one entry per `(degree,
/// vertex)` pair exists, so no vertex is ever peeled twice.
///
/// Re-filed entries are appended serially in chunk order after each
/// wave. Entry *order* inside a bucket still depends on how the wave was
/// chunked (worker count varies by mode), but the *sets* do not: CAS
/// decrements serialize, so each intermediate degree value is observed by
/// exactly one decrement regardless of interleaving. Wave membership,
/// wave counts, coreness output, and all `pkc.*` counters are therefore
/// identical across executor modes.
///
/// Returns `Err` if any region panics, is cancelled, or exceeds the
/// executor's deadline. On `Err` all intermediate peeling state is
/// discarded and the executor stays usable (see `hcd_par` failure model).
pub fn try_pkc_core_decomposition(
    g: &CsrGraph,
    exec: &Executor,
) -> Result<CoreDecomposition, ParError> {
    let n = g.num_vertices();
    if n == 0 {
        return Ok(CoreDecomposition::from_coreness(Vec::new()));
    }

    let deg: Vec<AtomicU32> = (0..n as VertexId)
        .map(|v| AtomicU32::new(g.degree(v) as u32))
        .collect();

    // Degree buckets: bucket[d] holds candidates whose degree was last
    // seen as d. Initial fill in id order keeps the drain deterministic.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); g.max_degree() + 1];
    for v in 0..n as VertexId {
        buckets[g.degree(v)].push(v);
    }

    let mut processed = 0usize;
    let mut level: u32 = 0;
    // Observability: peeling rounds, per-wave frontier sizes, and the
    // bucket queue's lazy re-file traffic.
    let mut levels_run = 0u64;
    let mut waves_run = 0u64;
    let mut bucket_pushes = 0u64;
    let mut bucket_skips = 0u64;

    while processed < n {
        levels_run += 1;
        // Drain this level's bucket: entries still at the level seed the
        // frontier; stale entries (vertex decremented past this bucket
        // before it came up) are dropped.
        let bucket = std::mem::take(&mut buckets[level as usize]);
        let parts = exec
            .region("pkc.scan")
            .try_map_chunks(bucket.len(), |_, range| {
                let mut frontier = Vec::new();
                let mut skipped = 0u64;
                for &v in &bucket[range] {
                    if deg[v as usize].load(Ordering::Relaxed) == level {
                        frontier.push(v);
                    } else {
                        skipped += 1;
                    }
                }
                Ok((frontier, skipped))
            })?;
        let mut frontier: Vec<VertexId> = Vec::new();
        for (f, skipped) in parts {
            frontier.extend(f);
            bucket_skips += skipped;
        }

        // Peel the frontier in waves until it drains. Wave work is
        // proportional to frontier degrees, so chunk by degree weight.
        while !frontier.is_empty() {
            waves_run += 1;
            // Frontier-size samples: high-water mark in the metrics
            // snapshot, one counter-track point per wave in the trace.
            exec.gauge("pkc.frontier", frontier.len() as u64);
            processed += frontier.len();
            let wave_prefix: Vec<u64> = {
                let mut p = Vec::with_capacity(frontier.len() + 1);
                p.push(0u64);
                for &v in &frontier {
                    p.push(p.last().unwrap() + g.degree(v) as u64 + 1);
                }
                p
            };
            // The CAS decrement loop is the hot path, so it polls the
            // cancellation checkpoint at a coarse edge stride.
            let waves =
                exec.region("pkc.wave")
                    .try_map_chunks_weighted(&wave_prefix, |_, range| {
                        let mut next = Vec::new();
                        let mut refile: Vec<(u32, VertexId)> = Vec::new();
                        let mut since = 0usize;
                        for &v in &frontier[range] {
                            since += g.degree(v);
                            if since >= CHECKPOINT_STRIDE {
                                exec.checkpoint()?;
                                since = 0;
                            }
                            for &u in g.neighbors(v) {
                                // Decrement u unless it is already at (or below)
                                // the level; the decrement that lands exactly on
                                // `level` claims u for the next wave, any other
                                // landing re-files u under its new degree.
                                let mut d = deg[u as usize].load(Ordering::Relaxed);
                                while d > level {
                                    match deg[u as usize].compare_exchange_weak(
                                        d,
                                        d - 1,
                                        Ordering::AcqRel,
                                        Ordering::Acquire,
                                    ) {
                                        Ok(_) => {
                                            if d - 1 == level {
                                                next.push(u);
                                            } else {
                                                refile.push((d - 1, u));
                                            }
                                            break;
                                        }
                                        Err(cur) => d = cur,
                                    }
                                }
                            }
                        }
                        Ok((next, refile))
                    })?;
            let mut next_frontier: Vec<VertexId> = Vec::new();
            for (next, refile) in waves {
                next_frontier.extend(next);
                bucket_pushes += refile.len() as u64;
                for (d, u) in refile {
                    buckets[d as usize].push(u);
                }
            }
            frontier = next_frontier;
        }
        level += 1;
    }
    debug_assert_eq!(processed, n, "every vertex peeled exactly once");
    exec.add_counter("pkc.levels", levels_run);
    exec.add_counter("pkc.waves", waves_run);
    exec.add_counter("pkc.bucket_pushes", bucket_pushes);
    exec.add_counter("pkc.bucket_skips", bucket_skips);

    let coreness: Vec<u32> = deg.into_iter().map(AtomicU32::into_inner).collect();
    Ok(CoreDecomposition::from_coreness(coreness))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bz::core_decomposition;
    use hcd_graph::GraphBuilder;

    fn check_matches_bz(g: &CsrGraph) {
        let expected = core_decomposition(g);
        for exec in [
            Executor::sequential(),
            Executor::assist(4),
            Executor::simulated(3),
        ] {
            let got = try_pkc_core_decomposition(g, &exec).unwrap();
            assert_eq!(got, expected, "mode {}", exec.mode_name());
        }
    }

    #[test]
    fn matches_bz_on_small_graphs() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
            .build();
        check_matches_bz(&g);
    }

    #[test]
    fn matches_bz_on_clique_chain() {
        let mut b = GraphBuilder::new();
        // Chain of K4s sharing one vertex each.
        for c in 0..5u32 {
            let base = c * 3;
            let ids = [base, base + 1, base + 2, base + 3];
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b = b.edge(ids[i], ids[j]);
                }
            }
        }
        check_matches_bz(&b.build());
    }

    #[test]
    fn matches_bz_with_isolated_vertices() {
        let g = GraphBuilder::new().edge(0, 1).min_vertices(50).build();
        check_matches_bz(&g);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let cd = try_pkc_core_decomposition(&g, &Executor::sequential()).unwrap();
        assert!(cd.is_empty());
    }

    #[test]
    fn star_graph_parallel() {
        let mut b = GraphBuilder::new();
        for i in 1..100u32 {
            b = b.edge(0, i);
        }
        check_matches_bz(&b.build());
    }

    #[test]
    fn bucket_counters_are_coherent() {
        // K5 on {0..4} plus vertex 5 with three clique edges and two
        // pendant leaves: peeling the leaves at level 1 re-files vertex 5
        // through buckets 4 and 3, and the bucket-4 entry goes stale by
        // the time level 4 drains it — so both counters are exercised.
        let mut b = GraphBuilder::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                b = b.edge(i, j);
            }
        }
        let g = b.edges([(5, 0), (5, 1), (5, 2), (5, 6), (5, 7)]).build();
        let mut seen: Option<(u64, u64)> = None;
        for exec in [
            Executor::sequential().with_metrics(),
            Executor::assist(4).with_metrics(),
            Executor::simulated(3).with_metrics(),
        ] {
            let cd = try_pkc_core_decomposition(&g, &exec).unwrap();
            assert_eq!(cd.kmax(), 4);
            let m = exec.take_metrics();
            let by_name = |name: &str| {
                m.counters
                    .iter()
                    .find(|c| c.name == name)
                    .unwrap_or_else(|| panic!("counter {name} missing"))
                    .value
            };
            let pushes = by_name("pkc.bucket_pushes");
            let skips = by_name("pkc.bucket_skips");
            assert!(pushes > 0, "re-filing happened");
            assert!(skips > 0, "a stale entry was drained");
            match seen {
                None => seen = Some((pushes, skips)),
                Some(prev) => assert_eq!(
                    prev,
                    (pushes, skips),
                    "bucket counters deterministic across modes ({})",
                    exec.mode_name()
                ),
            }
        }
    }
}
