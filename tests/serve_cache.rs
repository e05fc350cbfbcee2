//! Differential tests for the generation-keyed query cache.
//!
//! The cache's contract is *invisibility*: an armed service must answer
//! every query bit-identically to a disarmed one, because cache entries
//! are keyed by the snapshot generation they were computed against and
//! a publish evicts every stale generation. The tests here run the same
//! seeded workload cache-armed and cache-disarmed over three graph
//! families × all four executor modes and compare answers exactly; then
//! they prove the harness *can* fail by planting a doctored cache entry
//! and watching the served answer diverge.

use hcd::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

fn executors() -> Vec<Executor> {
    vec![
        Executor::sequential(),
        Executor::simulated(4),
        Executor::assist(4),
    ]
}

fn seed_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("er", gnp(48, 0.08, 0xE12)),
        ("ba", barabasi_albert(48, 3, 0xBA5)),
        ("rmat", rmat(5, 4, None, 0x12A7)),
    ]
}

/// A seeded query battery biased toward the cacheable shapes
/// (`CoreContaining` repeats on a hot set) but covering every variant.
fn query_battery(rng: &mut ChaCha8Rng, universe: VertexId, count: usize) -> Vec<Query> {
    (0..count)
        .map(|_| {
            let hot = rng.gen_bool(0.6);
            let v = if hot {
                rng.gen_range(0..8.min(universe))
            } else {
                rng.gen_range(0..universe)
            };
            let k = rng.gen_range(0..4u32);
            match rng.gen_range(0..6u32) {
                0..=2 => Query::CoreContaining(v, k),
                3 => Query::HierarchyPosition(v),
                4 => Query::InKCore(v, k),
                _ => Query::SameKCore(v, rng.gen_range(0..universe), k),
            }
        })
        .collect()
}

fn random_updates(rng: &mut ChaCha8Rng, count: usize, universe: VertexId) -> Vec<EdgeUpdate> {
    (0..count)
        .map(|_| {
            let u = rng.gen_range(0..universe);
            let v = rng.gen_range(0..universe);
            if rng.gen_bool(0.65) {
                EdgeUpdate::Insert(u, v)
            } else {
                EdgeUpdate::Remove(u, v)
            }
        })
        .collect()
}

/// The tentpole differential: the same seeded interleaving of query
/// batteries (batched and single-query paths) and update batches runs
/// against an armed and a disarmed service; every answer must match
/// bit-identically, across generations, and the armed side must
/// actually hit its cache (a cache that never hits trivially passes).
#[test]
fn armed_and_disarmed_answers_are_bit_identical_across_modes() {
    const ROUNDS: usize = 5;
    for (family, g0) in seed_graphs() {
        for exec in executors() {
            let ctx = format!("{family}/{}", exec.mode_name());
            let plain = HcdService::try_new(&g0, &exec).unwrap();
            let cached = HcdService::try_new(&g0, &exec)
                .unwrap()
                .with_cache(CacheConfig::default());
            assert!(cached.cache_armed() && !plain.cache_armed());
            let universe = g0.num_vertices() as VertexId + 6;
            let mut rng =
                <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0xCACE ^ g0.num_edges() as u64);
            for round in 0..ROUNDS {
                // Batched path: one shared battery through both services.
                let queries = query_battery(&mut rng, universe, 24);
                let a = plain.try_query_batch(&queries, &exec).unwrap();
                let b = cached.try_query_batch(&queries, &exec).unwrap();
                assert_eq!(a.generation, b.generation, "{ctx} round {round}");
                assert_eq!(a.answers, b.answers, "{ctx} round {round}: batch answers");
                // Re-run the same battery so the armed side serves from
                // cache what it just computed — answers still identical.
                let b2 = cached.try_query_batch(&queries, &exec).unwrap();
                assert_eq!(a.answers, b2.answers, "{ctx} round {round}: cached re-run");
                // Single-query path.
                let v = rng.gen_range(0..universe);
                let k = rng.gen_range(0..4u32);
                let pa = plain.try_core_containing(v, k, &exec).unwrap();
                let ca = cached.try_core_containing(v, k, &exec).unwrap();
                let ca2 = cached.try_core_containing(v, k, &exec).unwrap();
                assert_eq!(pa.value, ca.value, "{ctx} round {round}: single");
                assert_eq!(pa.value, ca2.value, "{ctx} round {round}: single cached");
                // Same update stream to both; generations stay in lock step.
                let updates = random_updates(&mut rng, 8, universe);
                let ga = plain.try_apply_batch(&updates, &exec).unwrap();
                let gb = cached.try_apply_batch(&updates, &exec).unwrap();
                assert_eq!(ga.generation, gb.generation, "{ctx} round {round}");
                assert_eq!(ga.value.applied, gb.value.applied, "{ctx} round {round}");
            }
            let stats = cached.cache_stats().unwrap();
            assert!(stats.hits > 0, "{ctx}: the battery must hit the cache");
            assert!(plain.cache_stats().is_none(), "{ctx}");
        }
    }
}

/// Publishing a new generation invalidates the cache: a query answered
/// (and cached) before an update must be re-answered from the new
/// snapshot afterwards, never from the prior generation's entry — and
/// the stale entries are physically evicted on publish.
#[test]
fn post_publish_queries_never_see_prior_generation_entries() {
    let exec = Executor::sequential();
    // A triangle: vertex 3 joins the 2-core only after the new edges.
    let g = GraphBuilder::new().edges([(0, 1), (1, 2), (2, 0)]).build();
    let svc = HcdService::try_new(&g, &exec)
        .unwrap()
        .with_cache(CacheConfig::default());
    // Cache the generation-0 answer (vertex 3 unknown -> None).
    let before = svc.try_core_containing(3, 2, &exec).unwrap();
    assert_eq!(before.generation, 0);
    assert_eq!(before.value, None);
    let cached_entries = svc.cache_stats().unwrap().entries;
    assert!(cached_entries > 0, "the miss must populate the cache");
    // Publish a change that flips the answer.
    svc.try_apply_batch(&[EdgeUpdate::Insert(3, 0), EdgeUpdate::Insert(3, 1)], &exec)
        .unwrap();
    let stats = svc.cache_stats().unwrap();
    assert_eq!(stats.entries, 0, "publish must evict stale generations");
    assert!(stats.evictions >= cached_entries, "{stats:?}");
    // The post-publish answer comes from the new snapshot.
    let after = svc.try_core_containing(3, 2, &exec).unwrap();
    assert_eq!(after.generation, 1);
    let members = after.value.expect("vertex 3 is in the 2-core now");
    assert!(members.contains(&3), "{members:?}");
    // And the fresh answer equals an uncached rebuild's.
    let g2 = GraphBuilder::new()
        .edges([(0, 1), (1, 2), (2, 0), (3, 0), (3, 1)])
        .build();
    let oracle = HcdService::try_new(&g2, &exec).unwrap();
    assert_eq!(
        oracle.try_core_containing(3, 2, &exec).unwrap().value,
        Some(members)
    );
}

/// The negative check: the differential harness must be *able* to fail.
/// Planting a doctored entry for the current generation makes the armed
/// service serve the wrong answer — proving the bit-identical
/// assertions above really do flow through the cache, and that a stale
/// entry surviving a publish (simulated at the current generation)
/// would be caught.
#[test]
fn doctored_cache_entries_are_served_and_would_fail_the_differential() {
    let exec = Executor::sequential();
    let g = gnp(32, 0.12, 0xD0C);
    let svc = HcdService::try_new(&g, &exec)
        .unwrap()
        .with_cache(CacheConfig::default());
    let honest = svc.try_core_containing(0, 1, &exec).unwrap();
    assert!(honest.value.is_some(), "pick a vertex with a 1-core");
    // Plant an absurd answer under the *current* generation's key —
    // exactly what a broken eviction would leave behind after a publish.
    let doctored = vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
    svc.cache().unwrap().doctor(
        honest.generation,
        CacheKey::Core(0, 1),
        CachedAnswer::Core(Some(doctored.clone())),
    );
    let poisoned = svc
        .try_query_batch(&[Query::CoreContaining(0, 1)], &exec)
        .unwrap();
    assert_eq!(
        poisoned.answers,
        vec![QueryAnswer::CoreContaining(Some(doctored))],
        "the doctored entry must be what is served"
    );
    assert_ne!(
        poisoned.answers,
        vec![QueryAnswer::CoreContaining(honest.value.clone())],
        "a poisoned cache diverges from the honest answer"
    );
    // A publish sweeps the poison out with everything else stale.
    svc.try_apply_batch(&[EdgeUpdate::Insert(0, 33)], &exec)
        .unwrap();
    let clean = svc
        .try_query_batch(&[Query::CoreContaining(0, 1)], &exec)
        .unwrap();
    let QueryAnswer::CoreContaining(clean_members) = &clean.answers[0] else {
        panic!("wrong answer shape");
    };
    assert_ne!(
        clean_members.as_deref(),
        Some(&[0u32, 1, 2, 3, 4, 5, 6, 7, 8, 9][..]),
        "publish must purge the doctored entry"
    );
}

/// Cache counters flow through the executor metrics under the right
/// names (globally and tenant-namespaced), so the schema tests and the
/// committed baseline can gate them.
#[test]
fn cache_counters_reach_the_metrics_snapshot() {
    let exec = Executor::sequential().with_metrics().with_histograms();
    let g = gnp(32, 0.12, 0xD0C);
    let svc = HcdService::try_new(&g, &exec)
        .unwrap()
        .with_cache(CacheConfig::default());
    svc.try_core_containing(0, 1, &exec).unwrap(); // miss
    svc.try_core_containing(0, 1, &exec).unwrap(); // hit
    let m = exec.take_metrics();
    assert_eq!(m.get_counter("serve.cache.misses").unwrap().value, 1);
    assert_eq!(m.get_counter("serve.cache.hits").unwrap().value, 1);
    let lookups = m.get_histogram("serve.cache.lookup");
    assert!(lookups.is_some(), "lookup latency histogram must exist");
}

/// The best-community answer is cached per (generation, metric) too.
#[test]
fn best_community_answers_are_cached_and_identical() {
    let exec = Executor::sequential();
    let g = barabasi_albert(64, 3, 0xBE5);
    let plain = HcdService::try_new(&g, &exec).unwrap();
    let cached = HcdService::try_new(&g, &exec)
        .unwrap()
        .with_cache(CacheConfig::default());
    for metric in &[Metric::AverageDegree, Metric::InternalDensity] {
        let a = plain.try_best_community(metric, &exec).unwrap();
        let b = cached.try_best_community(metric, &exec).unwrap();
        let b2 = cached.try_best_community(metric, &exec).unwrap();
        assert_eq!(a.value, b.value, "{metric:?}");
        assert_eq!(a.value, b2.value, "{metric:?} (cached)");
    }
    let stats = cached.cache_stats().unwrap();
    assert!(stats.hits >= 2, "{stats:?}");
}
