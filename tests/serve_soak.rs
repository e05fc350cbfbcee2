//! Soak and fault-injection tests for the serving layer: concurrent
//! readers query while a writer publishes update batches, and injected
//! failures (panic / cancel / deadline) in `serve.*` regions must leave
//! the service serving the previous snapshot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use hcd::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

const READERS: usize = 5;
const SWAPS: u64 = 12;
const MIN_READS: usize = 25;

/// A compact fingerprint of one snapshot. Torn publication (a graph
/// paired with the wrong decomposition/hierarchy, or a half-updated
/// state) shows up as two observers fingerprinting the same generation
/// differently.
type Fingerprint = (usize, usize, u32, usize);

fn fingerprint(snap: &ServeSnapshot) -> Fingerprint {
    (
        snap.graph.num_vertices(),
        snap.graph.num_edges(),
        snap.cores.kmax(),
        snap.hcd.num_nodes(),
    )
}

fn random_updates(rng: &mut ChaCha8Rng, count: usize, universe: VertexId) -> Vec<EdgeUpdate> {
    (0..count)
        .map(|_| {
            let u = rng.gen_range(0..universe);
            let v = rng.gen_range(0..universe);
            if rng.gen_bool(0.7) {
                EdgeUpdate::Insert(u, v)
            } else {
                EdgeUpdate::Remove(u, v)
            }
        })
        .collect()
}

/// Builds a fresh executor of the named mode — the soak runs once per
/// mode, and readers construct their own instance per thread.
fn mk_exec(mode: &str) -> Executor {
    match mode {
        "seq" => Executor::sequential(),
        "assist" => Executor::assist(4),
        other => panic!("unknown soak mode {other}"),
    }
}

/// ≥ 4 reader threads hammer the service while a writer publishes
/// `SWAPS` epochs (interleaved with deliberately failing, fault-injected
/// publish attempts). Every response must name a really-published
/// generation whose fingerprint matches the writer's record — zero torn
/// or unknown-generation reads — and per-reader generations must be
/// monotone.
#[test]
fn concurrent_readers_never_see_torn_or_unpublished_snapshots() {
    soak("seq");
}

/// The same soak with the work-assisting executor on both sides: reader
/// query batches and writer publishes run on independent assist pools
/// whose idle workers join each other region's loops, so snapshot
/// publication safety must hold while chunks migrate between threads.
#[test]
fn concurrent_readers_never_see_torn_snapshots_with_assist_executors() {
    soak("assist");
}

fn soak(mode: &str) {
    let g0 = barabasi_albert(64, 3, 0x50A4);
    let universe = g0.num_vertices() as VertexId + 8;
    let build_exec = mk_exec(mode);
    let service = HcdService::try_new(&g0, &build_exec).unwrap();

    // generation -> fingerprint, recorded by the single writer at each
    // publish (generation 0 is the initial build).
    let published: Mutex<HashMap<u64, Fingerprint>> = Mutex::new(HashMap::new());
    published
        .lock()
        .unwrap()
        .insert(0, fingerprint(&service.snapshot()));
    // Highest generation the writer may have published so far; readers
    // must never observe anything above it.
    let announced = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    let reader_observations: Vec<Mutex<Vec<(u64, Fingerprint)>>> =
        (0..READERS).map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|scope| {
        for (id, observations) in reader_observations.iter().enumerate() {
            let service = &service;
            let announced = &announced;
            let done = &done;
            scope.spawn(move || {
                let exec = mk_exec(mode);
                let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(id as u64);
                let mut last_gen = 0u64;
                let mut reads = 0usize;
                while !done.load(Ordering::Acquire) || reads < MIN_READS {
                    let snap = service.snapshot();
                    observations
                        .lock()
                        .unwrap()
                        .push((snap.generation, fingerprint(&snap)));
                    assert!(
                        snap.generation <= announced.load(Ordering::Acquire),
                        "reader {id} saw unannounced generation {}",
                        snap.generation
                    );

                    // One coherence probe through the batched read path:
                    // the three answers hit different index structures
                    // (coreness array, HCD tree) and must agree — a torn
                    // graph/decomposition/hierarchy pairing breaks this.
                    let v = rng.gen_range(0..universe);
                    let k = rng.gen_range(0..5u32);
                    let batch = service
                        .try_query_batch(
                            &[
                                Query::InKCore(v, k),
                                Query::CoreContaining(v, k),
                                Query::SameKCore(v, v, k),
                            ],
                            &exec,
                        )
                        .unwrap();
                    assert!(
                        batch.generation <= announced.load(Ordering::Acquire),
                        "reader {id} answered from unannounced generation {}",
                        batch.generation
                    );
                    assert!(
                        batch.generation >= last_gen,
                        "reader {id} went back in time: {} < {last_gen}",
                        batch.generation
                    );
                    last_gen = batch.generation;
                    let (in_k, members, same) =
                        match (&batch.answers[0], &batch.answers[1], &batch.answers[2]) {
                            (
                                QueryAnswer::InKCore(b),
                                QueryAnswer::CoreContaining(m),
                                QueryAnswer::SameKCore(s),
                            ) => (*b, m.clone(), *s),
                            other => panic!("variant mismatch: {other:?}"),
                        };
                    assert_eq!(in_k, members.is_some(), "reader {id}: torn membership");
                    assert_eq!(in_k, same, "reader {id}: torn identity");
                    if let Some(m) = members {
                        assert!(m.contains(&v), "reader {id}: core missing its own vertex");
                    }
                    reads += 1;
                }
                assert!(reads >= MIN_READS);
            });
        }

        // The single writer: SWAPS successful publishes, with a
        // fault-injected failing attempt before every third one — the
        // failures must be invisible to readers.
        let writer_exec = mk_exec(mode);
        let faulty_exec = mk_exec(mode);
        let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0xFEED);
        for i in 0..SWAPS {
            if i % 3 == 0 {
                let updates = random_updates(&mut rng, 6, universe);
                faulty_exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Panic));
                let err = service.try_apply_batch(&updates, &faulty_exec).unwrap_err();
                assert!(matches!(err, ServeError::Par(ParError::Panicked { .. })));
                assert_eq!(service.generation(), i, "failed publish must not swap");
            }
            let updates = random_updates(&mut rng, 6, universe);
            announced.store(i + 1, Ordering::Release);
            let resp = service.try_apply_batch(&updates, &writer_exec).unwrap();
            assert_eq!(resp.generation, i + 1);
            published
                .lock()
                .unwrap()
                .insert(resp.generation, fingerprint(&service.snapshot()));
            std::thread::sleep(Duration::from_millis(2));
        }
        done.store(true, Ordering::Release);
    });

    assert_eq!(service.generation(), SWAPS);
    let published = published.into_inner().unwrap();
    assert_eq!(published.len() as u64, SWAPS + 1);
    let mut distinct_gens: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for (id, observations) in reader_observations.iter().enumerate() {
        let observations = observations.lock().unwrap();
        assert!(observations.len() >= MIN_READS, "reader {id} barely read");
        for &(gen, fp) in observations.iter() {
            let expected = published
                .get(&gen)
                .unwrap_or_else(|| panic!("reader {id} observed unpublished generation {gen}"));
            assert_eq!(
                fp, *expected,
                "reader {id}: torn snapshot at generation {gen}"
            );
            distinct_gens.insert(gen);
        }
    }
    // The soak actually exercised snapshot turnover under the readers.
    assert!(
        distinct_gens.len() >= 2,
        "readers only ever saw generations {distinct_gens:?}"
    );
    service.snapshot().validate().unwrap();
}

/// Panic, cancellation, and deadline failures injected into the write
/// path's core-decomposition regions and into a read region abort the
/// operation but leave the service serving the previous snapshot, which
/// remains fully queryable; a later clean batch publishes the cumulative
/// state.
#[test]
fn injected_faults_leave_the_previous_snapshot_serving() {
    injected_faults_body("seq");
}

/// Identical chunk boundaries across modes mean the `(region, chunk)`
/// fault sites land in the same place under the assist executor, even
/// with assisting threads claiming neighbouring chunks concurrently.
#[test]
fn injected_faults_leave_the_previous_snapshot_serving_with_assist() {
    injected_faults_body("assist");
}

fn injected_faults_body(mode: &str) {
    let g0 = gnp(40, 0.1, 0xFA17);
    let clean = mk_exec(mode);
    let service = HcdService::try_new(&g0, &clean).unwrap();
    service
        .try_apply_batch(
            &[EdgeUpdate::Insert(0, 1), EdgeUpdate::Insert(1, 2)],
            &clean,
        )
        .unwrap();
    assert_eq!(service.generation(), 1);
    let baseline = service
        .try_query_batch(
            &[Query::CoreContaining(0, 1), Query::HierarchyPosition(5)],
            &clean,
        )
        .unwrap();
    let updates = [EdgeUpdate::Insert(2, 3), EdgeUpdate::Remove(0, 1)];

    // Panic in the first region of the batch that runs a chunk. On one
    // worker that is region 0, the single `bz.peel`. PKC opens one
    // pkc.scan per level; this graph has min degree 1, so the level-0
    // scan (region 0 after the plan reset) is empty and region 1 is the
    // level-1 pkc.scan.
    let (panic_at, cancel_at) = if mode == "seq" { (0, 0) } else { (1, 2) };
    let exec = mk_exec(mode);
    exec.set_fault_plan(FaultPlan::new().inject(panic_at, 0, Fault::Panic));
    let err = service.try_apply_batch(&updates, &exec).unwrap_err();
    assert!(
        matches!(err, ServeError::Par(ParError::Panicked { .. })),
        "{err:?}"
    );

    // Cancellation tripped in `bz.peel` again, or in PKC's next region:
    // the pkc.wave peeling level 1 (the failed batch kept its mutation;
    // min degree is still 1).
    let exec = mk_exec(mode);
    exec.set_fault_plan(FaultPlan::new().inject(cancel_at, 0, Fault::Cancel));
    let err = service
        .try_apply_batch(&[EdgeUpdate::Insert(4, 5)], &exec)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Par(ParError::Cancelled)),
        "{err:?}"
    );

    // An already-expired deadline.
    let exec = mk_exec(mode);
    exec.set_deadline(Deadline::from_now(Duration::ZERO));
    let err = service
        .try_apply_batch(&[EdgeUpdate::Insert(6, 7)], &exec)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Par(ParError::DeadlineExceeded)),
        "{err:?}"
    );

    // Panic injected into a read region fails that query only.
    let exec = mk_exec(mode);
    exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Panic));
    let err = service
        .try_query_batch(&[Query::InKCore(0, 1)], &exec)
        .unwrap_err();
    assert!(matches!(err, ParError::Panicked { .. }), "{err:?}");

    // Through all of it: nothing was published, answers are unchanged,
    // and the snapshot is still internally consistent.
    assert_eq!(service.generation(), 1);
    let after = service
        .try_query_batch(
            &[Query::CoreContaining(0, 1), Query::HierarchyPosition(5)],
            &clean,
        )
        .unwrap();
    assert_eq!(after, baseline, "failed operations changed served state");
    service.snapshot().validate().unwrap();

    // The maintained (but unpublished) updates ride along with the next
    // clean publication: the failed batches mutated the writer's graph
    // before their regions aborted (the writer restores exact coreness
    // on the error path), so the published snapshot is behind and the
    // empty batch — which would otherwise take the no-op fast path —
    // publishes the cumulative state.
    let resp = service.try_apply_batch(&[], &clean).unwrap();
    assert_eq!(resp.generation, 2);
    let snap = service.snapshot();
    snap.validate().unwrap();
    let edges: std::collections::BTreeSet<_> = snap.graph.edges().collect();
    assert!(edges.contains(&(2, 3)), "pending insert lost");
    assert!(edges.contains(&(4, 5)), "pending insert lost");
    assert!(edges.contains(&(6, 7)), "pending insert lost");
    assert!(!edges.contains(&(0, 1)), "pending removal lost");
}

// ---------------------------------------------------------------------
// Multi-tenant soak: three tenant services in one registry, hammered by
// concurrent readers while each tenant's own writer publishes (and
// fault-injected attempts fail). Proves two things the single-tenant
// soak cannot: zero cross-tenant bleed (every observation matches the
// *owning* tenant's published fingerprint, and tenants' fingerprints
// are pairwise distinct at every generation) and zero torn reads
// through failed publishes — with every tenant's cache armed, so a
// shared or leaky cache would surface as a bleed.
// ---------------------------------------------------------------------

const TENANT_SWAPS: u64 = 8;
const READERS_PER_TENANT: usize = 2;

#[test]
fn multi_tenant_soak_has_zero_bleed_and_zero_torn_reads() {
    multi_tenant_soak("seq");
}

#[test]
fn multi_tenant_soak_has_zero_bleed_with_assist_executors() {
    multi_tenant_soak("assist");
}

fn multi_tenant_soak(mode: &str) {
    // Deliberately different sizes/families so any bleed (a reader
    // handed another tenant's snapshot, or a cache entry crossing
    // services) produces a fingerprint that cannot match.
    let graphs: Vec<(&str, CsrGraph)> = vec![
        ("alpha", barabasi_albert(56, 3, 0xA1FA)),
        ("beta", gnp(72, 0.08, 0xBE7A)),
        ("gamma", rmat(6, 3, None, 0x9A33)),
    ];
    let build_exec = mk_exec(mode);
    let mut registry = ServiceRegistry::new();
    let tenant_cfg = TenantConfig {
        cache: Some(CacheConfig::default()),
        durability: None,
    };
    for (name, g) in &graphs {
        registry
            .try_register(name, g, &tenant_cfg, &build_exec)
            .unwrap();
    }

    struct Tenant {
        name: &'static str,
        service: std::sync::Arc<HcdService>,
        published: Mutex<HashMap<u64, Fingerprint>>,
        announced: AtomicU64,
        universe: VertexId,
    }
    let tenants: Vec<Tenant> = graphs
        .iter()
        .map(|(name, g)| {
            let service = registry.get(name).unwrap();
            let published = Mutex::new(HashMap::new());
            published
                .lock()
                .unwrap()
                .insert(0, fingerprint(&service.snapshot()));
            Tenant {
                name,
                service,
                published,
                announced: AtomicU64::new(0),
                universe: g.num_vertices() as VertexId + 8,
            }
        })
        .collect();
    let done = AtomicBool::new(false);

    type Observed = Vec<(usize, u64, Fingerprint)>; // (tenant idx, gen, fp)
    let observations: Vec<Mutex<Observed>> = (0..tenants.len() * READERS_PER_TENANT)
        .map(|_| Mutex::new(Vec::new()))
        .collect();

    std::thread::scope(|scope| {
        for (reader, slot) in observations.iter().enumerate() {
            let tenants = &tenants;
            let done = &done;
            scope.spawn(move || {
                let exec = mk_exec(mode);
                let home = reader % tenants.len();
                let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(reader as u64);
                let mut last_gen = 0u64;
                let mut reads = 0usize;
                while !done.load(Ordering::Acquire) || reads < MIN_READS {
                    let t = &tenants[home];
                    let snap = t.service.snapshot();
                    assert!(
                        snap.generation <= t.announced.load(Ordering::Acquire),
                        "reader {reader}: unannounced generation on {}",
                        t.name
                    );
                    slot.lock()
                        .unwrap()
                        .push((home, snap.generation, fingerprint(&snap)));
                    // Coherence probe through the (cached) read path.
                    let v = rng.gen_range(0..t.universe);
                    let k = rng.gen_range(0..5u32);
                    let batch = t
                        .service
                        .try_query_batch(
                            &[Query::InKCore(v, k), Query::CoreContaining(v, k)],
                            &exec,
                        )
                        .unwrap();
                    assert!(
                        batch.generation >= last_gen,
                        "reader {reader} went back in time on {}",
                        t.name
                    );
                    last_gen = batch.generation;
                    match (&batch.answers[0], &batch.answers[1]) {
                        (QueryAnswer::InKCore(b), QueryAnswer::CoreContaining(m)) => {
                            assert_eq!(*b, m.is_some(), "reader {reader}: torn read on {}", t.name);
                        }
                        other => panic!("variant mismatch: {other:?}"),
                    }
                    reads += 1;
                }
            });
        }

        // One writer per tenant, each with its own fault-injected
        // failing attempt before every third successful publish.
        for (idx, t) in tenants.iter().enumerate() {
            scope.spawn(move || {
                let writer_exec = mk_exec(mode);
                let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0xF00D + idx as u64);
                // A monotone vertex frontier guarantees every batch
                // (including the fault-injected ones) applies at least
                // one genuinely new edge: an all-skipped batch would
                // take the no-op fast path, never open a region, and
                // neither fire the fault nor bump the generation.
                let mut fresh = t.universe + 64;
                for i in 0..TENANT_SWAPS {
                    if i % 3 == 0 {
                        let mut updates = random_updates(&mut rng, 5, t.universe);
                        updates.push(EdgeUpdate::Insert(fresh, fresh + 1));
                        fresh += 2;
                        let faulty = mk_exec(mode);
                        faulty.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Panic));
                        let err = t.service.try_apply_batch(&updates, &faulty).unwrap_err();
                        assert!(matches!(err, ServeError::Par(ParError::Panicked { .. })));
                        assert_eq!(
                            t.service.generation(),
                            i,
                            "failed publish swapped {}",
                            t.name
                        );
                    }
                    let mut updates = random_updates(&mut rng, 5, t.universe);
                    updates.push(EdgeUpdate::Insert(fresh, fresh + 1));
                    fresh += 2;
                    t.announced.store(i + 1, Ordering::Release);
                    let resp = t.service.try_apply_batch(&updates, &writer_exec).unwrap();
                    assert_eq!(resp.generation, i + 1, "{}", t.name);
                    t.published
                        .lock()
                        .unwrap()
                        .insert(resp.generation, fingerprint(&t.service.snapshot()));
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        // Writers run to completion; readers stop after them.
        // (scope joins writer threads when the closure below runs last.)
        scope.spawn(|| {
            // Busy-wait until every tenant reached its final generation,
            // then release the readers.
            loop {
                if tenants.iter().all(|t| {
                    t.announced.load(Ordering::Acquire) == TENANT_SWAPS
                        && t.service.generation() == TENANT_SWAPS
                }) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            done.store(true, Ordering::Release);
        });
    });

    // Per-tenant bookkeeping is complete and caches saw traffic.
    for t in &tenants {
        assert_eq!(t.service.generation(), TENANT_SWAPS, "{}", t.name);
        assert_eq!(
            t.published.lock().unwrap().len() as u64,
            TENANT_SWAPS + 1,
            "{}",
            t.name
        );
        let stats = t.service.cache_stats().unwrap();
        assert!(stats.hits + stats.misses > 0, "{}: cache untouched", t.name);
    }
    // Zero cross-tenant bleed: every observation matches the *owning*
    // tenant's record for that generation...
    for (reader, slot) in observations.iter().enumerate() {
        let observed = slot.lock().unwrap();
        assert!(observed.len() >= MIN_READS, "reader {reader} barely read");
        for &(home, gen, fp) in observed.iter() {
            let t = &tenants[home];
            let published = t.published.lock().unwrap();
            let expected = published
                .get(&gen)
                .unwrap_or_else(|| panic!("reader {reader} observed unpublished {}:{gen}", t.name));
            assert_eq!(fp, *expected, "reader {reader}: torn read {}:{gen}", t.name);
        }
    }
    // ...and no two tenants could ever have satisfied each other's
    // checks: their fingerprints are pairwise distinct at every
    // generation both published.
    for a in 0..tenants.len() {
        for b in (a + 1)..tenants.len() {
            let pa = tenants[a].published.lock().unwrap();
            let pb = tenants[b].published.lock().unwrap();
            for (gen, fp) in pa.iter() {
                if let Some(other) = pb.get(gen) {
                    assert_ne!(
                        fp, other,
                        "tenants {} and {} are indistinguishable at generation {gen}",
                        tenants[a].name, tenants[b].name
                    );
                }
            }
        }
    }
}
