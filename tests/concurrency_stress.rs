//! Stress tests under real threads: repeated parallel runs must stay
//! correct and agree with sequential ground truth even when the OS
//! interleaves workers adversarially — and fail *cleanly* when faults
//! are injected into arbitrary chunks. The oversubscription tests run
//! more assist workers than the machine has cores and assert that pool
//! workers really stole chunks (`par.assist.steals > 0`), so the
//! interleavings they exercise are genuinely multi-threaded. Each also
//! runs one round that holds chunk 0 of its first regions
//! ([`hold_chunk_zero`]), so the assertion does not depend on whether
//! a helper happens to wake before the owner finishes alone.

use std::time::Duration;

use hcd::prelude::*;
use hcd::search::PrimaryValues;

/// Sleeps in chunk 0 of each of the first four regions. Whichever
/// thread claims that chunk is held for 50 ms, so a pool helper, woken
/// when the region was published, claims a later chunk of any region
/// with more than one: the round is certain to steal.
fn hold_chunk_zero() -> FaultPlan {
    (0..4).fold(FaultPlan::new(), |plan, region| {
        plan.inject(region, 0, Fault::Delay(50_000))
    })
}

#[test]
fn repeated_parallel_phcd_runs_on_adversarial_graph() {
    // A graph engineered for pivot contention: one giant component whose
    // pivot changes at every level, plus hub vertices shared by many
    // shells.
    let mut b = GraphBuilder::new();
    // Hub star.
    for i in 1..400u32 {
        b = b.edge(0, i);
    }
    // Nested near-cliques hanging off the hub.
    for c in 0..8u32 {
        let base = 400 + c * 30;
        for i in 0..30u32 {
            for j in (i + 1)..30u32.min(i + 4 + c) {
                b = b.edge(base + i, base + j % 30);
            }
        }
        b = b.edge(base, c + 1);
    }
    let g = b.build();
    let cores = core_decomposition(&g);
    let truth = naive_hcd(&g, &cores).canonicalize();
    let mut steals = 0;
    for round in 0..11 {
        let exec = Executor::assist(8);
        if round == 10 {
            exec.set_fault_plan(hold_chunk_zero());
        }
        let m = metered(&exec, |e| {
            let h = phcd(&g, &cores, e);
            assert_eq!(h.canonicalize(), truth, "round {round}");
        });
        steals += counter(&m, "par.assist.steals");
    }
    assert!(steals > 0, "no chunk ran off the owner thread");
}

#[test]
fn pkc_under_heavy_thread_oversubscription() {
    let g = rmat(11, 10, None, 77);
    let expected = core_decomposition(&g);
    let mut steals = 0;
    for threads in [2, 8, 16] {
        let exec = Executor::assist(threads);
        for _ in 0..3 {
            let m = metered(&exec, |e| {
                assert_eq!(pkc_core_decomposition(&g, e), expected);
            });
            steals += counter(&m, "par.assist.steals");
        }
    }
    let exec = Executor::assist(2);
    exec.set_fault_plan(hold_chunk_zero());
    let m = metered(&exec, |e| {
        assert_eq!(pkc_core_decomposition(&g, e), expected);
    });
    steals += counter(&m, "par.assist.steals");
    assert!(steals > 0, "no chunk ran off the owner thread");
}

#[test]
fn concurrent_search_is_stable_under_oversubscription() {
    let g = rmat(10, 12, None, 5);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    let ctx = SearchContext::new(&g, &cores, &hcd);
    let reference = pbks_scores(
        &ctx,
        &Metric::ClusteringCoefficient,
        &Executor::sequential(),
    );
    let mut steals = 0;
    for round in 0..6 {
        let exec = Executor::assist(16);
        if round == 5 {
            exec.set_fault_plan(hold_chunk_zero());
        }
        let m = metered(&exec, |e| {
            let got = pbks_scores(&ctx, &Metric::ClusteringCoefficient, e);
            assert_eq!(got.1, reference.1);
        });
        steals += counter(&m, "par.assist.steals");
    }
    assert!(steals > 0, "no chunk ran off the owner thread");
}

// --- fault-injection matrix ------------------------------------------
//
// Every cell of (algorithm × executor mode × faulted chunk position)
// must (1) fail with a clean typed error, never a process abort or a
// hang, and (2) leave the executor reusable: clearing the plan and
// rerunning on the *same* executor must reproduce the fault-free
// reference result. This is the "no poisoned shared state" acceptance
// criterion of the failure model.

/// The executor modes, with enough workers that the first region of
/// every algorithm has non-empty first/middle/last chunks.
fn fault_modes() -> Vec<(&'static str, Executor)> {
    vec![
        ("seq", Executor::sequential()),
        ("sim", Executor::simulated(4)),
        ("assist", Executor::assist(4)),
    ]
}

/// First/middle/last chunk indices of a region on `exec` (deduplicated,
/// so sequential mode tests the single chunk once).
fn chunk_positions(exec: &Executor) -> Vec<usize> {
    let p = exec.num_workers();
    let mut pos = vec![0, p / 2, p - 1];
    pos.dedup();
    pos
}

#[test]
fn injected_panic_matrix_phcd() {
    let g = rmat(11, 10, None, 77);
    let cores = core_decomposition(&g);
    let reference = phcd(&g, &cores, &Executor::sequential()).canonicalize();
    for (mode, exec) in fault_modes() {
        for chunk in chunk_positions(&exec) {
            exec.set_fault_plan(FaultPlan::new().inject(0, chunk, Fault::Panic));
            let err = try_phcd(&g, &cores, &exec)
                .expect_err(&format!("{mode}: panic in chunk {chunk} must surface"));
            match err {
                ParError::Panicked { worker, payload } => {
                    assert_eq!(worker, chunk, "{mode}");
                    assert!(payload.contains("injected fault"), "{mode}: {payload}");
                }
                other => panic!("{mode}: expected Panicked, got {other}"),
            }
            // Same executor, fault cleared: the rerun must be clean and
            // byte-identical to the reference hierarchy.
            exec.clear_fault_plan();
            let h = try_phcd(&g, &cores, &exec)
                .unwrap_or_else(|e| panic!("{mode}: clean rerun failed: {e}"));
            assert_eq!(h.canonicalize(), reference, "{mode} chunk {chunk}");
        }
    }
}

#[test]
fn injected_panic_matrix_pkc() {
    let g = rmat(11, 10, None, 78);
    let reference = core_decomposition(&g);
    for (mode, exec) in fault_modes() {
        for chunk in chunk_positions(&exec) {
            exec.set_fault_plan(FaultPlan::new().inject(0, chunk, Fault::Panic));
            let err = try_pkc_core_decomposition(&g, &exec)
                .expect_err(&format!("{mode}: panic in chunk {chunk} must surface"));
            assert!(
                matches!(err, ParError::Panicked { .. }),
                "{mode}: expected Panicked, got {err}"
            );
            exec.clear_fault_plan();
            let got = try_pkc_core_decomposition(&g, &exec)
                .unwrap_or_else(|e| panic!("{mode}: clean rerun failed: {e}"));
            assert_eq!(got, reference, "{mode} chunk {chunk}");
        }
    }
}

/// The sequential peel (`try_core_decomposition` on one worker) is one
/// `bz.peel` region with one chunk. On a graph with more arcs than one
/// checkpoint stride, each failure surfaces as its typed error, and the
/// same executor then reproduces the clean result.
#[test]
fn injected_fault_matrix_seq_peel() {
    let g = rmat(11, 10, None, 78);
    assert!(g.num_arcs() > 4 * CHECKPOINT_STRIDE);
    let reference = core_decomposition(&g);
    let exec = Executor::sequential();
    // The peel's result and its region's record.
    let peel = |exec: &Executor| {
        let mut result = None;
        let m = metered(exec, |e| {
            result = Some(try_core_decomposition(&g, e));
        });
        let record = m.regions.iter().find(|r| r.name == "bz.peel").cloned();
        (result.unwrap(), record.expect("the peel runs in bz.peel"))
    };
    let rerun_is_clean = |cell: &str| {
        let (got, record) = peel(&exec);
        assert_eq!(got.as_ref(), Ok(&reference), "{cell}: rerun");
        // Polled before the loop and at least once per stride after.
        assert!(record.checkpoints >= 4, "{cell}: {record:?}");
    };
    rerun_is_clean("clean");

    exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Panic));
    let (got, record) = peel(&exec);
    match got {
        Err(ParError::Panicked { worker: 0, payload }) => {
            assert!(payload.contains("injected fault"), "{payload}")
        }
        other => panic!("panic: expected Panicked, got {other:?}"),
    }
    assert_eq!((record.faults_injected, record.panicked), (1, 1));
    exec.clear_fault_plan();
    rerun_is_clean("panic");

    // An injected cancel aborts at the chunk boundary and trips the
    // installed token.
    let token = CancelToken::new();
    exec.set_cancel(token.clone());
    exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Cancel));
    let (got, record) = peel(&exec);
    assert!(matches!(got, Err(ParError::Cancelled)), "cancel: {got:?}");
    assert!(token.is_cancelled());
    assert_eq!(record.cancelled, 1);
    exec.clear_fault_plan();
    exec.clear_cancel();
    rerun_is_clean("cancel");

    // A cancel from another thread while the chunk runs is seen by the
    // peel's own poll. The fault plan cannot cancel past the chunk
    // boundary, so this cell leans on time: the chunk is held 800 ms
    // past its boundary check, and the token is cancelled 200 ms after
    // both threads pass the barrier.
    let token = CancelToken::new();
    exec.set_cancel(token.clone());
    exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Delay(800_000)));
    let start = std::sync::Barrier::new(2);
    let (got, record) = std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            std::thread::sleep(Duration::from_millis(200));
            token.cancel();
        });
        start.wait();
        peel(&exec)
    });
    assert!(matches!(got, Err(ParError::Cancelled)), "poll: {got:?}");
    assert!(
        record.checkpoints > 0,
        "cancel not seen by a poll: {record:?}"
    );
    assert_eq!(record.cancelled, 1);
    exec.clear_fault_plan();
    exec.clear_cancel();
    rerun_is_clean("cancel mid-peel");

    exec.set_deadline(Deadline::from_now(Duration::ZERO));
    let (got, record) = peel(&exec);
    assert!(
        matches!(got, Err(ParError::DeadlineExceeded)),
        "deadline: {got:?}"
    );
    assert_eq!(record.deadline_exceeded, 1);
    exec.clear_deadline();
    rerun_is_clean("deadline");
}

/// One matrix cell: a fault to inject and the error shape it must surface as.
type AbortCase = (&'static str, Fault, fn(&ParError) -> bool);

/// The two injectable aborts every matrix cell is swept with: a worker
/// panic and an external cancellation landing mid-region.
fn abort_faults() -> [AbortCase; 2] {
    [
        ("panic", Fault::Panic, |e| {
            matches!(e, ParError::Panicked { .. })
        }),
        ("cancel", Fault::Cancel, |e| {
            matches!(e, ParError::Cancelled)
        }),
    ]
}

/// Sweeps a fault over every region of one call: each abort fault at
/// each chunk position of each region index, on every executor mode.
///
/// `run` is the fallible call and `clean` its sequential reference
/// output. A fault at chunk 0 must always surface (chunk 0 of every
/// region is non-empty); one at a later position may land on an empty
/// chunk, and the run must then be clean. After each cell the fault is
/// cleared and a rerun on the same executor must reproduce `clean`
/// exactly. Returns the names of the regions the faults landed in.
fn sweep_every_region<T, F>(clean: &T, run: F) -> std::collections::BTreeSet<&'static str>
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(&Executor) -> Result<T, ParError>,
{
    let regions: u64 = {
        let m = metered(&Executor::sequential(), |e| {
            run(e).expect("fault-free run");
        });
        m.regions.iter().map(|r| r.invocations).sum()
    };
    let mut hit = std::collections::BTreeSet::new();
    for (mode, exec) in fault_modes() {
        for region in 0..regions as usize {
            for chunk in chunk_positions(&exec) {
                for (what, fault, is_expected) in abort_faults() {
                    let cell = format!("{mode}: {what} at region {region} chunk {chunk}");
                    exec.set_metrics_enabled(true);
                    exec.set_fault_plan(FaultPlan::new().inject(region, chunk, fault));
                    let result = run(&exec);
                    exec.clear_fault_plan();
                    let m = exec.take_metrics();
                    exec.set_metrics_enabled(false);
                    match result {
                        Err(err) => assert!(is_expected(&err), "{cell}: got {err}"),
                        Ok(got) => {
                            assert!(chunk != 0, "{cell} must surface");
                            assert_eq!(&got, clean, "{cell} missed, yet the run differs");
                        }
                    }
                    hit.extend(
                        m.regions
                            .iter()
                            .filter(|r| r.faults_injected > 0)
                            .map(|r| r.name),
                    );
                    let got = run(&exec).unwrap_or_else(|e| panic!("{cell}: rerun failed: {e}"));
                    assert_eq!(&got, clean, "{cell}: rerun differs");
                }
            }
        }
    }
    hit
}

/// PBKS scores as bit patterns, so a rerun must match the reference
/// bit for bit (NaN included), next to the accumulated primaries.
fn pbks_bits(
    ctx: &SearchContext<'_>,
    metric: &Metric,
    exec: &Executor,
) -> Result<(Vec<u64>, Vec<PrimaryValues>), ParError> {
    let (scores, primaries) = try_pbks_scores(ctx, metric, exec)?;
    Ok((scores.iter().map(|s| s.to_bits()).collect(), primaries))
}

#[test]
fn injected_fault_matrix_pbks() {
    let g = rmat(9, 10, None, 5);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    let ctx = SearchContext::new(&g, &cores, &hcd);
    let metric = Metric::ClusteringCoefficient; // type-B: orient + triangle pass
    let clean = pbks_bits(&ctx, &metric, &Executor::sequential()).unwrap();
    let hit = sweep_every_region(&clean, |e| pbks_bits(&ctx, &metric, e));
    let want = [
        "accumulate.level",
        "pbks.orient",
        "pbks.score",
        "pbks.triangles",
        "pbks.type_a",
    ];
    assert_eq!(hit.into_iter().collect::<Vec<_>>(), want);
}

#[test]
fn injected_fault_matrix_bestk() {
    let g = rmat(10, 12, None, 5);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    let ctx = SearchContext::new(&g, &cores, &hcd);
    let metric = Metric::ClusteringCoefficient; // type-B: orient + triangle pass
    let clean = try_best_k(&ctx, &metric, &Executor::sequential()).unwrap();
    let hit = sweep_every_region(&clean, |e| try_best_k(&ctx, &metric, e));
    let want = ["bestk.contrib", "bestk.orient", "bestk.triangles"];
    assert_eq!(hit.into_iter().collect::<Vec<_>>(), want);
}

#[test]
fn triangle_pass_polls_on_a_hub_heavy_graph() {
    // RMAT hubs put thousands of probes into single vertices: the
    // forward pass must still poll the checkpoint every stride.
    let g = rmat(14, 16, None, 3);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    let ctx = SearchContext::new(&g, &cores, &hcd);
    for (mode, exec) in fault_modes() {
        let m = metered(&exec, |e| {
            pbks_scores(&ctx, &Metric::ClusteringCoefficient, e);
        });
        for name in ["pbks.orient", "pbks.triangles"] {
            let r = m.get(name).unwrap_or_else(|| panic!("{mode}: no {name}"));
            assert!(r.checkpoints > 0, "{mode}: {name} never polled");
        }
        assert!(counter(&m, "pbks.triangle_probes") > 0, "{mode}");
    }
}

#[test]
fn deadline_fires_in_the_orient_scan() {
    // A straggler in the orientation scan outlasts the deadline: the
    // search must stop there with DeadlineExceeded, before the triangle
    // pass starts, and the same executor must then finish a clean run.
    let g = rmat(10, 12, None, 5);
    let cores = core_decomposition(&g);
    let hcd = phcd(&g, &cores, &Executor::sequential());
    let ctx = SearchContext::new(&g, &cores, &hcd);
    let metric = Metric::ClusteringCoefficient;
    let clean = pbks_scores(&ctx, &metric, &Executor::sequential());
    for (mode, exec) in fault_modes() {
        exec.set_metrics_enabled(true);
        // Regions: 0 = pbks.type_a, 1 = pbks.orient.
        exec.set_fault_plan(FaultPlan::new().inject(1, 0, Fault::Delay(50_000)));
        exec.set_deadline(Deadline::from_now(std::time::Duration::from_millis(20)));
        let err = try_pbks_scores(&ctx, &metric, &exec).unwrap_err();
        assert_eq!(err, ParError::DeadlineExceeded, "{mode}");
        let m = exec.take_metrics();
        exec.set_metrics_enabled(false);
        assert!(
            m.get("pbks.orient").unwrap().deadline_exceeded > 0,
            "{mode}"
        );
        assert!(m.get("pbks.triangles").is_none(), "{mode}: pass started");
        exec.clear_deadline();
        exec.clear_fault_plan();
        let got = try_pbks_scores(&ctx, &metric, &exec).unwrap();
        assert_eq!(got.1, clean.1, "{mode}");
    }
}

#[test]
fn injected_fault_matrix_phtd() {
    let g = rmat(9, 10, None, 31);
    let (idx, td) = truss_decomposition(&g);
    let reference = phtd(&g, &idx, &td, &Executor::sequential()).canonicalize();
    for (mode, exec) in fault_modes() {
        for chunk in chunk_positions(&exec) {
            for (what, fault, is_expected) in abort_faults() {
                exec.set_fault_plan(FaultPlan::new().inject(0, chunk, fault));
                let err = try_phtd(&g, &idx, &td, &exec)
                    .map(|_| ())
                    .expect_err(&format!("{mode}: {what} in chunk {chunk} must surface"));
                assert!(is_expected(&err), "{mode}: {what}, got {err}");
                exec.clear_fault_plan();
                let h = try_phtd(&g, &idx, &td, &exec)
                    .unwrap_or_else(|e| panic!("{mode}: clean rerun failed: {e}"));
                assert_eq!(h.canonicalize(), reference, "{mode} {what} chunk {chunk}");
            }
        }
    }
}

#[test]
fn panics_in_later_regions_are_contained_too() {
    // Region 0 is the easy case; sweep panics across the first dozen
    // regions of the PHCD pipeline to catch any step that forgets to
    // propagate failure.
    let g = rmat(10, 10, None, 9);
    let cores = core_decomposition(&g);
    let reference = phcd(&g, &cores, &Executor::sequential()).canonicalize();
    let exec = Executor::assist(4);
    for region in 0..12 {
        exec.set_fault_plan(FaultPlan::new().inject(region, 1, Fault::Panic));
        match try_phcd(&g, &cores, &exec) {
            // Regions past the end of the pipeline (or whose chunk 1 is
            // empty) never hit the fault site; those runs must be clean.
            Ok(h) => assert_eq!(h.canonicalize(), reference, "region {region}"),
            Err(ParError::Panicked { payload, .. }) => {
                assert!(payload.contains("injected fault"), "region {region}")
            }
            Err(other) => panic!("region {region}: unexpected {other}"),
        }
    }
    exec.clear_fault_plan();
    let h = try_phcd(&g, &cores, &exec).expect("executor reusable after sweep");
    assert_eq!(h.canonicalize(), reference);
}

#[test]
fn injected_delays_never_change_results() {
    // Delays reorder chunk completion adversarially but must not alter
    // any output: determinism comes from chunk ownership, not timing.
    let g = rmat(10, 10, None, 13);
    let cores = core_decomposition(&g);
    let reference = phcd(&g, &cores, &Executor::sequential()).canonicalize();
    let exec = Executor::assist(4);
    for seed in 0..4u64 {
        // Deterministic per-seed delay pattern over the first 16 regions:
        // each (region, chunk) site sleeps 0–700µs, skewed by the seed so
        // different seeds produce different completion orders.
        let mut plan = FaultPlan::new();
        for region in 0..16usize {
            for chunk in 0..4usize {
                let us = (seed * 251 + (region as u64) * 37 + (chunk as u64) * 113) % 701;
                plan = plan.inject(region, chunk, Fault::Delay(us));
            }
        }
        exec.set_fault_plan(plan);
        let h = try_phcd(&g, &cores, &exec)
            .unwrap_or_else(|e| panic!("seed {seed}: delays must be benign: {e}"));
        assert_eq!(h.canonicalize(), reference, "seed {seed}");
    }
}

#[test]
fn cancellation_and_deadline_abort_cleanly_in_all_modes() {
    let g = rmat(11, 10, None, 21);
    let cores = core_decomposition(&g);
    for (mode, exec) in fault_modes() {
        // Pre-cancelled token: the very first chunk boundary observes it.
        let token = CancelToken::new();
        token.cancel();
        exec.set_cancel(token);
        assert!(
            matches!(try_phcd(&g, &cores, &exec), Err(ParError::Cancelled)),
            "{mode}: cancel"
        );
        exec.clear_cancel();

        // Already-expired deadline.
        exec.set_deadline(Deadline::from_now(std::time::Duration::ZERO));
        assert!(
            matches!(
                try_pkc_core_decomposition(&g, &exec),
                Err(ParError::DeadlineExceeded)
            ),
            "{mode}: deadline"
        );
        exec.clear_deadline();

        // Both cleared: the same executor finishes a clean run.
        let h = try_phcd(&g, &cores, &exec)
            .unwrap_or_else(|e| panic!("{mode}: rerun after abort failed: {e}"));
        assert_eq!(
            h.num_nodes(),
            phcd(&g, &cores, &Executor::sequential()).num_nodes()
        );
    }
}

// --- algorithm-counter coherence -------------------------------------
//
// The typed counters threaded through the executor must be *coherent*:
// counters that reflect algorithmic structure (peeling rounds, shell
// phases, successful merges) are deterministic and must agree across
// executor modes and thread interleavings, while contention-dependent
// counters (find hops, CAS retries) must still satisfy their structural
// inequalities. Aborted runs must never report more of a deterministic
// counter than a clean run — the fault cuts work short, it does not
// invent any.

/// Runs `f` with metrics enabled on `exec` and returns the snapshot.
fn metered<F: FnOnce(&Executor)>(exec: &Executor, f: F) -> RunMetrics {
    exec.set_metrics_enabled(true);
    f(exec);
    let m = exec.take_metrics();
    exec.set_metrics_enabled(false);
    m
}

fn counter(m: &RunMetrics, name: &str) -> u64 {
    m.get_counter(name).map_or(0, |c| c.value)
}

#[test]
fn deterministic_counters_agree_across_modes() {
    let g = rmat(10, 10, None, 55);
    let cores = core_decomposition(&g);
    let reference = metered(&Executor::sequential(), |e| {
        pkc_core_decomposition(&g, e);
        phcd(&g, &cores, e);
    });
    for exec in [Executor::simulated(4), Executor::assist(4)] {
        let m = metered(&exec, |e| {
            pkc_core_decomposition(&g, e);
            phcd(&g, &cores, e);
        });
        // Structure-valued counters are mode-independent: peeling rounds
        // and wave count come from the degree sequence, the frontier
        // high-water mark from the wave partition, shell phases from the
        // coreness histogram, and successful union count from the
        // component structure (one link CAS wins per merge). The bucket
        // counters are structural too: CAS decrements serialize, so each
        // intermediate degree value is observed by exactly one decrement
        // regardless of interleaving, fixing the push/skip multiset.
        for name in [
            "pkc.levels",
            "pkc.waves",
            "pkc.frontier",
            "pkc.bucket_pushes",
            "pkc.bucket_skips",
            "phcd.union_phases",
            "phcd.uf.unions",
        ] {
            assert_eq!(
                counter(&m, name),
                counter(&reference, name),
                "{name} in mode {}",
                exec.mode_name()
            );
        }
        // Contention-dependent counters obey structural bounds instead:
        // every union attempt performs two finds, so finds >= 2 * the
        // successful-union count, and hop/retry counts are only defined
        // to be finite and recorded.
        let unions = counter(&m, "phcd.uf.unions");
        let finds = counter(&m, "phcd.uf.finds");
        assert!(
            finds >= 2 * unions,
            "finds {finds} < 2 * unions {unions} in mode {}",
            exec.mode_name()
        );
        // Each successful union merges two components.
        assert!(
            unions < g.num_vertices() as u64,
            "unions {unions} >= n {} in mode {}",
            g.num_vertices(),
            exec.mode_name()
        );
    }
}

#[test]
fn counters_under_fault_matrix_never_exceed_clean_run() {
    let g = rmat(10, 10, None, 56);
    let cores = core_decomposition(&g);
    let clean = metered(&Executor::sequential(), |e| {
        phcd(&g, &cores, e);
    });
    for (mode, exec) in fault_modes() {
        for chunk in chunk_positions(&exec) {
            for region in [0usize, 3, 6] {
                exec.set_metrics_enabled(true);
                exec.set_fault_plan(FaultPlan::new().inject(region, chunk, Fault::Panic));
                let result = try_phcd(&g, &cores, &exec);
                exec.clear_fault_plan();
                let aborted = exec.take_metrics();
                exec.set_metrics_enabled(false);
                // The aborted snapshot must still serialize and parse
                // (the CLI writes it even on failure) ...
                let parsed = Snapshot::parse(&aborted.to_json())
                    .unwrap_or_else(|e| panic!("{mode}: aborted snapshot invalid: {e}"));
                assert_eq!(parsed.regions.len(), aborted.regions.len());
                // ... and deterministic counters are monotone in work
                // done: a run cut short reports at most the clean value.
                // (A late-region fault may still miss the fault site and
                // succeed; equality is then required.)
                for name in ["phcd.union_phases", "phcd.uf.unions"] {
                    let a = counter(&aborted, name);
                    let c = counter(&clean, name);
                    if result.is_ok() {
                        assert_eq!(a, c, "{mode} r{region} c{chunk}: {name}");
                    } else {
                        assert!(a <= c, "{mode} r{region} c{chunk}: {name} {a} > clean {c}");
                    }
                }
            }
        }
    }
}

#[test]
fn injected_cancel_fault_trips_shared_token() {
    // Fault::Cancel models an external cancellation landing mid-region:
    // the shared token must end up tripped so the caller can observe it.
    let g = rmat(10, 10, None, 34);
    let cores = core_decomposition(&g);
    let exec = Executor::assist(4);
    let token = CancelToken::new();
    exec.set_cancel(token.clone());
    exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Cancel));
    assert!(matches!(
        try_phcd(&g, &cores, &exec),
        Err(ParError::Cancelled)
    ));
    assert!(token.is_cancelled(), "shared token must be tripped");
    exec.clear_cancel();
    exec.clear_fault_plan();
    assert!(try_phcd(&g, &cores, &exec).is_ok());
}
