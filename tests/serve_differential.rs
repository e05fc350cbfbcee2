//! Differential test harness for the serving layer (`hcd-serve`).
//!
//! A seeded interleaving of update batches and query batches runs
//! against [`HcdService`]; after **every** epoch swap the published
//! snapshot is checked bit-identically against an independently
//! maintained oracle: a mirror edge multiset rebuilt from scratch with
//! `core_decomposition` + `naive_hcd`. Queries are cross-checked
//! against the same oracle. The whole matrix runs over three graph
//! families (ER, BA, RMAT) × all three executor modes.

use std::collections::BTreeSet;

use hcd::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Independently maintained ground truth: the edge set and vertex count
/// the service *should* be serving, mirroring `DynamicGraph` semantics
/// (inserts grow the vertex set; a duplicate insert already lies inside
/// it; removes never grow it).
struct Mirror {
    edges: BTreeSet<(VertexId, VertexId)>,
    n: usize,
}

impl Mirror {
    fn of(g: &CsrGraph) -> Self {
        Mirror {
            edges: g.edges().collect(),
            n: g.num_vertices(),
        }
    }

    /// Applies one update, returning whether it changed the edge set.
    fn apply(&mut self, upd: &EdgeUpdate) -> bool {
        match *upd {
            EdgeUpdate::Insert(u, v) => {
                if u == v {
                    return false;
                }
                self.n = self.n.max(u.max(v) as usize + 1);
                self.edges.insert((u.min(v), u.max(v)))
            }
            EdgeUpdate::Remove(u, v) => self.edges.remove(&(u.min(v), u.max(v))),
        }
    }

    fn graph(&self) -> CsrGraph {
        GraphBuilder::new()
            .min_vertices(self.n)
            .edges(self.edges.iter().copied())
            .build()
    }
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

/// Checks the served snapshot bit-identically against a from-scratch
/// oracle built on the mirror's edge multiset.
fn assert_snapshot_matches_oracle(snap: &ServeSnapshot, mirror: &Mirror, ctx: &str) {
    let oracle_graph = mirror.graph();
    assert_eq!(
        snap.graph.num_vertices(),
        oracle_graph.num_vertices(),
        "{ctx}: vertex count"
    );
    assert_eq!(
        snap.graph.edges().collect::<BTreeSet<_>>(),
        mirror.edges,
        "{ctx}: edge set"
    );
    let oracle_cores = core_decomposition(&oracle_graph);
    assert_eq!(
        snap.cores.as_slice(),
        oracle_cores.as_slice(),
        "{ctx}: coreness"
    );
    let oracle_hcd = naive_hcd(&oracle_graph, &oracle_cores);
    assert_eq!(
        snap.hcd.canonicalize(),
        oracle_hcd.canonicalize(),
        "{ctx}: hierarchy"
    );
    snap.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

/// Cross-checks a served query batch against oracle-side answers.
fn assert_queries_match_oracle(
    service: &HcdService,
    mirror: &Mirror,
    rng: &mut ChaCha8Rng,
    exec: &Executor,
    ctx: &str,
) {
    let oracle_graph = mirror.graph();
    let oracle_cores = core_decomposition(&oracle_graph);
    let oracle_hcd = naive_hcd(&oracle_graph, &oracle_cores);
    let universe = (mirror.n as VertexId) + 4; // a few out-of-range ids too
    let queries: Vec<Query> = (0..24)
        .map(|_| {
            let v = rng.gen_range(0..universe);
            let k = rng.gen_range(0..5u32);
            match rng.gen_range(0..4u32) {
                0 => Query::CoreContaining(v, k),
                1 => Query::HierarchyPosition(v),
                2 => Query::InKCore(v, k),
                _ => Query::SameKCore(v, rng.gen_range(0..universe), k),
            }
        })
        .collect();
    let batch = service.try_query_batch(&queries, exec).unwrap();
    assert_eq!(batch.generation, service.generation(), "{ctx}: generation");
    let known = |v: VertexId| (v as usize) < oracle_graph.num_vertices();
    for (q, a) in queries.iter().zip(&batch.answers) {
        let expected = match *q {
            Query::CoreContaining(v, k) => QueryAnswer::CoreContaining(
                known(v)
                    .then(|| core_node_at(&oracle_hcd, &oracle_cores, v, k))
                    .flatten()
                    .map(|node| {
                        let mut m = oracle_hcd.subtree_vertices(node);
                        m.sort_unstable();
                        m
                    }),
            ),
            Query::HierarchyPosition(v) => QueryAnswer::HierarchyPosition(known(v).then(|| {
                let t = oracle_hcd.tid(v);
                (oracle_hcd.depth(t), oracle_hcd.subtree_vertices(t).len())
            })),
            Query::InKCore(v, k) => QueryAnswer::InKCore(known(v) && k <= oracle_cores.coreness(v)),
            Query::SameKCore(u, v, k) => QueryAnswer::SameKCore(
                known(u) && known(v) && same_k_core(&oracle_hcd, &oracle_cores, u, v, k),
            ),
        };
        assert_eq!(*a, expected, "{ctx}: query {q:?}");
    }
}

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

/// The tentpole differential run: ER/BA/RMAT × all executor modes,
/// checking every published epoch against the from-scratch oracle and
/// interleaved query batches against oracle answers.
#[test]
fn served_snapshots_match_from_scratch_oracle_across_modes() {
    const ROUNDS: usize = 8;
    const BATCH: usize = 12;
    for (family, g0) in seed_graphs() {
        for exec in executors() {
            let ctx_base = format!("{family}/{}", exec.mode_name());
            let mut rng =
                <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0x5EED ^ g0.num_edges() as u64);
            let mut mirror = Mirror::of(&g0);
            let service = HcdService::try_new(&g0, &exec).unwrap();
            assert_eq!(service.generation(), 0);
            assert_snapshot_matches_oracle(&service.snapshot(), &mirror, &ctx_base);
            let universe = g0.num_vertices() as VertexId + 6;
            for round in 0..ROUNDS {
                let ctx = format!("{ctx_base} round {round}");
                let updates = random_updates(&mut rng, BATCH, universe);
                let expected_applied = updates.iter().filter(|u| mirror.apply(u)).count();
                let resp = service.try_apply_batch(&updates, &exec).unwrap();
                assert_eq!(resp.generation, round as u64 + 1, "{ctx}: epoch");
                assert_eq!(service.generation(), round as u64 + 1, "{ctx}: epoch");
                assert_eq!(resp.value.applied, expected_applied, "{ctx}: applied");
                assert_eq!(
                    resp.value.skipped,
                    updates.len() - expected_applied,
                    "{ctx}: skipped"
                );
                assert_snapshot_matches_oracle(&service.snapshot(), &mirror, &ctx);
                assert_queries_match_oracle(&service, &mirror, &mut rng, &exec, &ctx);
            }
        }
    }
}

/// The writer path (merge the batch into the CSR, PKC + PHCD on it)
/// publishes exactly what a naive from-scratch build of the same state
/// would, for every graph family × executor mode. This pins the
/// equivalence directly — one service keeps applying batches, the
/// comparison state is rebuilt with `HcdService::try_new` from the
/// mirror graph each round — and checks the maintenance counters report
/// the whole new graph the recompute examined.
#[test]
fn incremental_path_matches_naive_rebuild_across_modes() {
    const ROUNDS: usize = 6;
    const BATCH: usize = 4;
    for (family, g0) in seed_graphs() {
        for exec in executors() {
            let exec = exec.with_metrics();
            let ctx_base = format!("{family}/{}", exec.mode_name());
            let mut rng =
                <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0xD1FF ^ g0.num_edges() as u64);
            let mut mirror = Mirror::of(&g0);
            let service = HcdService::try_new(&g0, &exec).unwrap();
            let universe = g0.num_vertices() as VertexId + 6;
            exec.take_metrics();
            let mut generation = 0u64;
            for round in 0..ROUNDS {
                let ctx = format!("{ctx_base} round {round}");
                let updates = random_updates(&mut rng, BATCH, universe);
                let applied = updates.iter().filter(|u| mirror.apply(u)).count();
                let resp = service.try_apply_batch(&updates, &exec).unwrap();
                let m = exec.take_metrics();
                if applied == 0 {
                    // All-skipped batches take the fast path: nothing
                    // published, nothing rebuilt, no swap.
                    assert_eq!(resp.generation, generation, "{ctx}: no-op generation");
                    assert!(m.get_counter("serve.swaps").is_none(), "{ctx}: no-op swap");
                    assert_eq!(
                        m.get_counter("serve.noop_batches").unwrap().value,
                        1,
                        "{ctx}"
                    );
                    continue;
                }
                generation += 1;
                assert_eq!(resp.generation, generation, "{ctx}: epoch");
                // Naive rebuild of the same logical state, from scratch.
                let naive = HcdService::try_new(&mirror.graph(), &exec).unwrap();
                let inc = service.snapshot();
                let scratch = naive.snapshot();
                assert_eq!(
                    inc.graph.edges().collect::<BTreeSet<_>>(),
                    scratch.graph.edges().collect::<BTreeSet<_>>(),
                    "{ctx}: edges"
                );
                assert_eq!(
                    inc.cores.as_slice(),
                    scratch.cores.as_slice(),
                    "{ctx}: coreness"
                );
                assert_eq!(
                    inc.hcd.canonicalize(),
                    scratch.hcd.canonicalize(),
                    "{ctx}: hierarchy"
                );
                // The recompute reported what it examined: n and 2m.
                let counter = |name: &str| m.get_counter(name).unwrap().value as usize;
                assert_eq!(
                    counter("dynamic.affected_vertices"),
                    inc.graph.num_vertices(),
                    "{ctx}: affected"
                );
                assert_eq!(
                    counter("dynamic.traversal_edges"),
                    inc.graph.num_arcs(),
                    "{ctx}: traversal"
                );
            }
        }
    }
}

/// A batch that appends vertices past the current range publishes a
/// snapshot that validates and equals a from-scratch build of the grown
/// graph (the oracle check validates the snapshot too).
#[test]
fn appending_vertices_publishes_a_from_scratch_snapshot() {
    let g0 = barabasi_albert(400, 3, 0x77);
    let exec = Executor::sequential();
    let service = HcdService::try_new(&g0, &exec).unwrap();
    let mut mirror = Mirror::of(&g0);
    // A pendant pair appended to the graph, plus a new vertex hung off
    // an existing one.
    let n = g0.num_vertices() as VertexId;
    let updates = [EdgeUpdate::Insert(n, n + 1), EdgeUpdate::Insert(0, n + 2)];
    for u in &updates {
        assert!(mirror.apply(u));
    }
    let resp = service.try_apply_batch(&updates, &exec).unwrap();
    assert_eq!(resp.generation, 1);
    assert_eq!(resp.value.touched, vec![0, n, n + 1, n + 2]);
    let snap = service.snapshot();
    assert_eq!(snap.graph.num_vertices(), g0.num_vertices() + 3);
    assert_snapshot_matches_oracle(&snap, &mirror, "appended vertices");
    let scratch = HcdService::try_new(&mirror.graph(), &exec).unwrap();
    assert_eq!(snap.fingerprint(), scratch.snapshot().fingerprint());
}

/// The changed-region report is exact: recomputing coreness from scratch
/// before and after each batch gives the same changed-vertex set.
#[test]
fn batch_reports_exact_changed_regions_under_service() {
    let exec = Executor::sequential();
    let g0 = gnp(40, 0.09, 0xC0DE);
    let mut mirror = Mirror::of(&g0);
    let service = HcdService::try_new(&g0, &exec).unwrap();
    let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(7);
    for round in 0..6 {
        let before = core_decomposition(&mirror.graph());
        let updates = random_updates(&mut rng, 10, g0.num_vertices() as VertexId + 4);
        for u in &updates {
            mirror.apply(u);
        }
        let resp = service.try_apply_batch(&updates, &exec).unwrap();
        let after = core_decomposition(&mirror.graph());
        let expected: Vec<VertexId> = (0..after.as_slice().len() as VertexId)
            .filter(|&v| {
                let old = before.as_slice().get(v as usize).copied().unwrap_or(0);
                old != after.coreness(v)
            })
            .collect();
        assert_eq!(resp.value.changed, expected, "round {round}");
        assert_eq!(
            resp.value.coreness_unchanged(),
            expected.is_empty(),
            "round {round}"
        );
    }
}
