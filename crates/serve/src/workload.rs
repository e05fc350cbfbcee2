//! Seeded mixed read/update workload — the engine behind
//! `hcd-cli serve-bench`.
//!
//! The driver issues a reproducible interleaving of query batches and
//! edge-update batches against an [`HcdService`], controlled by a
//! [`WorkloadConfig`]: same seed + same config ⇒ the same operation
//! sequence on every run and in every executor mode, which is what lets
//! CI gate the `serve.*` counters against a committed baseline.

use hcd_dynamic::EdgeUpdate;
use hcd_graph::VertexId;
use hcd_par::Executor;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::service::{HcdService, Query, QueryAnswer, ServeError};

/// Knobs for [`run_workload`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// RNG seed; the whole operation stream is a pure function of it
    /// (plus the other knobs).
    pub seed: u64,
    /// Number of operations. Each op is either one query batch or one
    /// update batch.
    pub ops: usize,
    /// Queries per read op / edge updates per write op.
    pub batch_size: usize,
    /// Probability in `[0, 1]` that an op is a read.
    pub read_ratio: f64,
    /// Vertex ids are drawn from `0..universe`. May exceed the graph's
    /// current vertex count: inserts grow the graph, and queries on
    /// not-yet-existing ids exercise the stale-id paths.
    pub universe: VertexId,
    /// Probability in `[0, 1]` that a query draw is a *hot* query: a
    /// `CoreContaining` probe on a small fixed vertex set. Hot traffic
    /// is what a memo cache exists for — repeated identical probes
    /// within one generation. `0.0` (the default) adds **no** RNG
    /// draws, so the operation stream is byte-for-byte the historical
    /// one.
    pub hot_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 42,
            ops: 64,
            batch_size: 32,
            read_ratio: 0.9,
            universe: 256,
            hot_fraction: 0.0,
        }
    }
}

/// What a workload run did, for reporting and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkloadSummary {
    /// Individual queries answered.
    pub queries: u64,
    /// Query batches issued.
    pub query_batches: u64,
    /// Single-query read ops issued through the typed per-query-type
    /// entry points (`try_core_containing` & co.), which is what
    /// populates the `serve.query.core` / `.position` / `.member` /
    /// `.same` latency histograms.
    pub single_queries: u64,
    /// Update batches applied (each one publishes a snapshot, unless
    /// the writer's no-op fast path kicked in).
    pub update_batches: u64,
    /// Update batches that changed nothing and therefore published no
    /// new generation.
    pub noop_update_batches: u64,
    /// Edge updates the dynamic maintainer actually applied.
    pub updates_applied: u64,
    /// Edge updates skipped as no-ops (duplicate insert / missing
    /// remove).
    pub updates_skipped: u64,
    /// Queries that answered `Some` / `true` (a cheap cross-mode
    /// fingerprint of the answer stream).
    pub positive_answers: u64,
    /// Generation of the last published snapshot.
    pub final_generation: u64,
}

/// Fraction of read ops issued as one typed single query instead of a
/// full batch.
const SINGLE_QUERY_RATIO: f64 = 0.25;

/// Vertices `0..HOT_SET` are the hot set `hot_fraction` concentrates
/// on.
const HOT_SET: VertexId = 8;

pub(crate) fn random_query_mixed(rng: &mut ChaCha8Rng, cfg: &WorkloadConfig) -> Query {
    if cfg.hot_fraction > 0.0 && rng.gen_bool(cfg.hot_fraction.clamp(0.0, 1.0)) {
        let v = rng.gen_range(0..HOT_SET.min(cfg.universe));
        let k = rng.gen_range(0..4u32);
        return Query::CoreContaining(v, k);
    }
    random_query(rng, cfg.universe)
}

fn random_query(rng: &mut ChaCha8Rng, universe: VertexId) -> Query {
    let v = rng.gen_range(0..universe);
    let k = rng.gen_range(0..6u32);
    match rng.gen_range(0..4u32) {
        0 => Query::CoreContaining(v, k),
        1 => Query::HierarchyPosition(v),
        2 => Query::InKCore(v, k),
        _ => Query::SameKCore(v, rng.gen_range(0..universe), k),
    }
}

fn random_update(rng: &mut ChaCha8Rng, universe: VertexId) -> EdgeUpdate {
    let u = rng.gen_range(0..universe);
    let mut v = rng.gen_range(0..universe);
    if v == u {
        v = (v + 1) % universe;
    }
    // Bias toward inserts so the graph densifies over the run and the
    // hierarchy actually deepens.
    if rng.gen_bool(0.7) {
        EdgeUpdate::Insert(u, v)
    } else {
        EdgeUpdate::Remove(u, v)
    }
}

fn is_positive(a: &QueryAnswer) -> bool {
    match a {
        QueryAnswer::CoreContaining(m) => m.is_some(),
        QueryAnswer::HierarchyPosition(p) => p.is_some(),
        QueryAnswer::InKCore(b) | QueryAnswer::SameKCore(b) => *b,
    }
}

/// Drives `cfg.ops` operations against `service` under `exec` and
/// reports what happened. Deterministic given `cfg` (the operation
/// stream never depends on answers or timing).
pub fn run_workload(
    service: &HcdService,
    cfg: &WorkloadConfig,
    exec: &Executor,
) -> Result<WorkloadSummary, ServeError> {
    run_workload_with(service, cfg, exec, 0, |_, _| {})
}

/// [`run_workload`] with a progress hook: when `progress_every > 0`,
/// `progress(ops_done, &summary_so_far)` is called after every
/// `progress_every` completed operations (`serve-bench
/// --stats-interval` prints in-flight histogram snapshots from it).
/// The hook never affects the operation stream, so determinism is
/// preserved.
pub fn run_workload_with<F>(
    service: &HcdService,
    cfg: &WorkloadConfig,
    exec: &Executor,
    progress_every: usize,
    mut progress: F,
) -> Result<WorkloadSummary, ServeError>
where
    F: FnMut(usize, &WorkloadSummary),
{
    assert!(cfg.universe > 0, "vertex universe must be non-empty");
    assert!(cfg.batch_size > 0, "batch size must be positive");
    let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(cfg.seed);
    let mut summary = WorkloadSummary::default();
    for op in 0..cfg.ops {
        if rng.gen_bool(cfg.read_ratio.clamp(0.0, 1.0)) {
            if rng.gen_bool(SINGLE_QUERY_RATIO) {
                // One query through its typed entry point, so every
                // per-query-type region and latency histogram
                // (`serve.query.core` / `.position` / `.member` /
                // `.same`) sees real traffic.
                let q = random_query_mixed(&mut rng, cfg);
                let positive = match q {
                    Query::CoreContaining(v, k) => {
                        service.try_core_containing(v, k, exec)?.value.is_some()
                    }
                    Query::HierarchyPosition(v) => {
                        service.try_hierarchy_position(v, exec)?.value.is_some()
                    }
                    Query::InKCore(v, k) => service.try_in_k_core(v, k, exec)?.value,
                    Query::SameKCore(u, v, k) => service.try_same_k_core(u, v, k, exec)?.value,
                };
                summary.queries += 1;
                summary.single_queries += 1;
                summary.positive_answers += positive as u64;
            } else {
                let queries: Vec<Query> = (0..cfg.batch_size)
                    .map(|_| random_query_mixed(&mut rng, cfg))
                    .collect();
                let batch = service.try_query_batch(&queries, exec)?;
                summary.queries += batch.answers.len() as u64;
                summary.query_batches += 1;
                summary.positive_answers +=
                    batch.answers.iter().filter(|a| is_positive(a)).count() as u64;
            }
        } else {
            let updates: Vec<EdgeUpdate> = (0..cfg.batch_size)
                .map(|_| random_update(&mut rng, cfg.universe))
                .collect();
            let before = service.generation();
            let resp = service.try_apply_batch(&updates, exec)?;
            summary.update_batches += 1;
            summary.updates_applied += resp.value.applied as u64;
            summary.updates_skipped += resp.value.skipped as u64;
            if resp.generation == before {
                summary.noop_update_batches += 1;
            }
        }
        if progress_every > 0 && (op + 1) % progress_every == 0 {
            summary.final_generation = service.generation();
            progress(op + 1, &summary);
        }
    }
    summary.final_generation = service.generation();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_graph::GraphBuilder;

    fn seed_graph() -> hcd_graph::CsrGraph {
        GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build()
    }

    #[test]
    fn workload_is_deterministic_across_modes() {
        let cfg = WorkloadConfig {
            ops: 24,
            batch_size: 8,
            universe: 32,
            read_ratio: 0.6,
            ..WorkloadConfig::default()
        };
        let mut summaries = Vec::new();
        for exec in [
            Executor::sequential(),
            Executor::assist(4),
            Executor::simulated(4),
        ] {
            let svc = HcdService::try_new(&seed_graph(), &exec).unwrap();
            summaries.push((exec.mode_name(), run_workload(&svc, &cfg, &exec).unwrap()));
        }
        let (_, first) = summaries[0];
        for (mode, s) in &summaries {
            assert_eq!(*s, first, "mode {mode} diverged");
        }
        assert!(first.update_batches > 0, "workload never wrote: {first:?}");
        assert_eq!(
            first.final_generation,
            first.update_batches - first.noop_update_batches
        );
        assert_eq!(
            first.queries,
            first.query_batches * cfg.batch_size as u64 + first.single_queries
        );
        assert!(first.single_queries > 0, "no typed single queries ran");
    }

    #[test]
    fn read_only_workload_never_publishes() {
        let exec = Executor::sequential();
        let svc = HcdService::try_new(&seed_graph(), &exec).unwrap();
        let cfg = WorkloadConfig {
            read_ratio: 1.0,
            ops: 10,
            batch_size: 4,
            universe: 16,
            ..WorkloadConfig::default()
        };
        let s = run_workload(&svc, &cfg, &exec).unwrap();
        assert_eq!(s.update_batches, 0);
        assert_eq!(s.final_generation, 0);
        assert_eq!(s.query_batches + s.single_queries, 10, "every op is a read");
        assert_eq!(
            s.queries,
            s.query_batches * cfg.batch_size as u64 + s.single_queries
        );
    }

    #[test]
    fn progress_hook_fires_on_schedule_without_changing_the_stream() {
        let exec = Executor::sequential();
        let svc = HcdService::try_new(&seed_graph(), &exec).unwrap();
        let cfg = WorkloadConfig {
            ops: 10,
            batch_size: 4,
            universe: 16,
            ..WorkloadConfig::default()
        };
        let baseline = run_workload(&svc, &cfg, &exec).unwrap();
        let svc2 = HcdService::try_new(&seed_graph(), &exec).unwrap();
        let mut ticks = Vec::new();
        let observed = run_workload_with(&svc2, &cfg, &exec, 3, |done, s| {
            ticks.push((done, s.queries));
        })
        .unwrap();
        assert_eq!(ticks.iter().map(|&(d, _)| d).collect::<Vec<_>>(), [3, 6, 9]);
        assert_eq!(observed, baseline, "hook must not perturb the workload");
    }
}
