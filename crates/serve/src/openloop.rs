//! A seeded **open-loop** load generator over the ingress queue.
//!
//! Closed-loop drivers (like [`crate::workload`]) issue the next
//! operation only after the previous one finishes, so they can never
//! overload the service — exactly the regime where admission control
//! is invisible. The open-loop generator instead *offers* load at a
//! configured rate on a virtual clock: each 1 ms tick admits the
//! arrivals the rate dictates (whether or not the service kept up),
//! then drains at most one batch. When offered rate exceeds drain
//! capacity the queue climbs to the watermark and the overflow sheds —
//! deterministically, because the arrival schedule, the queue dynamics,
//! and the drain cadence are all pure functions of the config under a
//! single-threaded executor.
//!
//! The virtual clock is also why the generator is reproducible in CI:
//! no wall-clock sleeps, no timing races — "one tick" is a unit of
//! *schedule*, not of time. Latency numbers still come from the real
//! histogram layer: each drain is one sample of its batch region's
//! histogram (`serve.<tenant>.query.batch` for a registry tenant).

use hcd_dynamic::EdgeUpdate;
use hcd_par::{Deadline, Executor};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::ingress::IngressQueue;
use crate::service::{HcdService, ServeError};
use crate::workload::WorkloadConfig;

/// Knobs for [`run_open_loop`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopConfig {
    /// RNG seed for the query/update stream.
    pub seed: u64,
    /// Offered arrival rate, in queries per (virtual) second. Arrivals
    /// are spread evenly across the 1 ms ticks by fixed-point
    /// accumulation, so any rate ≥ 1 qps is representable.
    pub offered_qps: u64,
    /// Number of 1 ms virtual ticks to run (1000 = one virtual second).
    pub ticks: u64,
    /// Maximum requests drained (and answered as one batch) per tick.
    pub drain_batch: usize,
    /// Queue-depth shed watermark.
    pub watermark: usize,
    /// Per-request deadline in milliseconds; `Some(0)` stamps an
    /// already-expired deadline on every arrival (the deterministic
    /// "fully shed" regime), `None` disables deadlines.
    pub deadline_ms: Option<u64>,
    /// Apply one small update batch every this-many ticks (`0` =
    /// read-only), exercising publication + cache invalidation under
    /// load.
    pub update_every: u64,
    /// Vertex universe for the query stream.
    pub universe: u32,
    /// Hot-set fraction, as in [`WorkloadConfig::hot_fraction`].
    pub hot_fraction: f64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            seed: 42,
            offered_qps: 10_000,
            ticks: 1000,
            drain_batch: 32,
            watermark: 256,
            deadline_ms: None,
            update_every: 100,
            universe: 256,
            hot_fraction: 0.5,
        }
    }
}

/// What one open-loop run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenLoopSummary {
    /// Arrivals offered to admission control.
    pub offered: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests answered (drained and served).
    pub answered: u64,
    /// Arrivals shed at the door for queue depth.
    pub shed_overloaded: u64,
    /// Requests shed for an expired deadline (at the door or at drain).
    pub shed_deadline: u64,
    /// Highest queue depth observed after any tick's arrivals.
    pub max_depth: usize,
    /// Update batches applied (publications, minus no-ops).
    pub update_batches: u64,
    /// Final published generation.
    pub final_generation: u64,
}

impl OpenLoopSummary {
    /// Total sheds.
    pub fn shed(&self) -> u64 {
        self.shed_overloaded + self.shed_deadline
    }

    /// Fraction of offered load that was shed, in `[0, 1]`.
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed() as f64 / self.offered as f64
        }
    }

    /// Whether the run was fully shed: load was offered and *nothing*
    /// was answered (the CLI maps this to its saturated exit code).
    pub fn saturated(&self) -> bool {
        self.offered > 0 && self.answered == 0
    }
}

/// Drives `cfg.ticks` virtual milliseconds of open-loop load through
/// `ingress` into `svc`. See the module docs for the model; the queue
/// dynamics (and hence every shed decision) are deterministic given
/// `cfg` under a single-threaded executor.
pub fn run_open_loop(
    svc: &HcdService,
    ingress: &IngressQueue,
    cfg: &OpenLoopConfig,
    exec: &Executor,
) -> Result<OpenLoopSummary, ServeError> {
    assert!(cfg.universe > 0, "vertex universe must be non-empty");
    let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(cfg.seed);
    let mut summary = OpenLoopSummary::default();
    // Reuse the workload's query distribution so the open and closed
    // loops probe the same answer space.
    let wl = WorkloadConfig {
        seed: cfg.seed,
        universe: cfg.universe,
        hot_fraction: cfg.hot_fraction,
        ..WorkloadConfig::default()
    };
    // Fixed-point arrival accumulator: `acc` gains `offered_qps` per
    // tick and every 1000 units is one arrival, so arrivals per tick
    // are exactly offered_qps/1000 on average with no float drift.
    let mut acc: u64 = 0;
    for tick in 0..cfg.ticks {
        acc += cfg.offered_qps;
        while acc >= 1000 {
            acc -= 1000;
            summary.offered += 1;
            let q = crate::workload::random_query_mixed(&mut rng, &wl);
            let deadline = cfg
                .deadline_ms
                .map(|ms| Deadline::from_now(std::time::Duration::from_millis(ms)));
            match ingress.try_enqueue(q, deadline, exec) {
                Ok(_) => summary.admitted += 1,
                Err(crate::admission::Rejected::Overloaded { .. }) => summary.shed_overloaded += 1,
                Err(crate::admission::Rejected::DeadlineExceeded) => summary.shed_deadline += 1,
            }
        }
        summary.max_depth = summary.max_depth.max(ingress.depth());
        let drained = ingress.try_drain_batch(svc, cfg.drain_batch, exec)?;
        summary.answered += drained.answered.len() as u64;
        summary.shed_deadline += drained.shed_deadline;
        if cfg.update_every > 0 && (tick + 1) % cfg.update_every == 0 {
            let updates: Vec<EdgeUpdate> = (0..4)
                .map(|_| {
                    let u = rng.gen_range(0..cfg.universe);
                    let mut v = rng.gen_range(0..cfg.universe);
                    if v == u {
                        v = (v + 1) % cfg.universe;
                    }
                    EdgeUpdate::Insert(u, v)
                })
                .collect();
            svc.try_apply_batch(&updates, exec)?;
            summary.update_batches += 1;
        }
    }
    // Final drains: empty the queue so "answered + shed" accounts for
    // every admitted request (bounded — the queue only shrinks now).
    while ingress.depth() > 0 {
        let drained = ingress.try_drain_batch(svc, cfg.drain_batch, exec)?;
        summary.answered += drained.answered.len() as u64;
        summary.shed_deadline += drained.shed_deadline;
    }
    summary.final_generation = svc.generation();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use hcd_graph::GraphBuilder;

    fn seed_graph() -> hcd_graph::CsrGraph {
        GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build()
    }

    fn ingress(watermark: usize) -> IngressQueue {
        IngressQueue::new(AdmissionConfig {
            watermark,
            default_deadline: None,
        })
    }

    #[test]
    fn underload_answers_everything() {
        let exec = Executor::sequential();
        let svc = HcdService::new(&seed_graph(), &exec);
        let cfg = OpenLoopConfig {
            offered_qps: 8_000, // 8 arrivals/tick << 32 drained/tick
            ticks: 100,
            update_every: 0,
            universe: 16,
            ..OpenLoopConfig::default()
        };
        let s = run_open_loop(&svc, &ingress(cfg.watermark), &cfg, &exec).unwrap();
        assert_eq!(s.offered, 800);
        assert_eq!(s.answered, 800);
        assert_eq!(s.shed(), 0);
        assert_eq!(s.shed_fraction(), 0.0);
        assert!(!s.saturated());
    }

    #[test]
    fn overload_sheds_deterministically_at_the_watermark() {
        let cfg = OpenLoopConfig {
            offered_qps: 100_000, // 100 arrivals/tick vs 32 drained
            ticks: 50,
            watermark: 64,
            update_every: 0,
            universe: 16,
            ..OpenLoopConfig::default()
        };
        let mut runs = Vec::new();
        for _ in 0..2 {
            let exec = Executor::sequential();
            let svc = HcdService::new(&seed_graph(), &exec);
            runs.push(run_open_loop(&svc, &ingress(cfg.watermark), &cfg, &exec).unwrap());
        }
        assert_eq!(runs[0], runs[1], "open loop must be deterministic");
        let s = runs[0];
        assert_eq!(s.offered, 5000);
        assert!(s.shed_overloaded > 0, "{s:?}");
        assert_eq!(s.offered, s.answered + s.shed());
        assert!(s.max_depth <= cfg.watermark, "{s:?}");
        assert!(s.shed_fraction() > 0.5, "{s:?}");
    }

    #[test]
    fn zero_deadline_sheds_everything() {
        let exec = Executor::sequential();
        let svc = HcdService::new(&seed_graph(), &exec);
        let cfg = OpenLoopConfig {
            offered_qps: 5_000,
            ticks: 20,
            deadline_ms: Some(0),
            update_every: 0,
            universe: 16,
            ..OpenLoopConfig::default()
        };
        let s = run_open_loop(&svc, &ingress(cfg.watermark), &cfg, &exec).unwrap();
        assert_eq!(s.offered, 100);
        assert_eq!(s.answered, 0);
        assert_eq!(s.shed_deadline, 100);
        assert!(s.saturated());
        assert_eq!(s.shed_fraction(), 1.0);
    }

    #[test]
    fn updates_publish_under_load() {
        let exec = Executor::sequential();
        let svc = HcdService::new(&seed_graph(), &exec);
        let cfg = OpenLoopConfig {
            offered_qps: 4_000,
            ticks: 100,
            update_every: 25,
            universe: 16,
            ..OpenLoopConfig::default()
        };
        let s = run_open_loop(&svc, &ingress(cfg.watermark), &cfg, &exec).unwrap();
        assert_eq!(s.update_batches, 4);
        assert!(s.final_generation >= 1);
        assert!(s.answered > 0);
    }
}
