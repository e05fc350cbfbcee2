//! The build path: parse → PKC → rank → PHCD, then type-A and type-B
//! PBKS on the result, every iteration checked against serial LCPS and
//! BKS computed before timing.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hcd::core::phcd::try_phcd_with_ranks;
use hcd::core::{lcps, CanonicalHcd, Hcd, VertexRanks};
use hcd::decomp::{core_decomposition, try_pkc_core_decomposition, CoreDecomposition};
use hcd::graph::{io::read_edge_list, CsrGraph};
use hcd::par::{Executor, RunMetrics};
use hcd::search::{bks, try_pbks, BestCore, Metric, SearchContext};

/// Serial answers every timed iteration must reproduce.
pub struct Reference {
    canonical: CanonicalHcd,
    best_a: Option<BestCore>,
    best_b: Option<BestCore>,
}

impl Reference {
    /// LCPS and BKS on the parsed edge list, all serial.
    pub fn compute(edge_list: &[u8]) -> Result<Reference, String> {
        let g = read_edge_list(edge_list).map_err(|e| format!("parse: {e}"))?;
        let cores = core_decomposition(&g);
        let hcd = lcps(&g, &cores);
        let ctx = SearchContext::new(&g, &cores, &hcd);
        Ok(Reference {
            canonical: hcd.canonicalize(),
            best_a: bks(&ctx, &Metric::AverageDegree),
            best_b: bks(&ctx, &Metric::ClusteringCoefficient),
        })
    }
}

/// Benchmark-side spans around each layer's public entry point, in ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub load: f64,
    pub pkc: f64,
    pub rank: f64,
    pub phcd: f64,
    pub preprocess: f64,
    pub pbks_a: f64,
    pub pbks_b: f64,
}

impl Spans {
    /// Parse → PKC → rank → PHCD.
    pub fn build_ms(&self) -> f64 {
        self.load + self.pkc + self.rank + self.phcd
    }

    /// Search preprocessing plus type-A PBKS.
    pub fn search_a_ms(&self) -> f64 {
        self.preprocess + self.pbks_a
    }
}

/// Runs `f` and adds its wall time in ms to `slot`.
fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = black_box(f());
    *slot += start.elapsed().as_secs_f64() * 1e3;
    out
}

struct Built {
    g: CsrGraph,
    cores: CoreDecomposition,
    hcd: Hcd,
}

fn build(edge_list: &[u8], exec: &Executor, spans: &mut Spans) -> Result<Built, String> {
    let g = timed(&mut spans.load, || read_edge_list(black_box(edge_list)))
        .map_err(|e| format!("parse: {e}"))?;
    let cores = timed(&mut spans.pkc, || try_pkc_core_decomposition(&g, exec))
        .map_err(|e| format!("pkc: {e}"))?;
    let ranks = timed(&mut spans.rank, || VertexRanks::try_compute(&cores, exec))
        .map_err(|e| format!("rank: {e}"))?;
    let hcd = timed(&mut spans.phcd, || {
        try_phcd_with_ranks(&g, &cores, &ranks, exec)
    })
    .map_err(|e| format!("phcd: {e}"))?;
    Ok(Built { g, cores, hcd })
}

/// One iteration: three operations (build, search A, search B), each
/// failed when it errs or disagrees with the reference.
pub struct Outcome {
    pub spans: Spans,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Operations one [`iteration`] attempts.
pub const OPS_PER_ITERATION: u64 = 3;

/// Runs and checks one build-and-search iteration on `exec`.
pub fn iteration(edge_list: &[u8], exec: &Executor, reference: &Reference) -> Outcome {
    let mut out = Outcome {
        spans: Spans::default(),
        failed: 0,
        errors: Vec::new(),
    };
    fn fail(out: &mut Outcome, ops: u64, e: String) {
        out.failed += ops;
        out.errors.push(e);
    }
    let built = match build(edge_list, exec, &mut out.spans) {
        Ok(b) => b,
        Err(e) => {
            fail(&mut out, OPS_PER_ITERATION, e);
            return out;
        }
    };
    if built.hcd.canonicalize() != reference.canonical {
        fail(&mut out, 1, "PHCD differs from serial LCPS".into());
    }
    let Built { g, cores, hcd } = &built;
    let ctx = match timed(&mut out.spans.preprocess, || {
        SearchContext::try_with_executor(g, cores, hcd, exec)
    }) {
        Ok(ctx) => ctx,
        Err(e) => {
            fail(&mut out, 2, format!("preprocess: {e}"));
            return out;
        }
    };
    let searches = [
        (
            Metric::AverageDegree,
            &reference.best_a,
            &mut out.spans.pbks_a,
        ),
        (
            Metric::ClusteringCoefficient,
            &reference.best_b,
            &mut out.spans.pbks_b,
        ),
    ];
    let mut errors = Vec::new();
    for (metric, expected, slot) in searches {
        match timed(slot, || try_pbks(&ctx, &metric, exec)) {
            Ok(best) if best == *expected => {}
            Ok(best) => errors.push(format!(
                "PBKS {} found {best:?}, BKS {expected:?}",
                metric.name()
            )),
            Err(e) => errors.push(format!("PBKS {}: {e}", metric.name())),
        }
    }
    for e in errors {
        fail(&mut out, 1, e);
    }
    out
}

/// Counters of the traced iterations, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub pkc_waves: u64,
    pub find_hops: u64,
    pub cas_retries: u64,
    pub triangle_probes: u64,
    /// Σ over regions of `wall_ns − chunk_max_ns`.
    pub dispatch_ns: u64,
    pub region_calls: u64,
}

impl Counters {
    fn add(&mut self, m: &RunMetrics) {
        let c = |name: &str| m.get_counter(name).map_or(0, |c| c.value);
        self.pkc_waves += c("pkc.waves");
        self.find_hops += c("phcd.uf.find_hops");
        self.cas_retries += c("phcd.uf.cas_retries");
        self.triangle_probes += c("pbks.triangle_probes");
        for r in &m.regions {
            self.dispatch_ns += r.wall_ns.saturating_sub(r.chunk_max_ns);
            self.region_calls += r.invocations;
        }
    }
}

/// What the build phase measured.
#[derive(Default)]
pub struct Phase {
    /// Spans of iterations run with metrics off.
    pub plain: Vec<Spans>,
    /// Spans of iterations run with metrics on (trace runs only).
    pub traced: Vec<Spans>,
    pub counters: Counters,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Phase {
    /// Folds one iteration's checks into the tallies.
    pub fn tally(&mut self, out: Outcome) -> Spans {
        self.attempted += OPS_PER_ITERATION;
        self.failed += out.failed;
        self.errors.extend(out.errors);
        out.spans
    }
}

/// Iterates for `budget`. With `trace`, every other iteration runs with
/// the executor's metrics on, so the trace overhead is measured in the
/// same run.
pub fn run(
    edge_list: &[u8],
    exec: &Executor,
    reference: &Reference,
    budget: Duration,
    trace: bool,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut i = 0usize;
    // At least one iteration of each kind, however short the budget.
    while i < 1 + usize::from(trace) || start.elapsed() < budget {
        let traced = trace && i % 2 == 0;
        exec.set_metrics_enabled(traced);
        let spans = phase.tally(iteration(edge_list, exec, reference));
        if traced {
            phase.counters.add(&exec.take_metrics());
            phase.traced.push(spans);
        } else {
            phase.plain.push(spans);
        }
        i += 1;
    }
    exec.set_metrics_enabled(false);
    phase
}

/// Build times (ms) of the same build on `Executor::sequential()`: the
/// single-thread baseline, at least three runs within `budget`.
pub fn sequential_build_ms(edge_list: &[u8], budget: Duration) -> Result<Vec<f64>, String> {
    let exec = Executor::sequential();
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || start.elapsed() < budget {
        let mut spans = Spans::default();
        build(edge_list, &exec, &mut spans)?;
        out.push(spans.build_ms());
    }
    Ok(out)
}
