//! The workloads and their seeded inputs. Every graph, update batch and
//! query schedule is a pure function of the seed and is generated
//! before anything is timed; the library only ever sees the generated
//! values.

use std::collections::{BTreeSet, HashMap};

use hcd::datasets::{barabasi_albert, rmat};
use hcd::dynamic::EdgeUpdate;
use hcd::graph::{io::write_edge_list, CsrGraph, GraphBuilder, VertexId};
use hcd::serve::Query;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Updates per write batch.
const BATCH_SIZE: usize = 24;
/// Share of updates that insert (the rest remove).
const INSERT_SHARE: f64 = 0.7;
/// Query levels are drawn from `0..K_LEVELS`.
const K_LEVELS: u32 = 6;
/// Offered rate of the open-loop reader, in queries per second; the
/// reader stays well under half busy at this rate.
const READ_QPS: f64 = 2000.0;
/// Read answers per run checked against a from-scratch build.
const SAMPLED_READS: usize = 24;

/// A seeded synthetic graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphSpec {
    /// `rmat(scale, edge_factor, Graph500 probabilities, seed)`.
    Rmat { scale: u32, edge_factor: usize },
    /// `barabasi_albert(n, m, seed)`.
    Ba { n: usize, m: usize },
}

impl GraphSpec {
    /// The graph for `seed`.
    pub fn generate(self, seed: u64) -> CsrGraph {
        match self {
            GraphSpec::Rmat { scale, edge_factor } => rmat(scale, edge_factor, None, seed),
            GraphSpec::Ba { n, m } => barabasi_albert(n, m, seed),
        }
    }
}

/// One benchmark workload: a build phase on `build_graph`, then a serve
/// phase on `serve_graph`. Each run reports every metric, so each
/// workload runs both paths; `build_share` says which one it stresses.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub build_graph: GraphSpec,
    pub serve_graph: GraphSpec,
    /// Share of `--seconds` given to the build phase.
    pub build_share: f64,
    /// Whether the build phase runs on an assist pool of `nproc` workers
    /// or, like the service's writer, on `Executor::sequential()`. On
    /// BA(20 000, 4) each search call lasts 1–3 ms, so on a pool its time
    /// is mostly waking the parked worker, which a shared host made
    /// vary twofold between runs.
    pub parallel_build: bool,
    /// Why the workload is in the benchmark (its `BENCHMARK.json` line).
    pub why: &'static str,
}

/// The benchmark's workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "build-lj",
        build_graph: GraphSpec::Rmat {
            scale: 16,
            edge_factor: 9,
        },
        serve_graph: GraphSpec::Ba { n: 20_000, m: 4 },
        build_share: 0.6,
        parallel_build: true,
        why: "LJ stand-in rmat(16,9): a deep power-law hierarchy, so parse, PKC, PHCD and \
              triangle counting dominate; a shorter BA(20000,4) serve phase follows",
    },
    Workload {
        name: "serve-random",
        build_graph: GraphSpec::Ba { n: 20_000, m: 4 },
        serve_graph: GraphSpec::Ba { n: 20_000, m: 4 },
        build_share: 0.25,
        parallel_build: false,
        why: "BA(20000,4) with random 24-edge batches: coreness changes cascade, so dynamic \
              maintenance and repair carry the write cost, and uniform reads miss the cache",
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One query of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled {
    /// When the query is due, in nanoseconds after the serve phase starts.
    pub due_ns: u64,
    pub query: Query,
}

/// Everything one run feeds the library.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The build graph as text edge-list bytes (parsed on every build).
    pub edge_list: Vec<u8>,
    /// The graph the service starts from.
    pub serve_graph: CsrGraph,
    /// Write batches, in order; more than a run can apply.
    pub batches: Vec<Vec<EdgeUpdate>>,
    /// The reader's schedule, covering the serve phase.
    pub schedule: Vec<Scheduled>,
    /// Ascending indices into `schedule` of the answers to verify.
    pub sampled: Vec<usize>,
}

impl Inputs {
    /// The inputs of `w` for `seed`, with a reader schedule covering
    /// `serve_secs` seconds and `max_batches` write batches.
    pub fn generate(w: &Workload, seed: u64, serve_secs: f64, max_batches: usize) -> Inputs {
        let serve_graph = w.serve_graph.generate(seed);
        let build_graph = if w.build_graph == w.serve_graph {
            serve_graph.clone()
        } else {
            w.build_graph.generate(seed)
        };
        let mut edge_list = Vec::new();
        write_edge_list(&build_graph, &mut edge_list).expect("writing to a Vec cannot fail");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_ba7c_4e50_0001);
        let batches = random_batches(&serve_graph, max_batches, &mut rng);
        let schedule = schedule(&serve_graph, serve_secs, &mut rng);
        let sampled: BTreeSet<usize> = (0..SAMPLED_READS.min(schedule.len()))
            .map(|_| rng.gen_range(0..schedule.len()))
            .collect();
        Inputs {
            edge_list,
            serve_graph,
            batches,
            schedule,
            sampled: sampled.into_iter().collect(),
        }
    }
}

fn random_batches(g: &CsrGraph, count: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<EdgeUpdate>> {
    let n = g.num_vertices() as VertexId;
    // The live edge set, so removals pick existing edges uniformly.
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let mut index: HashMap<(VertexId, VertexId), usize> =
        edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    (0..count)
        .map(|_| {
            (0..BATCH_SIZE)
                .map(|_| {
                    if edges.is_empty() || rng.gen_bool(INSERT_SHARE) {
                        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                        let key = (u.min(v), u.max(v));
                        if u != v && !index.contains_key(&key) {
                            index.insert(key, edges.len());
                            edges.push(key);
                        }
                        EdgeUpdate::Insert(u, v)
                    } else {
                        let i = rng.gen_range(0..edges.len());
                        let (u, v) = edges.swap_remove(i);
                        index.remove(&(u, v));
                        if let Some(&moved) = edges.get(i) {
                            index.insert(moved, i);
                        }
                        EdgeUpdate::Remove(u, v)
                    }
                })
                .collect()
        })
        .collect()
}

/// Every query type gets a quarter of the traffic, with uniform vertices
/// and levels.
fn schedule(g: &CsrGraph, secs: f64, rng: &mut ChaCha8Rng) -> Vec<Scheduled> {
    let n = g.num_vertices() as VertexId;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Poisson arrivals: independent users make an open loop.
        t += -(1.0 - rng.gen::<f64>()).ln() / READ_QPS;
        if t >= secs {
            return out;
        }
        let k = rng.gen_range(0..K_LEVELS);
        let v = rng.gen_range(0..n);
        let query = match rng.gen_range(0..4u32) {
            0 => Query::CoreContaining(v, k),
            1 => Query::HierarchyPosition(v),
            2 => Query::InKCore(v, k),
            _ => Query::SameKCore(v, rng.gen_range(0..n), k),
        };
        out.push(Scheduled {
            due_ns: (t * 1e9) as u64,
            query,
        });
    }
}

/// The graph after applying `batches` to `initial`, computed on a plain
/// edge set independent of the library's dynamic graph: the oracle the
/// final published snapshot is checked against.
pub fn mirror_graph(initial: &CsrGraph, batches: &[Vec<EdgeUpdate>]) -> CsrGraph {
    let mut n = initial.num_vertices();
    let mut edges: BTreeSet<(VertexId, VertexId)> = initial.edges().collect();
    for update in batches.iter().flatten() {
        match *update {
            EdgeUpdate::Insert(u, v) if u != v => {
                n = n.max(u.max(v) as usize + 1);
                edges.insert((u.min(v), u.max(v)));
            }
            EdgeUpdate::Insert(..) => {}
            EdgeUpdate::Remove(u, v) => {
                edges.remove(&(u.min(v), u.max(v)));
            }
        }
    }
    GraphBuilder::new().min_vertices(n).edges(edges).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd::dynamic::DynamicGraph;

    fn tiny() -> Workload {
        Workload {
            name: "tiny",
            build_graph: GraphSpec::Rmat {
                scale: 8,
                edge_factor: 4,
            },
            serve_graph: GraphSpec::Ba { n: 300, m: 3 },
            build_share: 0.5,
            parallel_build: true,
            why: "tiny",
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = tiny();
        let a = Inputs::generate(&w, 7, 0.5, 40);
        let b = Inputs::generate(&w, 7, 0.5, 40);
        assert_eq!(a.edge_list, b.edge_list);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.sampled, b.sampled);
        let c = Inputs::generate(&w, 8, 0.5, 40);
        assert_ne!(a.edge_list, c.edge_list);
        assert_ne!(a.batches, c.batches);
        assert_ne!(a.schedule, c.schedule);
    }

    #[test]
    fn build_lj_default_seed_is_the_livejournal_stand_in() {
        let g = workload("build-lj").unwrap().build_graph.generate(0x17);
        assert_eq!((g.num_vertices(), g.num_edges()), (65_536, 533_671));
    }

    #[test]
    fn mirror_matches_the_dynamic_graph() {
        let inputs = Inputs::generate(&tiny(), 3, 0.1, 30);
        let mut dg = DynamicGraph::from_csr(&inputs.serve_graph);
        for u in inputs.batches.iter().flatten() {
            match *u {
                EdgeUpdate::Insert(a, b) => dg.insert_edge(a, b),
                EdgeUpdate::Remove(a, b) => dg.remove_edge(a, b),
            };
        }
        assert_eq!(
            mirror_graph(&inputs.serve_graph, &inputs.batches),
            dg.to_csr()
        );
    }
}
