//! Algorithm 2: PHCD — parallel HCD construction.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use parking_lot::Mutex;

use hcd_decomp::CoreDecomposition;
use hcd_graph::{CsrGraph, FxHashMap, VertexId};
use hcd_par::{Executor, ParError, CHECKPOINT_STRIDE};
use hcd_unionfind::{ConcurrentPivotUnionFind, UnionBatch, UnionFindPivot};

use crate::index::{Hcd, TreeNode, NO_NODE};
use crate::rank::VertexRanks;

/// PHCD (paper Algorithm 2): builds the HCD bottom-up by adding k-shells
/// in descending `k`, maintaining connectivity and per-component *pivots*
/// in a concurrent union-find.
///
/// Per level `k` the four steps of the paper run as parallel regions over
/// the k-shell, separated by barriers:
///
/// 1. record the pivots of the existing k'-core components (`k' > k`)
///    adjacent to the shell — these are the tree nodes that will need a
///    parent at this level;
/// 2. union every shell vertex with its neighbors of coreness `>= k`;
/// 3. group shell vertices into new tree nodes by their component pivot
///    (the pivot of a freshly formed k-core is always in the k-shell,
///    so it uniquely names the new node);
/// 4. for every pivot recorded in step 1, its node's parent is the node
///    of its component's *current* pivot.
///
/// Work is `O(m·α(n))` union-find operations plus `O(n)` bookkeeping —
/// near-linear. Runs under any [`Executor`] mode;
/// `Executor::sequential()` is the serial PHCD variant the paper
/// compares against LCPS in Table III.
///
/// Output is deterministic across modes: node ids are assigned per level
/// in pivot-rank order and vertex lists are sorted at the end.
pub fn phcd(g: &CsrGraph, cores: &CoreDecomposition, exec: &Executor) -> Hcd {
    match try_phcd(g, cores, exec) {
        Ok(hcd) => hcd,
        Err(e) => e.raise(),
    }
}

/// Fallible version of [`phcd`]: returns `Err` if any region panics, is
/// cancelled, or exceeds the executor's deadline. On `Err` no partial
/// index escapes and the executor stays usable (see `hcd_par` failure
/// model).
pub fn try_phcd(g: &CsrGraph, cores: &CoreDecomposition, exec: &Executor) -> Result<Hcd, ParError> {
    let ranks = VertexRanks::try_compute(cores, exec)?;
    try_phcd_with_ranks(g, cores, &ranks, exec)
}

/// PHCD with a precomputed rank order (lets benchmarks separate the
/// Algorithm 1 cost).
pub fn phcd_with_ranks(
    g: &CsrGraph,
    cores: &CoreDecomposition,
    ranks: &VertexRanks,
    exec: &Executor,
) -> Hcd {
    match try_phcd_with_ranks(g, cores, ranks, exec) {
        Ok(hcd) => hcd,
        Err(e) => e.raise(),
    }
}

/// Fallible version of [`phcd_with_ranks`].
pub fn try_phcd_with_ranks(
    g: &CsrGraph,
    cores: &CoreDecomposition,
    ranks: &VertexRanks,
    exec: &Executor,
) -> Result<Hcd, ParError> {
    let n = g.num_vertices();
    if n == 0 {
        return Ok(Hcd::from_parts(Vec::new(), Vec::new()));
    }
    let kmax = cores.kmax();

    // The union-find runs in *rank space*: element r is the vertex
    // vsort[r], so pivot keys are the identity (Definition 4's vertex
    // rank), shell elements are contiguous, and a single rank comparison
    // replaces the coreness filter (coreness(u) > k  <=>  rank(u) >= the
    // shell's upper bound).
    let rank = ranks.ranks();
    let vsort = ranks.vsort();
    // Union-find operation counts only when someone is looking (metrics
    // or an armed trace); disabled stats cost one branch per operation.
    let observed = exec.metrics_enabled() || exec.trace_armed();
    let uf = if observed {
        ConcurrentPivotUnionFind::new_identity(n).with_stats()
    } else {
        ConcurrentPivotUnionFind::new_identity(n)
    };
    let tid: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NO_NODE)).collect();
    // Node storage, appended level by level (serially, tiny).
    let mut node_k: Vec<u32> = Vec::new();
    let mut node_vertices: Vec<Mutex<Vec<VertexId>>> = Vec::new();
    let mut node_parent: Vec<AtomicU32> = Vec::new();
    let mut node_children: Vec<Mutex<Vec<u32>>> = Vec::new();
    // Dedup flags for kpc_pivot (step 1), cleared in step 4; indexed by rank.
    let in_kpc: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    // Level stamp per higher-coreness neighbor: step 1 is read-only, so a
    // vertex u reached twice in the same level has the same pivot — the
    // stamp skips the redundant `find`, a large saving around hubs.
    let u_stamp: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    // Degree prefix in rank order: shells are contiguous in vsort, so a
    // window of this array drives weight-balanced chunking of the
    // adjacency-scanning steps (hubs would otherwise pile into one chunk).
    let deg_prefix: Vec<u64> = {
        let mut p = Vec::with_capacity(n + 1);
        p.push(0u64);
        for &v in vsort {
            p.push(p.last().unwrap() + g.degree(v) as u64);
        }
        p
    };

    let mut union_phases = 0u64;
    // Batching traffic across all levels; each worker flushes its private
    // batch at chunk end, so these are exact once the region joins.
    let batch_staged = AtomicU64::new(0);
    let batch_flushed = AtomicU64::new(0);
    for k in (0..=kmax).rev() {
        let (lo, hi) = ranks.shell_bounds(k);
        if lo == hi {
            continue;
        }
        union_phases += 1;
        let shell_len = hi - lo;
        let shell_weights = &deg_prefix[lo..=hi];

        // Step 1: pivots of adjacent k'-cores (k' > k) — future children.
        // All quantities are ranks.
        let kpc_parts =
            exec.region("phcd.kpc")
                .try_map_chunks_weighted(shell_weights, |_, range| {
                    let mut local = Vec::new();
                    for i in range {
                        let v = vsort[lo + i];
                        for &u in g.neighbors(v) {
                            let ru = rank[u as usize] as usize;
                            if ru >= hi && u_stamp[ru].swap(k, Ordering::AcqRel) != k {
                                let pvt = uf.get_pivot(ru as u32);
                                if !in_kpc[pvt as usize].load(Ordering::Acquire)
                                    && !in_kpc[pvt as usize].swap(true, Ordering::AcqRel)
                                {
                                    local.push(pvt);
                                }
                            }
                        }
                    }
                    Ok(local)
                })?;
        let kpc_pivot: Vec<u32> = kpc_parts.into_iter().flatten().collect();

        // Step 2: connect the shell to the existing graph. Equal-coreness
        // edges appear in both endpoints' lists; process them once (from
        // the lower-rank side). Each worker stages its edges in a private
        // [`UnionBatch`] that locally coalesces redundant edges, so the
        // shared structure sees only spanning edges — far fewer finds,
        // link CASes, and pivot merges around hubs. Scratch is created
        // per chunk, so the batch is always flushed (and its counts
        // folded) before the chunk ends and the region barrier is
        // reached. This is the hot adjacency loop, so it polls the
        // cancellation checkpoint at a coarse edge stride.
        exec.region("phcd.union").try_for_each_chunk_weighted(
            shell_weights,
            UnionBatch::new,
            |_, batch, range| {
                let mut since = 0usize;
                for i in range {
                    let rv = (lo + i) as u32;
                    let v = vsort[lo + i];
                    for &u in g.neighbors(v) {
                        let ru = rank[u as usize];
                        if ru > rv {
                            batch.stage(&uf, rv, ru);
                        }
                    }
                    since += g.degree(v);
                    if since >= CHECKPOINT_STRIDE {
                        exec.checkpoint()?;
                        since = 0;
                    }
                }
                batch.flush(&uf);
                let s = batch.stats();
                batch_staged.fetch_add(s.staged, Ordering::Relaxed);
                batch_flushed.fetch_add(s.flushed, Ordering::Relaxed);
                Ok(())
            },
        )?;

        // Step 3a: resolve each shell vertex's pivot; claim new pivots.
        // The pivot of a fresh k-core is the min-rank member, always in
        // this shell, so `pivot - lo` indexes the shell.
        let mut pivot_of: Vec<u32> = vec![0; shell_len];
        {
            struct SendPtr(*mut u32);
            unsafe impl Send for SendPtr {}
            unsafe impl Sync for SendPtr {}
            let out = SendPtr(pivot_of.as_mut_ptr());
            let new_parts = exec
                .region("phcd.pivots")
                .try_map_chunks(shell_len, |_, range| {
                    let _ = &out;
                    let mut fresh = Vec::new();
                    for i in range {
                        let pvt = uf.get_pivot((lo + i) as u32);
                        // SAFETY: slot i is written by exactly one worker.
                        unsafe { *out.0.add(i) = pvt };
                        let pvt_vertex = vsort[pvt as usize];
                        if pivot_claim(&tid, pvt_vertex) {
                            fresh.push(pvt);
                        }
                    }
                    Ok(fresh)
                })?;
            // Deterministic node ids: sort fresh pivots by rank (they are
            // ranks already).
            let mut fresh: Vec<u32> = new_parts.into_iter().flatten().collect();
            fresh.sort_unstable();
            for pvt in fresh {
                let id = node_k.len() as u32;
                node_k.push(k);
                node_vertices.push(Mutex::new(Vec::new()));
                node_parent.push(AtomicU32::new(NO_NODE));
                node_children.push(Mutex::new(Vec::new()));
                tid[vsort[pvt as usize] as usize].store(id, Ordering::Release);
            }
        }

        // Step 3b: assign tids and fill vertex lists. Vertices are
        // grouped per chunk first so each node's mutex is taken once per
        // (chunk, node) instead of once per vertex.
        exec.region("phcd.assign").try_for_each_chunk(
            shell_len,
            FxHashMap::<u32, Vec<VertexId>>::default,
            |_, groups, range| {
                for i in range.clone() {
                    let v = vsort[lo + i];
                    let pvt_vertex = vsort[pivot_of[i] as usize];
                    let id = tid[pvt_vertex as usize].load(Ordering::Acquire);
                    debug_assert_ne!(id, NO_NODE);
                    debug_assert_ne!(id, RESERVED);
                    tid[v as usize].store(id, Ordering::Release);
                    groups.entry(id).or_default().push(v);
                }
                for (id, mut vs) in groups.drain() {
                    node_vertices[id as usize].lock().append(&mut vs);
                }
                Ok(())
            },
        )?;

        // Step 4: parents of the k'-core nodes recorded in step 1.
        exec.region("phcd.parents").try_for_each_chunk(
            kpc_pivot.len(),
            || (),
            |_, _, range| {
                for &pr in &kpc_pivot[range] {
                    in_kpc[pr as usize].store(false, Ordering::Relaxed);
                    let ch = tid[vsort[pr as usize] as usize].load(Ordering::Acquire);
                    let pa_rank = uf.get_pivot(pr);
                    let pa = tid[vsort[pa_rank as usize] as usize].load(Ordering::Acquire);
                    debug_assert_ne!(ch, NO_NODE);
                    debug_assert_ne!(pa, NO_NODE);
                    node_parent[ch as usize].store(pa, Ordering::Release);
                    node_children[pa as usize].lock().push(ch);
                }
                Ok(())
            },
        )?;
    }

    // Flush algorithm counters (no-ops unless metrics are enabled).
    exec.add_counter("phcd.union_phases", union_phases);
    let uc = uf.counts();
    exec.add_counter("phcd.uf.finds", uc.finds);
    exec.add_counter("phcd.uf.find_hops", uc.find_hops);
    exec.add_counter("phcd.uf.unions", uc.unions);
    exec.add_counter("phcd.uf.cas_retries", uc.cas_retries);
    exec.add_counter("phcd.uf.pivot_merges", uc.pivot_merges);
    exec.add_counter("phcd.uf.batch_staged", batch_staged.into_inner());
    exec.add_counter("phcd.uf.batch_flushed", batch_flushed.into_inner());

    // Finalize: sorted, deterministic index.
    let num_nodes = node_k.len();
    let mut nodes: Vec<TreeNode> = Vec::with_capacity(num_nodes);
    for i in 0..num_nodes {
        let mut vertices = std::mem::take(&mut *node_vertices[i].lock());
        vertices.sort_unstable();
        let mut children = std::mem::take(&mut *node_children[i].lock());
        children.sort_unstable();
        nodes.push(TreeNode {
            k: node_k[i],
            vertices,
            parent: node_parent[i].load(Ordering::Acquire),
            children,
        });
    }
    let tid: Vec<u32> = tid.into_iter().map(AtomicU32::into_inner).collect();
    Ok(Hcd::from_parts(nodes, tid))
}

/// Placeholder id marking a pivot whose node id is being assigned.
const RESERVED: u32 = u32::MAX - 1;

/// Atomically claims `pvt` as a fresh node pivot for this level. Exactly
/// one caller per pivot wins; the node id is assigned serially afterwards
/// (the winner leaves `RESERVED` in place, replaced before any step-3b or
/// step-4 read).
fn pivot_claim(tid: &[AtomicU32], pvt: VertexId) -> bool {
    tid[pvt as usize]
        .compare_exchange(NO_NODE, RESERVED, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::naive_hcd;
    use hcd_decomp::core_decomposition;
    use hcd_graph::GraphBuilder;

    fn check_all_modes(g: &CsrGraph) {
        let cores = core_decomposition(g);
        let truth = naive_hcd(g, &cores).canonicalize();
        for exec in [
            Executor::sequential(),
            Executor::assist(4),
            Executor::simulated(3),
        ] {
            let hcd = phcd(g, &cores, &exec);
            assert_eq!(
                hcd.canonicalize(),
                truth,
                "PHCD mismatch in mode {}",
                exec.mode_name()
            );
        }
    }

    #[test]
    fn figure1_graph_matches_oracle() {
        check_all_modes(&crate::testutil::figure1_graph());
    }

    #[test]
    fn small_structures() {
        // Triangle + tail + isolated.
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .min_vertices(6)
            .build();
        check_all_modes(&g);
    }

    #[test]
    fn nested_clique_chain() {
        let mut b = GraphBuilder::new();
        for u in 0..7u32 {
            for v in (u + 1)..7 {
                b = b.edge(u, v);
            }
        }
        // Pendant chain off the clique.
        let g = b.edges([(0, 7), (7, 8), (8, 9)]).build();
        check_all_modes(&g);
    }

    #[test]
    fn two_components_with_shared_levels() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0)]) // triangle A
            .edges([(10, 11), (11, 12), (12, 10)]) // triangle B
            .edges([(0, 3), (10, 13)]) // pendants
            .build();
        check_all_modes(&g);
    }

    #[test]
    fn star_of_triangles() {
        // Low-coreness hub with several 2-core satellites — exercises
        // sibling creation and parent detection at the same level.
        let mut b = GraphBuilder::new();
        for t in 0..5u32 {
            let base = 1 + t * 3;
            b = b
                .edge(base, base + 1)
                .edge(base + 1, base + 2)
                .edge(base + 2, base)
                .edge(0, base);
        }
        check_all_modes(&b.build());
    }

    #[test]
    fn deterministic_across_modes_and_runs() {
        let g = crate::testutil::figure1_graph();
        let cores = core_decomposition(&g);
        let a = phcd(&g, &cores, &Executor::sequential());
        for _ in 0..5 {
            let b = phcd(&g, &cores, &Executor::assist(4));
            // Not just canonically equal: byte-for-byte identical index.
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.tids(), b.tids());
        }
    }

    #[test]
    fn validates_against_full_checker() {
        let g = crate::testutil::figure1_graph();
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::assist(3));
        hcd.validate(&g, &cores).unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let cores = core_decomposition(&g);
        let hcd = phcd(&g, &cores, &Executor::sequential());
        assert_eq!(hcd.num_nodes(), 0);
    }
}
