//! The triangle and triplet kernel shared by PBKS (per tree node) and
//! best-k (per coreness level): paper Algorithm 5 with a κ-oriented
//! triangle pass.
//!
//! Every edge is oriented once from its κ-smaller endpoint, where
//! `κ(x) = (coreness(x), degree(x), x)`, and each triangle is then
//! enumerated exactly once, at its κ-minimum corner. That corner has the
//! triangle's minimum coreness `c`, as does the lowest-rank corner the
//! paper credits; if the two differ they are adjacent vertices of
//! coreness `c`, hence in the same connected `c`-core and the same HCD
//! node. Crediting the κ-minimum corner's bucket therefore gives the
//! paper's attribution exactly, for tree nodes and levels alike.
//!
//! The pass does `Σ_v Σ_{u ∈ N⁺(v)} |N⁺(u)| = O(m^1.5)` work: at most
//! `c(v)` neighbours of `v` have a larger coreness (one more would put
//! `v` in a deeper core), and at most `√(2m)` have a degree `≥ d(v)`, so
//! `|N⁺(v)| ≤ c(v) + √(2m) ≤ 2√(2m)`.

use std::sync::atomic::{AtomicU64, Ordering};

use hcd_graph::VertexId;
use hcd_par::{Executor, ParError, CHECKPOINT_STRIDE};

use crate::preprocess::SearchContext;

/// Region and counter names of one caller of [`try_count_motifs`].
pub(crate) struct MotifNames {
    /// The orientation + triplet scan.
    pub orient: &'static str,
    /// The forward triangle pass.
    pub triangles: &'static str,
    /// Counter of `N⁺` entries scanned by the triangle pass.
    pub probes: &'static str,
}

/// Per-bucket triangle and triplet counts.
pub(crate) struct MotifCounts {
    pub triangles: Vec<u64>,
    pub triplets: Vec<u64>,
}

/// Counts triangles and triplets, crediting each to `bucket[x]` of the
/// vertex `x` that Algorithm 5 attributes it to.
///
/// `bucket` must be constant on every connected set of equal-coreness
/// vertices (HCD `tid` and coreness both are); `num_buckets` bounds its
/// values.
///
/// * `names.orient` — one `O(m)` scan writing `N⁺(v)`, the neighbours
///   `u` with `κ(v) < κ(u)`, into `v`'s `gt(v) + eq(v)` slots of one
///   buffer, and bucketing the triplets centred at `v` per coreness
///   level.
/// * `names.triangles` — for each `v`, mark `N⁺(v)` and count the marked
///   vertices of `N⁺(u)` for every `u ∈ N⁺(v)`; one atomic add per
///   vertex. Work is `Σ_v Σ_{u ∈ N⁺(v)} |N⁺(u)|`, reported as
///   `names.probes`, and the pass polls the executor's checkpoint every
///   [`CHECKPOINT_STRIDE`] probes.
pub(crate) fn try_count_motifs(
    ctx: &SearchContext<'_>,
    exec: &Executor,
    names: &MotifNames,
    bucket: &[u32],
    num_buckets: usize,
) -> Result<MotifCounts, ParError> {
    let g = ctx.g;
    let n = g.num_vertices();
    let kmax = ctx.cores.kmax() as usize;
    let coreness = ctx.cores.as_slice();
    // Relaxed: each tally publishes nothing but itself, and is read only
    // after the regions have joined.
    let ta: Vec<AtomicU64> = (0..num_buckets).map(|_| AtomicU64::new(0)).collect();
    let tp: Vec<AtomicU64> = (0..num_buckets).map(|_| AtomicU64::new(0)).collect();

    // N⁺(v) holds only neighbours of coreness >= c(v), so v needs at most
    // gt(v) + eq(v) slots. Their prefix places each list and doubles as
    // the chunk weight of both regions: triangle work grows with
    // |N⁺(v)|, which is skewed towards hubs, so equal-count chunks would
    // not balance.
    let mut slot = Vec::with_capacity(n + 1);
    slot.push(0u64);
    for v in 0..n as VertexId {
        slot.push(slot[v as usize] + u64::from(ctx.gt(v) + ctx.eq(v)));
    }

    struct SendPtr(*mut VertexId);
    // SAFETY: the pointer is only dereferenced at per-vertex slots, each
    // owned by the one chunk that holds the vertex, while the buffer it
    // points into outlives the region.
    unsafe impl Send for SendPtr {}
    // SAFETY: as for Send; no two chunks touch the same slot.
    unsafe impl Sync for SendPtr {}
    let mut plus = vec![0 as VertexId; slot[n] as usize];
    let mut plus_len = vec![0 as VertexId; n];
    let plus_ptr = SendPtr(plus.as_mut_ptr());
    let len_ptr = SendPtr(plus_len.as_mut_ptr());

    struct Triplets {
        /// Count of N(v) ∩ H_k.
        counts: Vec<u32>,
        /// One representative of N(v) ∩ H_k.
        reps: Vec<VertexId>,
    }
    exec.region(names.orient).try_for_each_chunk_weighted(
        &slot,
        || Triplets {
            counts: vec![0; kmax + 1],
            reps: vec![0; kmax + 1],
        },
        |_, scratch, range| {
            let _ = (&plus_ptr, &len_ptr);
            let mut since = 0usize;
            for v in range {
                let dv = g.degree(v as VertexId);
                since += dv + 1;
                if since >= CHECKPOINT_STRIDE {
                    exec.checkpoint()?;
                    since = 0;
                }
                let cv = coreness[v];
                // SAFETY: `slot` is non-decreasing and ends at
                // `plus.len()`, so v's window lies inside the buffer, and
                // the windows of distinct vertices are disjoint. Writes
                // into it are bounds-checked.
                let window = unsafe {
                    std::slice::from_raw_parts_mut(
                        plus_ptr.0.add(slot[v] as usize),
                        (slot[v + 1] - slot[v]) as usize,
                    )
                };
                let mut len = 0usize;
                for &u in g.neighbors(v as VertexId) {
                    let cu = coreness[u as usize];
                    if cu < cv {
                        scratch.counts[cu as usize] += 1;
                        scratch.reps[cu as usize] = u;
                    } else if cu > cv || (g.degree(u), u as usize) > (dv, v) {
                        window[len] = u;
                        len += 1;
                    }
                }
                // SAFETY: v < n = plus_len.len(), and v is this chunk's.
                unsafe { *len_ptr.0.add(v) = len as VertexId };

                // Triplets centred at v (Algorithm 5, lines 8–15): the
                // pairs among neighbours of coreness >= k appear at level
                // k, in the bucket of any such neighbour of coreness k.
                let v = v as VertexId;
                let mut gt_k = u64::from(ctx.gt(v) + ctx.eq(v));
                tp[bucket[v as usize] as usize]
                    .fetch_add(gt_k * gt_k.saturating_sub(1) / 2, Ordering::Relaxed);
                for k in (0..cv as usize).rev() {
                    let cnt = u64::from(scratch.counts[k]);
                    if cnt > 0 {
                        let pairs = cnt * (cnt - 1) / 2 + gt_k * cnt;
                        tp[bucket[scratch.reps[k] as usize] as usize]
                            .fetch_add(pairs, Ordering::Relaxed);
                        gt_k += cnt;
                        scratch.counts[k] = 0;
                    }
                }
            }
            Ok(())
        },
    )?;

    let out = |v: VertexId| &plus[slot[v as usize] as usize..][..plus_len[v as usize] as usize];
    let probe_work = AtomicU64::new(0);
    exec.region(names.triangles).try_for_each_chunk_weighted(
        &slot,
        || vec![false; n],
        |_, marks, range| {
            let mut probes = 0u64;
            let mut since = 0usize;
            for v in range {
                let v = v as VertexId;
                let nv = out(v);
                for &u in nv {
                    marks[u as usize] = true;
                }
                let mut hits = 0u64;
                for &u in nv {
                    let nu = out(u);
                    hits += nu.iter().filter(|&&w| marks[w as usize]).count() as u64;
                    probes += nu.len() as u64;
                    since += nu.len() + 1;
                    if since >= CHECKPOINT_STRIDE {
                        exec.checkpoint()?;
                        since = 0;
                    }
                }
                for &u in nv {
                    marks[u as usize] = false;
                }
                if hits > 0 {
                    ta[bucket[v as usize] as usize].fetch_add(hits, Ordering::Relaxed);
                }
            }
            probe_work.fetch_add(probes, Ordering::Relaxed);
            Ok(())
        },
    )?;
    exec.add_counter(names.probes, probe_work.load(Ordering::Relaxed));

    Ok(MotifCounts {
        triangles: ta.into_iter().map(AtomicU64::into_inner).collect(),
        triplets: tp.into_iter().map(AtomicU64::into_inner).collect(),
    })
}
