//! The hierarchy kernel shared by PHCD (Algorithm 2) and PHTD (§VI).
//!
//! Both hierarchies are (r, s)-nucleus forests in the sense of Shi,
//! Dhulipala & Shun: a union-find over elements (vertices for cores,
//! edges for trusses), linked through s-cliques (edges, triangles),
//! built level by level in descending peel value. The kernel runs the
//! four per-level steps of PHCD once, over element *ranks*; the caller
//! supplies the rank order, the level bounds, a per-element work prefix
//! and a [`Links`] callback, which is all that differs between the two.
//!
//! ## Memory ordering
//!
//! Every dependency between chunks crosses a region boundary: all chunks
//! of a region finish before the serial code after it and the next
//! region start, and the executor's join orders their writes before
//! both (the guarantee the plain writes to `pivot_of` rely on too).
//! Within a region the kernel's own atomics need only atomicity: each
//! either picks one winner with a single read-modify-write (the
//! `u_stamp` and `in_kpc` dedup flags, the `tid` pivot claim) or is read
//! only after a later boundary (`tid` ids, `node_parent`). So they are
//! all `Relaxed`. The union-find orders its own accesses (its module
//! docs say how).
//!
//! ## Counting
//!
//! Each chunk of the `kpc`, `union`, `pivots` and `parents` regions
//! tallies its union-find work into a local [`UfCounts`] and folds it
//! into the total once, so counting adds no shared write to the loops
//! and costs the same whether or not metrics are armed.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};

use parking_lot::Mutex;

use hcd_graph::FxHashMap;
use hcd_par::{Executor, ParError, CHECKPOINT_STRIDE};
use hcd_unionfind::{ConcurrentPivotUnionFind, UfCounts};

use crate::index::{TreeNode, NO_NODE};

/// The elements linked to an element at its own level.
///
/// `for_each_link(r, lo, f)` calls `f(ru)` for every rank `ru` that rank
/// `r` connects to once the level starting at rank `lo` is added (its
/// level is `[lo, hi)`; ranks below `lo` are not yet present). Links must
/// be symmetric within a level: if `ru` is in the same level and is
/// linked from `r`, then `r` is linked from `ru`. The kernel relies on
/// that to union each link once, from its lower-rank end.
pub trait Links: Sync {
    /// Calls `f` on the rank of every element linked to rank `r`.
    fn for_each_link(&self, r: u32, lo: u32, f: impl FnMut(u32));
}

/// The region and counter names of one hierarchy.
pub struct Names {
    kpc: &'static str,
    union: &'static str,
    pivots: &'static str,
    assign: &'static str,
    parents: &'static str,
    union_phases: &'static str,
    finds: &'static str,
    find_hops: &'static str,
    unions: &'static str,
    cas_retries: &'static str,
    pivot_merges: &'static str,
}

macro_rules! names {
    ($prefix:literal) => {
        Names {
            kpc: concat!($prefix, ".kpc"),
            union: concat!($prefix, ".union"),
            pivots: concat!($prefix, ".pivots"),
            assign: concat!($prefix, ".assign"),
            parents: concat!($prefix, ".parents"),
            union_phases: concat!($prefix, ".union_phases"),
            finds: concat!($prefix, ".uf.finds"),
            find_hops: concat!($prefix, ".uf.find_hops"),
            unions: concat!($prefix, ".uf.unions"),
            cas_retries: concat!($prefix, ".uf.cas_retries"),
            pivot_merges: concat!($prefix, ".uf.pivot_merges"),
        }
    };
}

/// PHCD's regions (`phcd.kpc`, …) and counters (`phcd.uf.finds`, …).
pub const CORE: Names = names!("phcd");
/// PHTD's regions (`truss.kpc`, …) and counters (`truss.uf.finds`, …).
pub const TRUSS: Names = names!("truss");

/// Builds the forest of a leveled element set.
///
/// * `order` lists element ids in rank order: ascending level, ties by
///   ascending id. The pivot of a component, its minimum rank, is
///   therefore its lowest-level member.
/// * Level `k` holds the ranks `level_start[k]..level_start[k + 1]`.
/// * `work` is a prefix sum (length `order.len() + 1`, in rank order) of
///   each element's link-scan cost; it balances the chunks of the two
///   link-scanning steps and paces their checkpoint polls.
///
/// Returns the tree nodes and the node id of every element id. Node ids
/// are assigned per level (top first) in pivot-rank order and member
/// lists are sorted, so the output is the same in every executor mode.
pub fn try_build_forest<L: Links>(
    order: &[u32],
    level_start: &[usize],
    work: &[u64],
    links: &L,
    names: &Names,
    exec: &Executor,
) -> Result<(Vec<TreeNode>, Vec<u32>), ParError> {
    let n = order.len();
    if n == 0 {
        return Ok((Vec::new(), Vec::new()));
    }
    let uf = ConcurrentPivotUnionFind::new_identity(n);
    let uf_counts = Mutex::new(UfCounts::default());
    let fold = |c: UfCounts| {
        let mut total = uf_counts.lock();
        *total = total.merged(c);
    };
    let tid: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NO_NODE)).collect();
    // Node storage, appended level by level (serially, tiny).
    let mut node_k: Vec<u32> = Vec::new();
    let mut node_members: Vec<Mutex<Vec<u32>>> = Vec::new();
    let mut node_parent: Vec<AtomicU32> = Vec::new();
    let mut node_children: Vec<Mutex<Vec<u32>>> = Vec::new();
    // Dedup flags for kpc_pivot (step 1), cleared in step 4; indexed by rank.
    let in_kpc: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    // Level stamp per higher-level link: step 1 is read-only, so an
    // element reached twice in the same level has the same pivot — the
    // stamp skips the redundant `find`, a large saving around hubs.
    let u_stamp: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();

    let mut union_phases = 0u64;
    for k in (0..level_start.len() - 1).rev() {
        let (lo, hi) = (level_start[k], level_start[k + 1]);
        if lo == hi {
            continue;
        }
        let k = k as u32;
        union_phases += 1;
        let level_len = hi - lo;
        let level_work = &work[lo..=hi];

        // Step 1: pivots of adjacent higher-level components — future
        // children. All quantities are ranks.
        let kpc_parts =
            exec.region(names.kpc)
                .try_map_chunks_weighted(level_work, |_, range| {
                    let mut local = Vec::new();
                    let mut c = UfCounts::default();
                    for i in range {
                        links.for_each_link((lo + i) as u32, lo as u32, |ru| {
                            let ru = ru as usize;
                            // Relaxed: one swap per stamp decides the dedup.
                            if ru >= hi && u_stamp[ru].swap(k, Relaxed) != k {
                                let pvt = uf.get_pivot_counted(ru as u32, &mut c);
                                // Relaxed: the load only skips a doomed swap,
                                // and the swap alone picks the one pusher.
                                if !in_kpc[pvt as usize].load(Relaxed)
                                    && !in_kpc[pvt as usize].swap(true, Relaxed)
                                {
                                    local.push(pvt);
                                }
                            }
                        });
                    }
                    fold(c);
                    Ok(local)
                })?;
        let kpc_pivot: Vec<u32> = kpc_parts.into_iter().flatten().collect();

        // Step 2: connect the level to the existing forest. Links are
        // symmetric, so a link inside the level is unioned once, from its
        // lower-rank end. This is the hot loop, so it polls the
        // cancellation checkpoint at a coarse work stride.
        exec.region(names.union).try_for_each_chunk_weighted(
            level_work,
            || (),
            |_, _, range| {
                let mut since = 0u64;
                let mut c = UfCounts::default();
                for i in range {
                    let r = (lo + i) as u32;
                    links.for_each_link(r, lo as u32, |ru| {
                        if ru > r {
                            uf.union_counted(r, ru, &mut c);
                        }
                    });
                    since += work[lo + i + 1] - work[lo + i];
                    if since >= CHECKPOINT_STRIDE as u64 {
                        exec.checkpoint()?;
                        since = 0;
                    }
                }
                fold(c);
                Ok(())
            },
        )?;

        // Step 3a: resolve each level element's pivot; claim new pivots.
        // The pivot of a fresh component is its min-rank member, always
        // in this level, so `pivot - lo` indexes the level.
        let mut pivot_of: Vec<u32> = vec![0; level_len];
        {
            struct SendPtr(*mut u32);
            // SAFETY: the pointer targets `pivot_of`, which outlives the
            // region, and every slot is written by exactly one chunk.
            unsafe impl Send for SendPtr {}
            // SAFETY: as for `Send`; chunks write disjoint slots.
            unsafe impl Sync for SendPtr {}
            let out = SendPtr(pivot_of.as_mut_ptr());
            let new_parts = exec
                .region(names.pivots)
                .try_map_chunks(level_len, |_, range| {
                    let _ = &out;
                    let mut fresh = Vec::new();
                    let mut c = UfCounts::default();
                    for i in range {
                        let pvt = uf.get_pivot_counted((lo + i) as u32, &mut c);
                        // SAFETY: slot i is written by exactly one worker.
                        unsafe { *out.0.add(i) = pvt };
                        if pivot_claim(&tid, order[pvt as usize]) {
                            fresh.push(pvt);
                        }
                    }
                    fold(c);
                    Ok(fresh)
                })?;
            // Deterministic node ids: sort fresh pivots by rank.
            let mut fresh: Vec<u32> = new_parts.into_iter().flatten().collect();
            fresh.sort_unstable();
            for pvt in fresh {
                let id = node_k.len() as u32;
                node_k.push(k);
                node_members.push(Mutex::new(Vec::new()));
                node_parent.push(AtomicU32::new(NO_NODE));
                node_children.push(Mutex::new(Vec::new()));
                // Relaxed: read only in the regions after this one.
                tid[order[pvt as usize] as usize].store(id, Relaxed);
            }
        }

        // Step 3b: assign tids and fill member lists. Elements are
        // grouped per chunk first so each node's mutex is taken once per
        // (chunk, node) instead of once per element.
        exec.region(names.assign).try_for_each_chunk(
            level_len,
            FxHashMap::<u32, Vec<u32>>::default,
            |_, groups, range| {
                for i in range.clone() {
                    let x = order[lo + i];
                    // Relaxed: the id was stored before this region; the
                    // store below is read only after it.
                    let id = tid[order[pivot_of[i] as usize] as usize].load(Relaxed);
                    debug_assert_ne!(id, NO_NODE);
                    debug_assert_ne!(id, RESERVED);
                    tid[x as usize].store(id, Relaxed);
                    groups.entry(id).or_default().push(x);
                }
                for (id, mut xs) in groups.drain() {
                    node_members[id as usize].lock().append(&mut xs);
                }
                Ok(())
            },
        )?;

        // Step 4: parents of the higher-level nodes recorded in step 1.
        exec.region(names.parents).try_for_each_chunk(
            kpc_pivot.len(),
            || (),
            |_, _, range| {
                let mut c = UfCounts::default();
                for &pr in &kpc_pivot[range] {
                    // Relaxed throughout: the flag is next read in the next
                    // level's step 1, the ids were stored in earlier
                    // regions, and `node_parent` is read after the loop.
                    in_kpc[pr as usize].store(false, Relaxed);
                    let ch = tid[order[pr as usize] as usize].load(Relaxed);
                    let pa_rank = uf.get_pivot_counted(pr, &mut c);
                    let pa = tid[order[pa_rank as usize] as usize].load(Relaxed);
                    debug_assert_ne!(ch, NO_NODE);
                    debug_assert_ne!(pa, NO_NODE);
                    node_parent[ch as usize].store(pa, Relaxed);
                    node_children[pa as usize].lock().push(ch);
                }
                fold(c);
                Ok(())
            },
        )?;
    }

    // Flush algorithm counters (no-ops unless metrics are enabled).
    exec.add_counter(names.union_phases, union_phases);
    let uc = uf_counts.into_inner();
    exec.add_counter(names.finds, uc.finds);
    exec.add_counter(names.find_hops, uc.find_hops);
    exec.add_counter(names.unions, uc.unions);
    exec.add_counter(names.cas_retries, uc.cas_retries);
    exec.add_counter(names.pivot_merges, uc.pivot_merges);

    // Finalize: sorted, deterministic forest.
    let nodes = (0..node_k.len())
        .map(|i| {
            let mut vertices = std::mem::take(&mut *node_members[i].lock());
            vertices.sort_unstable();
            let mut children = std::mem::take(&mut *node_children[i].lock());
            children.sort_unstable();
            TreeNode {
                k: node_k[i],
                vertices,
                parent: node_parent[i].load(Relaxed),
                children,
            }
        })
        .collect();
    let tid = tid.into_iter().map(AtomicU32::into_inner).collect();
    Ok((nodes, tid))
}

/// Placeholder id marking a pivot whose node id is being assigned.
const RESERVED: u32 = u32::MAX - 1;

/// Atomically claims element `pvt` as a fresh node pivot for this level.
/// Exactly one caller per pivot wins; the node id is assigned serially
/// afterwards (the winner leaves `RESERVED` in place, replaced before
/// any step-3b or step-4 read).
fn pivot_claim(tid: &[AtomicU32], pvt: u32) -> bool {
    // Relaxed: the CAS alone picks the winner; the id is stored serially.
    tid[pvt as usize]
        .compare_exchange(NO_NODE, RESERVED, Relaxed, Relaxed)
        .is_ok()
}
