//! Lock-free concurrent union-find with pivot.
//!
//! ## Linking protocol
//!
//! Each element packs `(rank, parent)` into one `AtomicU64`. `find` uses
//! path halving with CAS (failed compressions are harmless). `union` links
//! the lower-rank root under the higher-rank root with a CAS on the
//! loser's packed word; on a rank tie the loser is the root with the
//! larger id, and the winner's rank is bumped with a best-effort CAS.
//! This is the classic Anderson–Woll wait-free scheme: total work
//! `O(n√p + m·α(n) + F)` with `F` failed CASes.
//!
//! ## Pivot protocol
//!
//! The pivot (minimum member) of a component is stored at its root.
//! After a successful link of `loser` under `winner`, the linking thread
//! *min-merges* the loser's pivot into the winner: a CAS loop that
//! replaces the winner's pivot whenever the candidate is smaller.
//!
//! The subtle race: a min-merge can land on a root *after* that root has
//! itself been linked under another root, whose linker already read the
//! (then-stale) pivot. The fix, after every merge attempt, is to re-check
//! that the target is still a root; if not, re-find the current root and
//! repeat the merge there. Because parents only ever change from
//! self-pointing to other-pointing (roots never become roots again), this
//! loop terminates, and at quiescence every root's pivot is exactly the
//! minimum member of its component — which is when PHCD reads pivots
//! (its union phase and pivot-read phases are separated by barriers).
//!
//! ## Memory ordering
//!
//! Every atomic access here is `SeqCst`. The pivot protocol is a
//! store-buffering pattern: a linker CASes the loser's entry and then
//! loads the loser's pivot, while a merger CASes that pivot and then
//! loads the entry to see whether it is still a root. Release/acquire
//! lets both loads miss the other thread's write, which would lose the
//! merged candidate; a single total order rules that out. On x86 a
//! `SeqCst` load is a plain load and every CAS is already a locked
//! instruction: the hierarchy kernel compiles to the same instructions
//! as with release/acquire.
//!
//! ## Counting
//!
//! [`find_counted`](ConcurrentPivotUnionFind::find_counted),
//! [`union_counted`](ConcurrentPivotUnionFind::union_counted) and
//! [`get_pivot_counted`](ConcurrentPivotUnionFind::get_pivot_counted)
//! tally into a caller-owned [`UfCounts`]: plain integers, no shared
//! counter, so a parallel caller keeps one per chunk and folds it once.
//! The [`UnionFindPivot`] methods pass a throwaway tally.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::SeqCst};

use crate::{UfCounts, UnionFindPivot};

const PARENT_MASK: u64 = 0xFFFF_FFFF;

#[inline]
fn pack(rank: u32, parent: u32) -> u64 {
    ((rank as u64) << 32) | parent as u64
}

#[inline]
fn parent_of(word: u64) -> u32 {
    (word & PARENT_MASK) as u32
}

#[inline]
fn rank_of(word: u64) -> u32 {
    (word >> 32) as u32
}

/// Lock-free union-find with per-root pivot, shareable across threads.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use hcd_unionfind::{ConcurrentPivotUnionFind, UnionFindPivot};
///
/// let uf = Arc::new(ConcurrentPivotUnionFind::new_identity(100));
/// let handles: Vec<_> = (0..4)
///     .map(|t| {
///         let uf = Arc::clone(&uf);
///         std::thread::spawn(move || {
///             for i in (t..99).step_by(4) {
///                 uf.union(i as u32, i as u32 + 1);
///             }
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert!(uf.same_set(0, 99));
/// assert_eq!(uf.get_pivot(42), 0);
/// ```
pub struct ConcurrentPivotUnionFind {
    entry: Vec<AtomicU64>,
    pivot: Vec<AtomicU32>,
}

impl ConcurrentPivotUnionFind {
    /// `n` singleton components; each is its own pivot.
    pub fn new_identity(n: usize) -> Self {
        ConcurrentPivotUnionFind {
            entry: (0..n as u32).map(|i| AtomicU64::new(pack(0, i))).collect(),
            pivot: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Number of distinct components (quiescent snapshot).
    pub fn num_components(&self) -> usize {
        (0..self.len())
            .filter(|&x| parent_of(self.entry[x].load(SeqCst)) == x as u32)
            .count()
    }

    /// Checks structural invariants at quiescence (no concurrent
    /// mutators): every parent chain reaches a root within `len()` steps
    /// (no cycles), and every root's pivot is a member of its own
    /// component with the minimum id. Used by fault-injection tests to
    /// prove that a panicked or cancelled parallel union phase leaves no
    /// poisoned state behind.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        let parent = |x: usize| parent_of(self.entry[x].load(SeqCst)) as usize;
        let mut root_of = vec![usize::MAX; n];
        for (x, slot) in root_of.iter_mut().enumerate() {
            let mut cur = x;
            let mut steps = 0usize;
            while parent(cur) != cur {
                cur = parent(cur);
                steps += 1;
                if steps > n {
                    return Err(format!("parent chain from {x} does not terminate (cycle)"));
                }
            }
            *slot = cur;
        }
        // Minimum member per component, computed from scratch.
        let mut min_member = vec![usize::MAX; n];
        for (x, &r) in root_of.iter().enumerate() {
            min_member[r] = min_member[r].min(x);
        }
        for r in 0..n {
            if root_of[r] != r {
                continue;
            }
            let pv = self.pivot[r].load(SeqCst) as usize;
            if pv >= n {
                return Err(format!("root {r} has out-of-range pivot {pv}"));
            }
            if root_of[pv] != r {
                return Err(format!("root {r} pivot {pv} is not in its component"));
            }
            if pv != min_member[r] {
                return Err(format!(
                    "root {r} pivot {pv} is not the minimum member {} of its component",
                    min_member[r]
                ));
            }
        }
        Ok(())
    }

    /// [`UnionFindPivot::find`], tallying one find and its hops into `c`.
    #[inline]
    pub fn find_counted(&self, mut x: u32, c: &mut UfCounts) -> u32 {
        // Tallies stay in locals until the call returns: `c` lives behind a
        // pointer, and an increment through it on every hop is a memory
        // read-modify-write in the hottest loop.
        let mut hops = 0;
        loop {
            let e = self.entry[x as usize].load(SeqCst);
            let p = parent_of(e);
            if p == x {
                c.finds += 1;
                c.find_hops += hops;
                return x;
            }
            hops += 1;
            let gp = parent_of(self.entry[p as usize].load(SeqCst));
            if gp != p {
                // Path halving: x -> grandparent. Failure is benign.
                let _ = self.entry[x as usize].compare_exchange(
                    e,
                    pack(rank_of(e), gp),
                    SeqCst,
                    SeqCst,
                );
            }
            x = p;
        }
    }

    /// [`UnionFindPivot::union`], tallying its finds, link retries, pivot
    /// merges and (when it returns `true`) one union into `c`.
    #[inline]
    pub fn union_counted(&self, x: u32, y: u32, c: &mut UfCounts) -> bool {
        loop {
            let rx = self.find_counted(x, c);
            let ry = self.find_counted(y, c);
            if rx == ry {
                return false;
            }
            let ex = self.entry[rx as usize].load(SeqCst);
            let ey = self.entry[ry as usize].load(SeqCst);
            // Re-validate rootness (entries may have changed since find).
            if parent_of(ex) != rx || parent_of(ey) != ry {
                c.cas_retries += 1;
                continue;
            }
            let (kx, ky) = (rank_of(ex), rank_of(ey));
            // Loser: lower rank, ties broken toward the larger id.
            let (winner, loser, eloser, tie) = if kx < ky || (kx == ky && rx > ry) {
                (ry, rx, ex, kx == ky)
            } else {
                (rx, ry, ey, kx == ky)
            };
            if self.entry[loser as usize]
                .compare_exchange(eloser, pack(rank_of(eloser), winner), SeqCst, SeqCst)
                .is_err()
            {
                c.cas_retries += 1;
                continue;
            }
            if tie {
                // Best-effort rank bump; failure means winner changed or
                // was bumped concurrently, both fine for balance.
                let ew = pack(rank_of(eloser), winner);
                let _ = self.entry[winner as usize].compare_exchange(
                    ew,
                    pack(rank_of(eloser) + 1, winner),
                    SeqCst,
                    SeqCst,
                );
            }
            let pl = self.pivot[loser as usize].load(SeqCst);
            self.merge_pivot(winner, pl, c);
            c.unions += 1;
            return true;
        }
    }

    /// [`UnionFindPivot::get_pivot`], tallying its find into `c`.
    #[inline]
    pub fn get_pivot_counted(&self, x: u32, c: &mut UfCounts) -> u32 {
        let r = self.find_counted(x, c);
        self.pivot[r as usize].load(SeqCst)
    }

    /// Min-merges candidate pivot `pv` into the component currently
    /// containing `root`, chasing root changes until the write sticks on a
    /// live root. Retries (failed pivot CAS) and chases (root relinked
    /// under a new root mid-merge) both count as `pivot_merges`: they
    /// measure pivot-protocol contention.
    #[inline]
    fn merge_pivot(&self, mut root: u32, pv: u32, c: &mut UfCounts) {
        loop {
            let cur = self.pivot[root as usize].load(SeqCst);
            if pv < cur
                && self.pivot[root as usize]
                    .compare_exchange(cur, pv, SeqCst, SeqCst)
                    .is_err()
            {
                c.pivot_merges += 1;
                continue; // someone else updated; re-evaluate
            }
            // If `root` was linked away (before or after our write), the
            // linker may have read a stale pivot — propagate to the live
            // root ourselves.
            let live = self.find_counted(root, c);
            if live == root {
                return;
            }
            c.pivot_merges += 1;
            root = live;
        }
    }
}

impl UnionFindPivot for ConcurrentPivotUnionFind {
    fn len(&self) -> usize {
        self.entry.len()
    }

    #[inline]
    fn find(&self, x: u32) -> u32 {
        self.find_counted(x, &mut UfCounts::default())
    }

    #[inline]
    fn union(&self, x: u32, y: u32) -> bool {
        self.union_counted(x, y, &mut UfCounts::default())
    }

    #[inline]
    fn get_pivot(&self, x: u32) -> u32 {
        self.get_pivot_counted(x, &mut UfCounts::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics() {
        let uf = ConcurrentPivotUnionFind::new_identity(6);
        assert!(uf.union(4, 5));
        assert!(uf.union(2, 4));
        assert!(!uf.union(5, 2));
        assert_eq!(uf.get_pivot(5), 2);
        assert_eq!(uf.num_components(), 4);
    }

    /// Stress sizes shrink under Miri, whose interpreter is ~3 orders of
    /// magnitude slower; the interleavings it explores don't need large
    /// `n` to expose UB in the CAS protocols.
    fn sized(full: usize) -> usize {
        if cfg!(miri) {
            (full / 50).max(64)
        } else {
            full
        }
    }

    /// Unions `i` with `i + 1` for every `i ≡ t (mod threads)` on
    /// `threads` threads, each counting into its own tally; returns the
    /// merged tally and the total number of `true` returns.
    fn race_chain(uf: &Arc<ConcurrentPivotUnionFind>, threads: usize) -> (UfCounts, u64) {
        let n = uf.len();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let uf = Arc::clone(uf);
                std::thread::spawn(move || {
                    let mut c = UfCounts::default();
                    let mut merged = 0u64;
                    for i in (t..n - 1).step_by(threads) {
                        merged += uf.union_counted(i as u32, i as u32 + 1, &mut c) as u64;
                    }
                    (c, merged)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((UfCounts::default(), 0), |(c, m), (tc, tm)| {
                (c.merged(tc), m + tm)
            })
    }

    #[test]
    fn concurrent_chain_stress() {
        // Many threads build one long chain; pivot must be the global min.
        let n = sized(20_000);
        let uf = Arc::new(ConcurrentPivotUnionFind::new_identity(n));
        race_chain(&uf, 8);
        assert_eq!(uf.num_components(), 1);
        assert_eq!(uf.get_pivot((n - 1) as u32), 0);
    }

    #[test]
    fn concurrent_random_unions_match_sequential() {
        // Races random unions on 8 threads; the partition, the pivots and
        // the merge count must match a sequential run.
        use rand::{Rng, SeedableRng};
        let n = sized(5_000);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let ops: Vec<(u32, u32)> = (0..4 * n)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();

        let seq = crate::PivotUnionFind::new_identity(n);
        let seq_merges = ops.iter().filter(|&&(a, b)| seq.union(a, b)).count() as u64;

        let conc = Arc::new(ConcurrentPivotUnionFind::new_identity(n));
        let threads = 8;
        let chunk = ops.len().div_ceil(threads);
        let ops = Arc::new(ops);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let conc = Arc::clone(&conc);
                let ops = Arc::clone(&ops);
                std::thread::spawn(move || {
                    let mut c = UfCounts::default();
                    let end = ((t + 1) * chunk).min(ops.len());
                    for &(a, b) in &ops[t * chunk..end] {
                        conc.union_counted(a, b, &mut c);
                    }
                    c
                })
            })
            .collect();
        let counts = handles
            .into_iter()
            .fold(UfCounts::default(), |c, h| c.merged(h.join().unwrap()));

        // Same partition and same pivots as sequential execution.
        for v in 0..n as u32 {
            assert!(conc.same_set(v, seq.find(v)), "partition mismatch at {v}");
            assert_eq!(conc.get_pivot(v), seq.get_pivot(v), "pivot mismatch at {v}");
        }
        assert_eq!(counts.unions, seq_merges, "merge count");
        assert!(counts.finds >= 2 * counts.unions);
    }

    #[test]
    fn validate_accepts_concurrent_result() {
        let n = sized(10_000);
        let uf = Arc::new(ConcurrentPivotUnionFind::new_identity(n));
        race_chain(&uf, 8);
        uf.validate().unwrap();
    }

    #[test]
    fn validate_after_worker_panics_mid_union_sequence() {
        // Workers union random pairs; some panic partway through. The
        // structure must stay merge-consistent: whatever unions landed
        // are fully applied, pivots included.
        let n = sized(4_000);
        let uf = Arc::new(ConcurrentPivotUnionFind::new_identity(n));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let uf = Arc::clone(&uf);
                std::thread::spawn(move || {
                    for i in (t..n - 1).step_by(8) {
                        if t % 2 == 1 && i > n / 2 {
                            panic!("worker {t} injected failure");
                        }
                        uf.union(i as u32, i as u32 + 1);
                    }
                })
            })
            .collect();
        let mut panics = 0;
        for h in handles {
            if h.join().is_err() {
                panics += 1;
            }
        }
        assert_eq!(panics, 4);
        uf.validate().unwrap();
        // The structure remains fully usable: finish the chain and check
        // the global pivot.
        for i in 0..n - 1 {
            uf.union(i as u32, i as u32 + 1);
        }
        uf.validate().unwrap();
        assert_eq!(uf.get_pivot((n - 1) as u32), 0);
    }

    #[test]
    fn split_tallies_merge_to_one_tally() {
        // One union sequence on two identical structures: counted into a
        // single tally, and split over several tallies that are merged.
        // Single-threaded the two runs take the same steps, so the
        // merged tally must equal the single one field for field.
        let ops: Vec<(u32, u32)> = (0..99)
            .map(|i| (i, i + 1))
            .chain((0..100).map(|i| (i, (i * 37 + 11) % 100)))
            .collect();
        let one_uf = ConcurrentPivotUnionFind::new_identity(100);
        let mut one = UfCounts::default();
        let mut trues = 0u64;
        for &(a, b) in &ops {
            trues += one_uf.union_counted(a, b, &mut one) as u64;
            one_uf.get_pivot_counted(b, &mut one);
        }
        let split_uf = ConcurrentPivotUnionFind::new_identity(100);
        let split = ops.chunks(17).fold(UfCounts::default(), |acc, part| {
            let mut c = UfCounts::default();
            for &(a, b) in part {
                split_uf.union_counted(a, b, &mut c);
                split_uf.get_pivot_counted(b, &mut c);
            }
            acc.merged(c)
        });
        assert_eq!(split, one);
        assert_eq!(one.unions, trues);
        assert_eq!(one.unions, 99);
        // Two finds per union call, plus merge_pivot's root re-check per
        // merge, plus one per get_pivot.
        assert!(one.finds >= 3 * ops.len() as u64 + one.unions);
        assert_eq!(one.cas_retries, 0, "no contention single-threaded");
    }

    #[test]
    fn tallies_count_every_union_once_under_contention() {
        // 8 threads race on a dense merge pattern; the merged per-thread
        // tallies must reflect every successful union exactly once even
        // though retries vary run to run.
        let n = sized(10_000);
        let uf = Arc::new(ConcurrentPivotUnionFind::new_identity(n));
        let (c, trues) = race_chain(&uf, 8);
        assert_eq!(c.unions, trues);
        assert_eq!(c.unions, (n - 1) as u64);
        assert!(c.finds >= 2 * c.unions);
        uf.validate().unwrap();
    }

    #[test]
    fn find_is_stable_after_quiescence() {
        let uf = ConcurrentPivotUnionFind::new_identity(10);
        for i in 0..9 {
            uf.union(i, i + 1);
        }
        let r = uf.find(0);
        for v in 0..10 {
            assert_eq!(uf.find(v), r);
        }
    }
}
