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

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::{NoStats, Stats, UfCounts, UfStats, UnionFindPivot};

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
pub struct ConcurrentPivotUnionFind<S = NoStats> {
    entry: Vec<AtomicU64>,
    pivot: Vec<AtomicU32>,
    stats: S,
}

impl ConcurrentPivotUnionFind {
    /// `n` singleton components; each is its own pivot.
    pub fn new_identity(n: usize) -> Self {
        ConcurrentPivotUnionFind {
            entry: (0..n as u32).map(|i| AtomicU64::new(pack(0, i))).collect(),
            pivot: (0..n as u32).map(AtomicU32::new).collect(),
            stats: NoStats,
        }
    }

    /// Switches on operation counting (builder form); see [`UfCounts`].
    /// Without it the structure carries no counting code at all.
    pub fn with_stats(self) -> ConcurrentPivotUnionFind<Stats> {
        ConcurrentPivotUnionFind {
            entry: self.entry,
            pivot: self.pivot,
            stats: Stats::default(),
        }
    }
}

impl<S: UfStats> ConcurrentPivotUnionFind<S> {
    /// A quiescent-or-approximate snapshot of the operation tallies;
    /// all-zero when stats are disabled. Exact once all mutator threads
    /// have joined (relaxed counters carry no ordering, only totals).
    pub fn counts(&self) -> UfCounts {
        self.stats.counts()
    }

    /// Number of distinct components (quiescent snapshot).
    pub fn num_components(&self) -> usize {
        (0..self.len())
            .filter(|&x| parent_of(self.entry[x].load(Ordering::Acquire)) == x as u32)
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
        let parent = |x: usize| parent_of(self.entry[x].load(Ordering::Acquire)) as usize;
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
            let pv = self.pivot[r].load(Ordering::Acquire) as usize;
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

    /// Min-merges candidate pivot `pv` into the component currently
    /// containing `root`, chasing root changes until the write sticks on a
    /// live root.
    fn merge_pivot(&self, mut root: u32, pv: u32) {
        // Retries (failed pivot CAS) and chases (root relinked under a
        // new root mid-merge) both measure pivot-protocol contention.
        let mut retries = 0u64;
        loop {
            let cur = self.pivot[root as usize].load(Ordering::Acquire);
            if pv < cur
                && self.pivot[root as usize]
                    .compare_exchange(cur, pv, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
            {
                retries += 1;
                continue; // someone else updated; re-evaluate
            }
            // If `root` was linked away (before or after our write), the
            // linker may have read a stale pivot — propagate to the live
            // root ourselves.
            let live = self.find(root);
            if live == root {
                break;
            }
            retries += 1;
            root = live;
        }
        self.stats.pivot_merges(retries);
    }
}

impl<S: UfStats> UnionFindPivot for ConcurrentPivotUnionFind<S> {
    fn len(&self) -> usize {
        self.entry.len()
    }

    fn find(&self, mut x: u32) -> u32 {
        let mut hops = 0u64;
        let root = loop {
            let e = self.entry[x as usize].load(Ordering::Acquire);
            let p = parent_of(e);
            if p == x {
                break x;
            }
            hops += 1;
            let ep = self.entry[p as usize].load(Ordering::Acquire);
            let gp = parent_of(ep);
            if gp != p {
                // Path halving: x -> grandparent. Failure is benign.
                let _ = self.entry[x as usize].compare_exchange(
                    e,
                    pack(rank_of(e), gp),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
            x = p;
        };
        self.stats.find(hops);
        root
    }

    fn union(&self, x: u32, y: u32) -> bool {
        let mut retries = 0u64;
        loop {
            let rx = self.find(x);
            let ry = self.find(y);
            if rx == ry {
                self.stats.union(retries, false);
                return false;
            }
            let ex = self.entry[rx as usize].load(Ordering::Acquire);
            let ey = self.entry[ry as usize].load(Ordering::Acquire);
            // Re-validate rootness (entries may have changed since find).
            if parent_of(ex) != rx || parent_of(ey) != ry {
                retries += 1;
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
                .compare_exchange(
                    eloser,
                    pack(rank_of(eloser), winner),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                retries += 1;
                continue;
            }
            if tie {
                // Best-effort rank bump; failure means winner changed or
                // was bumped concurrently, both fine for balance.
                let ew = pack(rank_of(eloser), winner);
                let _ = self.entry[winner as usize].compare_exchange(
                    ew,
                    pack(rank_of(eloser) + 1, winner),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
            let pl = self.pivot[loser as usize].load(Ordering::Acquire);
            self.merge_pivot(winner, pl);
            self.stats.union(retries, true);
            return true;
        }
    }

    fn get_pivot(&self, x: u32) -> u32 {
        let r = self.find(x);
        self.pivot[r as usize].load(Ordering::Acquire)
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

    #[test]
    fn concurrent_chain_stress() {
        // Many threads build one long chain; pivot must be the global min.
        let n = sized(20_000);
        let uf = Arc::new(ConcurrentPivotUnionFind::new_identity(n));
        let threads = 8;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let uf = Arc::clone(&uf);
                std::thread::spawn(move || {
                    for i in (t..n - 1).step_by(threads) {
                        uf.union(i as u32, i as u32 + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(uf.num_components(), 1);
        assert_eq!(uf.get_pivot((n - 1) as u32), 0);
    }

    /// Races random unions over `conc` on 8 threads; the partition, the
    /// pivots and the merge count must match a sequential run.
    fn random_unions_match_sequential<S: UfStats + Send + Sync + 'static>(
        conc: ConcurrentPivotUnionFind<S>,
    ) -> UfCounts {
        use rand::{Rng, SeedableRng};
        let n = conc.len();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let ops: Vec<(u32, u32)> = (0..4 * n)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();

        let seq = crate::PivotUnionFind::new_identity(n).with_stats();
        for &(a, b) in &ops {
            seq.union(a, b);
        }

        let conc = Arc::new(conc);
        let threads = 8;
        let chunk = ops.len().div_ceil(threads);
        let ops = Arc::new(ops);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let conc = Arc::clone(&conc);
                let ops = Arc::clone(&ops);
                std::thread::spawn(move || {
                    let start = t * chunk;
                    let end = ((t + 1) * chunk).min(ops.len());
                    for &(a, b) in &ops[start..end] {
                        conc.union(a, b);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Same partition and same pivots as sequential execution.
        for v in 0..n as u32 {
            assert!(conc.same_set(v, seq.find(v)), "partition mismatch at {v}");
            assert_eq!(conc.get_pivot(v), seq.get_pivot(v), "pivot mismatch at {v}");
        }
        let counts = conc.counts();
        if !counts.is_zero() {
            assert_eq!(counts.unions, seq.counts().unions, "merge count");
        }
        counts
    }

    #[test]
    fn concurrent_random_unions_match_sequential() {
        let n = sized(5_000);
        let quiet = random_unions_match_sequential(ConcurrentPivotUnionFind::new_identity(n));
        assert!(quiet.is_zero());
        let counted =
            random_unions_match_sequential(ConcurrentPivotUnionFind::new_identity(n).with_stats());
        assert!(counted.unions > 0 && counted.finds >= 2 * counted.unions);
    }

    #[test]
    fn validate_accepts_concurrent_result() {
        let n = sized(10_000);
        let uf = Arc::new(ConcurrentPivotUnionFind::new_identity(n));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let uf = Arc::clone(&uf);
                std::thread::spawn(move || {
                    for i in (t..n - 1).step_by(8) {
                        uf.union(i as u32, i as u32 + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
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
    fn stats_disabled_by_default_and_count_when_enabled() {
        let quiet = ConcurrentPivotUnionFind::new_identity(10);
        quiet.union(0, 1);
        assert!(quiet.counts().is_zero());

        let uf = ConcurrentPivotUnionFind::new_identity(100).with_stats();
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        let c = uf.counts();
        assert_eq!(c.unions, 99);
        // Each union: two finds up front plus at least one inside
        // merge_pivot's root re-check.
        assert!(c.finds >= 297, "finds {}", c.finds);
        assert_eq!(c.cas_retries, 0, "no contention single-threaded");
    }

    #[test]
    fn stats_are_coherent_under_contention() {
        // 8 threads race on a dense merge pattern; totals must reflect
        // every successful union exactly once even though retries vary
        // run to run.
        let n = sized(10_000);
        let uf = Arc::new(ConcurrentPivotUnionFind::new_identity(n).with_stats());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let uf = Arc::clone(&uf);
                std::thread::spawn(move || {
                    for i in (t..n - 1).step_by(8) {
                        uf.union(i as u32, i as u32 + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let c = uf.counts();
        // Exactly n-1 merges happened in total, regardless of the race.
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
