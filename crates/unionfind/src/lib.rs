//! Union-find with **pivot** maintenance (paper §III-B).
//!
//! The PHCD construction algorithm identifies each k-core tree node by its
//! *pivot* — the member with the lowest *vertex rank* (Definition 4/5).
//! PHCD runs the union-find over ranks, so both union-find variants in
//! this crate maintain, at every root, the minimum element of its
//! component:
//!
//! * [`PivotUnionFind`] — sequential, path halving + union by rank; the
//!   classical `O(α(n))` amortized structure.
//! * [`ConcurrentPivotUnionFind`] — lock-free (CAS linking, path-halving
//!   finds), in the style of Anderson–Woll / Jayanti–Tarjan, with a pivot
//!   min-merge protocol that converges at quiescence (see module docs of
//!   [`concurrent`]).
//!
//! Both structure variants implement the common [`UnionFindPivot`] trait
//! so the PHCD algorithm is generic over the execution mode. Both take
//! their operation counting as a type parameter ([`UfStats`]): the
//! default [`NoStats`] compiles every count away, and `with_stats()`
//! switches a structure to the counting [`Stats`].

pub mod concurrent;
pub mod seq;

use std::sync::atomic::{AtomicU64, Ordering};

pub use concurrent::ConcurrentPivotUnionFind;
pub use seq::PivotUnionFind;

/// Operation counters of a union-find instance, collected when stats are
/// enabled with `with_stats()` on either variant (default off, at no
/// cost: the disabled counter is the zero-sized [`NoStats`]).
///
/// These are the structure-level signals the paper's performance story
/// turns on: `find_hops` measures path-compression effectiveness,
/// `cas_retries` measures linking contention (always 0 for the
/// sequential variant), `pivot_merges` measures how often pivot
/// min-merges had to retry or chase relinked roots.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UfCounts {
    /// `find` calls (including those inside `union` / `get_pivot`).
    pub finds: u64,
    /// Parent-pointer hops taken across all finds; `finds > 0` with
    /// `find_hops == 0` means every element pointed straight at a root.
    pub find_hops: u64,
    /// Successful unions (calls that actually merged two components).
    pub unions: u64,
    /// Failed link/rank CAS attempts that forced the union loop to
    /// retry (concurrent variant only).
    pub cas_retries: u64,
    /// Pivot min-merge CAS retries plus root-chase iterations
    /// (sequential variant: pivot overwrites during unions).
    pub pivot_merges: u64,
}

impl UfCounts {
    /// Element-wise sum, for folding per-structure counts into one
    /// report.
    pub fn merged(self, other: UfCounts) -> UfCounts {
        UfCounts {
            finds: self.finds + other.finds,
            find_hops: self.find_hops + other.find_hops,
            unions: self.unions + other.unions,
            cas_retries: self.cas_retries + other.cas_retries,
            pivot_merges: self.pivot_merges + other.pivot_merges,
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == UfCounts::default()
    }
}

/// How a union-find counts its operations, fixed by its type.
pub trait UfStats {
    /// One `find` that took `hops` parent-pointer hops.
    fn find(&self, hops: u64);
    /// One `union` call that retried `cas_retries` times and merged two
    /// components or found them already merged.
    fn union(&self, cas_retries: u64, merged: bool);
    /// `n` pivot min-merge retries or chases (sequential variant: pivot
    /// overwrites).
    fn pivot_merges(&self, n: u64);
    /// The tallies so far.
    fn counts(&self) -> UfCounts;
}

/// Counts nothing; every [`UfStats`] call compiles to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoStats;

impl UfStats for NoStats {
    #[inline]
    fn find(&self, _: u64) {}
    #[inline]
    fn union(&self, _: u64, _: bool) {}
    #[inline]
    fn pivot_merges(&self, _: u64) {}
    fn counts(&self) -> UfCounts {
        UfCounts::default()
    }
}

/// Relaxed atomic tallies shared by all mutator threads. Per-call hop
/// and retry counts are accumulated locally and folded with one
/// `fetch_add` each, so counting adds O(1) atomics per operation, not per
/// hop. Totals are exact once all mutator threads have joined.
#[derive(Debug, Default)]
pub struct Stats {
    finds: AtomicU64,
    find_hops: AtomicU64,
    unions: AtomicU64,
    cas_retries: AtomicU64,
    pivot_merges: AtomicU64,
}

/// Adds `n` to `c` unless it is zero, sparing the atomic.
#[inline]
fn add(c: &AtomicU64, n: u64) {
    if n > 0 {
        c.fetch_add(n, Ordering::Relaxed);
    }
}

impl UfStats for Stats {
    #[inline]
    fn find(&self, hops: u64) {
        add(&self.finds, 1);
        add(&self.find_hops, hops);
    }
    #[inline]
    fn union(&self, cas_retries: u64, merged: bool) {
        add(&self.cas_retries, cas_retries);
        add(&self.unions, merged as u64);
    }
    #[inline]
    fn pivot_merges(&self, n: u64) {
        add(&self.pivot_merges, n);
    }
    fn counts(&self) -> UfCounts {
        UfCounts {
            finds: self.finds.load(Ordering::Relaxed),
            find_hops: self.find_hops.load(Ordering::Relaxed),
            unions: self.unions.load(Ordering::Relaxed),
            cas_retries: self.cas_retries.load(Ordering::Relaxed),
            pivot_merges: self.pivot_merges.load(Ordering::Relaxed),
        }
    }
}

/// Common interface of the sequential and concurrent union-find.
///
/// Elements are dense ids `0..n`; the pivot of a component is its
/// minimum element. PHCD's elements are vertex ranks `r(v)`.
pub trait UnionFindPivot {
    /// Number of elements.
    fn len(&self) -> usize;

    /// Whether the structure is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Representative of `x`'s component.
    fn find(&self, x: u32) -> u32;

    /// Merges the components of `x` and `y`; returns `true` if they were
    /// previously distinct. The pivot of the merged component is the
    /// smaller pivot of the two inputs.
    fn union(&self, x: u32, y: u32) -> bool;

    /// Whether `x` and `y` are in the same component.
    fn same_set(&self, x: u32, y: u32) -> bool {
        self.find(x) == self.find(y)
    }

    /// The pivot (minimum member) of `x`'s component.
    ///
    /// For the concurrent variant this is only guaranteed accurate at
    /// quiescence (no concurrent `union` calls), which is how PHCD uses
    /// it: union phases and pivot-read phases are separated by barriers.
    fn get_pivot(&self, x: u32) -> u32;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<U: UnionFindPivot>(uf: U) {
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.same_set(0, 1));
        assert!(!uf.same_set(0, 2));
        assert_eq!(uf.get_pivot(1), 0);
        assert!(uf.union(3, 4));
        assert_eq!(uf.get_pivot(4), 3);
        assert!(uf.union(1, 4));
        assert_eq!(uf.get_pivot(3), 0);
    }

    #[test]
    fn seq_implements_trait() {
        exercise(PivotUnionFind::new_identity(5));
        exercise(PivotUnionFind::new_identity(5).with_stats());
    }

    #[test]
    fn concurrent_implements_trait() {
        exercise(ConcurrentPivotUnionFind::new_identity(5));
        exercise(ConcurrentPivotUnionFind::new_identity(5).with_stats());
    }
}
