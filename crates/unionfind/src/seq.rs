//! Sequential union-find with pivot: the reference the concurrent
//! variant is tested and benchmarked against.

use std::cell::Cell;

use crate::UnionFindPivot;

/// Sequential union-find with path halving, union by rank, and per-root
/// pivot (minimum member) maintenance.
///
/// `find` uses interior mutability (path halving mutates parents) so the
/// structure can be shared immutably by algorithms that interleave finds
/// and unions, matching the concurrent variant's `&self` API.
///
/// # Examples
///
/// ```
/// use hcd_unionfind::{PivotUnionFind, UnionFindPivot};
///
/// let uf = PivotUnionFind::new_identity(4);
/// uf.union(2, 3);
/// uf.union(1, 2);
/// assert!(uf.same_set(1, 3));
/// assert_eq!(uf.get_pivot(3), 1); // smallest id in {1,2,3}
/// ```
pub struct PivotUnionFind {
    parent: Vec<Cell<u32>>,
    rank: Vec<Cell<u8>>,
    pivot: Vec<Cell<u32>>,
}

impl PivotUnionFind {
    /// `n` singleton components; each is its own pivot.
    pub fn new_identity(n: usize) -> Self {
        PivotUnionFind {
            parent: (0..n as u32).map(Cell::new).collect(),
            rank: vec![Cell::new(0); n],
            pivot: (0..n as u32).map(Cell::new).collect(),
        }
    }

    /// Number of distinct components.
    pub fn num_components(&self) -> usize {
        (0..self.len() as u32)
            .filter(|&x| self.parent[x as usize].get() == x)
            .count()
    }

    /// Checks structural invariants: every parent chain reaches a root
    /// within `len()` steps (no cycles), and every root's pivot is a
    /// member of its own component with the minimum id. Mirrors
    /// [`ConcurrentPivotUnionFind::validate`](crate::ConcurrentPivotUnionFind::validate)
    /// so fault-injection tests can assert both variants stay consistent.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        let parent = |x: usize| self.parent[x].get() as usize;
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
        let mut min_member = vec![usize::MAX; n];
        for (x, &r) in root_of.iter().enumerate() {
            min_member[r] = min_member[r].min(x);
        }
        for r in 0..n {
            if root_of[r] != r {
                continue;
            }
            let pv = self.pivot[r].get() as usize;
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
}

impl UnionFindPivot for PivotUnionFind {
    fn len(&self) -> usize {
        self.parent.len()
    }

    fn find(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize].get();
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize].get();
            self.parent[x as usize].set(gp);
            x = gp;
        }
    }

    fn union(&self, x: u32, y: u32) -> bool {
        let rx = self.find(x);
        let ry = self.find(y);
        if rx == ry {
            return false;
        }
        let (winner, loser) = match self.rank[rx as usize]
            .get()
            .cmp(&self.rank[ry as usize].get())
        {
            std::cmp::Ordering::Less => (ry, rx),
            std::cmp::Ordering::Greater => (rx, ry),
            std::cmp::Ordering::Equal => {
                self.rank[rx as usize].set(self.rank[rx as usize].get() + 1);
                (rx, ry)
            }
        };
        self.parent[loser as usize].set(winner);
        let pl = self.pivot[loser as usize].get();
        if pl < self.pivot[winner as usize].get() {
            self.pivot[winner as usize].set(pl);
        }
        true
    }

    fn get_pivot(&self, x: u32) -> u32 {
        let r = self.find(x);
        self.pivot[r as usize].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_their_own_pivot() {
        let uf = PivotUnionFind::new_identity(3);
        for i in 0..3 {
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.get_pivot(i), i);
        }
        assert_eq!(uf.num_components(), 3);
    }

    #[test]
    fn union_merges_and_counts() {
        let uf = PivotUnionFind::new_identity(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        assert_eq!(uf.num_components(), 3); // {0,1,2,3}, {4}, {5}
        assert!(uf.same_set(1, 2));
        assert!(!uf.same_set(1, 4));
    }

    #[test]
    fn pivot_is_min_key_after_chain_merges() {
        let uf = PivotUnionFind::new_identity(8);
        // Merge in an order that forces pivot propagation through winners.
        uf.union(7, 6);
        uf.union(5, 7);
        uf.union(4, 6);
        assert_eq!(uf.get_pivot(7), 4);
        uf.union(0, 7);
        assert_eq!(uf.get_pivot(5), 0);
    }

    #[test]
    fn union_is_idempotent() {
        let uf = PivotUnionFind::new_identity(2);
        assert!(uf.union(0, 1));
        assert!(!uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.num_components(), 1);
    }

    #[test]
    fn path_halving_preserves_roots() {
        let uf = PivotUnionFind::new_identity(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        let root = uf.find(0);
        for i in 0..100 {
            assert_eq!(uf.find(i), root);
        }
        assert_eq!(uf.get_pivot(99), 0);
        assert_eq!(uf.num_components(), 1);
    }

    #[test]
    fn validate_accepts_consistent_states() {
        let uf = PivotUnionFind::new_identity(50);
        uf.validate().unwrap();
        for i in 0..49 {
            uf.union(i, i + 1);
            uf.validate().unwrap();
        }
    }

    #[test]
    fn validate_detects_cycle_and_bad_pivot() {
        let uf = PivotUnionFind::new_identity(4);
        uf.union(0, 1);
        // Corrupt the pivot of the merged component's root.
        let root = uf.find(0) as usize;
        uf.pivot[root].set(3);
        assert!(uf.validate().unwrap_err().contains("not in its component"));
        uf.pivot[root].set(1);
        assert!(uf.validate().unwrap_err().contains("minimum member"));
        uf.pivot[root].set(0);
        uf.validate().unwrap();
        // Corrupt the parent pointers into a cycle.
        uf.parent[2].set(3);
        uf.parent[3].set(2);
        assert!(uf.validate().unwrap_err().contains("cycle"));
    }
}
