//! Local queries on a built HCD (ShellStruct-style, paper §VII).
//!
//! [`core_containing`] returns a k-core's members in ascending id order.
//! It rebuilds the core from its tree node and that node's offspring
//! (paper §II-B) and then orders the members by whichever of two ways a
//! fixed cost rule prices lower: a comparison sort of the `s` members
//! (`s·⌈log2 s⌉`) or one pass over the `n`-entry `tid` table (`n`).

use hcd_decomp::CoreDecomposition;
use hcd_graph::VertexId;

use crate::index::{Hcd, NO_NODE};

/// The tree node whose subtree is the k-core containing `v`: the highest
/// ancestor of `tid(v)` whose level is still `>= k`. Returns `None` when
/// `k > c(v)`. `O(depth)` time, no allocation — the snapshot-friendly
/// entry point the serving layer uses to answer membership and identity
/// queries without materializing vertex sets.
pub fn core_node_at(hcd: &Hcd, cores: &CoreDecomposition, v: VertexId, k: u32) -> Option<u32> {
    if k > cores.coreness(v) {
        return None;
    }
    let mut node = hcd.tid(v);
    loop {
        let parent = hcd.node(node).parent;
        if parent == NO_NODE || hcd.node(parent).k < k {
            break;
        }
        node = parent;
    }
    Some(node)
}

/// Whether `v` belongs to some k-core, answered in `O(1)` from the
/// decomposition alone.
pub fn in_k_core(cores: &CoreDecomposition, v: VertexId, k: u32) -> bool {
    k <= cores.coreness(v)
}

/// Whether `u` and `v` lie in the *same* k-core, answered from the index
/// in `O(depth)` without materializing either core: two vertices share a
/// k-core exactly when their level-`k` ancestors coincide.
pub fn same_k_core(hcd: &Hcd, cores: &CoreDecomposition, u: VertexId, v: VertexId, k: u32) -> bool {
    match (
        core_node_at(hcd, cores, u, k),
        core_node_at(hcd, cores, v, k),
    ) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

/// The vertex set of the k-core containing `v`, in ascending id order,
/// answered from the index alone. Returns `None` when `k > c(v)`.
///
/// Walks up from `tid(v)` to the highest ancestor whose level is still
/// `>= k`; that ancestor's subtree is exactly the k-core (every k-core
/// with `k <= c(v)` containing `v` equals the original core of such an
/// ancestor — levels between two adjacent ancestors collapse onto the
/// deeper one). One walk of the subtree collects its node ids and its
/// size `s`. With `n = hcd.tids().len()`, the members are then ordered
/// by the cheaper of two ways:
///
/// - `s·⌈log2 s⌉ < n`: concatenate the nodes' vertex lists and sort them,
///   `O(s log s)`;
/// - otherwise: mark the subtree's nodes and emit, in one pass over
///   `tid`, every vertex whose node is marked (a [`NO_NODE`] tid is
///   unmarked), `O(n + |T|)` with no comparison sort.
///
/// Both give the same answer on a consistent index.
pub fn core_containing(
    hcd: &Hcd,
    cores: &CoreDecomposition,
    v: VertexId,
    k: u32,
) -> Option<Vec<VertexId>> {
    let top = core_node_at(hcd, cores, v, k)?;
    let mut subtree = Vec::new();
    let mut size = 0;
    hcd.for_each_subtree_node(top, |id, node| {
        subtree.push(id);
        size += node.vertices.len();
    });
    let mut members = Vec::with_capacity(size);
    if scan_beats_sort(size, hcd.tids().len()) {
        let mut marked = vec![false; hcd.num_nodes()];
        for &id in &subtree {
            marked[id as usize] = true;
        }
        members.extend(
            hcd.tids()
                .iter()
                .enumerate()
                .filter(|&(_, &t)| marked.get(t as usize) == Some(&true))
                .map(|(u, _)| u as VertexId),
        );
    } else {
        for &id in &subtree {
            members.extend_from_slice(&hcd.node(id).vertices);
        }
        members.sort_unstable();
    }
    Some(members)
}

/// The cost rule of [`core_containing`]: a comparison sort of `s` ids
/// costs about `s·⌈log2 s⌉`, one pass over an `n`-entry `tid` table
/// costs `n`; the scan wins unless the sort is strictly cheaper.
pub(crate) fn scan_beats_sort(s: usize, n: usize) -> bool {
    let ceil_log2 = (usize::BITS - s.saturating_sub(1).leading_zeros()) as usize;
    s.saturating_mul(ceil_log2) >= n
}

/// The *hierarchy position* of `v`: (depth of its tree node, subtree size
/// of its node). Used by the engagement-analysis example — the paper
/// notes \[15\] that engagement prediction improves when the position in
/// the HCD complements raw coreness.
pub fn hierarchy_position(hcd: &Hcd, v: VertexId) -> (usize, usize) {
    let t = hcd.tid(v);
    (hcd.depth(t), hcd.subtree_size(t))
}

/// Number of distinct k-cores (tree nodes) per level, `0..=kmax`.
pub fn cores_per_level(hcd: &Hcd, kmax: u32) -> Vec<usize> {
    let mut counts = vec![0usize; kmax as usize + 1];
    for node in hcd.nodes() {
        counts[node.k as usize] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phcd::try_phcd;
    use crate::testutil::figure1_graph;
    use hcd_decomp::core_decomposition;
    use hcd_par::Executor;

    fn setup() -> (hcd_graph::CsrGraph, CoreDecomposition, Hcd) {
        let g = figure1_graph();
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        (g, cores, hcd)
    }

    #[test]
    fn core_containing_matches_definition() {
        let (g, cores, hcd) = setup();
        use hcd_graph::traversal::bfs_filtered;
        for v in g.vertices() {
            for k in 0..=cores.coreness(v) {
                let got = core_containing(&hcd, &cores, v, k).unwrap();
                assert!(got.windows(2).all(|w| w[0] < w[1]), "v={v} k={k}: {got:?}");
                let mut want = bfs_filtered(&g, v, |u| cores.coreness(u) >= k);
                want.sort_unstable();
                assert_eq!(got, want, "v={v} k={k}");
            }
        }
    }

    #[test]
    fn cost_rule_scans_unless_the_sort_is_strictly_cheaper() {
        // s·⌈log2 s⌉ for s = 0, 1, 2, 3, 4, 5: 0, 0, 2, 6, 8, 15.
        assert!(scan_beats_sort(0, 0) && !scan_beats_sort(0, 1));
        assert!(scan_beats_sort(1, 0) && !scan_beats_sort(1, 1));
        assert!(scan_beats_sort(2, 2) && !scan_beats_sort(2, 3));
        assert!(scan_beats_sort(3, 6) && !scan_beats_sort(3, 7));
        assert!(scan_beats_sort(4, 8) && !scan_beats_sort(4, 9));
        assert!(scan_beats_sort(5, 15) && !scan_beats_sort(5, 16));
        assert!(scan_beats_sort(1 << 20, 20 << 20) && !scan_beats_sort(1 << 20, (20 << 20) + 1));
        assert!(scan_beats_sort(usize::MAX, usize::MAX));
    }

    #[test]
    fn core_above_coreness_is_none() {
        let (_, cores, hcd) = setup();
        assert!(core_containing(&hcd, &cores, 15, 3).is_none());
        assert!(core_containing(&hcd, &cores, 0, 5).is_none());
    }

    #[test]
    fn positions_deepen_with_coreness() {
        let (_, _, hcd) = setup();
        let (d15, _) = hierarchy_position(&hcd, 15); // 2-shell
        let (d6, _) = hierarchy_position(&hcd, 6); // 3-shell
        let (d0, s0) = hierarchy_position(&hcd, 0); // 4-core
        assert!(d15 < d6 && d6 < d0);
        assert_eq!(s0, 6); // T4 is a leaf holding S4's six vertices
    }

    #[test]
    fn membership_and_identity_agree_with_materialized_cores() {
        let (g, cores, hcd) = setup();
        for v in g.vertices() {
            for k in 0..=cores.kmax() + 1 {
                assert_eq!(in_k_core(&cores, v, k), k <= cores.coreness(v));
                match core_containing(&hcd, &cores, v, k) {
                    None => assert!(core_node_at(&hcd, &cores, v, k).is_none()),
                    Some(members) => {
                        for u in g.vertices() {
                            let expect = members.contains(&u) && k <= cores.coreness(u);
                            assert_eq!(
                                same_k_core(&hcd, &cores, u, v, k),
                                expect,
                                "u={u} v={v} k={k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn level_histogram() {
        let (_, cores, hcd) = setup();
        let counts = cores_per_level(&hcd, cores.kmax());
        assert_eq!(counts, vec![0, 0, 1, 2, 1]);
    }
}
