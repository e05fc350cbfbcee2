//! Parallel bottom-up tree accumulation (paper Algorithm 3, lines 6–9;
//! cf. Sevilgen et al. \[36\]).

use hcd_core::Hcd;
use hcd_par::{Executor, ParError};

/// Accumulates per-node values bottom-up over the HCD forest in place:
/// after the call, `values[i]` holds the merge of node `i`'s own value
/// with the accumulated values of all its descendants — i.e. the value of
/// the node's *original k-core*.
///
/// Level-synchronous and pull-based: nodes of equal `k` are independent,
/// and children always have strictly larger `k`, so processing levels in
/// descending `k` lets every node gather its children without atomics.
///
/// On `Err`, `values` may hold a partially accumulated state and should
/// be discarded (the executor itself stays usable).
///
/// # Panics
///
/// Panics if `values.len() != hcd.num_nodes()` (a contract violation, not
/// a runtime failure).
pub fn try_accumulate_bottom_up<T, F>(
    hcd: &Hcd,
    values: &mut [T],
    merge: F,
    exec: &Executor,
) -> Result<(), ParError>
where
    T: Send + Sync,
    F: Fn(&mut T, &T) + Sync,
{
    assert_eq!(values.len(), hcd.num_nodes());
    if values.is_empty() {
        return Ok(());
    }
    // Bucket node ids by level, processed from deepest level upward.
    let kmax = hcd.nodes().iter().map(|n| n.k).max().unwrap_or(0);
    let mut levels: Vec<Vec<u32>> = vec![Vec::new(); kmax as usize + 1];
    for (i, node) in hcd.nodes().iter().enumerate() {
        levels[node.k as usize].push(i as u32);
    }

    struct SendPtr<T>(*mut T);
    unsafe impl<T> Send for SendPtr<T> {}
    unsafe impl<T> Sync for SendPtr<T> {}
    let base = SendPtr(values.as_mut_ptr());

    let mut levels_run = 0u64;
    for level in levels.iter().rev() {
        if level.is_empty() {
            continue;
        }
        levels_run += 1;
        exec.region("accumulate.level").try_for_each_chunk(
            level.len(),
            || (),
            |_, _, range| {
                let _ = &base;
                for &i in &level[range] {
                    let node = hcd.node(i);
                    // SAFETY: nodes within a level are distinct, and their
                    // children live at strictly larger k (already final,
                    // only read). No two nodes share a child.
                    let dst = unsafe { &mut *base.0.add(i as usize) };
                    for &c in &node.children {
                        let src = unsafe { &*base.0.add(c as usize) };
                        merge(dst, src);
                    }
                }
                Ok(())
            },
        )?;
    }
    // Tree depth in levels — the span of the accumulation.
    exec.add_counter("accumulate.levels", levels_run);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_core::try_phcd;
    use hcd_decomp::core_decomposition;
    use hcd_graph::GraphBuilder;

    #[test]
    fn accumulated_counts_equal_subtree_sizes() {
        // Build a non-trivial hierarchy and check vertex-count rollup.
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]) // K4
            .edges([(3, 4), (4, 5), (5, 6), (6, 4)]) // triangle + bridge
            .edges([(6, 7), (7, 8)])
            .build();
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        for exec in [
            Executor::sequential(),
            Executor::assist(4),
            Executor::simulated(2),
        ] {
            let mut counts: Vec<usize> = hcd.nodes().iter().map(|n| n.vertices.len()).collect();
            try_accumulate_bottom_up(&hcd, &mut counts, |a, b| *a += *b, &exec).unwrap();
            for i in 0..hcd.num_nodes() as u32 {
                assert_eq!(
                    counts[i as usize],
                    hcd.subtree_vertices(i).len(),
                    "node {i} in mode {}",
                    exec.mode_name()
                );
            }
        }
    }

    #[test]
    fn empty_forest_is_fine() {
        let g = GraphBuilder::new().build();
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let mut values: Vec<u64> = Vec::new();
        try_accumulate_bottom_up(&hcd, &mut values, |a, b| *a += *b, &Executor::assist(2)).unwrap();
        assert!(values.is_empty());
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let g = GraphBuilder::new().edges([(0, 1)]).build();
        let cores = core_decomposition(&g);
        let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
        let mut values = vec![0u64; hcd.num_nodes() + 1];
        try_accumulate_bottom_up(&hcd, &mut values, |a, b| *a += *b, &Executor::sequential())
            .unwrap();
    }
}
