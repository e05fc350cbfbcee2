//! Hierarchical truss decomposition, constructed in parallel by the PHCD
//! kernel with triangle links (paper §VI).

use hcd_core::forest::{self, Links};
use hcd_graph::{CsrGraph, FxHashMap};
use hcd_par::{Executor, ParError};

use crate::decompose::TrussDecomposition;
use crate::edges::EdgeIndex;

/// Sentinel for "no node".
pub use hcd_core::NO_NODE;

/// One k-truss tree node: the edges of trussness `k` within one
/// (triangle-connected) k-truss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrussNode {
    /// The trussness level.
    pub k: u32,
    /// Edge ids of trussness `k` in this k-truss.
    pub edges: Vec<u32>,
    /// Parent node id, or [`NO_NODE`].
    pub parent: u32,
    /// Children node ids.
    pub children: Vec<u32>,
}

/// The hierarchical truss decomposition: a forest over k-trusses, with
/// `tid(e)` mapping each edge to its node. Mirrors `hcd_core::Hcd`, with
/// edges in the role of vertices.
#[derive(Debug, Clone)]
pub struct Htd {
    nodes: Vec<TrussNode>,
    tid: Vec<u32>,
}

impl Htd {
    /// Number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node with id `i`.
    pub fn node(&self, i: u32) -> &TrussNode {
        &self.nodes[i as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[TrussNode] {
        &self.nodes
    }

    /// The node containing edge `e`.
    pub fn tid(&self, e: u32) -> u32 {
        self.tid[e as usize]
    }

    /// All edge ids of the k-truss rooted at node `i` (the node's own
    /// edges plus its descendants').
    pub fn subtree_edges(&self, i: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![i];
        while let Some(x) = stack.pop() {
            let node = &self.nodes[x as usize];
            out.extend_from_slice(&node.edges);
            stack.extend_from_slice(&node.children);
        }
        out
    }

    /// Canonical form for structural comparison (ids are
    /// algorithm-dependent): nodes sorted by `(k, min edge)`, edge lists
    /// sorted, parents as canonical positions.
    pub fn canonicalize(&self) -> Vec<(u32, Vec<u32>, Option<u32>)> {
        let mut order: Vec<u32> = (0..self.nodes.len() as u32).collect();
        let key = |i: u32| {
            let n = &self.nodes[i as usize];
            (n.k, n.edges.iter().copied().min().unwrap_or(u32::MAX))
        };
        order.sort_by_key(|&i| key(i));
        let mut new_id = vec![0u32; self.nodes.len()];
        for (p, &old) in order.iter().enumerate() {
            new_id[old as usize] = p as u32;
        }
        order
            .iter()
            .map(|&old| {
                let n = &self.nodes[old as usize];
                let mut edges = n.edges.clone();
                edges.sort_unstable();
                let parent = (n.parent != NO_NODE).then(|| new_id[n.parent as usize]);
                (n.k, edges, parent)
            })
            .collect()
    }
}

/// Enumerates every triangle through edge `e = (u, v)`, invoking
/// `f(e1, e2)` on its other two edges.
fn triangles<F: FnMut(u32, u32)>(g: &CsrGraph, idx: &EdgeIndex, e: u32, mut f: F) {
    let (u, v) = idx.endpoints(e);
    let (a, b) = if g.degree(u) <= g.degree(v) {
        (u, v)
    } else {
        (v, u)
    };
    for &w in g.neighbors(a) {
        if w == b || !g.has_edge(w, b) {
            continue;
        }
        f(idx.eid(g, a, w), idx.eid(g, b, w));
    }
}

/// PHTD: parallel hierarchical truss decomposition — the PHCD kernel
/// with triangle links.
///
/// From `k = tmax` down to 2, the k-shell of *edges* is added; an edge
/// connects to the existing structure through triangles whose other two
/// edges have trussness `>= k`. The union-find runs over edge ranks in
/// `(trussness, id)` order, so the pivot of a component is its minimum
/// `(trussness, id)` edge, and PHCD's four steps group shell edges into
/// new tree nodes and resolve parents exactly as they do for vertices
/// (regions `truss.kpc` / `union` / `pivots` / `assign` / `parents`).
pub fn phtd(g: &CsrGraph, idx: &EdgeIndex, truss: &TrussDecomposition, exec: &Executor) -> Htd {
    match try_phtd(g, idx, truss, exec) {
        Ok(htd) => htd,
        Err(e) => e.raise(),
    }
}

/// Fallible version of [`phtd`]: the triangle-enumerating union pass
/// polls the executor's cancellation checkpoint at a coarse
/// adjacency-work stride, and every region checks it per chunk, so
/// cancel tokens and deadlines abort the construction promptly (see the
/// `hcd_par` failure model).
pub fn try_phtd(
    g: &CsrGraph,
    idx: &EdgeIndex,
    truss: &TrussDecomposition,
    exec: &Executor,
) -> Result<Htd, ParError> {
    let shells = truss.shells();
    let order: Vec<u32> = shells.concat();
    let mut level_start = vec![0];
    for shell in &shells {
        level_start.push(level_start[level_start.len() - 1] + shell.len());
    }
    let mut erank = vec![0u32; order.len()];
    for (r, &e) in order.iter().enumerate() {
        erank[e as usize] = r as u32;
    }
    // Triangle enumeration for edge e scans the adjacency of its
    // lower-degree endpoint: that is its work.
    let mut work = Vec::with_capacity(order.len() + 1);
    work.push(0u64);
    for (r, &e) in order.iter().enumerate() {
        let (u, v) = idx.endpoints(e);
        work.push(work[r] + g.degree(u).min(g.degree(v)) as u64 + 1);
    }
    let links = TriangleLinks {
        g,
        idx,
        order: &order,
        erank: &erank,
    };
    let (nodes, tid) =
        forest::try_build_forest(&order, &level_start, &work, &links, &forest::TRUSS, exec)?;
    let nodes = nodes
        .into_iter()
        .map(|n| TrussNode {
            k: n.k,
            edges: n.vertices,
            parent: n.parent,
            children: n.children,
        })
        .collect();
    Ok(Htd { nodes, tid })
}

/// PHTD's links: an edge is linked to the two other edges of every
/// triangle whose other two edges are both present at its level.
struct TriangleLinks<'a> {
    g: &'a CsrGraph,
    idx: &'a EdgeIndex,
    order: &'a [u32],
    erank: &'a [u32],
}

impl Links for TriangleLinks<'_> {
    fn for_each_link(&self, r: u32, lo: u32, mut f: impl FnMut(u32)) {
        triangles(self.g, self.idx, self.order[r as usize], |e1, e2| {
            let (r1, r2) = (self.erank[e1 as usize], self.erank[e2 as usize]);
            if r1 >= lo && r2 >= lo {
                f(r1);
                f(r2);
            }
        });
    }
}

/// Brute-force HTD from the definitions: per level, connected components
/// of the edge set `{e : t(e) >= k}` under triangle connectivity; a node
/// per component with a non-empty k-slice; parents by containment at the
/// nearest lower populated level. Test oracle.
pub fn naive_htd(g: &CsrGraph, idx: &EdgeIndex, truss: &TrussDecomposition) -> Htd {
    let m = idx.len();
    let t = truss.as_slice();
    let tmax = truss.tmax();
    let mut labels_per_k: Vec<Vec<u32>> = Vec::new();
    for k in 0..=tmax {
        // BFS over edges with trussness >= k via shared level-triangles.
        let mut labels = vec![u32::MAX; m];
        let mut count = 0u32;
        for s in 0..m as u32 {
            if labels[s as usize] != u32::MAX || t[s as usize] < k {
                continue;
            }
            let mut queue = vec![s];
            labels[s as usize] = count;
            while let Some(e) = queue.pop() {
                triangles(g, idx, e, |e1, e2| {
                    if t[e1 as usize] < k || t[e2 as usize] < k {
                        return;
                    }
                    for other in [e1, e2] {
                        if labels[other as usize] == u32::MAX {
                            labels[other as usize] = count;
                            queue.push(other);
                        }
                    }
                });
            }
            count += 1;
        }
        labels_per_k.push(labels);
    }

    let mut node_of: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    let mut nodes: Vec<TrussNode> = Vec::new();
    let mut rep: Vec<u32> = Vec::new();
    let mut tid = vec![NO_NODE; m];
    for e in 0..m as u32 {
        let k = t[e as usize];
        let comp = labels_per_k[k as usize][e as usize];
        let id = *node_of.entry((k, comp)).or_insert_with(|| {
            nodes.push(TrussNode {
                k,
                edges: Vec::new(),
                parent: NO_NODE,
                children: Vec::new(),
            });
            rep.push(e);
            (nodes.len() - 1) as u32
        });
        nodes[id as usize].edges.push(e);
        tid[e as usize] = id;
    }
    for i in 0..nodes.len() {
        let k = nodes[i].k;
        let e = rep[i];
        for kp in (0..k).rev() {
            let l = labels_per_k[kp as usize][e as usize];
            if let Some(&pid) = node_of.get(&(kp, l)) {
                nodes[i].parent = pid;
                nodes[pid as usize].children.push(i as u32);
                break;
            }
        }
    }
    Htd { nodes, tid }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::truss_decomposition;
    use hcd_graph::GraphBuilder;

    fn check(g: &CsrGraph) {
        let (idx, td) = truss_decomposition(g);
        let truth = naive_htd(g, &idx, &td).canonicalize();
        for exec in [
            Executor::sequential(),
            Executor::assist(4),
            Executor::simulated(3),
        ] {
            let got = phtd(g, &idx, &td, &exec);
            assert_eq!(got.canonicalize(), truth, "mode {}", exec.mode_name());
        }
    }

    #[test]
    fn two_cliques_sharing_an_edge() {
        // K4 on {0..4} and K4 on {2,3,4,5} share the edge (2,3): one
        // 4-truss each... actually sharing a triangle merges them at k=4?
        // The oracle decides; PHTD must match it.
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .edges([(2, 4), (3, 4), (2, 5), (3, 5), (4, 5)])
            .build();
        check(&g);
    }

    #[test]
    fn nested_truss_levels() {
        // K5 with a triangle fringe and a tree tail: trussness 5, 3, 2.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b = b.edge(u, v);
            }
        }
        let g = b
            .edges([(4, 5), (5, 6), (6, 4)]) // fringe triangle
            .edges([(6, 7), (7, 8)]) // tail
            .build();
        check(&g);
        let (idx, td) = truss_decomposition(&g);
        let h = phtd(&g, &idx, &td, &Executor::sequential());
        // Levels present: 5 (K5), 3 (fringe triangle), and two singleton
        // level-2 nodes (the tail edges are not triangle-connected).
        let mut ks: Vec<u32> = h.nodes().iter().map(|n| n.k).collect();
        ks.sort_unstable();
        assert_eq!(ks, vec![2, 2, 3, 5]);
        // The K5 node's parent chain reaches the level-2 root.
        let k5 = (0..h.num_nodes() as u32)
            .find(|&i| h.node(i).k == 5)
            .unwrap();
        assert_eq!(h.subtree_edges(k5).len(), 10);
    }

    #[test]
    fn disconnected_trusses() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0)])
            .edges([(10, 11), (11, 12), (12, 10)])
            .build();
        check(&g);
    }

    #[test]
    fn triangle_free_graph_single_level() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 3), (3, 4)])
            .build();
        let (idx, td) = truss_decomposition(&g);
        let h = phtd(&g, &idx, &td, &Executor::sequential());
        // All edges trussness 2; triangle connectivity leaves each edge
        // isolated -> one node per edge.
        assert_eq!(h.num_nodes(), idx.len());
        check(&g);
    }

    #[test]
    fn random_graphs_match_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        for case in 0..15 {
            let n = rng.gen_range(5..16u32);
            let mut b = GraphBuilder::new().min_vertices(n as usize);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.45) {
                        b = b.edge(u, v);
                    }
                }
            }
            let g = b.build();
            let (idx, td) = truss_decomposition(&g);
            let truth = naive_htd(&g, &idx, &td).canonicalize();
            let got = phtd(&g, &idx, &td, &Executor::assist(4)).canonicalize();
            assert_eq!(got, truth, "case {case}");
        }
    }

    #[test]
    fn respects_cancellation() {
        use hcd_par::{CancelToken, ParError};
        let mut b = GraphBuilder::new();
        for u in 0..8u32 {
            for v in (u + 1)..8 {
                b = b.edge(u, v);
            }
        }
        let g = b.build();
        let (idx, td) = truss_decomposition(&g);
        let exec = Executor::assist(2);
        let token = CancelToken::new();
        token.cancel();
        exec.set_cancel(token);
        let got = try_phtd(&g, &idx, &td, &exec).map(|_| ());
        assert!(matches!(got, Err(ParError::Cancelled)));
        // Clearing the token makes the same executor usable again.
        exec.clear_cancel();
        let truth = naive_htd(&g, &idx, &td).canonicalize();
        let h = try_phtd(&g, &idx, &td, &exec).unwrap();
        assert_eq!(h.canonicalize(), truth);
    }

    #[test]
    fn every_edge_in_exactly_one_node() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 0)])
            .build();
        let (idx, td) = truss_decomposition(&g);
        let h = phtd(&g, &idx, &td, &Executor::sequential());
        let total: usize = h.nodes().iter().map(|n| n.edges.len()).sum();
        assert_eq!(total, idx.len());
        for e in 0..idx.len() as u32 {
            assert!(h.node(h.tid(e)).edges.contains(&e));
        }
    }
}
