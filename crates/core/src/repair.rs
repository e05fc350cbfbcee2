//! Surgical repair of an HCD forest after a batch of edge updates.
//!
//! The serve writer used to rebuild the whole hierarchy with PHCD on
//! every batch. [`Hcd::repair`] instead splices the published forest:
//! starting from the exact changed region a
//! maintenance batch reports (vertices whose coreness moved, plus the
//! endpoints of the applied updates), it determines which tree nodes
//! can possibly be stale, rebuilds only those from the new graph, and
//! keeps everything else — cost proportional to the affected region.
//!
//! # The dirty region
//!
//! Let `D` be the input seeds expanded by their new-graph neighborhoods
//! plus any newly added vertices, and `K` the largest old or new
//! coreness over `D`. Only levels `0..=K` can change. Per level `k`,
//! the *dirty region* `R_k` is the union of the connected components of
//! the new `{coreness >= k}` subgraph that contain a seed of `D`.
//!
//! **Fragment containment**: every component of the new level-`k`
//! subgraph whose vertex set differs from its old counterpart contains
//! a seed — a fragment separates from its old component only across a
//! removed edge (both endpoints seeded) or a vertex that left the level
//! (seeded, and its surviving neighbors seeded by the neighborhood
//! expansion), and components merge only across inserted edges or
//! promoted vertices (again seeded). So rebuilding exactly the `R_k`
//! components replaces every node that could have changed.
//!
//! # Invalidation
//!
//! An old node is discarded iff (a) it lies on the ancestor chain of a
//! seed's old node — the chain records precisely the components the
//! seed used to belong to — or (b) it is the exact-level-`k` chain node
//! of a vertex of `R_k`, i.e. the old description of a component that
//! the dirty region now overlaps. Everything else survives verbatim,
//! including its vertex list (a kept node cannot contain a vertex whose
//! coreness moved: such vertices are seeds, and rule (a) would have
//! discarded the node).
//!
//! # Parents
//!
//! Fresh nodes — one per `(k, component of R_k)` with a non-empty
//! level-`k` slice — and kept nodes that lost their parent or gained a
//! possible interposed ancestor rescan levels downward, mirroring the
//! oracle: at each level, if the representative falls in `R_k` the
//! parent candidate is the fresh node of its component; otherwise the
//! component is untouched and the old ancestor chain (provably kept) is
//! authoritative. The result is renumbered through `Hcd::renumber`,
//! which reproduces PHCD's deterministic construction order.

use hcd_decomp::CoreDecomposition;
use hcd_graph::{CsrGraph, FxHashMap, FxHashSet, VertexId};

use crate::index::{Hcd, TreeNode, NO_NODE};

/// Per-level dirty region: members of `R_k` mapped to a component label
/// local to the level.
type Region = FxHashMap<VertexId, u32>;

impl Hcd {
    /// Repairs this hierarchy — assumed exact for the *previous* graph —
    /// into the hierarchy of `g` (whose exact decomposition is `cores`),
    /// given the `dirty` vertices of the change: every vertex whose
    /// coreness differs plus every endpoint of an applied edge update.
    /// Vertices may have been appended (`g` larger than before), never
    /// removed.
    ///
    /// Returns a forest canonically identical to a from-scratch
    /// construction, touching only nodes in the dirty region. The old
    /// index is consumed by value semantics of the caller (`&self` is
    /// read, the result is a new `Hcd`).
    pub fn repair(&self, g: &CsrGraph, cores: &CoreDecomposition, dirty: &[VertexId]) -> Hcd {
        let old_n = self.tids().len();
        let new_n = g.num_vertices();
        debug_assert!(new_n >= old_n, "vertices are never removed");
        let c_old = |v: VertexId| -> Option<u32> {
            if (v as usize) < old_n {
                Some(self.node(self.tid(v)).k)
            } else {
                None
            }
        };

        // Seed set: input ∪ new-graph neighborhoods ∪ appended vertices.
        let mut seeds: FxHashSet<VertexId> = FxHashSet::default();
        for &d in dirty {
            if seeds.insert(d) {
                for &x in g.neighbors(d) {
                    seeds.insert(x);
                }
            }
        }
        for v in old_n..new_n {
            seeds.insert(v as VertexId);
        }
        if seeds.is_empty() {
            return Hcd::from_parts(self.nodes().to_vec(), self.tids().to_vec());
        }
        let top = seeds
            .iter()
            .map(|&d| c_old(d).unwrap_or(0).max(cores.coreness(d)))
            .max()
            .unwrap_or(0);

        // Dirty regions R_0..R_K: whole components of the new level-k
        // subgraphs containing a seed, discovered by BFS from the seeds.
        let mut regions: Vec<Region> = Vec::with_capacity(top as usize + 1);
        for k in 0..=top {
            let mut region: Region = FxHashMap::default();
            let mut next_label = 0u32;
            let mut queue: Vec<VertexId> = Vec::new();
            for &s in &seeds {
                if cores.coreness(s) < k || region.contains_key(&s) {
                    continue;
                }
                let label = next_label;
                next_label += 1;
                region.insert(s, label);
                queue.push(s);
                while let Some(v) = queue.pop() {
                    for &x in g.neighbors(v) {
                        if cores.coreness(x) >= k && !region.contains_key(&x) {
                            region.insert(x, label);
                            queue.push(x);
                        }
                    }
                }
            }
            regions.push(region);
        }

        // Invalidation. Rule (a): the whole old ancestor chain of every
        // seed. Rule (b): the exact-level-k chain node of every vertex
        // of R_k; the walk also records interposition marks — the lowest
        // kept chain node whose parent link crosses level k may need a
        // fresh level-k ancestor spliced in, so it rescans its parent.
        let mut invalid: FxHashSet<u32> = FxHashSet::default();
        let mut rescan_marks: FxHashSet<u32> = FxHashSet::default();
        for &d in &seeds {
            if (d as usize) >= old_n {
                continue;
            }
            let mut cur = self.tid(d);
            while cur != NO_NODE {
                if !invalid.insert(cur) {
                    break; // chain tail already discarded
                }
                cur = self.node(cur).parent;
            }
        }
        for (k, region) in regions.iter().enumerate() {
            let k = k as u32;
            // One chain walk per distinct old node of the region.
            let tids: FxHashSet<u32> = region
                .keys()
                .filter(|&&v| (v as usize) < old_n)
                .map(|&v| self.tid(v))
                .collect();
            for &t in &tids {
                let mut prev = NO_NODE;
                let mut cur = t;
                while cur != NO_NODE && self.node(cur).k > k {
                    prev = cur;
                    cur = self.node(cur).parent;
                }
                if cur != NO_NODE && self.node(cur).k == k {
                    invalid.insert(cur);
                }
                if prev != NO_NODE {
                    rescan_marks.insert(prev);
                }
            }
        }

        // Assemble: kept nodes keep their vertex lists; fresh nodes are
        // one per (level, dirty component) with a non-empty level slice.
        let mut new_id = vec![NO_NODE; self.num_nodes()];
        let mut nodes: Vec<TreeNode> = Vec::new();
        for (i, n) in self.nodes().iter().enumerate() {
            if invalid.contains(&(i as u32)) {
                continue;
            }
            new_id[i] = nodes.len() as u32;
            nodes.push(TreeNode {
                k: n.k,
                vertices: n.vertices.clone(),
                parent: NO_NODE,
                children: Vec::new(),
            });
        }
        let kept = nodes.len();
        // fresh_at[k][label] -> node id (or NO_NODE if the slice is empty).
        let mut fresh_at: Vec<Vec<u32>> = Vec::with_capacity(regions.len());
        for (k, region) in regions.iter().enumerate() {
            let k = k as u32;
            let mut slices: FxHashMap<u32, Vec<VertexId>> = FxHashMap::default();
            let mut labels = 0u32;
            for (&v, &label) in region.iter() {
                labels = labels.max(label + 1);
                if cores.coreness(v) == k {
                    slices.entry(label).or_default().push(v);
                }
            }
            let mut at = vec![NO_NODE; labels as usize];
            for (label, mut vertices) in slices {
                vertices.sort_unstable();
                at[label as usize] = nodes.len() as u32;
                nodes.push(TreeNode {
                    k,
                    vertices,
                    parent: NO_NODE,
                    children: Vec::new(),
                });
            }
            fresh_at.push(at);
        }

        // Parent pointers. Kept nodes whose old parent survived (and
        // which gained no interposed ancestor) keep it; everything else
        // rescans downward from its level.
        let mut rescan: Vec<u32> = (kept as u32..nodes.len() as u32).collect();
        for (old, &id) in new_id.iter().enumerate() {
            if id == NO_NODE {
                continue;
            }
            let p = self.node(old as u32).parent;
            let parent_kept = p == NO_NODE || new_id[p as usize] != NO_NODE;
            if parent_kept && !rescan_marks.contains(&(old as u32)) {
                nodes[id as usize].parent = if p == NO_NODE {
                    NO_NODE
                } else {
                    new_id[p as usize]
                };
            } else {
                rescan.push(id);
            }
        }
        for &i in &rescan {
            let (k, rep) = {
                let n = &nodes[i as usize];
                (n.k, n.vertices[0])
            };
            // The representative's old chain, by level (empty for
            // appended vertices, which always fall inside R_k anyway).
            let mut chain: FxHashMap<u32, u32> = FxHashMap::default();
            if (rep as usize) < old_n {
                let mut cur = self.tid(rep);
                while cur != NO_NODE {
                    chain.insert(self.node(cur).k, cur);
                    cur = self.node(cur).parent;
                }
            }
            let mut parent = NO_NODE;
            for kp in (0..k).rev() {
                let in_region = regions.get(kp as usize).and_then(|r| r.get(&rep).copied());
                if let Some(label) = in_region {
                    let fresh = fresh_at[kp as usize][label as usize];
                    if fresh != NO_NODE {
                        parent = fresh;
                        break;
                    }
                } else if let Some(&old) = chain.get(&kp) {
                    debug_assert_ne!(
                        new_id[old as usize], NO_NODE,
                        "chain fallback hit an invalidated node"
                    );
                    parent = new_id[old as usize];
                    break;
                }
            }
            nodes[i as usize].parent = parent;
        }
        for i in 0..nodes.len() {
            let p = nodes[i].parent;
            if p != NO_NODE {
                nodes[p as usize].children.push(i as u32);
            }
        }

        // The vertex → node map: kept assignments survive, dirty-region
        // vertices point at their fresh slice node.
        let mut tid = vec![NO_NODE; new_n];
        for (i, n) in nodes.iter().enumerate() {
            for &v in &n.vertices {
                tid[v as usize] = i as u32;
            }
        }
        debug_assert!(
            tid.iter().all(|&t| t != NO_NODE),
            "repair left a vertex without a node"
        );

        Hcd::from_parts(nodes, tid).renumber()
    }
}

#[cfg(test)]
mod tests {
    use hcd_decomp::core_decomposition;
    use hcd_graph::{CsrGraph, GraphBuilder, VertexId};
    use hcd_par::Executor;

    use crate::{naive_hcd, try_phcd};

    /// Repairs the old graph's oracle hierarchy into the new graph's and
    /// checks it against a from-scratch oracle build, and byte for byte
    /// against PHCD's numbering (which `Hcd::renumber` must reproduce).
    fn check_repair(old: &CsrGraph, new: &CsrGraph, touched: &[VertexId]) {
        let old_cores = core_decomposition(old);
        let new_cores = core_decomposition(new);
        let before = naive_hcd(old, &old_cores);
        // dirty = changed coreness ∪ touched endpoints, as the serve
        // writer computes it from a BatchReport.
        let mut dirty: Vec<VertexId> = touched.to_vec();
        for v in 0..new.num_vertices() {
            let was = if v < old.num_vertices() {
                old_cores.coreness(v as VertexId)
            } else {
                0
            };
            if was != new_cores.coreness(v as VertexId) {
                dirty.push(v as VertexId);
            }
        }
        let repaired = before.repair(new, &new_cores, &dirty);
        repaired
            .validate(new, &new_cores)
            .unwrap_or_else(|e| panic!("repair produced an invalid hierarchy: {e}"));
        let fresh = naive_hcd(new, &new_cores);
        assert_eq!(repaired.canonicalize(), fresh.canonicalize());
        let built = try_phcd(new, &new_cores, &Executor::sequential()).unwrap();
        assert_eq!(repaired.nodes(), built.nodes());
        assert_eq!(repaired.tids(), built.tids());
        assert_eq!(repaired.roots(), built.roots());
    }

    fn figure1_pair() -> (CsrGraph, CsrGraph) {
        let old = crate::testutil::figure1_graph();
        let new = {
            // Remove an edge inside the 4-core by rebuilding without it.
            let mut b = GraphBuilder::new().min_vertices(old.num_vertices());
            for (u, v) in old.edges() {
                if (u, v) != (0, 1) {
                    b = b.edge(u, v);
                }
            }
            b.build()
        };
        (old, new)
    }

    #[test]
    fn repair_handles_in_core_removal() {
        let (old, new) = figure1_pair();
        check_repair(&old, &new, &[0, 1]);
    }

    #[test]
    fn repair_handles_bridge_split_without_coreness_change() {
        // Two triangles joined by a bridge: removing the bridge changes
        // no coreness but splits the level-1 component in two.
        let old = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
            .build();
        let new = GraphBuilder::new()
            .min_vertices(6)
            .edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .build();
        check_repair(&old, &new, &[2, 3]);
    }

    #[test]
    fn repair_handles_component_merge() {
        let old = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .build();
        let new = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
            .build();
        check_repair(&old, &new, &[0, 3]);
    }

    #[test]
    fn repair_handles_appended_vertices() {
        let old = GraphBuilder::new().edges([(0, 1), (1, 2), (2, 0)]).build();
        let new = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 7)])
            .build();
        // Insert(2,3), Insert(3,7) grew the vertex set to 8 (4..7
        // appended isolated).
        check_repair(&old, &new, &[2, 3, 7]);
    }

    #[test]
    fn repair_interposes_a_new_level_between_kept_nodes() {
        // K5 (coreness 4) with a pendant path 0-5, 5-6: levels 4 and 1.
        // Adding edges among {5,6,7} raises the middle to level 2, which
        // must interpose between the kept K5 node and the level-1 root.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b = b.edge(u, v);
            }
        }
        let old = b.edge(0, 5).edge(5, 6).min_vertices(8).build();
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b = b.edge(u, v);
            }
        }
        let new = b
            .edge(0, 5)
            .edge(5, 6)
            .edge(5, 7)
            .edge(6, 7)
            .min_vertices(8)
            .build();
        check_repair(&old, &new, &[5, 6, 7]);
    }

    #[test]
    fn repair_with_no_dirty_vertices_is_identity() {
        let g = crate::testutil::figure1_graph();
        let cores = core_decomposition(&g);
        let before = naive_hcd(&g, &cores);
        let repaired = before.repair(&g, &cores, &[]);
        assert_eq!(repaired.canonicalize(), before.canonicalize());
    }

    mod proptests {
        use super::*;
        use hcd_graph::GraphBuilder;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // Random base graph, random edge flips: repairing the old
            // hierarchy must reproduce the oracle of the new graph.
            #[test]
            fn repair_matches_oracle_on_random_flips(
                base in prop::collection::vec((0..14u32, 0..14u32), 0..50),
                flips in prop::collection::vec((0..14u32, 0..14u32), 1..8),
            ) {
                let mut edges: std::collections::BTreeSet<(u32, u32)> = base
                    .iter()
                    .filter(|&&(a, b)| a != b)
                    .map(|&(a, b)| (a.min(b), a.max(b)))
                    .collect();
                let old = GraphBuilder::new()
                    .min_vertices(14)
                    .edges(edges.iter().copied())
                    .build();
                let mut touched = Vec::new();
                for &(a, b) in &flips {
                    if a == b {
                        continue;
                    }
                    let e = (a.min(b), a.max(b));
                    if !edges.remove(&e) {
                        edges.insert(e);
                    }
                    touched.push(e.0);
                    touched.push(e.1);
                }
                let new = GraphBuilder::new()
                    .min_vertices(14)
                    .edges(edges.iter().copied())
                    .build();
                check_repair(&old, &new, &touched);
            }

            // Flips that also append vertices (growing the graph).
            #[test]
            fn repair_matches_oracle_when_the_graph_grows(
                base in prop::collection::vec((0..10u32, 0..10u32), 0..30),
                added in prop::collection::vec((0..16u32, 10..16u32), 1..6),
            ) {
                let old_edges: Vec<(u32, u32)> = base
                    .iter()
                    .filter(|&&(a, b)| a != b)
                    .map(|&(a, b)| (a.min(b), a.max(b)))
                    .collect();
                let old = GraphBuilder::new()
                    .min_vertices(10)
                    .edges(old_edges.iter().copied())
                    .build();
                let mut edges: std::collections::BTreeSet<(u32, u32)> =
                    old_edges.into_iter().collect();
                let mut touched = Vec::new();
                let mut max_v = 9u32;
                for &(a, b) in &added {
                    if a == b {
                        continue;
                    }
                    edges.insert((a.min(b), a.max(b)));
                    touched.push(a);
                    touched.push(b);
                    max_v = max_v.max(a).max(b);
                }
                let new = GraphBuilder::new()
                    .min_vertices(max_v as usize + 1)
                    .edges(edges.iter().copied())
                    .build();
                check_repair(&old, &new, &touched);
            }
        }
    }
}
