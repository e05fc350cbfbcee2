//! The HCD index structure (paper §II-B, Figure 2).

use hcd_decomp::CoreDecomposition;
use hcd_graph::{CsrGraph, VertexId};

/// Sentinel for "no tree node" (unset `tid`, or absent parent).
pub const NO_NODE: u32 = u32::MAX;

/// One k-core tree node `Ti` (Definition 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// The coreness `k` shared by every vertex in this node.
    pub k: u32,
    /// `V(Ti)`: the vertices of coreness `k` in the associated k-core.
    pub vertices: Vec<VertexId>,
    /// `P(Ti)`: parent node id, or [`NO_NODE`] for roots.
    pub parent: u32,
    /// `C(Ti)`: children node ids.
    pub children: Vec<u32>,
}

impl TreeNode {
    /// Whether this node is a root of the forest.
    pub fn is_root(&self) -> bool {
        self.parent == NO_NODE
    }
}

/// The hierarchical core decomposition of a graph: a forest of k-core
/// tree nodes plus the `tid` map from vertices to their node.
///
/// Construct with [`phcd()`](crate::phcd::phcd) (parallel), [`lcps()`](crate::lcps::lcps) (serial
/// baseline), or [`crate::naive_hcd`] (brute-force oracle).
#[derive(Debug, Clone)]
pub struct Hcd {
    nodes: Vec<TreeNode>,
    tid: Vec<u32>,
    roots: Vec<u32>,
}

impl Hcd {
    /// Assembles an index from parts, computing the root list.
    pub fn from_parts(nodes: Vec<TreeNode>, tid: Vec<u32>) -> Self {
        let roots = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_root())
            .map(|(i, _)| i as u32)
            .collect();
        Hcd { nodes, tid, roots }
    }

    /// Number of tree nodes `|T|` (a Table II column).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node with id `i`.
    pub fn node(&self, i: u32) -> &TreeNode {
        &self.nodes[i as usize]
    }

    /// All nodes, indexed by id.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// `tid(v)`: the node containing vertex `v`.
    pub fn tid(&self, v: VertexId) -> u32 {
        self.tid[v as usize]
    }

    /// The full `tid` table.
    pub fn tids(&self) -> &[u32] {
        &self.tid
    }

    /// Root node ids (one per connected component of the graph with at
    /// least one vertex, plus one per group of isolated vertices at
    /// level 0 merged by construction — see `naive_hcd` for semantics).
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// Depth of node `i` (roots have depth 0).
    pub fn depth(&self, i: u32) -> usize {
        let mut d = 0;
        let mut cur = i;
        while self.nodes[cur as usize].parent != NO_NODE {
            cur = self.nodes[cur as usize].parent;
            d += 1;
        }
        d
    }

    /// All vertices of the subtree rooted at `i` — exactly the vertex set
    /// of the node's *original k-core* (paper: "we can reconstruct a
    /// k-core by its associated tree node and offspring tree nodes").
    pub fn subtree_vertices(&self, i: u32) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.for_each_subtree_node(i, |_, node| out.extend_from_slice(&node.vertices));
        out
    }

    /// `subtree_vertices(i).len()`, summed over the subtree's nodes
    /// without materialising the vertex list.
    pub fn subtree_size(&self, i: u32) -> usize {
        let mut size = 0;
        self.for_each_subtree_node(i, |_, node| size += node.vertices.len());
        size
    }

    /// Calls `f(id, node)` on every node of the subtree rooted at `i`,
    /// depth first. The stack holds node ids only and is never allocated
    /// when `i` is a leaf.
    pub(crate) fn for_each_subtree_node(&self, i: u32, mut f: impl FnMut(u32, &TreeNode)) {
        let mut stack = Vec::new();
        let mut cur = i;
        loop {
            let node = &self.nodes[cur as usize];
            f(cur, node);
            stack.extend_from_slice(&node.children);
            match stack.pop() {
                Some(next) => cur = next,
                None => return,
            }
        }
    }

    /// Node ids in bottom-up order: every node appears before its parent.
    /// (Children have strictly larger `k`, so descending-`k` order works;
    /// ties are arbitrary but irrelevant since equal-`k` nodes are never
    /// related.)
    pub fn bottom_up_order(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.nodes.len() as u32).collect();
        ids.sort_by(|&a, &b| self.nodes[b as usize].k.cmp(&self.nodes[a as usize].k));
        ids
    }

    /// Graphviz DOT rendering of the forest (node label: `k` and vertex
    /// count, plus the vertices themselves for small nodes).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("digraph hcd {\n  rankdir=BT;\n  node [shape=box];\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let label = if n.vertices.len() <= 8 {
                format!("T{} (k={})\\n{:?}", i, n.k, n.vertices)
            } else {
                format!("T{} (k={})\\n|V|={}", i, n.k, n.vertices.len())
            };
            writeln!(s, "  n{i} [label=\"{label}\"];").unwrap();
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.parent != NO_NODE {
                writeln!(s, "  n{} -> n{};", i, n.parent).unwrap();
            }
        }
        s.push_str("}\n");
        s
    }

    /// Renumbers nodes into PHCD's construction order — levels
    /// descending, within a level ascending minimum member — with each
    /// node's vertices and children sorted and `tid` remapped to match.
    ///
    /// Because vertex ranks are the stable `(coreness, id)` order and a
    /// fresh node's pivot is its minimum-rank (= minimum-id) member in
    /// the shell, this is exactly the numbering PHCD assigns, so a
    /// forest assembled in any node order renumbers to the bytes a
    /// from-scratch build would produce.
    pub(crate) fn renumber(self) -> Hcd {
        let mut assembled = self.nodes;
        for n in &mut assembled {
            n.vertices.sort_unstable();
        }
        let mut order: Vec<u32> = (0..assembled.len() as u32).collect();
        order.sort_by_key(|&i| {
            let n = &assembled[i as usize];
            (std::cmp::Reverse(n.k), n.vertices[0])
        });
        let mut new_id = vec![0u32; assembled.len()];
        for (pos, &old) in order.iter().enumerate() {
            new_id[old as usize] = pos as u32;
        }
        let remap = |id: u32| {
            if id == NO_NODE {
                NO_NODE
            } else {
                new_id[id as usize]
            }
        };
        let nodes: Vec<TreeNode> = order
            .iter()
            .map(|&old| {
                let n = &mut assembled[old as usize];
                let mut children: Vec<u32> = n.children.iter().map(|&c| remap(c)).collect();
                children.sort_unstable();
                TreeNode {
                    k: n.k,
                    vertices: std::mem::take(&mut n.vertices),
                    parent: remap(n.parent),
                    children,
                }
            })
            .collect();
        let tid = self.tid.into_iter().map(remap).collect();
        Hcd::from_parts(nodes, tid)
    }

    /// Canonical form for structural equality across construction
    /// algorithms (node ids and orderings are algorithm-dependent).
    pub fn canonicalize(&self) -> CanonicalHcd {
        // Sort nodes by (k, min vertex); a node always has >= 1 vertex.
        let mut order: Vec<u32> = (0..self.nodes.len() as u32).collect();
        let key = |i: u32| {
            let n = &self.nodes[i as usize];
            (n.k, n.vertices.iter().copied().min().unwrap_or(u32::MAX))
        };
        order.sort_by_key(|&i| key(i));
        let mut new_id = vec![0u32; self.nodes.len()];
        for (pos, &old) in order.iter().enumerate() {
            new_id[old as usize] = pos as u32;
        }
        let nodes = order
            .iter()
            .map(|&old| {
                let n = &self.nodes[old as usize];
                let mut vertices = n.vertices.clone();
                vertices.sort_unstable();
                let parent = if n.parent == NO_NODE {
                    None
                } else {
                    Some(new_id[n.parent as usize])
                };
                CanonicalNode {
                    k: n.k,
                    vertices,
                    parent,
                }
            })
            .collect();
        CanonicalHcd { nodes }
    }

    /// Full validation against the graph and its core decomposition:
    /// checks that this index is *the* HCD of `g` (Definition 3). Used by
    /// tests; `O(n·depth + m)`-ish, not for hot paths.
    pub fn validate(&self, g: &CsrGraph, cores: &CoreDecomposition) -> Result<(), String> {
        let n = g.num_vertices();
        if self.tid.len() != n {
            return Err("tid length mismatch".into());
        }
        // Each vertex in exactly one node, with matching coreness.
        let mut seen = vec![false; n];
        for (i, node) in self.nodes.iter().enumerate() {
            if node.vertices.is_empty() {
                return Err(format!("node {i} is empty"));
            }
            for &v in &node.vertices {
                if seen[v as usize] {
                    return Err(format!("vertex {v} appears in two nodes"));
                }
                seen[v as usize] = true;
                if self.tid[v as usize] != i as u32 {
                    return Err(format!("tid({v}) inconsistent"));
                }
                if cores.coreness(v) != node.k {
                    return Err(format!(
                        "vertex {v} has coreness {} but is in a level-{} node",
                        cores.coreness(v),
                        node.k
                    ));
                }
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("some vertex is in no node".into());
        }
        // Parent/child cross-consistency and level ordering.
        for (i, node) in self.nodes.iter().enumerate() {
            if node.parent != NO_NODE {
                let p = &self.nodes[node.parent as usize];
                if p.k >= node.k {
                    return Err(format!(
                        "parent of node {i} has level {} >= {}",
                        p.k, node.k
                    ));
                }
                if !p.children.contains(&(i as u32)) {
                    return Err(format!("node {i} missing from parent's children"));
                }
            }
            for &c in &node.children {
                if self.nodes[c as usize].parent != i as u32 {
                    return Err(format!("child {c} of {i} disagrees about parent"));
                }
            }
        }
        // Structural ground truth.
        let truth = crate::oracle::naive_hcd(g, cores);
        if self.canonicalize() != truth.canonicalize() {
            return Err("structure differs from brute-force oracle".into());
        }
        Ok(())
    }
}

/// Order- and id-independent representation of an [`Hcd`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalHcd {
    /// Nodes sorted by `(k, min vertex)`, vertices sorted, parents
    /// referenced by position in this same ordering.
    pub nodes: Vec<CanonicalNode>,
}

/// A node of the canonical form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalNode {
    /// Level.
    pub k: u32,
    /// Sorted vertex set.
    pub vertices: Vec<VertexId>,
    /// Parent position in the canonical ordering.
    pub parent: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built HCD matching paper Figure 1/2 in miniature:
    /// T0 = root (k=1), children T1 (k=2) and T2 (k=2), T1's child T3 (k=3).
    fn sample() -> Hcd {
        let nodes = vec![
            TreeNode {
                k: 1,
                vertices: vec![0, 1],
                parent: NO_NODE,
                children: vec![1, 2],
            },
            TreeNode {
                k: 2,
                vertices: vec![2, 3],
                parent: 0,
                children: vec![3],
            },
            TreeNode {
                k: 2,
                vertices: vec![4, 5],
                parent: 0,
                children: vec![],
            },
            TreeNode {
                k: 3,
                vertices: vec![6, 7, 8],
                parent: 1,
                children: vec![],
            },
        ];
        let tid = vec![0, 0, 1, 1, 2, 2, 3, 3, 3];
        Hcd::from_parts(nodes, tid)
    }

    #[test]
    fn roots_detected() {
        let h = sample();
        assert_eq!(h.roots(), &[0]);
        assert!(h.node(0).is_root());
        assert!(!h.node(3).is_root());
    }

    #[test]
    fn depth_and_subtree() {
        let h = sample();
        assert_eq!(h.depth(0), 0);
        assert_eq!(h.depth(3), 2);
        let mut sub = h.subtree_vertices(1);
        sub.sort_unstable();
        assert_eq!(sub, vec![2, 3, 6, 7, 8]);
        let mut all = h.subtree_vertices(0);
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn bottom_up_order_children_first() {
        let h = sample();
        let order = h.bottom_up_order();
        let pos = |id: u32| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(3) < pos(1));
        assert!(pos(1) < pos(0));
        assert!(pos(2) < pos(0));
    }

    #[test]
    fn canonical_form_is_id_invariant() {
        let h = sample();
        // Same structure with node ids permuted (3 <-> 1 would break the
        // parent levels; permute 1 <-> 2 instead).
        let nodes = vec![
            TreeNode {
                k: 1,
                vertices: vec![1, 0],
                parent: NO_NODE,
                children: vec![2, 1],
            },
            TreeNode {
                k: 2,
                vertices: vec![5, 4],
                parent: 0,
                children: vec![],
            },
            TreeNode {
                k: 2,
                vertices: vec![3, 2],
                parent: 0,
                children: vec![3],
            },
            TreeNode {
                k: 3,
                vertices: vec![8, 6, 7],
                parent: 2,
                children: vec![],
            },
        ];
        let tid = vec![0, 0, 2, 2, 1, 1, 3, 3, 3];
        let h2 = Hcd::from_parts(nodes, tid);
        assert_eq!(h.canonicalize(), h2.canonicalize());
    }

    #[test]
    fn canonical_form_detects_parent_difference() {
        let h = sample();
        let mut nodes = h.nodes().to_vec();
        // Reparent T3 under T2 instead of T1.
        nodes[3].parent = 2;
        nodes[1].children.clear();
        nodes[2].children.push(3);
        let h2 = Hcd::from_parts(nodes, h.tids().to_vec());
        assert_ne!(h.canonicalize(), h2.canonicalize());
    }

    #[test]
    fn dot_export_mentions_every_node() {
        let h = sample();
        let dot = h.to_dot();
        for i in 0..4 {
            assert!(dot.contains(&format!("n{i} ")));
        }
        assert!(dot.contains("n3 -> n1"));
    }
}
