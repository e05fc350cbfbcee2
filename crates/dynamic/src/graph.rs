//! Mutable adjacency-set graph.

use hcd_graph::{CsrGraph, FxHashSet, VertexId};

/// An undirected simple graph that supports edge insertion and removal.
///
/// Adjacency is kept in hash sets for `O(1)` expected updates and
/// membership tests; convert to [`CsrGraph`] for the (immutable,
/// cache-friendly) algorithms of the rest of the workspace.
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    adj: Vec<FxHashSet<VertexId>>,
    num_edges: usize,
}

impl DynamicGraph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        DynamicGraph {
            adj: vec![FxHashSet::default(); n],
            num_edges: 0,
        }
    }

    /// Imports a static graph.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let mut dg = DynamicGraph::new(g.num_vertices());
        for (u, v) in g.edges() {
            dg.insert_edge(u, v);
        }
        dg
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Whether `{u, v}` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj[u as usize].contains(&v)
    }

    /// Iterates the neighbors of `v` (unordered).
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.adj[v as usize].iter().copied()
    }

    /// Ensures vertex ids up to `v` exist.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        if v as usize >= self.adj.len() {
            self.adj.resize_with(v as usize + 1, FxHashSet::default);
        }
    }

    /// Inserts `{u, v}`; returns `false` if it already existed or is a
    /// self-loop. Grows the vertex set as needed.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        self.ensure_vertex(u.max(v));
        if !self.adj[u as usize].insert(v) {
            return false;
        }
        self.adj[v as usize].insert(u);
        self.num_edges += 1;
        true
    }

    /// Removes `{u, v}`; returns `false` if it was absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.adj.len() || v as usize >= self.adj.len() {
            return false;
        }
        if !self.adj[u as usize].remove(&v) {
            return false;
        }
        self.adj[v as usize].remove(&u);
        self.num_edges -= 1;
        true
    }

    /// Snapshots into an immutable CSR graph.
    ///
    /// Each adjacency set is already duplicate- and self-loop-free, so
    /// the rows are copied straight into place and sorted there.
    pub fn to_csr(&self) -> CsrGraph {
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        let mut neighbors = Vec::with_capacity(2 * self.num_edges);
        offsets.push(0);
        for nbrs in &self.adj {
            let start = neighbors.len();
            neighbors.extend(nbrs.iter().copied());
            neighbors[start..].sort_unstable();
            offsets.push(neighbors.len());
        }
        CsrGraph::from_csr(offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = DynamicGraph::new(4);
        assert!(g.insert_edge(0, 1));
        assert!(!g.insert_edge(1, 0)); // duplicate
        assert!(!g.insert_edge(2, 2)); // self-loop
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn grows_on_demand() {
        let mut g = DynamicGraph::new(0);
        assert!(g.insert_edge(5, 9));
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(5), 1);
    }

    #[test]
    fn csr_roundtrip() {
        let csr = hcd_graph::GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (3, 4)])
            .min_vertices(6)
            .build();
        let dg = DynamicGraph::from_csr(&csr);
        assert_eq!(dg.to_csr(), csr);

        // Seeded churn with removals and vertices appended past the
        // initial range: the direct conversion must equal the builder's
        // output for the same edge set.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC5B);
        let mut g = DynamicGraph::new(40);
        for step in 0..2000u32 {
            let span = 40 + step / 50; // grows to 79
            let (u, v) = (rng.gen_range(0..span), rng.gen_range(0..span));
            if rng.gen_bool(0.3) {
                g.remove_edge(u, v);
            } else {
                g.insert_edge(u, v);
            }
        }
        assert!(g.num_vertices() > 40, "no vertex was appended");
        let mut edges = Vec::new();
        for u in 0..g.num_vertices() as VertexId {
            edges.extend(g.neighbors(u).filter(|&v| u < v).map(|v| (u, v)));
        }
        let built = hcd_graph::GraphBuilder::new()
            .edges(edges)
            .min_vertices(g.num_vertices())
            .build();
        let direct = g.to_csr();
        assert_eq!(direct, built);
        assert_eq!(direct.num_edges(), g.num_edges());
        direct.check_invariants().unwrap();
    }

    #[test]
    fn removal_of_missing_vertex_edge_is_noop() {
        let mut g = DynamicGraph::new(2);
        assert!(!g.remove_edge(0, 7));
        assert_eq!(g.num_edges(), 0);
    }
}
