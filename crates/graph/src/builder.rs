//! Edge-list to CSR construction.

use crate::csr::{CsrGraph, VertexId};

/// Builds an undirected simple [`CsrGraph`] from an arbitrary edge list.
///
/// The builder accepts edges in any order and orientation, possibly with
/// duplicates and self-loops; `build` symmetrizes, deduplicates, and drops
/// self-loops, producing sorted adjacency lists. This mirrors the paper's
/// setup where "all directed datasets are symmetrized".
///
/// # Examples
///
/// ```
/// use hcd_graph::GraphBuilder;
///
/// // Duplicates, reversed orientation, and self-loops are cleaned up.
/// let g = GraphBuilder::new()
///     .edges([(1, 0), (0, 1), (2, 2), (1, 2)])
///     .build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    min_vertices: usize,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one edge; orientation is irrelevant.
    pub fn edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.edges.push((u, v));
        self
    }

    /// Adds many edges.
    pub fn edges<I: IntoIterator<Item = (VertexId, VertexId)>>(mut self, it: I) -> Self {
        self.edges.extend(it);
        self
    }

    /// Forces the graph to contain at least `n` vertices, so that trailing
    /// isolated vertices are representable.
    pub fn min_vertices(mut self, n: usize) -> Self {
        self.min_vertices = n;
        self
    }

    /// Number of raw (uncleaned) edges currently staged.
    pub fn staged_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the CSR graph.
    pub fn build(self) -> CsrGraph {
        build_from_edges(self.edges, self.min_vertices)
    }
}

/// Symmetrizes, deduplicates, drops self-loops, and packs into CSR.
///
/// One counting scatter buckets both directions of every arc by source,
/// then each adjacency row is sorted and deduplicated in place:
/// `O(n + m log d)` for maximum degree `d`, never a sort of the whole arc
/// list.
pub fn build_from_edges(edges: Vec<(VertexId, VertexId)>, min_vertices: usize) -> CsrGraph {
    let mut n = min_vertices;
    for &(u, v) in &edges {
        n = n.max(u as usize + 1).max(v as usize + 1);
    }

    // Count both arc directions, skipping self-loops.
    let mut counts = vec![0usize; n + 1];
    for &(u, v) in &edges {
        if u != v {
            counts[u as usize + 1] += 1;
            counts[v as usize + 1] += 1;
        }
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts;

    // Scatter arcs.
    let mut cursor = offsets.clone();
    let mut neighbors = vec![0 as VertexId; offsets[n]];
    for &(u, v) in &edges {
        if u != v {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
    }
    drop(cursor);

    // Sort and deduplicate each adjacency list, compacting in place.
    let mut out_offsets = vec![0usize; n + 1];
    let mut write = 0usize;
    let mut read_ranges: Vec<(usize, usize)> = Vec::with_capacity(n);
    for v in 0..n {
        read_ranges.push((offsets[v], offsets[v + 1]));
    }
    for (v, &(start, end)) in read_ranges.iter().enumerate() {
        let slice = &mut neighbors[start..end];
        slice.sort_unstable();
        let mut prev: Option<VertexId> = None;
        let mut kept = 0usize;
        for i in 0..slice.len() {
            let x = slice[i];
            if Some(x) != prev {
                slice[kept] = x;
                kept += 1;
                prev = Some(x);
            }
        }
        // Move the deduped run to the global write cursor.
        neighbors.copy_within(start..start + kept, write);
        write += kept;
        out_offsets[v + 1] = write;
    }
    neighbors.truncate(write);

    CsrGraph::from_csr(out_offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deduplicates_parallel_edges() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 1), (1, 0), (0, 1)])
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn removes_self_loops() {
        let g = GraphBuilder::new().edges([(0, 0), (0, 1), (1, 1)]).build();
        assert_eq!(g.num_edges(), 1);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn min_vertices_adds_isolated_tail() {
        let g = GraphBuilder::new().edge(0, 1).min_vertices(10).build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn vertex_ids_beyond_min_vertices_extend_n() {
        let g = GraphBuilder::new().edge(7, 3).min_vertices(2).build();
        assert_eq!(g.num_vertices(), 8);
        assert!(g.has_edge(3, 7));
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn adjacency_sorted_after_build() {
        let g = GraphBuilder::new()
            .edges([(0, 5), (0, 2), (0, 9), (0, 1)])
            .build();
        assert_eq!(g.neighbors(0), &[1, 2, 5, 9]);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn only_self_loops_yields_isolated_vertices() {
        let g = GraphBuilder::new().edges([(0, 0), (3, 3)]).build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn staged_edges_counts_raw_input() {
        let b = GraphBuilder::new().edges([(0, 1), (0, 1)]);
        assert_eq!(b.staged_edges(), 2);
    }
}
