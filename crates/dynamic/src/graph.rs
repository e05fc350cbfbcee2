//! A mutable graph whose edge store is one shared, sorted CSR.

use std::sync::Arc;

use hcd_graph::{CsrGraph, VertexId};

use crate::maintain::{BatchReport, EdgeUpdate};

/// An undirected simple graph that supports edge insertion and removal.
///
/// The edge set is the sorted [`CsrGraph`] itself, behind an [`Arc`] so
/// the graph a batch produced can be published without a copy. A batch
/// ([`DynamicCore::try_apply_batch`](crate::DynamicCore::try_apply_batch))
/// builds the next CSR in one merge pass: untouched row ranges are
/// copied whole and only the rows of the batch's net arc changes are
/// merged; [`DynamicGraph::apply`] is that merge on its own. Membership
/// is a binary search in a sorted row. The single-edge
/// [`DynamicGraph::insert_edge`] / [`DynamicGraph::remove_edge`] are
/// one-update merges, `O(n + m)` each.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    csr: Arc<CsrGraph>,
}

impl DynamicGraph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        DynamicGraph {
            csr: Arc::new(CsrGraph::empty(n)),
        }
    }

    /// Imports a static graph (one copy of its arrays).
    pub fn from_csr(g: &CsrGraph) -> Self {
        Self::from_shared(Arc::new(g.clone()))
    }

    /// Wraps an already shared CSR without copying it.
    pub(crate) fn from_shared(csr: Arc<CsrGraph>) -> Self {
        DynamicGraph { csr }
    }

    /// The current edge set, shared: cloning the `Arc` is the snapshot.
    pub fn csr(&self) -> &Arc<CsrGraph> {
        &self.csr
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.csr.degree(v)
    }

    /// Whether `{u, v}` is present (`false` when either endpoint is
    /// out of range).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let n = self.num_vertices();
        (u as usize) < n && (v as usize) < n && self.csr.has_edge(u, v)
    }

    /// Iterates the neighbors of `v` in ascending order.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.csr.neighbors(v).iter().copied()
    }

    /// Inserts `{u, v}`; returns `false` if it already existed or is a
    /// self-loop. Grows the vertex set as needed.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.apply_one(EdgeUpdate::Insert(u, v))
    }

    /// Removes `{u, v}`; returns `false` if it was absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.apply_one(EdgeUpdate::Remove(u, v))
    }

    fn apply_one(&mut self, update: EdgeUpdate) -> bool {
        self.apply(std::slice::from_ref(&update)).applied == 1
    }

    /// A copy of the current edge set as an owned CSR.
    pub fn to_csr(&self) -> CsrGraph {
        (*self.csr).clone()
    }

    /// Applies `updates` in order as one batch and reports its
    /// `applied`, `skipped` and `touched` (ascending, deduplicated). The
    /// report's `seq` stays 0 and `changed` empty: the graph keeps no
    /// batch numbering and no coreness.
    ///
    /// Updates to different pairs commute, so a stable sort by pair keeps
    /// each pair's updates in batch order and replays every group from the
    /// pair's presence before the batch (one binary search). Only pairs
    /// whose final presence differs from their initial one become arc
    /// changes; cancelling updates still count as applied. An applied
    /// insert grows the vertex set to cover its endpoints, even when a
    /// later update of the batch removes the edge again.
    pub fn apply(&mut self, updates: &[EdgeUpdate]) -> BatchReport {
        let mut report = BatchReport::default();
        let mut pairs: Vec<(VertexId, VertexId, bool)> = Vec::with_capacity(updates.len());
        for &update in updates {
            let (a, b, insert) = match update {
                EdgeUpdate::Insert(a, b) => (a, b, true),
                EdgeUpdate::Remove(a, b) => (a, b, false),
            };
            if a == b {
                report.skipped += 1;
            } else {
                pairs.push((a.min(b), a.max(b), insert));
            }
        }
        pairs.sort_by_key(|&(u, v, _)| (u, v));

        let g = &*self.csr;
        let mut n = g.num_vertices();
        // Net arc changes, both directions: (source, target, inserted).
        let mut arcs: Vec<(VertexId, VertexId, bool)> = Vec::new();
        let mut start = 0;
        while start < pairs.len() {
            let (u, v, _) = pairs[start];
            let end = start + pairs[start..].partition_point(|p| (p.0, p.1) == (u, v));
            let before = self.has_edge(u, v);
            let mut present = before;
            for &(_, _, insert) in &pairs[start..end] {
                if insert == present {
                    report.skipped += 1;
                    continue;
                }
                present = insert;
                report.applied += 1;
                report.touched.extend([u, v]);
                if insert {
                    n = n.max(v as usize + 1);
                }
            }
            if present != before {
                arcs.extend([(u, v, present), (v, u, present)]);
            }
            start = end;
        }
        report.touched.sort_unstable();
        report.touched.dedup();
        if report.applied > 0 {
            arcs.sort_unstable_by_key(|&(s, t, _)| (s, t));
            self.csr = Arc::new(merge(g, n, &arcs));
        }
        report
    }
}

/// The CSR of `g` with `n >= g.num_vertices()` vertices after applying
/// `arcs` (sorted by `(source, target)`; every insert absent from `g`,
/// every removal present). Row ranges without a change are copied whole
/// and their offsets shifted; each changed row is merged with its sorted
/// changes.
fn merge(g: &CsrGraph, n: usize, arcs: &[(VertexId, VertexId, bool)]) -> CsrGraph {
    let old_offsets = g.offsets();
    let old = g.raw_neighbors();
    let inserted = arcs.iter().filter(|a| a.2).count();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut neighbors = Vec::with_capacity(old.len() + 2 * inserted - arcs.len());
    offsets.push(0);

    // Copies rows `lo..hi` unchanged; rows past the old graph are empty.
    let copy_rows =
        |lo: usize, hi: usize, offsets: &mut Vec<usize>, neighbors: &mut Vec<VertexId>| {
            let old_hi = hi.min(g.num_vertices());
            if lo < old_hi {
                let (from, base) = (old_offsets[lo], neighbors.len());
                neighbors.extend_from_slice(&old[from..old_offsets[old_hi]]);
                offsets.extend(
                    old_offsets[lo + 1..=old_hi]
                        .iter()
                        .map(|&o| o - from + base),
                );
            }
            offsets.resize(offsets.len() + (hi - lo.max(old_hi)), neighbors.len());
        };

    let mut next_row = 0;
    let mut start = 0;
    while start < arcs.len() {
        let row = arcs[start].0 as usize;
        let end = start + arcs[start..].partition_point(|a| a.0 as usize == row);
        copy_rows(next_row, row, &mut offsets, &mut neighbors);
        let old_row = if row < g.num_vertices() {
            g.neighbors(row as VertexId)
        } else {
            &[]
        };
        let mut kept = 0;
        for &(_, target, insert) in &arcs[start..end] {
            let cut = kept + old_row[kept..].partition_point(|&x| x < target);
            neighbors.extend_from_slice(&old_row[kept..cut]);
            kept = cut;
            if insert {
                neighbors.push(target);
            } else {
                debug_assert_eq!(old_row.get(kept), Some(&target));
                kept += 1;
            }
        }
        neighbors.extend_from_slice(&old_row[kept..]);
        offsets.push(neighbors.len());
        next_row = row + 1;
        start = end;
    }
    copy_rows(next_row, n, &mut offsets, &mut neighbors);
    CsrGraph::from_csr(offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_graph::GraphBuilder;

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
        let csr = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (3, 4)])
            .min_vertices(6)
            .build();
        let dg = DynamicGraph::from_csr(&csr);
        assert_eq!(dg.to_csr(), csr);

        // Seeded churn with removals and vertices appended past the
        // initial range: the merged CSR must equal the builder's output
        // for the same edge set.
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
        let built = GraphBuilder::new()
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
        assert_eq!(g.num_vertices(), 2);
    }

    #[test]
    fn a_noop_batch_keeps_sharing_the_same_csr() {
        let mut g = DynamicGraph::from_csr(&GraphBuilder::new().edges([(0, 1)]).build());
        let before = Arc::clone(g.csr());
        let report = g.apply(&[EdgeUpdate::Insert(1, 0), EdgeUpdate::Remove(0, 5)]);
        assert_eq!((report.applied, report.skipped), (0, 2));
        assert!(Arc::ptr_eq(&before, g.csr()));
    }
}
