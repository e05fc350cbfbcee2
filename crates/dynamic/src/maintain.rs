//! Batch core maintenance by recomputation on the merged CSR.

use std::sync::Arc;

use hcd_decomp::{core_decomposition, try_core_decomposition, CoreDecomposition};
use hcd_graph::{CsrGraph, VertexId};
use hcd_par::{Executor, ParError};

use crate::graph::DynamicGraph;

/// One edge update of a batch, applied by [`DynamicCore::apply_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// Insert the edge `{u, v}` (no-op for duplicates and self-loops).
    Insert(VertexId, VertexId),
    /// Remove the edge `{u, v}` (no-op if absent).
    Remove(VertexId, VertexId),
}

/// What a batch of updates did: how many edges actually changed, which
/// endpoints they touched, and which vertices' coreness moved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Stable 1-based sequence number of this batch: the Nth batch ever
    /// applied to this [`DynamicCore`] reports `seq == N`. Durability
    /// layers persist it with each write-ahead-log record so replay and
    /// differential oracles can cross-check exactly which batches were
    /// acknowledged before a crash.
    pub seq: u64,
    /// Updates that changed the edge set.
    pub applied: usize,
    /// Updates that were no-ops (duplicate inserts, self-loops, removals
    /// of absent edges).
    pub skipped: usize,
    /// Vertices whose coreness differs from before the batch, in
    /// ascending order. Empty for a batch that only touched edges
    /// between vertices whose coreness was unaffected.
    pub changed: Vec<VertexId>,
    /// Endpoints of the applied (edge-set-changing) updates, deduplicated
    /// and ascending. Together with `changed` this is the dirty seed set
    /// of a surgical hierarchy repair ([`hcd_core::Hcd::repair`]): connectivity can
    /// only change across these edges even when no coreness moves.
    pub touched: Vec<VertexId>,
}

impl BatchReport {
    /// Whether the batch left every coreness value untouched.
    pub fn coreness_unchanged(&self) -> bool {
        self.changed.is_empty()
    }
}

/// A dynamic graph with exact coreness after every batch and an
/// on-demand HCD.
///
/// Each batch that changes the edge set merges its net arc changes into
/// the next CSR ([`DynamicGraph`], timed as the `dynamic.merge`
/// histogram) and recomputes coreness on it with
/// [`try_core_decomposition`] (region `bz.peel` on a one-worker
/// executor, regions `pkc.*` otherwise), so cancellation, deadlines,
/// fault injection and metrics govern maintenance exactly as they govern
/// construction. The CSR is shared ([`DynamicGraph::csr`]), so a caller
/// that publishes the new state never copies the graph.
///
/// # Examples
///
/// ```
/// use hcd_dynamic::DynamicCore;
///
/// let mut dc = DynamicCore::new(4);
/// dc.insert_edge(0, 1);
/// dc.insert_edge(1, 2);
/// dc.insert_edge(2, 0); // triangle: everyone reaches coreness 2
/// assert_eq!(dc.coreness(0), 2);
/// dc.remove_edge(1, 2);
/// assert_eq!(dc.coreness(0), 1);
/// ```
pub struct DynamicCore {
    g: DynamicGraph,
    cores: CoreDecomposition,
    /// Batches applied so far; stamps [`BatchReport::seq`].
    seq: u64,
}

impl DynamicCore {
    /// An edgeless dynamic graph with `n` vertices (all coreness 0).
    pub fn new(n: usize) -> Self {
        Self::from_parts(
            Arc::new(CsrGraph::empty(n)),
            CoreDecomposition::from_coreness(vec![0; n]),
        )
    }

    /// Imports a static graph, computing its decomposition once.
    pub fn from_csr(g: &CsrGraph) -> Self {
        Self::from_parts(Arc::new(g.clone()), core_decomposition(g))
    }

    /// Wraps a shared graph and its already computed core decomposition,
    /// copying neither.
    pub fn from_parts(g: Arc<CsrGraph>, cores: CoreDecomposition) -> Self {
        debug_assert_eq!(cores.len(), g.num_vertices());
        DynamicCore {
            g: DynamicGraph::from_shared(g),
            cores,
            seq: 0,
        }
    }

    /// The sequence number of the last applied batch (0 before any).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Overrides the batch sequence counter. Used by recovery: after
    /// reloading a checkpoint taken at batch `seq`, replayed WAL batches
    /// must continue the original numbering so cross-checks against
    /// pre-crash acknowledgements line up.
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// The underlying dynamic graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.g
    }

    /// Current coreness of `v`.
    pub fn coreness(&self, v: VertexId) -> u32 {
        self.cores.coreness(v)
    }

    /// The full coreness array.
    pub fn coreness_slice(&self) -> &[u32] {
        self.cores.as_slice()
    }

    /// A [`CoreDecomposition`] snapshot of the current state.
    pub fn decomposition(&self) -> CoreDecomposition {
        self.cores.clone()
    }

    /// Whether every update in `batch` would be a no-op against the
    /// current edge set: duplicate inserts, self-loops, and removals of
    /// absent edges. Because a no-op update leaves the graph untouched,
    /// checking each update against the *unmutated* graph is exact.
    pub fn batch_is_noop(&self, updates: &[EdgeUpdate]) -> bool {
        updates.iter().all(|&u| match u {
            EdgeUpdate::Insert(a, b) => a == b || self.g.has_edge(a, b),
            EdgeUpdate::Remove(a, b) => !self.g.has_edge(a, b),
        })
    }

    /// Inserts `{u, v}` and updates coreness. Returns `false` (and leaves
    /// everything untouched) for duplicates and self-loops. Does not
    /// advance the batch sequence number.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.single_update(EdgeUpdate::Insert(u, v))
    }

    /// Removes `{u, v}` and updates coreness. Returns `false` if the edge
    /// was absent. Does not advance the batch sequence number.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.single_update(EdgeUpdate::Remove(u, v))
    }

    fn single_update(&mut self, update: EdgeUpdate) -> bool {
        let seq = self.seq;
        let report = self.apply_batch(std::slice::from_ref(&update));
        self.seq = seq;
        report.applied == 1
    }

    /// Applies a whole batch of edge updates and reports the changed
    /// region. Runs [`DynamicCore::try_apply_batch`] on a private
    /// sequential executor. That executor has no deadline, cancellation
    /// token or fault plan, so the one failure left is a panicking chunk
    /// body.
    ///
    /// # Panics
    ///
    /// If the maintenance panics; the message carries the original
    /// payload.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> BatchReport {
        self.try_apply_batch(updates, &Executor::sequential())
            .unwrap_or_else(|e| panic!("batch maintenance failed: {e}"))
    }

    /// Applies a whole batch of edge updates and reports the changed
    /// region.
    ///
    /// The updates are applied in order (order matters only for
    /// classifying repeated updates of one pair within the batch), and
    /// their net arc changes are merged into the next CSR in one pass
    /// (histogram `dynamic.merge`). A batch that changed the edge set then
    /// recomputes coreness on that CSR with [`try_core_decomposition`]
    /// (bin-sort peeling on a one-worker executor, PKC otherwise);
    /// `changed` is the ascending diff of the old and new coreness. A
    /// batch that applied nothing opens no region.
    ///
    /// Counters `dynamic.affected_vertices` and
    /// `dynamic.traversal_edges` report what the recompute examined: the
    /// vertex count and the arc count (2m) of the new graph.
    ///
    /// On `Err` (cancellation, deadline, injected fault) the graph
    /// mutation is kept — the batch was already logged by durable
    /// callers — and coreness is restored to the exact decomposition of
    /// the mutated graph with a sequential recomputation, so the writer
    /// state never diverges from its log. The sequence number advances
    /// on every call, succeed or fail, matching WAL record numbering.
    pub fn try_apply_batch(
        &mut self,
        updates: &[EdgeUpdate],
        exec: &Executor,
    ) -> Result<BatchReport, ParError> {
        self.seq += 1;
        let mut report = {
            let _merge = exec.time("dynamic.merge");
            self.g.apply(updates)
        };
        report.seq = self.seq;
        if report.applied == 0 {
            return Ok(report);
        }

        let csr = self.g.csr();
        let cores = match try_core_decomposition(csr, exec) {
            Ok(cores) => cores,
            Err(e) => {
                // The peel was abandoned mid-flight; restore the
                // exact-coreness invariant so memory stays consistent with
                // the (kept) graph mutation and the durable log.
                self.cores = core_decomposition(csr);
                return Err(e);
            }
        };
        exec.add_counter("dynamic.affected_vertices", csr.num_vertices() as u64);
        exec.add_counter("dynamic.traversal_edges", csr.num_arcs() as u64);
        let old = self.cores.as_slice();
        report.changed = (0..cores.len() as VertexId)
            .filter(|&v| cores.coreness(v) != old.get(v as usize).copied().unwrap_or(0))
            .collect();
        self.cores = cores;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_graph::GraphBuilder;
    use std::collections::BTreeSet;

    fn assert_matches_recompute(dc: &DynamicCore) {
        let snapshot = dc.graph().to_csr();
        let expect = core_decomposition(&snapshot);
        assert_eq!(
            dc.coreness_slice(),
            expect.as_slice(),
            "maintained coreness diverged from recomputation"
        );
    }

    #[test]
    fn triangle_up_and_down() {
        let mut dc = DynamicCore::new(3);
        dc.insert_edge(0, 1);
        assert_matches_recompute(&dc);
        dc.insert_edge(1, 2);
        assert_matches_recompute(&dc);
        dc.insert_edge(2, 0);
        assert_eq!(dc.coreness_slice(), &[2, 2, 2]);
        dc.remove_edge(0, 1);
        assert_eq!(dc.coreness_slice(), &[1, 1, 1]);
        assert_matches_recompute(&dc);
    }

    #[test]
    fn growing_a_clique_promotes_stepwise() {
        let mut dc = DynamicCore::new(5);
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                dc.insert_edge(u, v);
                assert_matches_recompute(&dc);
            }
        }
        assert!(dc.coreness_slice().iter().all(|&c| c == 4));
    }

    #[test]
    fn dismantling_a_clique_demotes_stepwise() {
        let mut b = hcd_graph::GraphBuilder::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b = b.edge(u, v);
            }
        }
        let mut dc = DynamicCore::from_csr(&b.build());
        let edges: Vec<(u32, u32)> = dc.graph().to_csr().edges().collect();
        for (u, v) in edges {
            dc.remove_edge(u, v);
            assert_matches_recompute(&dc);
        }
        assert!(dc.coreness_slice().iter().all(|&c| c == 0));
    }

    #[test]
    fn insertion_between_different_coreness_regions() {
        // Triangle (coreness 2) + path (coreness 1); bridging them must
        // not promote anyone.
        let g = hcd_graph::GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (3, 4)])
            .build();
        let mut dc = DynamicCore::from_csr(&g);
        dc.insert_edge(0, 3);
        assert_matches_recompute(&dc);
        assert_eq!(dc.coreness(3), 1);
        assert_eq!(dc.coreness(0), 2);
    }

    #[test]
    fn duplicate_and_selfloop_are_noops() {
        let mut dc = DynamicCore::new(3);
        dc.insert_edge(0, 1);
        let before = dc.coreness_slice().to_vec();
        assert!(!dc.insert_edge(0, 1));
        assert!(!dc.insert_edge(2, 2));
        assert!(!dc.remove_edge(0, 2));
        assert_eq!(dc.coreness_slice(), before.as_slice());
    }

    #[test]
    fn noop_detection_matches_application() {
        let mut dc = DynamicCore::new(3);
        dc.insert_edge(0, 1);
        assert!(dc.batch_is_noop(&[]));
        assert!(dc.batch_is_noop(&[
            EdgeUpdate::Insert(0, 1), // duplicate
            EdgeUpdate::Insert(2, 2), // self-loop
            EdgeUpdate::Remove(0, 2), // absent
            EdgeUpdate::Remove(7, 9), // out of range
            EdgeUpdate::Remove(0, 9), // half out of range
        ]));
        assert!(!dc.batch_is_noop(&[EdgeUpdate::Insert(0, 1), EdgeUpdate::Insert(1, 2)]));
        // An insert that grows the vertex set is never a no-op.
        assert!(!dc.batch_is_noop(&[EdgeUpdate::Insert(0, 5)]));
        assert!(!dc.batch_is_noop(&[EdgeUpdate::Remove(0, 1)]));
    }

    #[test]
    fn hcd_of_maintained_csr_follows_updates() {
        let mut dc = DynamicCore::new(0);
        dc.insert_edge(0, 1);
        dc.insert_edge(1, 2);
        dc.insert_edge(2, 0);
        let exec = Executor::sequential();
        let hcd = hcd_core::try_phcd(dc.graph().csr(), &dc.decomposition(), &exec).unwrap();
        assert_eq!(hcd.num_nodes(), 1);
        assert_eq!(hcd.node(0).k, 2);
        dc.insert_edge(2, 3);
        let cores = dc.decomposition();
        let snapshot = dc.graph().csr();
        let hcd = hcd_core::try_phcd(snapshot, &cores, &exec).unwrap();
        assert_eq!(snapshot.num_edges(), 4);
        assert_eq!(hcd.num_nodes(), 2);
        // The refreshed hierarchy matches a from-scratch construction.
        let fresh = hcd_core::naive_hcd(snapshot, &cores);
        assert_eq!(hcd.canonicalize(), fresh.canonicalize());
    }

    #[test]
    fn grows_vertex_set_on_insert() {
        let mut dc = DynamicCore::new(0);
        dc.insert_edge(7, 3);
        assert_eq!(dc.coreness(7), 1);
        assert_eq!(dc.coreness(0), 0);
        assert_matches_recompute(&dc);
    }

    #[test]
    fn batch_equals_singles_and_reports_exact_changed_region() {
        // Triangle {0,1,2} + path 2-3-4. The batch completes K4 on
        // {0,1,2,3} (promoting all four to coreness 3) and strips the
        // pendant edge (demoting 4 to 0).
        let g = hcd_graph::GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
            .build();
        let mut batch = DynamicCore::from_csr(&g);
        let mut singles = DynamicCore::from_csr(&g);
        let updates = [
            EdgeUpdate::Insert(1, 3),
            EdgeUpdate::Insert(0, 3),
            EdgeUpdate::Remove(3, 4),
        ];
        let before = batch.coreness_slice().to_vec();
        let report = batch.apply_batch(&updates);
        singles.insert_edge(1, 3);
        singles.insert_edge(0, 3);
        singles.remove_edge(3, 4);
        assert_eq!(batch.coreness_slice(), singles.coreness_slice());
        assert_eq!(report.applied, 3);
        assert_eq!(report.skipped, 0);
        // 0,1,2: 2→3; 3: 1→3; 4: 1→0 — every vertex moved.
        assert_eq!(batch.coreness_slice(), &[3, 3, 3, 3, 0]);
        assert_ne!(batch.coreness_slice(), before.as_slice());
        assert_eq!(report.changed, vec![0, 1, 2, 3, 4]);
        assert_eq!(report.touched, vec![0, 1, 3, 4]);
        assert_matches_recompute(&batch);
    }

    #[test]
    fn batch_counts_duplicate_inserts_and_missing_removals_as_skipped() {
        let mut dc = DynamicCore::new(3);
        dc.insert_edge(0, 1);
        let report = dc.apply_batch(&[
            EdgeUpdate::Insert(0, 1), // duplicate
            EdgeUpdate::Insert(1, 1), // self-loop
            EdgeUpdate::Remove(0, 2), // absent
            EdgeUpdate::Insert(1, 2), // real
        ]);
        assert_eq!(report.applied, 1);
        assert_eq!(report.skipped, 3);
        assert_eq!(report.changed, vec![2]); // 2 went 0 -> 1
        assert_eq!(report.touched, vec![1, 2]);
        assert_matches_recompute(&dc);
    }

    #[test]
    fn batch_with_cancelling_updates_reports_no_change() {
        let mut dc = DynamicCore::new(4);
        dc.insert_edge(0, 1);
        dc.insert_edge(1, 2);
        let report = dc.apply_batch(&[
            EdgeUpdate::Insert(2, 3),
            EdgeUpdate::Remove(2, 3), // cancels within the batch
        ]);
        assert_eq!(report.applied, 2);
        assert!(report.coreness_unchanged(), "{report:?}");
        assert_matches_recompute(&dc);
    }

    #[test]
    fn empty_batch_is_a_noop_but_still_numbered() {
        let mut dc = DynamicCore::new(2);
        dc.insert_edge(0, 1);
        let report = dc.apply_batch(&[]);
        assert_eq!(
            report,
            BatchReport {
                seq: 1,
                ..BatchReport::default()
            }
        );
    }

    #[test]
    fn batch_sequence_numbers_are_monotone_and_restorable() {
        let mut dc = DynamicCore::new(4);
        assert_eq!(dc.seq(), 0);
        assert_eq!(dc.apply_batch(&[EdgeUpdate::Insert(0, 1)]).seq, 1);
        assert_eq!(dc.apply_batch(&[EdgeUpdate::Insert(1, 2)]).seq, 2);
        assert_eq!(dc.seq(), 2);
        // Recovery resumes numbering from the checkpoint's sequence.
        let mut recovered = DynamicCore::from_csr(&dc.graph().to_csr());
        recovered.set_seq(2);
        assert_eq!(recovered.apply_batch(&[EdgeUpdate::Insert(2, 3)]).seq, 3);
    }

    #[test]
    fn batch_splitting_a_component_demotes_both_halves() {
        // Two triangles joined by a bridge; removing the bridge splits
        // the component but coreness (2 in each triangle) is unaffected,
        // while dismantling one triangle demotes only that half.
        let g = hcd_graph::GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
            .build();
        let mut dc = DynamicCore::from_csr(&g);
        let split = dc.apply_batch(&[EdgeUpdate::Remove(2, 3)]);
        assert!(split.coreness_unchanged(), "{split:?}");
        assert_eq!(split.touched, vec![2, 3]);
        assert_matches_recompute(&dc);
        let dismantle = dc.apply_batch(&[EdgeUpdate::Remove(3, 4)]);
        assert_eq!(dismantle.changed, vec![3, 4, 5]);
        assert_matches_recompute(&dc);
    }

    #[test]
    fn regions_and_counters_cover_the_recompute() {
        let g = hcd_graph::GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
            .build();
        let exec = Executor::sequential().with_metrics();
        let mut dc = DynamicCore::from_csr(&g);
        dc.try_apply_batch(&[EdgeUpdate::Insert(1, 3), EdgeUpdate::Remove(3, 4)], &exec)
            .unwrap();
        let m = exec.take_metrics();
        let names: Vec<_> = m.regions.iter().map(|r| r.name).collect();
        // One worker: the recompute is the single bin-sort region.
        assert!(names.contains(&"bz.peel"), "{names:?}");
        assert!(names.iter().all(|n| *n == "bz.peel"), "{names:?}");
        // The recompute examined the whole new graph: n = 5, 2m = 10.
        let affected = m.get_counter("dynamic.affected_vertices").unwrap();
        assert_eq!((affected.kind, affected.value), ("sum", 5));
        let traversed = m.get_counter("dynamic.traversal_edges").unwrap();
        assert_eq!((traversed.kind, traversed.value), ("sum", 10));
        // The merged CSR is exact.
        let expect = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (1, 3)])
            .min_vertices(5)
            .build();
        assert_eq!(**dc.graph().csr(), expect);
    }

    #[test]
    fn faults_in_the_recompute_leave_exact_coreness_behind() {
        use hcd_par::{Fault, FaultPlan};
        let g = hcd_graph::GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
            .build();
        // On one worker the recompute is the single `bz.peel` region
        // (region 0): panic in its chunk, then cancel in it.
        for fault in [Fault::Panic, Fault::Cancel] {
            let exec = Executor::sequential();
            exec.set_fault_plan(FaultPlan::new().inject(0, 0, fault));
            let mut dc = DynamicCore::from_csr(&g);
            let seq_before = dc.seq();
            let err = dc
                .try_apply_batch(&[EdgeUpdate::Insert(1, 3), EdgeUpdate::Remove(3, 4)], &exec)
                .unwrap_err();
            match fault {
                Fault::Panic => assert!(matches!(err, ParError::Panicked { .. }), "{err:?}"),
                _ => assert!(matches!(err, ParError::Cancelled), "{err:?}"),
            }
            // The mutation is kept, the sequence number advanced, and
            // coreness was restored to the exact decomposition.
            assert_eq!(dc.seq(), seq_before + 1);
            assert!(dc.graph().has_edge(1, 3));
            assert!(!dc.graph().has_edge(3, 4));
            assert_matches_recompute(&dc);
            // A clean batch afterwards reports against the restored state.
            let report = dc.apply_batch(&[EdgeUpdate::Insert(3, 4)]);
            assert_eq!(report.changed, vec![4]);
            assert_matches_recompute(&dc);
        }
    }

    /// The batch contract on a `BTreeSet` edge set: every update in
    /// order, filling `applied`, `skipped` and `touched` (not `changed`).
    fn model_apply(
        edges: &mut BTreeSet<(VertexId, VertexId)>,
        n: &mut usize,
        updates: &[EdgeUpdate],
    ) -> BatchReport {
        let mut report = BatchReport::default();
        for &update in updates {
            let (a, b, insert) = match update {
                EdgeUpdate::Insert(a, b) => (a, b, true),
                EdgeUpdate::Remove(a, b) => (a, b, false),
            };
            let key = (a.min(b), a.max(b));
            let applied = a != b
                && if insert {
                    edges.insert(key)
                } else {
                    edges.remove(&key)
                };
            if !applied {
                report.skipped += 1;
                continue;
            }
            report.applied += 1;
            report.touched.extend([a, b]);
            if insert {
                *n = (*n).max(key.1 as usize + 1);
            }
        }
        report.touched.sort_unstable();
        report.touched.dedup();
        report
    }

    /// Applies `updates` as one batch to the graph `edges` on `n`
    /// vertices and checks the merged CSR, the no-op test and the whole
    /// [`BatchReport`] against the model.
    pub(super) fn check_against_model(
        edges: &BTreeSet<(VertexId, VertexId)>,
        n: usize,
        updates: &[EdgeUpdate],
    ) {
        let build = |edges: &BTreeSet<(VertexId, VertexId)>, n: usize| {
            GraphBuilder::new()
                .edges(edges.iter().copied())
                .min_vertices(n)
                .build()
        };
        let before = build(edges, n);
        let mut dc = DynamicCore::from_csr(&before);
        let (mut want_edges, mut want_n) = (edges.clone(), n);
        let mut want = model_apply(&mut want_edges, &mut want_n, updates);
        want.seq = 1;
        let after = build(&want_edges, want_n);
        if want.applied > 0 {
            let (old, new) = (core_decomposition(&before), core_decomposition(&after));
            want.changed = (0..want_n as VertexId)
                .filter(|&v| {
                    new.coreness(v) != old.as_slice().get(v as usize).copied().unwrap_or(0)
                })
                .collect();
        }
        let context = format!("{updates:?} on {edges:?} over {n} vertices");
        assert_eq!(dc.batch_is_noop(updates), want.applied == 0, "{context}");
        let report = dc.apply_batch(updates);
        let merged = dc.graph().csr();
        merged
            .check_invariants()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        assert_eq!(**merged, after, "{context}");
        assert_eq!(report, want, "{context}");
        assert_eq!(
            dc.coreness_slice(),
            core_decomposition(&after).as_slice(),
            "{context}"
        );
    }

    #[test]
    fn every_single_update_on_every_graph_up_to_five_vertices() {
        let pairs: Vec<(VertexId, VertexId)> = (0..5)
            .flat_map(|u| (u + 1..5).map(move |v| (u, v)))
            .collect();
        let mut graphs = 0;
        for n in 0..=5usize {
            let local: Vec<_> = pairs.iter().filter(|p| (p.1 as usize) < n).collect();
            for mask in 0u32..1 << local.len() {
                graphs += 1;
                let edges: BTreeSet<_> = (0..local.len())
                    .filter(|&i| mask >> i & 1 == 1)
                    .map(|i| *local[i])
                    .collect();
                // Insert and remove each of the 10 pairs (in both
                // orientations, and past `n` for the smaller graphs), a
                // self-loop, and an insert that appends two vertices.
                let mut updates: Vec<EdgeUpdate> = pairs
                    .iter()
                    .flat_map(|&(u, v)| [EdgeUpdate::Insert(u, v), EdgeUpdate::Remove(v, u)])
                    .collect();
                updates.extend([
                    EdgeUpdate::Insert(2, 2),
                    EdgeUpdate::Insert(n as VertexId + 1, 0),
                ]);
                for update in updates {
                    check_against_model(&edges, n, &[update]);
                }
            }
        }
        assert_eq!(graphs, 1 + 1 + 2 + 8 + 64 + 1024);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u32),
        Remove(u32, u32),
    }

    fn arb_ops(max_n: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            (any::<bool>(), 0..max_n, 0..max_n).prop_map(|(ins, a, b)| {
                if ins {
                    Op::Insert(a, b)
                } else {
                    Op::Remove(a, b)
                }
            }),
            1..len,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn merged_batches_match_a_btreeset_mirror(
            base in prop::collection::vec((0..8u32, 0..8u32), 0..24),
            n in 0..9usize,
            ops in prop::collection::vec((0..4u32, 0..12u32, 0..12u32), 1..24),
        ) {
            let edges: std::collections::BTreeSet<_> = base
                .iter()
                .filter(|&&(a, b)| a != b && (a.max(b) as usize) < n)
                .map(|&(a, b)| (a.min(b), a.max(b)))
                .collect();
            // Endpoints reach past `n`, so inserts grow the vertex set.
            // Kinds 2 and 3 put an in-batch duplicate and an
            // insert → remove → insert of one pair into the batch.
            let updates: Vec<EdgeUpdate> = ops
                .iter()
                .flat_map(|&(kind, a, b)| match kind {
                    0 => vec![EdgeUpdate::Insert(a, b)],
                    1 => vec![EdgeUpdate::Remove(a, b)],
                    2 => vec![EdgeUpdate::Insert(a, b), EdgeUpdate::Insert(b, a)],
                    _ => vec![
                        EdgeUpdate::Insert(a, b),
                        EdgeUpdate::Remove(b, a),
                        EdgeUpdate::Insert(a, b),
                    ],
                })
                .collect();
            super::tests::check_against_model(&edges, n, &updates);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_update_sequences_match_recomputation(ops in arb_ops(16, 120)) {
            let mut dc = DynamicCore::new(16);
            for op in ops {
                match op {
                    Op::Insert(a, b) => {
                        dc.insert_edge(a, b);
                    }
                    Op::Remove(a, b) => {
                        dc.remove_edge(a, b);
                    }
                }
                let snapshot = dc.graph().to_csr();
                let expect = core_decomposition(&snapshot);
                prop_assert_eq!(dc.coreness_slice(), expect.as_slice());
            }
        }

        #[test]
        fn insert_then_remove_is_identity(edges in prop::collection::vec((0..14u32, 0..14u32), 1..60), extra in (0..14u32, 0..14u32)) {
            let mut dc = DynamicCore::new(14);
            for (a, b) in edges {
                dc.insert_edge(a, b);
            }
            let before = dc.coreness_slice().to_vec();
            let (a, b) = extra;
            if dc.insert_edge(a, b) {
                dc.remove_edge(a, b);
            }
            prop_assert_eq!(dc.coreness_slice(), before.as_slice());
        }

        #[test]
        fn duplicate_insert_in_a_batch_changes_nothing(edges in prop::collection::vec((0..12u32, 0..12u32), 1..40)) {
            // Re-inserting every existing edge (and removing every absent
            // pair) must be a pure no-op with an all-skipped report.
            let mut dc = DynamicCore::new(12);
            for &(a, b) in &edges {
                dc.insert_edge(a, b);
            }
            let before = dc.coreness_slice().to_vec();
            let mut noops = Vec::new();
            for u in 0..12u32 {
                for v in u..12u32 {
                    if dc.graph().has_edge(u, v) {
                        noops.push(EdgeUpdate::Insert(u, v));
                    } else {
                        noops.push(EdgeUpdate::Remove(u, v));
                    }
                }
            }
            prop_assert!(dc.batch_is_noop(&noops));
            let report = dc.apply_batch(&noops);
            prop_assert_eq!(report.applied, 0);
            prop_assert_eq!(report.skipped, noops.len());
            prop_assert!(report.coreness_unchanged());
            prop_assert_eq!(dc.coreness_slice(), before.as_slice());
        }

        #[test]
        fn batch_matches_recomputation_and_single_edge_application(
            edges in prop::collection::vec((0..14u32, 0..14u32), 1..50),
            ops in arb_ops(14, 60),
        ) {
            let mut batched = DynamicCore::new(14);
            for &(a, b) in &edges {
                batched.insert_edge(a, b);
            }
            let mut singles = batched.graph().clone();
            let before = batched.coreness_slice().to_vec();
            let updates: Vec<EdgeUpdate> = ops
                .iter()
                .map(|op| match *op {
                    Op::Insert(a, b) => EdgeUpdate::Insert(a, b),
                    Op::Remove(a, b) => EdgeUpdate::Remove(a, b),
                })
                .collect();
            let report = batched.apply_batch(&updates);
            // Edge-set agreement with plain graph updates.
            for u in &updates {
                match *u {
                    EdgeUpdate::Insert(a, b) => { singles.insert_edge(a, b); }
                    EdgeUpdate::Remove(a, b) => { singles.remove_edge(a, b); }
                }
            }
            prop_assert_eq!(batched.graph().to_csr(), singles.to_csr());
            // Coreness agreement with from-scratch decomposition.
            let expect = core_decomposition(&batched.graph().to_csr());
            prop_assert_eq!(batched.coreness_slice(), expect.as_slice());
            // The changed-region report is the exact before/after diff.
            let diff: Vec<VertexId> = (0..batched.coreness_slice().len())
                .filter(|&v| batched.coreness_slice()[v] != before.get(v).copied().unwrap_or(0))
                .map(|v| v as VertexId)
                .collect();
            prop_assert_eq!(report.changed, diff);
        }

        #[test]
        fn component_splits_and_merges_match_recomputation(
            bridge in (0..6u32, 6..12u32),
            left in prop::collection::vec((0..6u32, 0..6u32), 4..16),
            right in prop::collection::vec((6..12u32, 6..12u32), 4..16),
        ) {
            // Two islands joined by one bridge; removing and re-adding the
            // bridge splits and merges the connected component.
            let mut dc = DynamicCore::new(12);
            for &(a, b) in left.iter().chain(right.iter()) {
                dc.insert_edge(a, b);
            }
            let (u, v) = bridge;
            dc.insert_edge(u, v);
            let joined = dc.coreness_slice().to_vec();
            dc.apply_batch(&[EdgeUpdate::Remove(u, v)]);
            let expect_split = core_decomposition(&dc.graph().to_csr());
            prop_assert_eq!(dc.coreness_slice(), expect_split.as_slice());
            let merge = dc.apply_batch(&[EdgeUpdate::Insert(u, v)]);
            prop_assert_eq!(dc.coreness_slice(), joined.as_slice());
            let expect_merged = core_decomposition(&dc.graph().to_csr());
            prop_assert_eq!(dc.coreness_slice(), expect_merged.as_slice());
            // Split + merge round-trips the report too: the merge must
            // undo exactly what the split changed.
            prop_assert!(merge.applied == 1);
        }

        #[test]
        fn insert_remove_insert_converges_to_scratch(
            edges in prop::collection::vec((0..12u32, 0..12u32), 1..40),
            churn in prop::collection::vec((0..12u32, 0..12u32), 1..12),
        ) {
            let mut dc = DynamicCore::new(12);
            for &(a, b) in &edges {
                dc.insert_edge(a, b);
            }
            // insert → remove → insert each churn pair: the edge ends up
            // present, and coreness must equal a fresh decomposition.
            let updates: Vec<EdgeUpdate> = churn
                .iter()
                .flat_map(|&(a, b)| {
                    [
                        EdgeUpdate::Insert(a, b),
                        EdgeUpdate::Remove(a, b),
                        EdgeUpdate::Insert(a, b),
                    ]
                })
                .collect();
            dc.apply_batch(&updates);
            for &(a, b) in &churn {
                if a != b {
                    prop_assert!(dc.graph().has_edge(a, b));
                }
            }
            let expect = core_decomposition(&dc.graph().to_csr());
            prop_assert_eq!(dc.coreness_slice(), expect.as_slice());
        }

        #[test]
        fn adversarial_insert_remove_same_edge_across_a_core_boundary(
            tail in 2..6usize,
            extra in prop::collection::vec((0..10u32, 0..10u32), 0..12),
            flips in 1..4usize,
        ) {
            // A dense clique (high coreness) with a pendant path (coreness
            // 1) hanging off it: a k-core boundary by construction. The
            // batch repeatedly inserts AND removes the same boundary-
            // crossing edge, plus random churn, so the engine sees
            // cancelling updates whose subcores straddle the boundary.
            let mut dc = DynamicCore::new(10);
            for u in 0..4u32 {
                for v in (u + 1)..4 {
                    dc.insert_edge(u, v); // K4: coreness 3
                }
            }
            for i in 0..tail as u32 {
                dc.insert_edge(3 + i, 4 + i); // path off vertex 3
            }
            for &(a, b) in &extra {
                dc.insert_edge(a, b);
            }
            let before = dc.coreness_slice().to_vec();
            // The boundary edge: clique vertex 0 to the path's far end.
            let far = 3 + tail as u32;
            let mut updates = Vec::new();
            for _ in 0..flips {
                updates.push(EdgeUpdate::Insert(0, far));
                updates.push(EdgeUpdate::Remove(0, far));
            }
            let had_edge = dc.graph().has_edge(0, far);
            let report = dc.apply_batch(&updates);
            // The last flip is always a Remove of a then-present edge,
            // so the batch leaves the boundary edge absent...
            prop_assert!(!dc.graph().has_edge(0, far));
            // ...and if it was absent to begin with, every flip applied
            // and they all cancelled without a trace in the coreness.
            if !had_edge {
                prop_assert_eq!(report.applied, 2 * flips);
                prop_assert_eq!(dc.coreness_slice(), before.as_slice());
            }
            let expect = core_decomposition(&dc.graph().to_csr());
            prop_assert_eq!(dc.coreness_slice(), expect.as_slice());
        }
    }
}
