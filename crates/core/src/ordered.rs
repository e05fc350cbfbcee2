//! Locality-ordered construction: relabel, build, map back.
//!
//! Hub-first (degree-descending) vertex ids pay off twice in the
//! construction hot path:
//!
//! * **Cache locality** — CSR adjacency of a relabeled graph touches a
//!   compact id prefix for the high-degree vertices that dominate edge
//!   scans, so degree/rank/union-find arrays stay hot.
//! * **Union-find contention** — PHCD's union phase repeatedly merges
//!   toward hub components. With hubs packed together, the per-worker
//!   [`UnionBatch`](hcd_unionfind::UnionBatch) coalesces far more edges
//!   locally (same components recur within a chunk), cutting shared-
//!   structure finds, link CAS retries, and pivot-merge chases — see
//!   the `phcd.uf.*` counters.
//!
//! The relabeling is *invisible* in the output: core numbers are
//! unmapped through the permutation and the index is renumbered with
//! [`Hcd::relabel_vertices`], which provably restores the exact ids and
//! node numbering of an unordered build (bit-identical, enforced by
//! `tests/determinism.rs` and the `relabel` proptests).

use hcd_decomp::{try_pkc_core_decomposition, CoreDecomposition};
use hcd_graph::{CsrGraph, Permutation};
use hcd_par::{Executor, ParError};

use crate::index::Hcd;
use crate::phcd::try_phcd;

/// Vertex relabeling strategy applied before construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VertexOrder {
    /// Build on the graph as given.
    #[default]
    None,
    /// Relabel hubs-first by descending degree (stable in id), build on
    /// the relabeled graph, and map every output back to original ids.
    Degree,
}

impl VertexOrder {
    /// Parses a CLI-style name (`"none"` / `"degree"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(VertexOrder::None),
            "degree" => Some(VertexOrder::Degree),
            _ => None,
        }
    }

    /// The CLI-style name of this order.
    pub fn name(&self) -> &'static str {
        match self {
            VertexOrder::None => "none",
            VertexOrder::Degree => "degree",
        }
    }
}

/// Runs the full construction pipeline (PKC core decomposition, then
/// PHCD) under the given vertex order, returning outputs indexed by the
/// *original* vertex ids regardless of the order chosen.
pub fn try_build_with_order(
    g: &CsrGraph,
    order: VertexOrder,
    exec: &Executor,
) -> Result<(CoreDecomposition, Hcd), ParError> {
    match order {
        VertexOrder::None => {
            let cores = try_pkc_core_decomposition(g, exec)?;
            let hcd = try_phcd(g, &cores, exec)?;
            Ok((cores, hcd))
        }
        VertexOrder::Degree => {
            let p = Permutation::degree_order(g);
            let relabeled = g.relabel(&p);
            let cores_r = try_pkc_core_decomposition(&relabeled, exec)?;
            let hcd = try_phcd(&relabeled, &cores_r, exec)?.relabel_vertices(p.inverse());
            let cores = CoreDecomposition::from_coreness(p.unmap_values(cores_r.as_slice()));
            Ok((cores, hcd))
        }
    }
}

/// Panicking convenience wrapper over [`try_build_with_order`].
pub fn build_with_order(
    g: &CsrGraph,
    order: VertexOrder,
    exec: &Executor,
) -> (CoreDecomposition, Hcd) {
    match try_build_with_order(g, order, exec) {
        Ok(out) => out,
        Err(e) => e.raise(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_graph::GraphBuilder;

    fn figure_graph() -> CsrGraph {
        crate::testutil::figure1_graph()
    }

    #[test]
    fn parse_and_name_roundtrip() {
        assert_eq!(VertexOrder::parse("none"), Some(VertexOrder::None));
        assert_eq!(VertexOrder::parse("degree"), Some(VertexOrder::Degree));
        assert_eq!(VertexOrder::parse("core"), None);
        assert_eq!(VertexOrder::Degree.name(), "degree");
        assert_eq!(VertexOrder::default(), VertexOrder::None);
    }

    #[test]
    fn degree_order_output_is_bit_identical_to_unordered() {
        let g = figure_graph();
        for exec in [
            Executor::sequential(),
            Executor::assist(4),
            Executor::simulated(3),
        ] {
            let (cores_a, hcd_a) = build_with_order(&g, VertexOrder::None, &exec);
            let (cores_b, hcd_b) = build_with_order(&g, VertexOrder::Degree, &exec);
            assert_eq!(cores_a, cores_b, "coreness ({})", exec.mode_name());
            assert_eq!(hcd_a.nodes(), hcd_b.nodes(), "nodes ({})", exec.mode_name());
            assert_eq!(hcd_a.tids(), hcd_b.tids(), "tids ({})", exec.mode_name());
            assert_eq!(hcd_a.roots(), hcd_b.roots(), "roots ({})", exec.mode_name());
        }
    }

    #[test]
    fn ordered_build_validates_on_star_of_cliques() {
        let mut b = GraphBuilder::new();
        for c in 0..4u32 {
            let base = 1 + c * 4;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b = b.edge(base + i, base + j);
                }
            }
            b = b.edge(0, base);
        }
        let g = b.build();
        let exec = Executor::assist(4);
        let (cores, hcd) = build_with_order(&g, VertexOrder::Degree, &exec);
        hcd.validate(&g, &cores).unwrap();
    }

    #[test]
    fn empty_graph_under_both_orders() {
        let g = GraphBuilder::new().build();
        let exec = Executor::sequential();
        for order in [VertexOrder::None, VertexOrder::Degree] {
            let (cores, hcd) = build_with_order(&g, order, &exec);
            assert!(cores.is_empty());
            assert_eq!(hcd.num_nodes(), 0);
        }
    }
}
