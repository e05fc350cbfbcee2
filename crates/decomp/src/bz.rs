//! Serial Batagelj–Zaversnik core decomposition.

use std::convert::Infallible;

use hcd_graph::{CsrGraph, VertexId};
use hcd_par::{Executor, ParError, CHECKPOINT_STRIDE};

use crate::CoreDecomposition;

/// The `O(m)` bin-sort peeling algorithm of Batagelj & Zaversnik \[19\].
///
/// Vertices are kept bucketed by their *current* degree; the algorithm
/// repeatedly removes a vertex of minimum current degree, whose current
/// degree is then its coreness, and decrements its remaining neighbors
/// of larger degree, moving them between buckets in `O(1)` via the
/// classic `start`/`pos`/`vert` swap trick.
pub fn core_decomposition(g: &CsrGraph) -> CoreDecomposition {
    match peel(g, || Ok::<(), Infallible>(())) {
        Ok(coreness) => CoreDecomposition::from_coreness(coreness),
        Err(never) => match never {},
    }
}

/// Fallible bin-sort peeling on `exec`: the same kernel as
/// [`core_decomposition`], run as the single chunk of region `bz.peel`.
///
/// The region gives the peel what every region has: a histogram sample,
/// a `(region, chunk 0)` fault-injection site and region accounting. The
/// kernel polls [`Executor::checkpoint`] once before it peels and then
/// every [`CHECKPOINT_STRIDE`] arcs, so cancellation and deadlines stop
/// it within one stride with a typed [`ParError`].
pub(crate) fn try_bz_core_decomposition(
    g: &CsrGraph,
    exec: &Executor,
) -> Result<CoreDecomposition, ParError> {
    let mut peeled = exec
        .region("bz.peel")
        .try_map_chunks(1, |_, _| peel(g, || exec.checkpoint()))?;
    Ok(CoreDecomposition::from_coreness(
        peeled.pop().expect("a one-item region runs its chunk"),
    ))
}

/// The bin-sort kernel: returns the coreness array, calling `checkpoint`
/// before the first vertex and then every [`CHECKPOINT_STRIDE`] arcs.
fn peel<E>(g: &CsrGraph, mut checkpoint: impl FnMut() -> Result<(), E>) -> Result<Vec<u32>, E> {
    checkpoint()?;
    let n = g.num_vertices();
    if n == 0 {
        return Ok(Vec::new());
    }
    let max_deg = g.max_degree();

    // deg[v]: current degree during peeling. A peeled vertex is never
    // decremented again, so deg ends as the coreness array.
    let mut deg: Vec<u32> = (0..n as VertexId).map(|v| g.degree(v) as u32).collect();

    // Bucket sort vertices by degree. Positions fit in u32 because vertex
    // ids do.
    let mut start = vec![0u32; max_deg + 2];
    for &d in &deg {
        start[d as usize + 1] += 1;
    }
    for i in 0..=max_deg {
        start[i + 1] += start[i];
    }
    // start[d] = first index of bucket d in vert.
    let mut vert = vec![0 as VertexId; n];
    let mut pos = vec![0u32; n];
    {
        let mut cursor = start.clone();
        for v in 0..n as VertexId {
            let d = deg[v as usize] as usize;
            vert[cursor[d] as usize] = v;
            pos[v as usize] = cursor[d];
            cursor[d] += 1;
        }
    }

    let mut since = 0usize;
    for i in 0..n {
        let v = vert[i];
        let dv = deg[v as usize];
        let neighbors = g.neighbors(v);
        since += neighbors.len();
        if since >= CHECKPOINT_STRIDE {
            checkpoint()?;
            since = 0;
        }
        // Peel v: decrement every neighbor of larger current degree.
        for &u in neighbors {
            let du = deg[u as usize];
            if du > dv {
                // Swap u with the first element of its bucket, then shrink
                // the bucket boundary so u lands in bucket du-1.
                let pu = pos[u as usize];
                let pw = start[du as usize];
                let w = vert[pw as usize];
                if u != w {
                    vert[pu as usize] = w;
                    vert[pw as usize] = u;
                    pos[w as usize] = pu;
                    pos[u as usize] = pw;
                }
                start[du as usize] += 1;
                deg[u as usize] = du - 1;
            }
        }
    }
    Ok(deg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_graph::GraphBuilder;

    #[test]
    fn clique_coreness() {
        // K5: every vertex has coreness 4.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b = b.edge(u, v);
            }
        }
        let g = b.build();
        let cd = core_decomposition(&g);
        assert!(cd.as_slice().iter().all(|&c| c == 4));
        assert_eq!(cd.kmax(), 4);
    }

    #[test]
    fn path_coreness_is_one() {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2), (2, 3)]).build();
        let cd = core_decomposition(&g);
        assert_eq!(cd.as_slice(), &[1, 1, 1, 1]);
    }

    #[test]
    fn isolated_vertices_have_coreness_zero() {
        let g = GraphBuilder::new().edge(0, 1).min_vertices(4).build();
        let cd = core_decomposition(&g);
        assert_eq!(cd.coreness(2), 0);
        assert_eq!(cd.coreness(3), 0);
    }

    #[test]
    fn paper_figure_1_structure() {
        // A graph in the spirit of Figure 1: a 4-clique core (coreness >= 3
        // region) inside a sparser 2-core ring.
        let g = GraphBuilder::new()
            // K5 missing nothing: 5-clique => coreness 4 for 0..5
            .edges([
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4),
            ])
            // a triangle attached to vertex 0: coreness 2
            .edges([(5, 6), (6, 7), (7, 5), (5, 0), (6, 0)])
            // a pendant path: coreness 1
            .edges([(7, 8), (8, 9)])
            .build();
        let cd = core_decomposition(&g);
        for v in 0..5 {
            assert_eq!(cd.coreness(v), 4, "clique vertex {v}");
        }
        for v in 5..8 {
            assert_eq!(cd.coreness(v), 2, "triangle vertex {v}");
        }
        assert_eq!(cd.coreness(8), 1);
        assert_eq!(cd.coreness(9), 1);
        assert_eq!(cd.kmax(), 4);
    }

    #[test]
    fn star_center_coreness_one() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
            .build();
        let cd = core_decomposition(&g);
        assert!(cd.as_slice().iter().all(|&c| c == 1));
    }

    #[test]
    fn two_cliques_joined_by_bridge() {
        let mut b = GraphBuilder::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b = b.edge(u, v); // K4 on 0..4
            }
        }
        for u in 10..14u32 {
            for v in (u + 1)..14 {
                b = b.edge(u, v); // K4 on 10..14
            }
        }
        let g = b.edge(3, 10).build();
        let cd = core_decomposition(&g);
        for v in [0u32, 1, 2, 3, 10, 11, 12, 13] {
            assert_eq!(cd.coreness(v), 3);
        }
        // Unused ids 4..10 are isolated.
        assert_eq!(cd.coreness(5), 0);
    }
}
