//! The paper's worked examples (Examples 1–6, Figures 1–3), encoded as
//! tests against a reconstruction of the Figure 1 graph: a 4-core `S4`
//! (vertices 0–5), two 3-cores `S3.1 = S4 ∪ {6,7,8}` and
//! `S3.2 = {9..=12}`, all inside the 2-core `S2` (the whole graph, whose
//! 2-shell is `{13,14,15}`).

use hcd::prelude::*;

fn figure1() -> CsrGraph {
    GraphBuilder::new()
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
            (5, 0),
            (5, 1),
            (5, 2),
            (5, 3),
        ])
        .edges([(6, 7), (7, 8), (8, 6), (6, 0), (7, 1), (8, 2)])
        .edges([(9, 10), (9, 11), (9, 12), (10, 11), (10, 12), (11, 12)])
        .edges([(13, 9), (13, 5), (14, 10), (14, 6), (15, 13), (15, 14)])
        .build()
}

/// Example 1 + Figure 1(c): the HCD distinguishes same-coreness vertices
/// in different k-cores and records all containments.
#[test]
fn example_1_hierarchy_structure() {
    let g = figure1();
    let cores = core_decomposition(&g);
    let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();

    // Four tree nodes: T2, T3.1, T3.2, T4.
    assert_eq!(hcd.num_nodes(), 4);

    // (i) vertices with the same coreness in different k-cores are in
    // different tree nodes: 6 (in S3.1) vs 9 (in S3.2).
    assert_eq!(cores.coreness(6), 3);
    assert_eq!(cores.coreness(9), 3);
    assert_ne!(hcd.tid(6), hcd.tid(9));

    // (ii) containment: S3.1 = G[S4 + T3.1].
    let t4 = hcd.tid(0); // a coreness-4 vertex names T4
    let t31 = hcd.tid(6);
    assert_eq!(hcd.node(t4).parent, t31);
    let mut s31 = hcd.subtree_vertices(t31);
    s31.sort_unstable();
    assert_eq!(s31, (0..9).collect::<Vec<_>>());

    // S2 = G[S3.1 + S3.2 + T2]: the root subtree is everything.
    let t2 = hcd.tid(13);
    assert_eq!(hcd.node(t31).parent, t2);
    assert_eq!(hcd.node(hcd.tid(9)).parent, t2);
    assert_eq!(hcd.subtree_vertices(t2).len(), g.num_vertices());
}

/// Example 2: "the 4-core S4 has an average degree of 4, while the
/// average degree of the 3-core S3.1 is about 4.44 … we can return S3.1".
/// (Our S4 is a 6-vertex near-clique, davg 4.67, so here S4 itself wins —
/// the *mechanism* under test is that PBKS picks the max over all levels
/// and agrees with a direct computation.)
#[test]
fn example_2_best_average_degree() {
    let g = figure1();
    let cores = core_decomposition(&g);
    let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
    let ctx = SearchContext::new(&g, &cores, &hcd);
    let (scores, primaries) =
        try_pbks_scores(&ctx, &Metric::AverageDegree, &Executor::sequential()).unwrap();

    // S3.1 (9 vertices, 20 edges) has average degree 40/9 ≈ 4.44.
    let t31 = hcd.tid(6);
    assert_eq!(primaries[t31 as usize].n, 9);
    assert!((scores[t31 as usize] - 40.0 / 9.0).abs() < 1e-12);

    // PBKS returns the global maximum.
    let best = try_pbks(&ctx, &Metric::AverageDegree, &Executor::sequential())
        .unwrap()
        .unwrap();
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(best.score, max);
}

/// Example 3 / Figure 2: the index fields V(Ti), P(Ti), C(Ti), tid(v).
#[test]
fn example_3_index_fields() {
    let g = figure1();
    let cores = core_decomposition(&g);
    let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();

    let t2 = hcd.tid(13);
    let t31 = hcd.tid(6);
    let t32 = hcd.tid(9);
    let t4 = hcd.tid(0);

    // V(T2) is the (disconnected) 2-shell; every vertex appears once.
    assert_eq!(hcd.node(t2).vertices, vec![13, 14, 15]);
    let total: usize = hcd.nodes().iter().map(|n| n.vertices.len()).sum();
    assert_eq!(total, g.num_vertices());

    // P / C mirror Figure 2's table.
    assert!(hcd.node(t2).is_root());
    let mut kids = hcd.node(t2).children.clone();
    kids.sort_unstable();
    let mut expect = vec![t31, t32];
    expect.sort_unstable();
    assert_eq!(kids, expect);
    assert_eq!(hcd.node(t31).children, vec![t4]);
    assert!(hcd.node(t32).children.is_empty());
    assert!(hcd.node(t4).children.is_empty());
}

/// Examples 4–5 / Figure 3: pivots — when k goes 4 → 3, the pivot of
/// S4's component becomes T3.1's pivot (the minimum-rank vertex), which
/// both groups the 3-shell into T3.1/T3.2 and identifies P(T4) = T3.1.
/// We verify the observable consequences on the final index, plus the
/// rank order itself.
#[test]
fn examples_4_5_pivot_semantics() {
    let g = figure1();
    let cores = core_decomposition(&g);
    let ranks = VertexRanks::try_compute(&cores, &Executor::sequential()).unwrap();

    // Vertex rank: coreness first, id second (Definition 4).
    assert!(ranks.rank(13) < ranks.rank(6)); // 2-shell before 3-shell
    assert!(ranks.rank(6) < ranks.rank(9)); // same shell: by id
    assert!(ranks.rank(9) < ranks.rank(0)); // 3-shell before 4-shell

    // The pivot of S3.1 (min rank over {0..8}) is vertex 6; of S3.2 is 9.
    let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
    let t31 = hcd.tid(6);
    let min_rank_vertex = hcd
        .subtree_vertices(t31)
        .into_iter()
        .min_by_key(|&v| ranks.rank(v))
        .unwrap();
    assert_eq!(min_rank_vertex, 6);
    assert_eq!(hcd.node(hcd.tid(0)).parent, t31); // P(T4) = T3.1
}

/// Example 6: incremental counting — n(S4) = 6, ∆n(T3.1) = 3, so
/// n(S3.1) = 9, by bottom-up accumulation.
#[test]
fn example_6_bottom_up_accumulation() {
    let g = figure1();
    let cores = core_decomposition(&g);
    let hcd = try_phcd(&g, &cores, &Executor::sequential()).unwrap();
    let ctx = SearchContext::new(&g, &cores, &hcd);
    let (_, primaries) =
        try_pbks_scores(&ctx, &Metric::AverageDegree, &Executor::sequential()).unwrap();

    let t4 = hcd.tid(0);
    let t31 = hcd.tid(6);
    assert_eq!(primaries[t4 as usize].n, 6); // n(S4)
    assert_eq!(hcd.node(t31).vertices.len(), 3); // ∆n(T3.1)
    assert_eq!(primaries[t31 as usize].n, 9); // n(S3.1) = 6 + 3
}
