//! Bounded-exhaustive checks: every labelled simple graph on at most six
//! vertices (2^15 edge sets on six), in every executor mode: the
//! sequential bin-sort peel against PKC, the hierarchy kernel against
//! its oracles and against itself with metrics armed, and PBKS against
//! BKS; plus the
//! local core queries against their definitions, and every snapshot the
//! serve writer publishes after a single-edge flip against a fresh
//! build. Random proptests sample large graphs; this covers every small
//! shape, including the ones a sampler rarely draws.

use hcd::prelude::*;

/// Calls `f` on every labelled simple graph with `n <= max_n` vertices
/// and returns how many there were.
fn for_every_graph_up_to(max_n: VertexId, mut f: impl FnMut(&CsrGraph)) -> usize {
    let pairs: Vec<(VertexId, VertexId)> = (0..max_n)
        .flat_map(|u| (u + 1..max_n).map(move |v| (u, v)))
        .collect();
    let mut graphs = 0;
    for n in 0..=max_n as usize {
        let local: Vec<_> = pairs.iter().filter(|p| (p.1 as usize) < n).collect();
        for mask in 0u32..1 << local.len() {
            graphs += 1;
            let g = GraphBuilder::new()
                .min_vertices(n)
                .edges(
                    (0..local.len())
                        .filter(|&i| mask >> i & 1 == 1)
                        .map(|i| *local[i]),
                )
                .build();
            f(&g);
        }
    }
    graphs
}

#[test]
fn core_decomposition_matches_pkc_on_every_graph_up_to_six_vertices() {
    // One-worker executors run bin-sort peeling; PKC runs by name on
    // every mode, so the two peels stay cross-checked even though the
    // serve path compares the bin-sort peel only with itself.
    let seq = Executor::sequential();
    let pkc_modes = [
        Executor::sequential(),
        Executor::assist(2),
        Executor::simulated(3),
    ];
    let graphs = for_every_graph_up_to(6, |g| {
        let reference = core_decomposition(g);
        reference
            .check_feasible(g)
            .unwrap_or_else(|e| panic!("BZ on {g:?}: {e}"));
        let peeled = try_core_decomposition(g, &seq).unwrap();
        assert_eq!(peeled, reference, "seq peel on {g:?}");
        peeled.check_feasible(g).unwrap();
        for exec in &pkc_modes {
            let mode = exec.mode_name();
            let pkc = try_pkc_core_decomposition(g, exec).unwrap();
            assert_eq!(pkc, reference, "PKC {mode} on {g:?}");
            pkc.check_feasible(g)
                .unwrap_or_else(|e| panic!("PKC {mode} on {g:?}: {e}"));
        }
    });
    assert_eq!(graphs, 1 + 1 + 2 + 8 + 64 + 1024 + 32768);
}

#[test]
fn hierarchy_kernel_matches_oracles_on_every_graph_up_to_six_vertices() {
    // One executor per mode for all graphs: the pool is reused, as a
    // serving process reuses it.
    let modes = [
        Executor::sequential(),
        Executor::assist(4),
        Executor::simulated(3),
    ];
    // The same modes with metrics armed: counting must not change the
    // output.
    let armed = [
        Executor::sequential().with_metrics(),
        Executor::assist(4).with_metrics(),
        Executor::simulated(3).with_metrics(),
    ];
    let graphs = for_every_graph_up_to(6, |g| {
        let cores = core_decomposition(g);
        let truth = naive_hcd(g, &cores).canonicalize();
        assert_eq!(lcps(g, &cores).canonicalize(), truth, "LCPS on {g:?}");
        let reference = phcd(g, &cores, &modes[0]);
        assert_eq!(reference.canonicalize(), truth, "PHCD seq on {g:?}");
        for exec in modes[1..].iter().chain(&armed) {
            let h = try_phcd(g, &cores, exec).unwrap();
            let mode = exec.mode_name();
            let on = if exec.metrics_enabled() {
                "armed"
            } else {
                "disarmed"
            };
            assert_eq!(h.nodes(), reference.nodes(), "PHCD {mode} {on} on {g:?}");
            assert_eq!(h.tids(), reference.tids(), "PHCD {mode} {on} on {g:?}");
        }

        let (idx, td) = truss_decomposition(g);
        let truth = naive_htd(g, &idx, &td).canonicalize();
        for (exec, metered) in modes.iter().zip(&armed) {
            let h = phtd(g, &idx, &td, exec);
            let mode = exec.mode_name();
            assert_eq!(h.canonicalize(), truth, "PHTD {mode} on {g:?}");
            let counted = try_phtd(g, &idx, &td, metered).unwrap();
            assert_eq!(counted.nodes(), h.nodes(), "PHTD {mode} armed on {g:?}");
            assert!(
                (0..idx.len() as u32).all(|e| counted.tid(e) == h.tid(e)),
                "PHTD {mode} armed tids on {g:?}"
            );
        }
    });
    for exec in &armed {
        let m = exec.take_metrics();
        assert!(m.get_counter("phcd.uf.unions").is_some());
        assert!(m.get_counter("truss.uf.unions").is_some());
    }
    assert_eq!(graphs, 1 + 1 + 2 + 8 + 64 + 1024 + 32768);
}

#[test]
fn core_queries_match_their_definitions_on_every_graph_up_to_six_vertices() {
    // Expected answers come from the subtree walk and from BFS, never
    // from `core_containing` itself. With n <= 6 the cost rule sorts
    // subtrees of one or two vertices and scans `tid` for larger ones,
    // so both branches run.
    let graphs = for_every_graph_up_to(6, |g| {
        let cores = core_decomposition(g);
        let hcd = phcd(g, &cores, &Executor::sequential());
        for v in g.vertices() {
            let t = hcd.tid(v);
            let (_, size) = hierarchy_position(&hcd, v);
            assert_eq!(size, hcd.subtree_vertices(t).len(), "v={v} on {g:?}");
            for k in 0..=cores.coreness(v) + 1 {
                let got = core_containing(&hcd, &cores, v, k);
                let Some(node) = core_node_at(&hcd, &cores, v, k) else {
                    assert!(
                        k > cores.coreness(v) && got.is_none(),
                        "v={v} k={k} on {g:?}"
                    );
                    continue;
                };
                let got = got.unwrap_or_else(|| panic!("v={v} k={k} on {g:?}: no answer"));
                assert!(
                    got.windows(2).all(|w| w[0] < w[1]),
                    "v={v} k={k} on {g:?}: {got:?} not strictly ascending"
                );
                let mut subtree = hcd.subtree_vertices(node);
                subtree.sort_unstable();
                assert_eq!(got, subtree, "v={v} k={k} on {g:?}: subtree");
                let mut bfs = hcd::graph::traversal::bfs_filtered(g, v, |u| cores.coreness(u) >= k);
                bfs.sort_unstable();
                assert_eq!(got, bfs, "v={v} k={k} on {g:?}: BFS");
            }
        }
    });
    assert_eq!(graphs, 1 + 1 + 2 + 8 + 64 + 1024 + 32768);
}

#[test]
fn pbks_matches_bks_on_every_graph_up_to_six_vertices() {
    // Every metric, on the sequential executor for every graph, and on
    // the real-thread and simulated executors for those on at most five
    // vertices. Scores compare bit for bit: both searches score equal
    // primaries with the same function.
    let modes = [
        Executor::sequential(),
        Executor::assist(4),
        Executor::simulated(3),
    ];
    let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    let graphs = for_every_graph_up_to(6, |g| {
        let cores = core_decomposition(g);
        let hcd = phcd(g, &cores, &modes[0]);
        let ctx = SearchContext::new(g, &cores, &hcd);
        let modes = if g.num_vertices() <= 5 {
            &modes[..]
        } else {
            &modes[..1]
        };
        for metric in Metric::ALL {
            let (scores, primaries) = bks_scores(&ctx, &metric);
            let best = bks(&ctx, &metric);
            for exec in modes {
                let what = format!("{} {} on {g:?}", metric.name(), exec.mode_name());
                let (s, p) = pbks_scores(&ctx, &metric, exec);
                assert_eq!(p, primaries, "primaries, {what}");
                assert_eq!(bits(&s), bits(&scores), "scores, {what}");
                assert_eq!(pbks(&ctx, &metric, exec), best, "best core, {what}");
            }
        }
    });
    assert_eq!(graphs, 1 + 1 + 2 + 8 + 64 + 1024 + 32768);
}

#[test]
fn serve_snapshots_match_a_fresh_build_after_every_single_edge_flip() {
    // Every graph on at most five vertices: flip each vertex pair with
    // one batch, then flip it back. Each flip must publish exactly the
    // next generation, and the published edges, coreness and hierarchy
    // must equal a from-scratch build of the flipped graph. (Six
    // vertices is about a million batches: minutes in a debug build.)
    for exec in [Executor::sequential(), Executor::assist(2)] {
        let mode = exec.mode_name();
        let graphs = for_every_graph_up_to(5, |g| {
            let svc = HcdService::new(g, &exec);
            let n = g.num_vertices() as VertexId;
            for u in 0..n {
                for v in u + 1..n {
                    let present = g.has_edge(u, v);
                    let flipped = GraphBuilder::new()
                        .min_vertices(n as usize)
                        .edges(g.edges().filter(|&e| e != (u, v)))
                        .edges((!present).then_some((u, v)))
                        .build();
                    let (flip, back) = if present {
                        (EdgeUpdate::Remove(u, v), EdgeUpdate::Insert(u, v))
                    } else {
                        (EdgeUpdate::Insert(u, v), EdgeUpdate::Remove(u, v))
                    };
                    for (update, want) in [(flip, &flipped), (back, g)] {
                        let generation = svc.generation();
                        let what = format!("{update:?} on {g:?}, {mode}");
                        let resp = svc.try_apply_batch(&[update], &exec).unwrap();
                        assert_eq!(resp.generation, generation + 1, "{what}");
                        let snap = svc.snapshot();
                        assert_eq!(snap.generation, generation + 1, "{what}");
                        let fresh = ServeSnapshot::try_build(want, 0, &exec).unwrap();
                        assert!(snap.graph.edges().eq(fresh.graph.edges()), "edges, {what}");
                        assert_eq!(
                            snap.cores.as_slice(),
                            fresh.cores.as_slice(),
                            "coreness, {what}"
                        );
                        assert_eq!(
                            snap.hcd.canonicalize(),
                            fresh.hcd.canonicalize(),
                            "hierarchy, {what}"
                        );
                    }
                }
            }
        });
        assert_eq!(graphs, 1 + 1 + 2 + 8 + 64 + 1024, "{mode}");
    }
}
