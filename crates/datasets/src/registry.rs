//! The ten paper-dataset stand-ins (DESIGN.md, substitution 2).

use hcd_graph::{CsrGraph, GraphBuilder};

use crate::{clique_overlay, core_tree, gnp, rmat};

/// Generation scale, selectable via the `HCD_BENCH_SCALE` environment
/// variable (`tiny` | `small` | `full`; default `small`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI smoke scale (hundreds of vertices).
    Tiny,
    /// Default benchmark scale (thousands to tens of thousands).
    Small,
    /// The largest scale that stays laptop-friendly.
    Full,
}

impl Scale {
    /// Reads `HCD_BENCH_SCALE`, defaulting to [`Scale::Small`].
    pub fn from_env() -> Scale {
        match std::env::var("HCD_BENCH_SCALE").as_deref() {
            Ok("tiny") => Scale::Tiny,
            Ok("full") => Scale::Full,
            _ => Scale::Small,
        }
    }

    fn pick<T>(self, tiny: T, small: T, full: T) -> T {
        match self {
            Scale::Tiny => tiny,
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

/// A stand-in for one of the paper's evaluation datasets.
pub struct Dataset {
    /// Paper abbreviation (Table II, bold).
    pub abbrev: &'static str,
    /// Full name of the original dataset.
    pub paper_name: &'static str,
    /// What the original is and which model replaces it.
    pub description: &'static str,
    generate: fn(Scale) -> CsrGraph,
}

impl Dataset {
    /// Generates the stand-in graph at the given scale (deterministic).
    pub fn generate(&self, scale: Scale) -> CsrGraph {
        (self.generate)(scale)
    }

    /// Looks a dataset up by abbreviation.
    pub fn by_abbrev(abbrev: &str) -> Option<&'static Dataset> {
        DATASETS.iter().find(|d| d.abbrev == abbrev)
    }
}

/// Merges the edge sets of two graphs over the larger vertex universe —
/// used to overlay clique structure on a power-law backbone.
fn union_graphs(a: &CsrGraph, b: &CsrGraph) -> CsrGraph {
    GraphBuilder::new()
        .min_vertices(a.num_vertices().max(b.num_vertices()))
        .edges(a.edges())
        .edges(b.edges())
        .build()
}

/// The ten stand-ins, in the paper's Table II order (ascending edges).
pub static DATASETS: [Dataset; 10] = [
    Dataset {
        abbrev: "AS",
        paper_name: "As-Skitter",
        description: "internet topology -> R-MAT, power-law, moderate density",
        generate: |s| rmat(s.pick(9, 13, 15), 7, None, 0xA5),
    },
    Dataset {
        abbrev: "LJ",
        paper_name: "LiveJournal",
        description: "social network -> R-MAT, power-law, heavier tail",
        generate: |s| rmat(s.pick(9, 14, 16), 9, None, 0x17),
    },
    Dataset {
        abbrev: "H",
        paper_name: "Hollywood",
        description: "actor collaboration -> clique overlay (large embedded cliques, high kmax)",
        generate: |s| {
            let n = s.pick(600, 8_000, 40_000);
            clique_overlay(n, n / 30, (5, s.pick(25, 60, 100)), n, 0x48)
        },
    },
    Dataset {
        abbrev: "O",
        paper_name: "Orkut",
        description: "dense social network -> R-MAT with high edge factor",
        generate: |s| rmat(s.pick(9, 13, 15), 20, None, 0x0C),
    },
    Dataset {
        abbrev: "HJ",
        paper_name: "Human-Jung",
        description:
            "brain connectome (very dense, rich hierarchy) -> dense G(n,p) + clique overlay",
        generate: |s| {
            let n = s.pick(300, 1_500, 4_000);
            let avg = s.pick(25.0, 70.0, 130.0);
            let base = gnp(n, avg / (n as f64 - 1.0), 0xB1);
            let modules = clique_overlay(n, n / 25, (6, s.pick(20, 50, 90)), 0, 0xB2);
            union_graphs(&base, &modules)
        },
    },
    Dataset {
        abbrev: "A",
        paper_name: "Arabic-2005",
        description: "web crawl -> R-MAT backbone + clique overlay (link farms)",
        generate: |s| {
            let backbone = rmat(s.pick(9, 13, 15), 8, None, 0xA2);
            let n = backbone.num_vertices();
            let farms = clique_overlay(n, n / 60, (8, s.pick(12, 30, 50)), 0, 0xA3);
            union_graphs(&backbone, &farms)
        },
    },
    Dataset {
        abbrev: "IT",
        paper_name: "IT-2004",
        description: "web crawl -> larger R-MAT backbone + clique overlay",
        generate: |s| {
            let backbone = rmat(s.pick(9, 14, 16), 8, None, 0x11);
            let n = backbone.num_vertices();
            let farms = clique_overlay(n, n / 50, (8, s.pick(12, 34, 56)), 0, 0x12);
            union_graphs(&backbone, &farms)
        },
    },
    Dataset {
        abbrev: "FS",
        paper_name: "FriendSter",
        description: "social network, giant components & few tree nodes -> flatter R-MAT",
        generate: |s| rmat(s.pick(10, 14, 16), 14, Some((0.45, 0.22, 0.22)), 0xF5),
    },
    Dataset {
        abbrev: "SK",
        paper_name: "SK-2005",
        description: "web crawl, highest clique density -> R-MAT + heavy clique overlay",
        generate: |s| {
            let backbone = rmat(s.pick(9, 13, 15), 12, None, 0x5C);
            let n = backbone.num_vertices();
            let farms = clique_overlay(n, n / 40, (10, s.pick(14, 44, 80)), 0, 0x5D);
            union_graphs(&backbone, &farms)
        },
    },
    Dataset {
        abbrev: "UK",
        paper_name: "UK-2007-05",
        description: "largest web crawl -> largest R-MAT + clique overlay + deep core tree",
        generate: |s| {
            let backbone = rmat(s.pick(10, 14, 17), 9, None, 0xDE);
            let n = backbone.num_vertices();
            let farms = clique_overlay(n, n / 40, (10, s.pick(16, 48, 90)), 0, 0xDF);
            let deep = core_tree(3, s.pick(3, 5, 6), 24, 0xE0);
            union_graphs(&union_graphs(&backbone, &farms), &deep)
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate_at_tiny_scale() {
        for d in DATASETS.iter() {
            let g = d.generate(Scale::Tiny);
            assert!(g.num_vertices() > 0, "{}", d.abbrev);
            assert!(g.num_edges() > 0, "{}", d.abbrev);
            assert!(g.check_invariants().is_ok(), "{}", d.abbrev);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::by_abbrev("LJ").unwrap().generate(Scale::Tiny);
        let b = Dataset::by_abbrev("LJ").unwrap().generate(Scale::Tiny);
        assert_eq!(a, b);
    }

    #[test]
    fn lookup_by_abbrev() {
        assert!(Dataset::by_abbrev("UK").is_some());
        assert!(Dataset::by_abbrev("XX").is_none());
    }

    #[test]
    fn hollywood_standin_has_outsized_kmax() {
        let g = Dataset::by_abbrev("H").unwrap().generate(Scale::Tiny);
        let cores = hcd_decomp::core_decomposition(&g);
        assert!(
            cores.kmax() as f64 > 1.2 * g.avg_degree(),
            "kmax {} vs avg degree {}",
            cores.kmax(),
            g.avg_degree()
        );
    }

    #[test]
    fn table2_ordering_roughly_ascending_in_edges() {
        // The paper lists datasets in ascending edge count; our stand-ins
        // should at least keep the extremes in order.
        let first = DATASETS[0].generate(Scale::Tiny).num_edges();
        let last = DATASETS[9].generate(Scale::Tiny).num_edges();
        assert!(first < last);
    }
}
