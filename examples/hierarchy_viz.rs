//! Hierarchy visualization (paper §I: "Graph Visualization").
//!
//! Builds the HCD of a deep synthetic hierarchy and emits Graphviz DOT
//! plus an ASCII summary of the forest.
//!
//! ```text
//! cargo run --release --example hierarchy_viz > hcd.dot && dot -Tsvg hcd.dot -o hcd.svg
//! ```

use hcd::prelude::*;

fn main() -> Result<(), ParError> {
    let g = core_tree(3, 4, 14, 5);
    let exec = Executor::sequential();
    let cores = core_decomposition(&g);
    let hcd = try_phcd(&g, &cores, &exec)?;

    eprintln!(
        "graph: n={} m={} kmax={} | HCD: {} nodes, {} roots",
        g.num_vertices(),
        g.num_edges(),
        cores.kmax(),
        hcd.num_nodes(),
        hcd.roots().len()
    );

    // ASCII tree on stderr.
    fn walk(hcd: &Hcd, node: u32, indent: usize) {
        let n = hcd.node(node);
        eprintln!(
            "{}k={:<3} |V(T)|={:<4} |core|={}",
            "  ".repeat(indent),
            n.k,
            n.vertices.len(),
            hcd.subtree_vertices(node).len()
        );
        for &c in &n.children {
            walk(hcd, c, indent + 1);
        }
    }
    for &r in hcd.roots() {
        walk(&hcd, r, 0);
    }

    // DOT on stdout.
    println!("{}", hcd.to_dot());
    Ok(())
}
