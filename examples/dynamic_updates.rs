//! Batched core maintenance on a changing graph.
//!
//! The paper's dynamic counterpart ([15] in its references) maintains
//! the hierarchy under updates; this example drives `hcd-dynamic`:
//! each batch of edge updates is merged into the next CSR of the graph,
//! and coreness is recomputed on it (by bin-sort peeling, since
//! `apply_batch` runs on one worker), with the HCD refreshed on demand.
//!
//! ```text
//! cargo run --release --example dynamic_updates
//! ```

use std::time::Instant;

use hcd::prelude::*;
use rand::{Rng, SeedableRng};

fn main() {
    let g = rmat(13, 8, None, 3);
    let mut dc = DynamicCore::from_csr(&g);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
    let n = dc.graph().num_vertices() as u32;

    // Apply random insertions and deletions in batches of 100.
    let (batches, per_batch) = (20, 100);
    let mut known_edges: Vec<(u32, u32)> = g.edges().collect();
    let (mut applied, mut changed) = (0usize, 0usize);
    let t0 = Instant::now();
    for _ in 0..batches {
        let mut batch = Vec::with_capacity(per_batch);
        for _ in 0..per_batch {
            if rng.gen_bool(0.6) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                known_edges.push((u, v));
                batch.push(EdgeUpdate::Insert(u, v));
            } else {
                // Remove a random known edge so deletions actually land.
                let i = rng.gen_range(0..known_edges.len());
                let (u, v) = known_edges.swap_remove(i);
                batch.push(EdgeUpdate::Remove(u, v));
            }
        }
        let report = dc.apply_batch(&batch);
        applied += report.applied;
        changed += report.changed.len();
    }
    let elapsed = t0.elapsed();
    println!(
        "applied {applied} of {} updates in {batches} batches in {elapsed:?} \
         ({:?} per batch, {changed} coreness changes)",
        batches * per_batch,
        elapsed / batches as u32
    );

    // The maintained coreness equals a sequential recomputation.
    let snapshot = dc.graph().to_csr();
    let t0 = Instant::now();
    let fresh = core_decomposition(&snapshot);
    println!("one sequential recomputation: {:?}", t0.elapsed());
    assert_eq!(
        dc.coreness_slice(),
        fresh.as_slice(),
        "maintenance must agree"
    );

    // The hierarchy refreshes lazily after updates.
    let exec = Executor::sequential();
    let (snap, hcd) = dc.hcd(&exec);
    println!(
        "refreshed HCD: {} tree nodes over {} vertices",
        hcd.num_nodes(),
        snap.num_vertices()
    );
}
