//! One immutable, generation-stamped index state.

use hcd_core::{try_phcd, Hcd};
use hcd_decomp::{try_pkc_core_decomposition, CoreDecomposition};
use hcd_graph::CsrGraph;
use hcd_par::{Executor, ParError};

/// An immutable bundle of everything queries need, published atomically
/// as one unit so no reader can ever pair a graph with the wrong
/// decomposition or hierarchy.
///
/// Snapshots are never mutated after construction; the service replaces
/// the whole `Arc<Snapshot>` on every batch publication. The
/// `generation` field records which epoch swap produced this state
/// (0 for the initial build), and is echoed in every
/// [`Response`](crate::Response).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The graph this snapshot serves.
    pub graph: CsrGraph,
    /// Its core decomposition.
    pub cores: CoreDecomposition,
    /// Its hierarchical core decomposition.
    pub hcd: Hcd,
    /// The epoch this snapshot was published at.
    pub generation: u64,
}

impl Snapshot {
    /// Builds generation-`generation` state from a graph: PKC core
    /// decomposition + PHCD, both under `exec` (regions `pkc.*`,
    /// `phcd.*` — the same pipeline as a from-scratch construction).
    pub fn try_build(g: &CsrGraph, generation: u64, exec: &Executor) -> Result<Self, ParError> {
        let cores = try_pkc_core_decomposition(g, exec)?;
        let hcd = try_phcd(g, &cores, exec)?;
        Ok(Snapshot {
            graph: g.clone(),
            cores,
            hcd,
            generation,
        })
    }

    /// Assembles a snapshot from already-computed parts (the write
    /// path: the writer has recomputed coreness on the CSR it built and
    /// runs PHCD on that same CSR).
    pub fn from_parts(
        graph: CsrGraph,
        cores: CoreDecomposition,
        hcd: Hcd,
        generation: u64,
    ) -> Self {
        Snapshot {
            graph,
            cores,
            hcd,
            generation,
        }
    }

    /// A checksum fingerprint of the *index state*: the graph's
    /// checksummed binary image, the coreness array, and the
    /// canonicalized hierarchy, all streamed through one CRC-32. The
    /// `generation` field is deliberately excluded (a recovered service
    /// renumbers epochs from the replayed batch sequence) and the
    /// hierarchy is canonicalized first, so two snapshots fingerprint
    /// equal iff they index the same state — regardless of which
    /// executor mode, construction order, or crash/recovery path
    /// produced them. The upper 32 bits carry the vertex count so
    /// trivially different graphs cannot collide to the same value.
    pub fn fingerprint(&self) -> u64 {
        let mut h = hcd_graph::Crc32::new();
        let mut bytes = Vec::new();
        hcd_graph::io::write_binary(&self.graph, &mut bytes)
            .expect("serializing to a Vec cannot fail");
        h.update(&bytes);
        for v in 0..self.graph.num_vertices() {
            h.update(&self.cores.coreness(v as u32).to_le_bytes());
        }
        for node in &self.hcd.canonicalize().nodes {
            h.update(&node.k.to_le_bytes());
            h.update(&(node.vertices.len() as u64).to_le_bytes());
            for &v in &node.vertices {
                h.update(&v.to_le_bytes());
            }
            h.update(&node.parent.map_or(u32::MAX, |p| p).to_le_bytes());
        }
        ((self.graph.num_vertices() as u64) << 32) | h.finish() as u64
    }

    /// Full internal-consistency check: the decomposition is feasible
    /// for the graph and the hierarchy validates against both. Intended
    /// for tests and debugging, not the serving path.
    pub fn validate(&self) -> Result<(), String> {
        self.cores.check_feasible(&self.graph)?;
        self.hcd.validate(&self.graph, &self.cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_graph::GraphBuilder;

    #[test]
    fn build_and_validate() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build();
        let snap = Snapshot::try_build(&g, 0, &Executor::sequential()).unwrap();
        assert_eq!(snap.generation, 0);
        snap.validate().unwrap();
        let naive = hcd_core::naive_hcd(&g, &snap.cores);
        assert_eq!(snap.hcd.canonicalize(), naive.canonicalize());
    }

    #[test]
    fn fingerprint_ignores_generation_but_not_state() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build();
        let exec = Executor::sequential();
        let a = Snapshot::try_build(&g, 0, &exec).unwrap();
        let b = Snapshot::try_build(&g, 17, &exec).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());

        let g2 = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
            .build();
        let c = Snapshot::try_build(&g2, 0, &exec).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_is_mode_independent() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0), (1, 4)])
            .build();
        let seq = Snapshot::try_build(&g, 0, &Executor::sequential()).unwrap();
        let pool = Snapshot::try_build(&g, 0, &Executor::assist(4)).unwrap();
        let sim = Snapshot::try_build(&g, 0, &Executor::simulated(4)).unwrap();
        assert_eq!(seq.fingerprint(), pool.fingerprint());
        assert_eq!(seq.fingerprint(), sim.fingerprint());
    }
}
