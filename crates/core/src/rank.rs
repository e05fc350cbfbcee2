//! Algorithm 1: parallel vertex-rank computation and shell bucketing.

use hcd_decomp::CoreDecomposition;
use hcd_graph::VertexId;
use hcd_par::{Executor, ParError};

/// The vertex rank order (Definition 4) plus the shell index it induces.
///
/// `vsort` lists all vertices sorted by `(coreness, id)` — the
/// concatenation `H_0 + H_1 + … + H_kmax` of Algorithm 1 — and `rank[v]`
/// is `v`'s position in `vsort`. `shell(k)` returns the `H_k` slice.
#[derive(Debug, Clone)]
pub struct VertexRanks {
    vsort: Vec<VertexId>,
    rank: Vec<u32>,
    shell_start: Vec<usize>,
    kmax: u32,
}

impl VertexRanks {
    /// Runs Algorithm 1: per-worker coreness histograms over contiguous
    /// id ranges, a sequential prefix over the `(k, worker)` grid, and a
    /// parallel scatter. Because worker chunks are ascending id ranges
    /// and the prefix walks workers in order within each `k`, the result
    /// is exactly the stable `(coreness, id)` order, in `O(n)` work.
    ///
    /// Returns `Err` if a region panics, is cancelled, or exceeds the
    /// executor's deadline (see `hcd_par` failure model).
    pub fn try_compute(cores: &CoreDecomposition, exec: &Executor) -> Result<Self, ParError> {
        let n = cores.len();
        let kmax = cores.kmax();
        let nk = kmax as usize + 1;
        let p = exec.num_workers();

        // Per-worker histogram of corenesses in its id range.
        let hists: Vec<(usize, Vec<u32>)> =
            exec.region("rank.hist").try_map_chunks(n, |w, range| {
                let mut hist = vec![0u32; nk];
                for v in range {
                    hist[cores.coreness(v as VertexId) as usize] += 1;
                }
                Ok((w, hist))
            })?;
        // Offsets per (k, worker): all of H_0 first, then H_1, ...
        let mut offsets = vec![0usize; nk * p];
        let mut shell_start = vec![0usize; nk + 1];
        {
            let mut acc = 0usize;
            for k in 0..nk {
                shell_start[k] = acc;
                for &(w, ref hist) in &hists {
                    offsets[k * p + w] = acc;
                    acc += hist[k] as usize;
                }
            }
            shell_start[nk] = acc;
            debug_assert_eq!(acc, n);
        }

        // Scatter: each worker writes its vertices at its reserved slots.
        let mut vsort = vec![0 as VertexId; n];
        {
            let vsort_ptr = SendPtr(vsort.as_mut_ptr());
            exec.region("rank.scatter").try_for_each_chunk(
                n,
                || offsets.clone(),
                |w, cursors, range| {
                    let _ = &vsort_ptr;
                    for v in range {
                        let k = cores.coreness(v as VertexId) as usize;
                        let slot = cursors[k * p + w];
                        cursors[k * p + w] += 1;
                        // SAFETY: slots [offsets[k*p+w], offsets[k*p+w] +
                        // hist[w][k]) are disjoint across (k, w) pairs, and
                        // this worker is the only writer for its w.
                        unsafe {
                            *vsort_ptr.0.add(slot) = v as VertexId;
                        }
                    }
                    Ok(())
                },
            )?;
        }

        // Invert to ranks.
        let mut rank = vec![0u32; n];
        {
            let rank_ptr = SendPtr(rank.as_mut_ptr());
            exec.region("rank.invert").try_for_each_chunk(
                n,
                || (),
                |_, _, range| {
                    let _ = &rank_ptr;
                    for i in range {
                        // SAFETY: vsort is a permutation, so each rank slot
                        // is written exactly once.
                        unsafe {
                            *rank_ptr.0.add(vsort[i] as usize) = i as u32;
                        }
                    }
                    Ok(())
                },
            )?;
        }

        Ok(VertexRanks {
            vsort,
            rank,
            shell_start,
            kmax,
        })
    }

    /// All vertices in vertex-rank order (`H_0 + H_1 + … + H_kmax`).
    pub fn vsort(&self) -> &[VertexId] {
        &self.vsort
    }

    /// `r(v)`: the rank of vertex `v`.
    #[inline]
    pub fn rank(&self, v: VertexId) -> u32 {
        self.rank[v as usize]
    }

    /// The rank permutation as a slice (index = vertex id).
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// The k-shell `H_k` (vertices of coreness exactly `k`, ascending id).
    pub fn shell(&self, k: u32) -> &[VertexId] {
        let k = k as usize;
        &self.vsort[self.shell_start[k]..self.shell_start[k + 1]]
    }

    /// Shell starts in rank order: the k-shell occupies ranks
    /// `shell_starts()[k]..shell_starts()[k + 1]`, and ranks past its end
    /// have coreness `> k`.
    pub(crate) fn shell_starts(&self) -> &[usize] {
        &self.shell_start
    }

    /// The largest coreness.
    pub fn kmax(&self) -> u32 {
        self.kmax
    }
}

/// Raw pointer wrapper so disjoint-slot parallel scatters can share a
/// buffer across worker closures.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_decomp::core_decomposition;
    use hcd_graph::GraphBuilder;

    fn sample_cores() -> CoreDecomposition {
        // Triangle {0,1,2} (coreness 2), path 2-3 (coreness 1), isolated 4.
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .min_vertices(5)
            .build();
        core_decomposition(&g)
    }

    #[test]
    fn vsort_is_stable_by_coreness_then_id() {
        let cores = sample_cores();
        for exec in [
            Executor::sequential(),
            Executor::assist(3),
            Executor::simulated(4),
        ] {
            let vr = VertexRanks::try_compute(&cores, &exec).unwrap();
            assert_eq!(vr.vsort(), &[4, 3, 0, 1, 2], "mode {}", exec.mode_name());
        }
    }

    #[test]
    fn rank_is_inverse_of_vsort() {
        let cores = sample_cores();
        let vr = VertexRanks::try_compute(&cores, &Executor::assist(2)).unwrap();
        for (i, &v) in vr.vsort().iter().enumerate() {
            assert_eq!(vr.rank(v) as usize, i);
        }
    }

    #[test]
    fn shells_match_decomposition() {
        let cores = sample_cores();
        let vr = VertexRanks::try_compute(&cores, &Executor::sequential()).unwrap();
        assert_eq!(vr.shell(0), &[4]);
        assert_eq!(vr.shell(1), &[3]);
        assert_eq!(vr.shell(2), &[0, 1, 2]);
        assert_eq!(vr.kmax(), 2);
    }

    #[test]
    fn rank_respects_definition_4() {
        let cores = sample_cores();
        let vr = VertexRanks::try_compute(&cores, &Executor::simulated(2)).unwrap();
        let n = cores.len() as u32;
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                let lower = cores.coreness(u) < cores.coreness(v)
                    || (cores.coreness(u) == cores.coreness(v) && u < v);
                assert_eq!(vr.rank(u) < vr.rank(v), lower, "u={u} v={v}");
            }
        }
    }

    #[test]
    fn empty_input() {
        let cores = CoreDecomposition::from_coreness(Vec::new());
        let vr = VertexRanks::try_compute(&cores, &Executor::sequential()).unwrap();
        assert!(vr.vsort().is_empty());
        assert_eq!(vr.shell(0).len(), 0);
    }
}
