//! The temporal sequence of snapshots and sliding-window batching.

use crate::error::GraphError;
use crate::snapshot::Snapshot;
use crate::types::VertexId;
use serde::{Deserialize, Serialize};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// A dynamic graph `G = {G_1, ..., G_T}` over a shared vertex universe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicGraph {
    snapshots: Vec<Snapshot>,
}

impl DynamicGraph {
    /// Wraps a snapshot sequence.
    ///
    /// # Panics
    /// Panics if the sequence is empty or snapshots disagree on universe
    /// size or feature dimension.
    pub fn new(snapshots: Vec<Snapshot>) -> Self {
        match Self::try_new(snapshots) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Self::new`], returning a typed
    /// [`GraphError`] instead of panicking — the ingestion-safe path for
    /// windows rolled from untrusted event streams.
    pub fn try_new(snapshots: Vec<Snapshot>) -> Result<Self, GraphError> {
        let Some(first) = snapshots.first() else {
            return Err(GraphError::EmptyGraph);
        };
        let n = first.num_vertices();
        let d = first.feature_dim();
        for (i, s) in snapshots.iter().enumerate() {
            if s.num_vertices() != n {
                return Err(GraphError::UniverseMismatch {
                    expected: n,
                    found: s.num_vertices(),
                    snapshot: i,
                });
            }
            if s.feature_dim() != d {
                return Err(GraphError::FeatureDimMismatch {
                    expected: d,
                    found: s.feature_dim(),
                    snapshot: i,
                });
            }
        }
        Ok(Self { snapshots })
    }

    /// Number of snapshots `T`.
    #[inline]
    pub fn num_snapshots(&self) -> usize {
        self.snapshots.len()
    }

    /// Size of the shared vertex universe.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.snapshots[0].num_vertices()
    }

    /// Feature dimensionality `D`.
    #[inline]
    pub fn feature_dim(&self) -> usize {
        self.snapshots[0].feature_dim()
    }

    /// Snapshot at timestamp `t`.
    #[inline]
    pub fn snapshot(&self, t: usize) -> &Snapshot {
        &self.snapshots[t]
    }

    /// All snapshots in order.
    #[inline]
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Non-overlapping windows ("batches" in the paper: the MSDL divides all
    /// snapshots into batches of a predefined number of snapshots). The last
    /// window may be shorter than `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn batches(&self, k: usize) -> impl Iterator<Item = &[Snapshot]> {
        assert!(k > 0, "window size must be positive");
        self.snapshots.chunks(k)
    }

    /// Overlapping sliding windows of exactly `k` snapshots, stepping by one
    /// (the classical DGNN sliding-window view of Fig. 1).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn sliding_windows(&self, k: usize) -> impl Iterator<Item = &[Snapshot]> {
        assert!(k > 0, "window size must be positive");
        self.snapshots.windows(k)
    }

    /// Total number of directed edges across all snapshots.
    pub fn total_edges(&self) -> usize {
        self.snapshots.iter().map(Snapshot::num_edges).sum()
    }

    /// A content-based fingerprint over structure, activity, and features
    /// of every snapshot — the dataset half of a
    /// [`crate::plan::PlanKey`]. Two graphs with identical content hash
    /// identically regardless of how they were produced.
    pub fn fingerprint(&self) -> u64 {
        // Sequential: off every hot path (only cached planning asks),
        // and a serving window is too small to be worth a split.
        let per_snapshot: Vec<u64> = self
            .snapshots
            .iter()
            .map(|s| {
                let mut h = FNV_OFFSET;
                h = mix(h, s.num_vertices() as u64);
                for v in 0..s.num_vertices() as VertexId {
                    h = mix(h, u64::from(s.is_active(v)));
                    h = mix(h, s.neighbors(v).len() as u64);
                    for &u in s.neighbors(v) {
                        h = mix(h, u64::from(u));
                    }
                    for &x in s.feature(v) {
                        h = mix(h, u64::from(x.to_bits()));
                    }
                }
                h
            })
            .collect();
        let mut h = mix(FNV_OFFSET, self.snapshots.len() as u64);
        for p in per_snapshot {
            h = mix(h, p);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use tagnn_tensor::DenseMatrix;

    fn snap(n: usize, edges: &[(u32, u32)]) -> Snapshot {
        Snapshot::fully_active(Csr::from_edges(n, edges), DenseMatrix::zeros(n, 2))
    }

    fn graph(t: usize) -> DynamicGraph {
        DynamicGraph::new(
            (0..t)
                .map(|i| snap(4, &[(0, (i % 3 + 1) as u32)]))
                .collect(),
        )
    }

    #[test]
    fn basic_accessors() {
        let g = graph(5);
        assert_eq!(g.num_snapshots(), 5);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.feature_dim(), 2);
        assert_eq!(g.total_edges(), 5);
    }

    #[test]
    fn batches_chunk_without_overlap() {
        let g = graph(7);
        let sizes: Vec<usize> = g.batches(3).map(<[Snapshot]>::len).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn sliding_windows_overlap() {
        let g = graph(5);
        assert_eq!(g.sliding_windows(3).count(), 3);
        assert_eq!(g.sliding_windows(5).count(), 1);
        assert_eq!(g.sliding_windows(6).count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one snapshot")]
    fn rejects_empty() {
        let _ = DynamicGraph::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "universe size mismatch")]
    fn rejects_mismatched_universe() {
        let _ = DynamicGraph::new(vec![snap(4, &[]), snap(5, &[])]);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        use crate::error::GraphError;
        assert_eq!(DynamicGraph::try_new(vec![]), Err(GraphError::EmptyGraph));
        assert_eq!(
            DynamicGraph::try_new(vec![snap(4, &[]), snap(5, &[])]),
            Err(GraphError::UniverseMismatch {
                expected: 4,
                found: 5,
                snapshot: 1
            })
        );
        assert!(DynamicGraph::try_new(vec![snap(4, &[])]).is_ok());
    }
}
