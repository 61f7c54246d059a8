//! The GNN module: degree-normalised aggregation plus a dense combination,
//! i.e. one GCN layer `Z = act( Â X W )` with `Â` the symmetrically
//! normalised adjacency with self-loops (Kipf & Welling).

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tagnn_graph::types::VertexId;
use tagnn_graph::Snapshot;
use tagnn_tensor::dispatch::{Kernel, LayerChoice};
use tagnn_tensor::kernels::{self, ScratchBuf};
use tagnn_tensor::{init, ops, Activation, DenseMatrix};

/// Fills `out[v] = (deg(v) + 1) as f32` — the per-snapshot
/// normalisation table every fused layer forward shares, so degrees are
/// converted once per snapshot instead of once per vertex per layer.
///
/// # Panics
/// Panics if `out.len() != snap.num_vertices()`.
pub fn fill_degp1(snap: &Snapshot, out: &mut [f32]) {
    assert_eq!(out.len(), snap.num_vertices(), "degp1 length mismatch");
    // Sequential: one offset subtraction per vertex is too little work
    // to pay for a parallel dispatch.
    for (v, d) in out.iter_mut().enumerate() {
        *d = (snap.csr().degree(v as VertexId) + 1) as f32;
    }
}

/// Aggregation work before vertex `v`: the sum of `deg(u) + 1` over
/// `u < v`, read off the CSR offsets, for `v` in `0..=n`. Row-parallel
/// aggregations cut their pieces at equal shares of it (`by_work`):
/// the paper's Task Dispatcher rule of spreading vertex rows over
/// compute units by degree, so a piece full of hubs gets fewer rows.
/// Pieces stay contiguous and each row runs the sequential code, so
/// the output is the same bits at any thread count.
pub(crate) fn degree_work(snap: &Snapshot) -> impl Fn(usize) -> usize + Sync + Send + '_ {
    let csr = snap.csr();
    let n = csr.num_vertices();
    move |v| {
        if v < n {
            csr.offset_range(v as VertexId).0 + v
        } else {
            csr.num_edges() + n
        }
    }
}

/// How neighbour features are combined before the dense transform — the
/// paper's claim that TaGNN "is highly versatile and adaptable to a broad
/// range of DGNN models" rests on the aggregation being pluggable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregatorKind {
    /// Symmetric GCN normalisation with self-loop (Kipf & Welling):
    /// `sum 1/sqrt((d_v+1)(d_u+1)) * x_u`.
    GcnNormalized,
    /// GraphSAGE-style mean over `N(v) ∪ {v}`.
    Mean,
    /// Plain neighbourhood sum (GIN-style, self included).
    Sum,
}

/// One GCN layer: `out = act(aggregate(X) * W)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GcnLayer {
    weight: DenseMatrix,
    activation: Activation,
    aggregator: AggregatorKind,
}

impl GcnLayer {
    /// Builds a layer with Xavier-initialised weights and the standard
    /// symmetric GCN aggregator.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, seed: u64) -> Self {
        Self::with_aggregator(
            in_dim,
            out_dim,
            activation,
            AggregatorKind::GcnNormalized,
            seed,
        )
    }

    /// Builds a layer with an explicit aggregator.
    pub fn with_aggregator(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        aggregator: AggregatorKind,
        seed: u64,
    ) -> Self {
        Self {
            weight: init::xavier_uniform(in_dim, out_dim, seed),
            activation,
            aggregator,
        }
    }

    /// The aggregation scheme of this layer.
    #[inline]
    pub fn aggregator(&self) -> AggregatorKind {
        self.aggregator
    }

    /// Input dimensionality.
    #[inline]
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimensionality.
    #[inline]
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// The weight matrix.
    #[inline]
    pub fn weight(&self) -> &DenseMatrix {
        &self.weight
    }

    /// The activation applied after combination.
    #[inline]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Whether the fused forward multiplies by `W` *before* aggregating.
    ///
    /// `Â·(X·W)` and `(Â·X)·W` are mathematically identical; this
    /// shape-only heuristic picks whichever moves fewer floats through
    /// the aggregation: transform first exactly when the layer shrinks
    /// its input (`out_dim < in_dim`), aggregate first otherwise.
    ///
    /// This is the *legacy fallback*: the engines now fold measured
    /// input density into the same decision through
    /// [`tagnn_tensor::dispatch::Dispatcher::choose_layer`] and call
    /// [`Self::forward_planned_into`] with the result. On fully dense
    /// inputs the dispatcher's choice collapses to exactly this
    /// heuristic, so the two agree whenever sparsity gives no reason
    /// to diverge.
    #[inline]
    pub fn transform_first(&self) -> bool {
        self.out_dim() < self.in_dim()
    }

    /// The dispatch decision [`Self::forward_into`] executes: the
    /// legacy shape-only association with the dense kernel.
    #[inline]
    pub fn legacy_choice(&self) -> LayerChoice {
        LayerChoice {
            transform_first: self.transform_first(),
            kernel: Kernel::Dense,
            density: 1.0,
        }
    }

    /// Aggregation for a single vertex over `N(v) ∪ {v}`, per the layer's
    /// [`AggregatorKind`].
    ///
    /// Inactive vertices aggregate to zero (they do not exist in the
    /// snapshot).
    pub fn aggregate_vertex(&self, snap: &Snapshot, x: &DenseMatrix, v: VertexId) -> Vec<f32> {
        let dim = x.cols();
        let mut acc = vec![0.0f32; dim];
        if !snap.is_active(v) {
            return acc;
        }
        let deg = snap.csr().degree(v);
        match self.aggregator {
            AggregatorKind::GcnNormalized => {
                let dv = (deg + 1) as f32;
                // Self-loop.
                ops::axpy(&mut acc, 1.0 / dv, x.row(v as usize));
                for &u in snap.neighbors(v) {
                    let du = (snap.csr().degree(u) + 1) as f32;
                    let norm = 1.0 / (dv * du).sqrt();
                    ops::axpy(&mut acc, norm, x.row(u as usize));
                }
            }
            AggregatorKind::Mean => {
                let scale = 1.0 / (deg + 1) as f32;
                ops::axpy(&mut acc, scale, x.row(v as usize));
                for &u in snap.neighbors(v) {
                    ops::axpy(&mut acc, scale, x.row(u as usize));
                }
            }
            AggregatorKind::Sum => {
                ops::axpy(&mut acc, 1.0, x.row(v as usize));
                for &u in snap.neighbors(v) {
                    ops::axpy(&mut acc, 1.0, x.row(u as usize));
                }
            }
        }
        acc
    }

    /// Combination for one vertex: `act(agg * W)`.
    pub fn combine_vertex(&self, agg: &[f32]) -> Vec<f32> {
        let mut out = ops::vecmat(agg, &self.weight);
        self.activation.apply(&mut out);
        out
    }

    /// Full layer forward for one vertex.
    pub fn forward_vertex(&self, snap: &Snapshot, x: &DenseMatrix, v: VertexId) -> Vec<f32> {
        self.combine_vertex(&self.aggregate_vertex(snap, x, v))
    }

    /// Aggregation for one vertex over a flat row-major table `x`
    /// (`num_vertices · dim`), written into `out` (length `dim`).
    ///
    /// Same math as [`Self::aggregate_vertex`] — inactive vertices
    /// aggregate to zero, self-loop first, then sorted neighbours — but
    /// normalisation weights come from the precomputed `degp1` table
    /// (see [`fill_degp1`]) and no allocation happens.
    pub fn aggregate_row_into(
        &self,
        snap: &Snapshot,
        x: &[f32],
        dim: usize,
        degp1: &[f32],
        v: VertexId,
        out: &mut [f32],
    ) {
        out.fill(0.0);
        if !snap.is_active(v) {
            return;
        }
        let dv = degp1[v as usize];
        match self.aggregator {
            AggregatorKind::GcnNormalized => {
                // Self-loop.
                ops::axpy(out, 1.0 / dv, &x[v as usize * dim..][..dim]);
                for &u in snap.neighbors(v) {
                    let norm = 1.0 / (dv * degp1[u as usize]).sqrt();
                    ops::axpy(out, norm, &x[u as usize * dim..][..dim]);
                }
            }
            AggregatorKind::Mean => {
                let scale = 1.0 / dv;
                ops::axpy(out, scale, &x[v as usize * dim..][..dim]);
                for &u in snap.neighbors(v) {
                    ops::axpy(out, scale, &x[u as usize * dim..][..dim]);
                }
            }
            AggregatorKind::Sum => {
                ops::axpy(out, 1.0, &x[v as usize * dim..][..dim]);
                for &u in snap.neighbors(v) {
                    ops::axpy(out, 1.0, &x[u as usize * dim..][..dim]);
                }
            }
        }
    }

    /// [`Self::aggregate_row_into`] for every vertex, parallel over
    /// degree-balanced row pieces (`degree_work`). `x` and
    /// `out` are both `num_vertices · dim` flat tables.
    pub fn aggregate_rows_into(
        &self,
        snap: &Snapshot,
        x: &[f32],
        dim: usize,
        degp1: &[f32],
        out: &mut [f32],
    ) {
        if dim == 0 {
            return;
        }
        out.par_chunks_exact_mut(dim)
            .enumerate()
            .by_work(degree_work(snap))
            .for_each(|(v, row)| {
                self.aggregate_row_into(snap, x, dim, degp1, v as VertexId, row);
            });
    }

    /// Allocation-free combination for one vertex: `out = act(agg · W)`
    /// via the row kernel — bit-compatible with one row of the fused
    /// GEMM over the same aggregate table.
    pub fn combine_row_into(&self, agg: &[f32], out: &mut [f32]) {
        kernels::rowmat_into(agg, self.weight.as_slice(), self.out_dim(), out);
        self.activation.apply(out);
    }

    /// Recomputes one row of the layer's `X·W` product (no activation,
    /// no aggregation) — bit-compatible with the same row of the fused
    /// transform-first GEMM, which is what makes per-row patching of a
    /// cached `X·W` table legal.
    pub fn transform_row_into(&self, x_row: &[f32], out: &mut [f32]) {
        kernels::rowmat_into(x_row, self.weight.as_slice(), self.out_dim(), out);
    }

    /// Fused full-snapshot forward into a caller-provided buffer.
    ///
    /// Picks the cheaper associativity per layer: `Â·(X·W)` when the
    /// layer shrinks its input ([`Self::transform_first`]), `(Â·X)·W`
    /// otherwise. The aggregate-first path performs exactly the same
    /// additions in the same order as the per-vertex
    /// [`Self::forward_vertex`]; the transform-first path reassociates
    /// the product and may differ in the last float bits.
    ///
    /// `work` is the layer's intermediate workspace (grown on first
    /// use, reused afterwards); `x` is the `num_vertices · in_dim`
    /// input table and `out` the `num_vertices · out_dim` output.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn forward_into(
        &self,
        snap: &Snapshot,
        x: &[f32],
        degp1: &[f32],
        work: &mut ScratchBuf<f32>,
        out: &mut [f32],
    ) {
        self.forward_planned_into(snap, x, degp1, work, None, &self.legacy_choice(), out);
    }

    /// [`Self::forward_into`] executing an explicit dispatch decision:
    /// the engines' sparsity-adaptive layer
    /// ([`tagnn_tensor::dispatch::Dispatcher`]) picks the factorisation
    /// and the kernel for the GEMM factor; this method just runs it.
    ///
    /// When `choice.kernel` is [`Kernel::Spmm`] the caller must supply
    /// `nz_rows`: the ascending indices of **every** nonzero row of
    /// `x`. That list is an exactness contract, not a hint — a nonzero
    /// row missing from it would make the SpMM compute wrong numbers,
    /// not merely differently-rounded ones. Because the SpMM shares the
    /// dense GEMM's row kernel, a correct list makes the transform-first
    /// arm bit-identical to its dense execution at every density.
    ///
    /// The aggregate-first arm always runs the dense GEMM: aggregation
    /// densifies rows, so its GEMM input has no row sparsity to exploit.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    #[allow(clippy::too_many_arguments)] // kernel-shaped signature: operands + decision + out
    pub fn forward_planned_into(
        &self,
        snap: &Snapshot,
        x: &[f32],
        degp1: &[f32],
        work: &mut ScratchBuf<f32>,
        nz_rows: Option<&[u32]>,
        choice: &LayerChoice,
        out: &mut [f32],
    ) {
        let n = snap.num_vertices();
        assert_eq!(x.len(), n * self.in_dim(), "layer input dim mismatch");
        assert_eq!(out.len(), n * self.out_dim(), "layer output shape mismatch");
        assert_eq!(degp1.len(), n, "degp1 length mismatch");
        let (in_dim, out_dim) = (self.in_dim(), self.out_dim());
        if choice.transform_first {
            let xw = work.take_uninit(n * out_dim);
            match (choice.kernel, nz_rows) {
                (Kernel::Spmm, Some(rows)) => {
                    kernels::spmm_csr_into(n, in_dim, out_dim, rows, x, self.weight.as_slice(), xw);
                }
                _ => kernels::gemm_into(n, in_dim, out_dim, x, self.weight.as_slice(), xw),
            }
            self.aggregate_rows_into(snap, xw, out_dim, degp1, out);
        } else {
            let agg = work.take_uninit(n * in_dim);
            self.aggregate_rows_into(snap, x, in_dim, degp1, agg);
            kernels::gemm_into(n, in_dim, out_dim, agg, self.weight.as_slice(), out);
        }
        self.activation.apply(out);
    }

    /// Full layer forward over the whole snapshot.
    ///
    /// Thin wrapper over [`Self::forward_into`] with a throwaway
    /// scratch — engines that run many snapshots should call
    /// `forward_into` with a persistent [`ScratchBuf`] instead.
    ///
    /// # Panics
    /// Panics if `x` has the wrong shape.
    pub fn forward(&self, snap: &Snapshot, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            x.rows(),
            snap.num_vertices(),
            "feature table must cover the universe"
        );
        assert_eq!(x.cols(), self.in_dim(), "layer input dim mismatch");
        let n = snap.num_vertices();
        let mut degp1 = vec![0.0f32; n];
        fill_degp1(snap, &mut degp1);
        let mut work = ScratchBuf::default();
        let mut out = vec![0.0f32; n * self.out_dim()];
        self.forward_into(snap, x.as_slice(), &degp1, &mut work, &mut out);
        DenseMatrix::from_vec(n, self.out_dim(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagnn_graph::Csr;

    fn snap(n: usize, edges: &[(u32, u32)]) -> Snapshot {
        Snapshot::fully_active(
            Csr::from_edges(n, edges),
            DenseMatrix::from_fn(n, 2, |r, c| (r * 2 + c) as f32),
        )
    }

    #[test]
    fn aggregate_isolated_vertex_is_scaled_self_loop() {
        let s = snap(3, &[]);
        let layer = GcnLayer::new(2, 2, Activation::Identity, 1);
        let agg = layer.aggregate_vertex(&s, s.features(), 1);
        // Degree 0: self-loop weight 1/(0+1) = 1.
        assert_eq!(agg, vec![2.0, 3.0]);
    }

    #[test]
    fn aggregate_includes_normalised_neighbors() {
        let s = snap(2, &[(0, 1)]);
        let layer = GcnLayer::new(2, 2, Activation::Identity, 1);
        let agg = layer.aggregate_vertex(&s, s.features(), 0);
        // v0: degree 1 -> self 1/2 * [0,1]; neighbour v1 degree 0 ->
        // 1/sqrt(2*1) * [2,3].
        let inv = 1.0 / (2.0f32).sqrt();
        assert!((agg[0] - (0.0 * 0.5 + 2.0 * inv)).abs() < 1e-6);
        assert!((agg[1] - (1.0 * 0.5 + 3.0 * inv)).abs() < 1e-6);
    }

    #[test]
    fn inactive_vertex_aggregates_to_zero() {
        let csr = Csr::from_edges(2, &[(0, 1)]);
        let s = Snapshot::new(
            csr,
            DenseMatrix::from_fn(2, 2, |_, _| 1.0),
            vec![true, false],
        );
        let layer = GcnLayer::new(2, 2, Activation::Identity, 1);
        assert_eq!(layer.aggregate_vertex(&s, s.features(), 1), vec![0.0, 0.0]);
    }

    #[test]
    fn forward_matches_per_vertex_forward() {
        let s = snap(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let layer = GcnLayer::new(2, 3, Activation::Relu, 7);
        let full = layer.forward(&s, s.features());
        for v in 0..4u32 {
            assert_eq!(
                full.row(v as usize),
                layer.forward_vertex(&s, s.features(), v).as_slice()
            );
        }
    }

    #[test]
    fn transform_first_triggers_only_on_shrinking_layers() {
        assert!(GcnLayer::new(4, 2, Activation::Identity, 1).transform_first());
        assert!(!GcnLayer::new(2, 4, Activation::Identity, 1).transform_first());
        assert!(!GcnLayer::new(3, 3, Activation::Identity, 1).transform_first());
    }

    #[test]
    fn transform_first_forward_matches_per_vertex_within_tolerance() {
        // A shrinking layer takes the Â·(X·W) path, which reassociates
        // the product relative to forward_vertex's (Â·X)·W — equality
        // only up to float reassociation.
        let n = 6;
        let s = Snapshot::fully_active(
            Csr::from_edges(n, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
            DenseMatrix::from_fn(n, 5, |r, c| ((r * 5 + c) as f32).sin()),
        );
        for agg in [
            AggregatorKind::GcnNormalized,
            AggregatorKind::Mean,
            AggregatorKind::Sum,
        ] {
            let layer = GcnLayer::with_aggregator(5, 2, Activation::Relu, agg, 9);
            assert!(layer.transform_first());
            let full = layer.forward(&s, s.features());
            for v in 0..n as u32 {
                let want = layer.forward_vertex(&s, s.features(), v);
                for (a, b) in full.row(v as usize).iter().zip(&want) {
                    assert!((a - b).abs() < 1e-5, "v{v}: {a} vs {b} ({agg:?})");
                }
            }
        }
    }

    #[test]
    fn planned_spmm_forward_is_bit_identical_to_dense_forward() {
        use tagnn_tensor::dispatch::{Kernel, LayerChoice};
        // Zero out some feature rows, run the transform-first arm once
        // densely and once through the SpMM with the matching row list:
        // the outputs must agree bit-for-bit, not approximately.
        let n = 9;
        let mut feats = DenseMatrix::from_fn(n, 5, |r, c| ((r * 5 + c) as f32).sin());
        for r in [1usize, 4, 7] {
            feats.row_mut(r).fill(0.0);
        }
        let rows: Vec<u32> = (0..n as u32).filter(|r| ![1, 4, 7].contains(r)).collect();
        let s = Snapshot::fully_active(
            Csr::from_edges(n, &[(0, 1), (1, 2), (2, 3), (4, 5), (6, 7), (7, 8)]),
            feats,
        );
        let layer = GcnLayer::new(5, 3, Activation::Tanh, 17);
        let mut degp1 = vec![0.0f32; n];
        fill_degp1(&s, &mut degp1);
        let mut work = ScratchBuf::default();
        let mut dense_out = vec![0.0f32; n * 3];
        layer.forward_into(
            &s,
            s.features().as_slice(),
            &degp1,
            &mut work,
            &mut dense_out,
        );
        let choice = LayerChoice {
            transform_first: true,
            kernel: Kernel::Spmm,
            density: rows.len() as f64 / n as f64,
        };
        let mut spmm_out = vec![f32::NAN; n * 3];
        layer.forward_planned_into(
            &s,
            s.features().as_slice(),
            &degp1,
            &mut work,
            Some(&rows),
            &choice,
            &mut spmm_out,
        );
        for (i, (a, b)) in dense_out.iter().zip(&spmm_out).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "elem {i}: {a} vs {b}");
        }
    }

    #[test]
    fn aggregate_row_into_matches_aggregate_vertex() {
        let csr = Csr::from_edges(4, &[(0, 1), (1, 2), (0, 2)]);
        let s = Snapshot::new(
            csr,
            DenseMatrix::from_fn(4, 3, |r, c| (r as f32) - (c as f32) * 0.5),
            vec![true, true, false, true],
        );
        let mut degp1 = vec![0.0f32; 4];
        fill_degp1(&s, &mut degp1);
        for agg in [
            AggregatorKind::GcnNormalized,
            AggregatorKind::Mean,
            AggregatorKind::Sum,
        ] {
            let layer = GcnLayer::with_aggregator(3, 3, Activation::Identity, agg, 5);
            let mut row = vec![0.0f32; 3];
            for v in 0..4u32 {
                layer.aggregate_row_into(&s, s.features().as_slice(), 3, &degp1, v, &mut row);
                assert_eq!(
                    row,
                    layer.aggregate_vertex(&s, s.features(), v),
                    "{agg:?} v{v}"
                );
            }
        }
    }

    #[test]
    fn combine_row_into_matches_combine_vertex() {
        let layer = GcnLayer::new(3, 4, Activation::Relu, 13);
        let agg = [0.3f32, -1.2, 0.0];
        let mut out = vec![0.0f32; 4];
        layer.combine_row_into(&agg, &mut out);
        assert_eq!(out, layer.combine_vertex(&agg));
    }

    #[test]
    fn relu_activation_is_applied() {
        let s = snap(2, &[]);
        let layer = GcnLayer::new(2, 4, Activation::Relu, 3);
        let out = layer.forward(&s, s.features());
        assert!(out.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn forward_rejects_bad_input_dim() {
        let s = snap(2, &[]);
        let layer = GcnLayer::new(3, 2, Activation::Identity, 1);
        let _ = layer.forward(&s, s.features());
    }

    #[test]
    fn mean_aggregator_averages_neighborhood() {
        let s = snap(2, &[(0, 1)]);
        let layer = GcnLayer::with_aggregator(2, 2, Activation::Identity, AggregatorKind::Mean, 1);
        let agg = layer.aggregate_vertex(&s, s.features(), 0);
        // Mean of rows [0,1] and [2,3].
        assert!((agg[0] - 1.0).abs() < 1e-6);
        assert!((agg[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sum_aggregator_adds_neighborhood() {
        let s = snap(2, &[(0, 1)]);
        let layer = GcnLayer::with_aggregator(2, 2, Activation::Identity, AggregatorKind::Sum, 1);
        let agg = layer.aggregate_vertex(&s, s.features(), 0);
        assert_eq!(agg, vec![2.0, 4.0]);
    }

    #[test]
    fn default_layer_uses_gcn_normalisation() {
        let layer = GcnLayer::new(2, 2, Activation::Identity, 1);
        assert_eq!(layer.aggregator(), AggregatorKind::GcnNormalized);
    }

    #[test]
    fn deterministic_weights() {
        let a = GcnLayer::new(4, 4, Activation::Tanh, 11);
        let b = GcnLayer::new(4, 4, Activation::Tanh, 11);
        assert_eq!(a, b);
    }
}
