//! Threads-invariance differential: every engine output, digest and
//! counter must be the same bits whether the parallel sites run inline
//! (one thread) or split across two threads.
//!
//! The graph has more than 8192 vertices, so per-vertex parallel sites
//! (minimum piece length 2048 rows) really split at two threads; the
//! golden and differential suites run small graphs, which stay on the
//! inline path. Each side runs under a width-capped
//! `rayon::ThreadPool::install`, over a global pool of two threads. The
//! tests take a lock so that no other test holds the pool while a
//! two-thread side runs (a busy pool would make it run inline).

use std::sync::{Arc, Mutex, MutexGuard};

use rayon::ThreadPoolBuilder;
use tagnn_graph::generate::{ChurnConfig, GeneratorConfig};
use tagnn_graph::{DynamicGraph, Snapshot, WindowPlan, WindowPlanner};
use tagnn_models::{
    ConcurrentEngine, DgnnModel, ExecutionStats, InferenceOutput, ModelKind, ReuseMode, SkipConfig,
};
use tagnn_tensor::DenseMatrix;

const VERTICES: usize = 9000;
const WINDOW: usize = 4;

static POOL: Mutex<()> = Mutex::new(());

/// Takes the pool for one test, two threads wide.
fn exclusive_pool() -> MutexGuard<'static, ()> {
    let guard = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let _ = ThreadPoolBuilder::new().num_threads(2).build_global();
    assert!(
        rayon::current_num_threads() >= 2,
        "the global pool must be at least two wide for this differential"
    );
    guard
}

fn with_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a capped pool always builds");
    pool.install(|| {
        assert_eq!(rayon::current_num_threads(), threads);
        op()
    })
}

/// A skewed (power-law) graph with feature, edge and vertex churn, six
/// snapshots: one full window of four and a tail window of two.
fn graph() -> DynamicGraph {
    GeneratorConfig {
        num_vertices: VERTICES,
        num_edges: 6 * VERTICES,
        feature_dim: 12,
        num_snapshots: 6,
        power_law_alpha: 0.8,
        churn: ChurnConfig {
            feature_mutation_rate: 0.05,
            edge_rewire_rate: 0.03,
            vertex_churn_rate: 0.01,
            mutation_smoothness: 0.5,
        },
        seed: 8192,
        feature_row_sparsity: 0.0,
        burst: None,
    }
    .generate()
}

fn bits(ms: &[DenseMatrix]) -> Vec<Vec<u32>> {
    ms.iter()
        .map(|m| m.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Counters without the wall-clock field, which is the only one allowed
/// to differ.
fn counters(mut s: ExecutionStats) -> ExecutionStats {
    s.wall_ns = 0;
    s
}

fn assert_same_output(label: &str, one: &InferenceOutput, two: &InferenceOutput) {
    assert!(
        bits(&one.final_features) == bits(&two.final_features),
        "{label}: final features differ between 1 and 2 threads"
    );
    assert!(
        bits(&one.gnn_outputs) == bits(&two.gnn_outputs),
        "{label}: GNN outputs differ between 1 and 2 threads"
    );
    assert_eq!(
        counters(one.stats),
        counters(two.stats),
        "{label}: execution stats differ between 1 and 2 threads"
    );
}

#[test]
fn run_outputs_and_stats_are_thread_count_invariant() {
    let _pool = exclusive_pool();
    let g = graph();
    // T-GCN (2 GCN layers + GRU) and GC-LSTM (3 GCN layers + LSTM),
    // under both reuse modes.
    for kind in [ModelKind::TGcn, ModelKind::GcLstm] {
        for reuse in [ReuseMode::PaperWindow, ReuseMode::Exact] {
            let model = DgnnModel::new(kind, g.feature_dim(), 8, 7);
            let engine =
                ConcurrentEngine::with_options(model, SkipConfig::paper_default(), WINDOW, reuse);
            let one = with_threads(1, || engine.run(&g));
            let two = with_threads(2, || engine.run(&g));
            assert_same_output(&format!("{kind:?}/{reuse:?}"), &one, &two);
        }
    }
}

#[test]
fn plans_are_thread_count_invariant() {
    let _pool = exclusive_pool();
    let g = graph();
    let planner = WindowPlanner::new(WINDOW);
    let one: Vec<Arc<WindowPlan>> = with_threads(1, || planner.plan_graph(&g));
    let two: Vec<Arc<WindowPlan>> = with_threads(2, || planner.plan_graph(&g));
    assert_eq!(one.len(), 2);
    assert!(one == two, "plans differ between 1 and 2 threads");
    // A single window planned on its own splits its per-vertex passes
    // (inside `plan_graph` each window is one piece and runs inline).
    let refs: Vec<&Snapshot> = g.snapshots()[..WINDOW].iter().collect();
    let lone = with_threads(2, || planner.plan_window(&refs, 0));
    assert!(lone == *one[0], "a lone window's plan differs");
}

#[test]
fn session_windows_are_thread_count_invariant() {
    let _pool = exclusive_pool();
    let g = graph();
    let model = DgnnModel::new(ModelKind::TGcn, g.feature_dim(), 8, 11);
    let engine = ConcurrentEngine::new(model, SkipConfig::paper_default());
    let planner = WindowPlanner::new(WINDOW);
    let serve = |threads: usize| {
        with_threads(threads, || {
            let mut session = engine.session(g.num_vertices());
            g.batches(WINDOW)
                .enumerate()
                .map(|(i, batch)| {
                    let refs: Vec<&Snapshot> = batch.iter().collect();
                    let plan = planner.plan_window(&refs, i);
                    session.process_window(&refs, &plan)
                })
                .collect::<Vec<_>>()
        })
    };
    let (one, two) = (serve(1), serve(2));
    for (w, (a, b)) in one.iter().zip(&two).enumerate() {
        assert!(
            bits(&a.final_features) == bits(&b.final_features)
                && bits(&a.gnn_outputs) == bits(&b.gnn_outputs),
            "window {w}: session outputs differ between 1 and 2 threads"
        );
        assert_eq!(
            counters(a.stats),
            counters(b.stats),
            "window {w}: session stats differ between 1 and 2 threads"
        );
    }
    // And the streamed windows concatenate to the batch run.
    let batch = with_threads(2, || engine.run(&g));
    let streamed: Vec<DenseMatrix> = two
        .iter()
        .flat_map(|w| w.final_features.iter().cloned())
        .collect();
    assert!(bits(&streamed) == bits(&batch.final_features));
}
