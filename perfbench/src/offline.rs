//! Offline batch inference: repeated whole-graph passes through
//! `ConcurrentEngine::run`, the engine's batch entry point (plan, then
//! execute).

use std::time::Instant;

use tagnn_graph::{DatasetPreset, DynamicGraph, GeneratorConfig, WindowPlan, WindowPlanner};
use tagnn_models::{
    ConcurrentEngine, DgnnModel, ExecutionStats, InferenceOutput, ModelKind, SkipConfig,
};
use tagnn_obs::Recorder;
use tagnn_serve::digest_matrices;
use tagnn_sim::{AcceleratorConfig, TagnnSimulator, Workload};

use crate::host::{self, Host};
use crate::report::{Metrics, Outcome};
use crate::spans::{self, span, Tracer};
use crate::stats;
use crate::Run;

/// Restarts per run (set-ups included) whose median is `recovery_s`.
const RESTARTS: usize = 7;

/// What defines an offline workload; everything else is the engine's
/// default (window K=4, paper reuse, paper skip thresholds, auto
/// dispatch).
pub struct Spec {
    preset: DatasetPreset,
    scale: f64,
    snapshots: usize,
    hidden: usize,
    /// Set-ups per run; the median is reported.
    setups: usize,
}

impl Spec {
    /// Epinions at scale 0.04 (~35 k vertices, ~547 k edges, D=220),
    /// T=16, hidden 32: one window's features (~120 MB) exceed the
    /// last-level cache.
    pub fn ep(tiny: bool) -> Self {
        Self {
            preset: DatasetPreset::Epinions,
            scale: if tiny { 0.002 } else { 0.04 },
            snapshots: if tiny { 8 } else { 16 },
            hidden: 32,
            setups: 3,
        }
    }

    fn graph(&self, seed: u64) -> GeneratorConfig {
        let mut cfg = self.preset.config(self.scale, self.snapshots);
        cfg.seed = seed;
        cfg
    }

    fn engine(&self, feature_dim: usize, seed: u64) -> ConcurrentEngine {
        let model = DgnnModel::new(ModelKind::TGcn, feature_dim, self.hidden, seed);
        ConcurrentEngine::new(model, SkipConfig::paper_default())
    }
}

struct Ready {
    graph: DynamicGraph,
    engine: ConcurrentEngine,
    /// Digest of the warm-up pass's final features.
    digest: u64,
    stats: ExecutionStats,
    generate_s: f64,
    /// Engine rebuild plus its first, cold pass: the time from a restart
    /// to the first completed batch request.
    restart_s: f64,
    total_s: f64,
}

/// Engine rebuild plus its first, cold pass over `graph`, with the time
/// both took.
fn restart(
    spec: &Spec,
    graph: &DynamicGraph,
    seed: u64,
) -> (ConcurrentEngine, InferenceOutput, f64) {
    let t = Instant::now();
    let engine = spec.engine(graph.feature_dim(), seed);
    let out = engine.run(graph);
    (engine, out, t.elapsed().as_secs_f64())
}

/// Set-up: generate the graph, build the model and engine, run one
/// warm-up pass.
fn setup(spec: &Spec, seed: u64) -> Ready {
    let t0 = Instant::now();
    let graph = spec.graph(seed).generate();
    let generate_s = t0.elapsed().as_secs_f64();
    let (engine, out, restart_s) = restart(spec, &graph, seed);
    let total_s = t0.elapsed().as_secs_f64();
    Ready {
        digest: digest_matrices(&out.final_features),
        stats: out.stats,
        graph,
        engine,
        generate_s,
        restart_s,
        total_s,
    }
}

fn windows_per_pass(r: &Ready) -> usize {
    r.graph.num_snapshots().div_ceil(r.engine.window())
}

/// The oracle: the same windows planned one at a time and executed
/// through `EngineSession::process_window`, the per-window path the
/// serving differential tests hold bit-identical to `run`.
fn session_digest(r: &Ready) -> u64 {
    let k = r.engine.window();
    let planner = WindowPlanner::new(k);
    let mut session = r.engine.session(r.graph.num_vertices());
    let mut finals = Vec::with_capacity(r.graph.num_snapshots());
    for (i, batch) in r.graph.batches(k).enumerate() {
        let refs: Vec<_> = batch.iter().collect();
        let plan = planner.plan_window(&refs, i);
        finals.extend(session.process_window(&refs, &plan).final_features);
    }
    digest_matrices(&finals)
}

fn note_properties(o: &mut Outcome, s: &ExecutionStats) {
    let cells = s.skip.total().max(1) as f64;
    o.note(format!(
        "workload properties: reuse_ratio={:.4} skip_frac={:.4} delta_frac={:.4} row_density={:.4}",
        s.reuse_ratio(),
        s.skip.skipped as f64 / cells,
        s.skip.delta as f64 / cells,
        s.dispatch_density(),
    ));
}

pub fn run(spec: &Spec, run: &Run, o: &mut Outcome) {
    if run.traced {
        traced(spec, run, o);
    } else {
        untraced(spec, run, o);
    }
}

fn untraced(spec: &Spec, run: &Run, o: &mut Outcome) {
    // Set up several times; keep the last. Each set-up's warm-up digest
    // must match the first (same seed, same inputs).
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..spec.setups {
        drop(ready.take());
        let r = setup(spec, run.seed);
        setups.push((r.total_s, r.restart_s, r.digest));
        ready = Some(r);
    }
    let r = ready.expect("set-up ran");
    let first = setups[0].2;
    let bad = setups.iter().filter(|s| s.2 != first).count() as u64;
    o.check(setups.len() as u64, bad);
    note_properties(o, &r.stats);

    let windows = windows_per_pass(&r);
    let mut pass_s = Vec::new();
    let mut mismatched = 0u64;
    let started = Instant::now();
    while started.elapsed() < run.measure || pass_s.is_empty() {
        let t = Instant::now();
        let out = r.engine.run(&r.graph);
        pass_s.push(t.elapsed().as_secs_f64());
        if digest_matrices(&out.final_features) ^ run.corrupt != r.digest {
            mismatched += 1;
        }
    }
    o.check(pass_s.len() as u64, mismatched);

    let oracle = session_digest(&r);
    o.check(1, u64::from(oracle != r.digest));
    if oracle != r.digest {
        o.note(format!(
            "oracle mismatch: session path {oracle:016x} vs run {:016x}",
            r.digest
        ));
    }

    // More restarts on the same graph, each engine dropped before the
    // next is built (so the memory high-water mark stays that of one
    // set-up): a cold pass varies with page-fault cost, and a median of
    // three spread by a quarter across runs.
    let mut restarts: Vec<f64> = setups.iter().map(|s| s.1).collect();
    let Ready { graph, engine, .. } = r;
    drop(engine);
    let mut bad = 0u64;
    while restarts.len() < RESTARTS {
        let (_, out, s) = restart(spec, &graph, run.seed);
        restarts.push(s);
        bad += u64::from(digest_matrices(&out.final_features) ^ run.corrupt != first);
    }
    o.check((RESTARTS - setups.len()) as u64, bad);

    let total: f64 = pass_s.iter().sum();
    let window_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3 / windows as f64).collect();
    let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    let w50 = stats::pct(&window_ms, 0.50);
    let w95 = stats::pct(&window_ms, 0.95);
    let r50 = stats::pct(&pass_ms, 0.50);
    let r99 = stats::pct(&pass_ms, 0.99);
    o.note(format!(
        "{} timed passes of {windows} windows over {:.2} s; window_p95 {}; request_p99 {}",
        pass_s.len(),
        total,
        w95.describe(),
        r99.describe(),
    ));
    let m = &mut o.metrics;
    // Rates from the median pass, so one stalled pass does not move them.
    let median_pass = stats::median(&pass_s);
    m.set("windows_per_s", windows as f64 / median_pass);
    m.set("window_p50_ms", w50.value);
    m.set("window_p95_ms", w95.value);
    m.set("request_p50_ms", r50.value);
    m.set("request_p99_ms", r99.value);
    m.set("max_rate_rps", 1.0 / median_pass);
    let totals: Vec<f64> = setups.iter().map(|s| s.0).collect();
    m.set("recovery_s", stats::median(&restarts));
    m.set("setup_s", stats::median(&totals));
}

fn traced(spec: &Spec, run: &Run, o: &mut Outcome) {
    let r = setup(spec, run.seed);
    note_properties(o, &r.stats);
    let host = Host::probe();
    let windows = windows_per_pass(&r);
    let tracer = Tracer::new();

    // Tracing overhead: alternate untraced and traced passes; every
    // traced pass must reproduce the untraced digest.
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut mismatched = 0u64;
    let started = Instant::now();
    let budget = run.measure / 2;
    while started.elapsed() < budget || traced_s.len() < 2 {
        let t = Instant::now();
        let out = r.engine.run(&r.graph);
        plain_s.push(t.elapsed().as_secs_f64());
        mismatched += u64::from(digest_matrices(&out.final_features) != r.digest);
        let rec = Recorder::new();
        let t = Instant::now();
        let out = r.engine.run_traced(&r.graph, Some(&rec));
        traced_s.push(t.elapsed().as_secs_f64());
        mismatched += u64::from(digest_matrices(&out.final_features) ^ run.corrupt != r.digest);
    }
    o.check((plain_s.len() + traced_s.len()) as u64, mismatched);

    // Attribution pass: every plan_window call and the execute call get
    // a span; the engine's own spans come from its Recorder.
    let k = r.engine.window();
    let planner = WindowPlanner::new(k);
    let mut plans: Vec<std::sync::Arc<WindowPlan>> = Vec::with_capacity(windows);
    let mut plan_s = Vec::new();
    for (i, batch) in r.graph.batches(k).enumerate() {
        let refs: Vec<_> = batch.iter().collect();
        let _g = span(Some(&tracer), "graph.plan_window", i as u64);
        let t = Instant::now();
        plans.push(std::sync::Arc::new(planner.plan_window(&refs, i)));
        plan_s.push(t.elapsed().as_secs_f64());
    }
    let rec = Recorder::new();
    let t = Instant::now();
    let out = {
        let _g = span(Some(&tracer), "models.run_with_plans", 0);
        r.engine.run_with_plans_traced(&r.graph, &plans, Some(&rec))
    };
    let exec_s = t.elapsed().as_secs_f64();
    o.check(
        1,
        u64::from(digest_matrices(&out.final_features) != r.digest),
    );

    // The simulator over the same plans; its cycle count must repeat.
    let skip = r.engine.skip_config();
    let workload = Workload::measure_with_plans(
        &r.graph,
        "bench",
        ModelKind::TGcn,
        spec.hidden,
        k,
        skip,
        run.seed,
        &plans,
    );
    let sim = TagnnSimulator::new(AcceleratorConfig::tagnn_default());
    let t = Instant::now();
    let report = {
        let _g = span(Some(&tracer), "sim.simulate_with_plans", 0);
        sim.simulate_with_plans(&r.graph, &workload, &plans)
    };
    let sim_ms = t.elapsed().as_secs_f64() * 1e3;
    let again = sim.simulate_with_plans(&r.graph, &workload, &plans);
    o.check(1, u64::from(again.cycles != report.cycles));

    let engine_spans = spans::engine_self_times(&rec.snapshot());
    let self_ms = |prefix: &str| -> f64 {
        engine_spans
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, a)| a.self_ms())
            .sum()
    };
    let gnn_s = self_ms("gnn_") / 1e3;
    let rnn_s = self_ms("rnn") / 1e3;

    let m = &mut o.metrics;
    host.publish(m);
    // A cache-resident combine GEMM: MovieLens at scale 0.05, 499
    // vertices × D=500 → hidden 48.
    m.set("tensor.gemm_gflops", host::gemm_gflops(499, 500, 48, 0.1));
    m.set("graph.plan_ms", stats::mean(&plan_s) * 1e3);
    let classified: u64 = plans.iter().map(|p| p.stats().classified_vertices).sum();
    let share = |f: fn(&WindowPlan) -> usize| -> f64 {
        plans.iter().map(|p| f(p) as f64).sum::<f64>() / classified.max(1) as f64
    };
    m.set(
        "graph.unaffected_frac",
        share(|p| p.stats().counts.unaffected),
    );
    m.set("graph.stable_frac", share(|p| p.stats().counts.stable));
    m.set("graph.affected_frac", share(|p| p.stats().counts.affected));
    m.set(
        "graph.subgraph_vertices",
        plans
            .iter()
            .map(|p| p.stats().subgraph_vertices as f64)
            .sum::<f64>()
            / windows as f64,
    );
    m.set("graph.generate_s", r.generate_s);
    publish_engine_stats(m, &out.stats);
    m.set("models.exec_ms", exec_s * 1e3 / windows as f64);
    m.set("models.gnn_ms", gnn_s * 1e3 / windows as f64);
    m.set("models.rnn_ms", rnn_s * 1e3 / windows as f64);
    let rf = &out.stats.roofline;
    let rate = |x: u64, s: f64| if s > 0.0 { x as f64 / s / 1e9 } else { 0.0 };
    let gnn_gbps = rate(rf.gnn.bytes, gnn_s);
    let gnn_gflops = rate(rf.gnn.flops, gnn_s);
    let rnn_gbps = rate(rf.rnn.bytes, rnn_s);
    let rnn_gflops = rate(rf.rnn.flops, rnn_s);
    m.set("models.gnn.gbps", gnn_gbps);
    m.set("models.gnn.gflops", gnn_gflops);
    m.set("models.rnn.gbps", rnn_gbps);
    m.set("models.rnn.gflops", rnn_gflops);
    m.set("models.gnn.gbps.of_ceiling", gnn_gbps / host.stream_gbps);
    m.set("models.gnn.gflops.of_ceiling", gnn_gflops / host.fma_gflops);
    m.set("models.rnn.gbps.of_ceiling", rnn_gbps / host.stream_gbps);
    m.set("models.rnn.gflops.of_ceiling", rnn_gflops / host.fma_gflops);
    m.set("sim.cycles", report.cycles as f64);
    m.set("sim.host_ms", sim_ms);
    let plain = stats::median(&plain_s);
    m.set(
        "obs.trace_overhead_frac",
        (stats::median(&traced_s) - plain) / plain,
    );
    o.note(host.describe());
    o.note(format!(
        "plan {:.3} ms/window, execute {:.3} ms/window, engine self time gnn {:.1} ms rnn {:.1} ms per pass",
        stats::mean(&plan_s) * 1e3,
        exec_s * 1e3 / windows as f64,
        gnn_s * 1e3,
        rnn_s * 1e3,
    ));
    run.write_spans(&tracer, o);
}

/// Engine work counts of one pass (or one replay): these repeat exactly
/// for a given seed.
pub fn publish_engine_stats(m: &mut Metrics, s: &ExecutionStats) {
    let cells = s.skip.total().max(1) as f64;
    m.set("models.gnn_aggregate_macs", s.gnn_aggregate_macs as f64);
    m.set("models.gnn_combine_macs", s.gnn_combine_macs as f64);
    m.set("models.rnn_macs", s.rnn_macs as f64);
    m.set("models.similarity_ops", s.similarity_ops as f64);
    m.set("models.reuse_ratio", s.reuse_ratio());
    m.set("models.skip_frac", s.skip.skipped as f64 / cells);
    m.set("models.delta_frac", s.skip.delta as f64 / cells);
    m.set("tensor.dispatch.dense", s.dispatch.dense as f64);
    m.set("tensor.dispatch.spmm", s.dispatch.spmm as f64);
    m.set("tensor.dispatch.delta_skip", s.dispatch.delta_skip as f64);
    m.set("tensor.input_density", s.dispatch_density());
}
