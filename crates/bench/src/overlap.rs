//! `experiments overlap-bench`: the plan/execute overlap ablation.
//!
//! Times the same workload twice on the concurrent engine — overlap OFF
//! (plan-everything-then-run, plan build inside the timed region) and
//! overlap ON ([`ConcurrentEngine::run_pipelined`], a bounded-lookahead
//! planner thread building window W+1 while W executes) — checks the two
//! runs are bit-identical, and writes `BENCH_9.json`: both wall-clocks
//! plus the steady-state `plan_build_us` and the fraction of it the
//! overlap hid.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use tagnn::TagnnPipeline;
use tagnn_graph::generate::GeneratorConfig;
use tagnn_graph::WindowPlanner;
use tagnn_models::{ConcurrentEngine, InferenceOutput, ReuseMode, SkipConfig};

use crate::cli::{dataset_of, model_of, num, parse_flags};

struct OverlapArgs {
    dataset: String,
    graph: GeneratorConfig,
    model: tagnn_models::ModelKind,
    hidden: usize,
    window: usize,
    seed: u64,
    lookahead: usize,
    repeats: u32,
    smoke: bool,
    out: String,
}

fn parse(args: &[String]) -> Result<OverlapArgs, String> {
    let flags: HashMap<String, String> = parse_flags(args)?;
    for key in flags.keys() {
        const KNOWN: [&str; 11] = [
            "dataset",
            "scale",
            "snapshots",
            "window",
            "model",
            "hidden",
            "seed",
            "lookahead",
            "repeats",
            "smoke",
            "out",
        ];
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}"));
        }
    }
    let smoke = flags.contains_key("smoke");
    // The overlap win only shows at steady state — enough windows that
    // the pipeline fill/drain transient amortises away — and on a
    // working set large enough that plan locality matters, hence the
    // EP default (smoke keeps the small GT preset for CI turnaround).
    let snapshots: usize = num(&flags, "snapshots", if smoke { 6 } else { 32 })?;
    let scale: f64 = num(&flags, "scale", 0.05)?;
    let dataset = flags
        .get("dataset")
        .cloned()
        .unwrap_or_else(|| if smoke { "GT" } else { "EP" }.to_string());
    let mut graph = if dataset == "tiny" {
        let mut g = GeneratorConfig::tiny();
        g.num_snapshots = snapshots;
        g
    } else if dataset == "sparse" || dataset == "SP" {
        GeneratorConfig::sparse_high_churn(snapshots)
    } else {
        // Resolve through the *defaulted* name, not the raw flags — the
        // smoke/full default datasets differ from `dataset_of`'s own.
        let mut named = flags.clone();
        named.insert("dataset".to_string(), dataset.clone());
        dataset_of(&named)?.config(scale, snapshots)
    };
    graph.seed = num(&flags, "seed", graph.seed)?;
    let lookahead: usize = num(&flags, "lookahead", 2)?;
    if lookahead == 0 {
        return Err("--lookahead wants a positive depth".to_string());
    }
    Ok(OverlapArgs {
        dataset,
        graph,
        model: model_of(&flags)?,
        hidden: num(&flags, "hidden", 32)?,
        window: num(&flags, "window", 4)?,
        seed: num(&flags, "seed", 0xD6)?,
        lookahead,
        repeats: num(&flags, "repeats", if smoke { 1 } else { 5 })?,
        smoke,
        out: flags
            .get("out")
            .cloned()
            .unwrap_or_else(|| "BENCH_9.json".to_string()),
    })
}

/// Best-of-`repeats` wall times for the two arms, measured *interleaved*
/// (off, on, off, on, …) after one untimed warm-up of each — so host
/// noise and frequency drift hit both arms alike instead of biasing
/// whichever arm ran last. Returns the last outputs for the bit-identity
/// check.
fn best_pair<F, G>(
    repeats: u32,
    mut off: F,
    mut on: G,
) -> (f64, f64, InferenceOutput, InferenceOutput)
where
    F: FnMut() -> InferenceOutput,
    G: FnMut() -> InferenceOutput,
{
    let mut off_out = off(); // warm-ups, untimed
    let mut on_out = on();
    let mut off_best = f64::INFINITY;
    let mut on_best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        off_out = off();
        off_best = off_best.min(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        on_out = on();
        on_best = on_best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    (off_best, on_best, off_out, on_out)
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// `experiments overlap-bench`: run the ablation and write the report.
pub fn run_overlap_bench(args: &[String]) -> Result<(), String> {
    let a = parse(args)?;
    let pipeline = TagnnPipeline::builder()
        .generator(a.graph.clone())
        .model(a.model)
        .hidden(a.hidden)
        .window(a.window)
        .snapshots(a.graph.num_snapshots)
        .seed(a.seed)
        .build();
    let graph = pipeline.graph();
    let engine = ConcurrentEngine::with_options(
        pipeline.model().clone(),
        SkipConfig::paper_default(),
        a.window,
        ReuseMode::PaperWindow,
    );
    // Which executor `run_pipelined` resolves to on this host: with a
    // spare core for the planner it overlaps for real; on a single-core
    // host it degrades to just-in-time planning (plan W built right
    // before W executes, one plan resident) — see the engine docs.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let executor = if cores < 2 {
        "just-in-time"
    } else {
        "threaded"
    };
    eprintln!(
        "overlap-bench: {} ({} vertices, D={}, {} snapshots) model={} hidden={} K={} \
         lookahead={} repeats={} executor={executor}",
        a.dataset,
        a.graph.num_vertices,
        a.graph.feature_dim,
        a.graph.num_snapshots,
        a.model.name(),
        a.hidden,
        a.window,
        a.lookahead,
        a.repeats,
    );

    // Steady-state plan cost: what the OFF run pays inline and the ON run
    // tries to hide behind execution.
    let plan_build_us = WindowPlanner::new(a.window)
        .plan_graph(graph)
        .iter()
        .map(|p| p.stats().build_ns)
        .sum::<u64>() as f64
        / 1e3;

    let (off_us, on_us, off_out, on_out) = best_pair(
        a.repeats,
        || engine.run_traced(graph, None),
        || engine.run_pipelined(graph, None, a.lookahead),
    );

    if off_out.final_features != on_out.final_features || off_out.gnn_outputs != on_out.gnn_outputs
    {
        return Err(
            "overlap bit-identity violated: pipelined run produced different bits".to_string(),
        );
    }

    // Fraction of the inline plan cost the overlap hid. Clamped: noise
    // can push the saving past the plan cost (or below zero) on small
    // hosts.
    let hidden_fraction = if plan_build_us > 0.0 {
        ((off_us - on_us) / plan_build_us).clamp(0.0, 1.0)
    } else {
        0.0
    };

    println!(
        "  overlap off: {off_us:.0}us   on (lookahead {}): {on_us:.0}us   \
         plan_build {plan_build_us:.0}us   hidden fraction {hidden_fraction:.2}",
        a.lookahead,
    );

    let mut report = String::with_capacity(1024);
    report.push_str("{\n  \"schema\": \"tagnn-overlap/1\",\n");
    let _ = writeln!(report, "  \"dataset\": \"{}\",", a.dataset);
    let _ = writeln!(
        report,
        "  \"config\": {{\"vertices\": {}, \"edges\": {}, \"feature_dim\": {}, \
         \"snapshots\": {}, \"graph_seed\": {}, \"model\": \"{}\", \"hidden\": {}, \
         \"window\": {}, \"lookahead\": {}, \"repeats\": {}, \"threads\": {}, \
         \"cores\": {}}},",
        a.graph.num_vertices,
        a.graph.num_edges,
        a.graph.feature_dim,
        a.graph.num_snapshots,
        a.graph.seed,
        a.model.name(),
        a.hidden,
        a.window,
        a.lookahead,
        a.repeats,
        rayon::current_num_threads(),
        cores,
    );
    let _ = writeln!(report, "  \"executor\": \"{executor}\",");
    // Nonzero only when TAGNN_PIN_THREADS asked for a placement the
    // kernel refused (the run then went on unpinned).
    let pin_failures = tagnn_tensor::pin_failures();
    if pin_failures > 0 {
        eprintln!("overlap-bench: warning: {pin_failures} thread pinning call(s) failed");
    }
    let _ = writeln!(report, "  \"pin_failures\": {pin_failures},");
    report.push_str("  \"digest_check\": \"ok\",\n");
    let _ = writeln!(
        report,
        "  \"overlap_off\": {{\"total_us\": {}}},",
        json_f64(off_us)
    );
    let _ = writeln!(
        report,
        "  \"overlap_on\": {{\"total_us\": {}}},",
        json_f64(on_us)
    );
    let _ = writeln!(report, "  \"plan_build_us\": {},", json_f64(plan_build_us));
    let _ = writeln!(
        report,
        "  \"hidden_plan_fraction\": {}",
        json_f64(hidden_fraction)
    );
    report.push_str("}\n");
    std::fs::write(&a.out, &report).map_err(|e| format!("cannot write {}: {e}", a.out))?;
    println!("report written to {}", a.out);

    if !a.smoke && on_us >= off_us {
        return Err(format!(
            "overlap regression: pipelined run ({on_us:.0}us) is not faster than \
             plan-then-run ({off_us:.0}us)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagnn_serve::json;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_overrides() {
        let a = parse(&args(&[])).unwrap();
        assert_eq!(a.dataset, "EP", "full runs need a large working set");
        assert_eq!(a.graph.num_snapshots, 32, "steady state needs windows");
        assert_eq!(a.lookahead, 2);
        assert_eq!(a.out, "BENCH_9.json");
        assert!(!a.smoke);
        let a = parse(&args(&[
            "--dataset",
            "tiny",
            "--smoke",
            "--lookahead",
            "1",
            "--out",
            "/tmp/o.json",
        ]))
        .unwrap();
        assert!(a.smoke);
        assert_eq!(a.graph.num_snapshots, 6, "smoke shrinks the stream");
        assert_eq!(a.lookahead, 1);
        assert_eq!(a.repeats, 1);
        assert!(parse(&args(&["--lookahead", "0"])).is_err());
        assert!(parse(&args(&["--bogus", "1"])).is_err());
    }

    /// End-to-end in smoke mode: runs both arms, enforces bit-identity,
    /// and writes a parseable report with the headline fields.
    #[test]
    fn overlap_bench_end_to_end_smoke() {
        let out = std::env::temp_dir().join("tagnn_overlap_smoke.json");
        let out_s = out.to_string_lossy().to_string();
        run_overlap_bench(&args(&[
            "--dataset",
            "tiny",
            "--smoke",
            "--window",
            "2",
            "--hidden",
            "8",
            "--out",
            &out_s,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(json::Value::as_str),
            Some("tagnn-overlap/1")
        );
        assert_eq!(
            doc.get("digest_check").and_then(json::Value::as_str),
            Some("ok")
        );
        for key in ["overlap_off", "overlap_on"] {
            let us = doc
                .get(key)
                .and_then(|o| o.get("total_us"))
                .and_then(json::Value::as_f64)
                .unwrap();
            assert!(us > 0.0, "{key} must record a wall time");
        }
        let frac = doc
            .get("hidden_plan_fraction")
            .and_then(json::Value::as_f64)
            .unwrap();
        assert!((0.0..=1.0).contains(&frac));
        assert!(
            doc.get("plan_build_us")
                .and_then(json::Value::as_f64)
                .unwrap()
                > 0.0,
            "plan work must be nonzero for the ablation to mean anything"
        );
        let _ = std::fs::remove_file(&out);
    }
}
