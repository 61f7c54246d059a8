//! Metric registry, result rendering, and the two-file diff printer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tagnn_serve::json;

use crate::stats;

/// End-to-end metrics, emitted by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("windows_per_s", "1/s"),
    ("window_p50_ms", "ms"),
    ("window_p95_ms", "ms"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("max_rate_rps", "req/s"),
    ("recovery_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics, emitted by every traced run (`--trace 1`). The
/// prefix before the first dot names the layer (a workspace crate), or
/// `host`/`driver` for the benchmark's own run context.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.plan_ms", "ms"),
    ("graph.unaffected_frac", "ratio"),
    ("graph.stable_frac", "ratio"),
    ("graph.affected_frac", "ratio"),
    ("graph.subgraph_vertices", "count"),
    ("graph.seal_us.p50", "us"),
    ("graph.seal_us.p99", "us"),
    ("graph.incremental_fallbacks", "count"),
    ("graph.generate_s", "s"),
    ("tensor.dispatch.dense", "count"),
    ("tensor.dispatch.spmm", "count"),
    ("tensor.dispatch.delta_skip", "count"),
    ("tensor.input_density", "ratio"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("models.exec_ms", "ms"),
    ("models.gnn_ms", "ms"),
    ("models.rnn_ms", "ms"),
    ("models.gnn_aggregate_macs", "count"),
    ("models.gnn_combine_macs", "count"),
    ("models.rnn_macs", "count"),
    ("models.similarity_ops", "count"),
    ("models.reuse_ratio", "ratio"),
    ("models.skip_frac", "ratio"),
    ("models.delta_frac", "ratio"),
    ("models.gnn.gbps", "GB/s"),
    ("models.gnn.gflops", "GFLOP/s"),
    ("models.rnn.gbps", "GB/s"),
    ("models.rnn.gflops", "GFLOP/s"),
    ("models.gnn.gbps.of_ceiling", "ratio"),
    ("models.gnn.gflops.of_ceiling", "ratio"),
    ("models.rnn.gbps.of_ceiling", "ratio"),
    ("models.rnn.gflops.of_ceiling", "ratio"),
    ("sim.cycles", "count"),
    ("sim.host_ms", "ms"),
    ("serve.server_request_ms.p50", "ms"),
    ("serve.server_request_ms.p99", "ms"),
    ("serve.server_window_ms.p95", "ms"),
    ("serve.net_ms.p50", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.routed_skew", "ratio"),
    ("serve.shed", "count"),
    ("serve.max_degrade_level", "count"),
    ("serve.cross_seal_edges", "count"),
    ("serve.plan_source.incremental", "count"),
    ("serve.plan_source.cached", "count"),
    ("serve.plan_source.scratch", "count"),
    ("serve.roller_apply_us", "us"),
    ("serve.session_window_ms", "ms"),
    ("serve.wire_us", "us"),
    ("serve.rss_kb_per_stream", "KiB"),
    ("durable.wal_appends", "count"),
    ("durable.wal_fsyncs", "count"),
    ("durable.fsync_us.p50", "us"),
    ("durable.fsync_us.p99", "us"),
    ("durable.wal_append_us", "us"),
    ("durable.checkpoints", "count"),
    ("durable.checkpoint_ms.p50", "ms"),
    ("durable.checkpoint_mb", "MiB"),
    ("durable.replayed_events", "count"),
    ("durable.replay_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
    ("host.cpus", "count"),
    ("host.avx2", "flag"),
    ("host.fma", "flag"),
    ("host.avx512f", "flag"),
    ("host.stream_gbps", "GB/s"),
    ("host.fma_gflops", "GFLOP/s"),
    ("host.cost_model.dense_mac_ns", "ns"),
    ("host.cost_model.spmm_mac_ns", "ns"),
    ("host.cost_model.spmm_row_ns", "ns"),
    ("host.cost_model.agg_mac_ns", "ns"),
    ("driver.send_lag_ms.p99", "ms"),
    ("driver.backlog", "count"),
];

/// Lower bound reported for `failed_frac` so the metric is never zero;
/// any real failure in a run (at most 10^5 attempts) lies above it.
pub const FAILED_FRAC_FLOOR: f64 = 1e-6;

fn registry(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Named metric values; names must be in the registry.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not registered");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when the run itself is invalid (e.g. the load generator fell
    /// behind its schedule); such a run reports `correct: false`.
    pub invalid: Vec<String>,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn failed_frac(&self) -> f64 {
        (self.failed as f64 / self.attempted.max(1) as f64).max(FAILED_FRAC_FLOOR)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.attempted > 0
    }

    /// The metric block of the selected registry, in registry order.
    /// Per-layer metrics a workload does not exercise are reported as 0
    /// and listed; a missing end-to-end metric is an error.
    pub fn metric_block(&self, traced: bool) -> Result<(String, Vec<&'static str>), String> {
        let mut out = String::from("{");
        let mut unmeasured = Vec::new();
        for (i, (name, unit)) in registry(traced).iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {name} is not finite: {v}")),
                None if traced => {
                    unmeasured.push(*name);
                    0.0
                }
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        Ok((out, unmeasured))
    }
}

/// Prints the table and the final one-line result; returns the full
/// record line for `--out`.
pub fn emit(
    workload: &str,
    seed: u64,
    traced: bool,
    host: &str,
    o: &Outcome,
) -> Result<String, String> {
    let (block, unmeasured) = o.metric_block(traced)?;
    println!(
        "# workload {workload} seed {seed} trace {}",
        u8::from(traced)
    );
    println!("# host {host}");
    for line in &o.notes {
        println!("# {line}");
    }
    for reason in &o.invalid {
        println!("# INVALID: {reason}");
    }
    for (name, unit) in registry(traced) {
        if let Some(v) = o.metrics.get(name) {
            println!("{name:<36} {v:>18.6} {unit}");
        }
    }
    if !unmeasured.is_empty() {
        println!(
            "# not exercised on this workload (reported as 0): {}",
            unmeasured.join(" ")
        );
    }
    println!(
        "# correct={} attempted={} failed={}",
        o.correct(),
        o.attempted,
        o.failed
    );
    let mut record = String::new();
    let _ = write!(record, "{{\"workload\": ");
    json::write_string(&mut record, workload);
    let _ = write!(
        record,
        ", \"seed\": {seed}, \"trace\": {}, \"host\": ",
        u8::from(traced)
    );
    json::write_string(&mut record, host);
    let _ = write!(
        record,
        ", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {block}}}",
        o.correct(),
        o.attempted,
        o.failed,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {block}}}",
        o.correct(),
        o.attempted,
        o.failed,
    );
    Ok(record)
}

type Series = BTreeMap<String, (String, Vec<f64>)>;

/// Reads every result object in `path` (one per line; other lines are
/// skipped), grouped by `workload/trace` then metric name.
fn load(path: &str) -> Result<BTreeMap<String, Series>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut groups: BTreeMap<String, Series> = BTreeMap::new();
    for line in text.lines() {
        let Ok(doc) = json::parse(line.trim()) else {
            continue;
        };
        let Some(metrics) = doc.get("metrics").and_then(json::Value::as_object) else {
            continue;
        };
        let workload = doc
            .get("workload")
            .and_then(json::Value::as_str)
            .unwrap_or("-");
        let trace = doc.get("trace").and_then(json::Value::as_u64).unwrap_or(0);
        let group = groups
            .entry(format!("{workload}/trace{trace}"))
            .or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(json::Value::as_f64) {
                let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or("");
                let entry = group
                    .entry(name.clone())
                    .or_insert_with(|| (unit.to_string(), Vec::new()));
                entry.1.push(v);
            }
        }
    }
    if groups.is_empty() {
        return Err(format!("{path} holds no result objects"));
    }
    Ok(groups)
}

fn layer_of(metric: &str) -> &str {
    metric
        .split_once('.')
        .map_or("end_to_end", |(layer, _)| layer)
}

/// `perfbench diff parent.jsonl change.jsonl`: per workload and layer,
/// each metric's median and quartiles on both sides and the relative
/// delta of the medians; a change median inside the parent's own
/// interquartile range is marked as noise.
pub fn diff(parent: &str, change: &str) -> Result<(), String> {
    let a = load(parent)?;
    let b = load(change)?;
    for (group, series_a) in &a {
        let Some(series_b) = b.get(group) else {
            println!("== {group}: only in {parent}");
            continue;
        };
        println!("== {group}");
        println!(
            "{:<10} {:<36} {:>8} {:>32} {:>32} {:>9}  verdict",
            "layer", "metric", "unit", "parent q1/median/q3", "change q1/median/q3", "delta"
        );
        let mut rows: Vec<(&str, &String)> = series_a.keys().map(|k| (layer_of(k), k)).collect();
        rows.sort();
        for (layer, name) in rows {
            let (unit, va) = &series_a[name];
            let Some((_, vb)) = series_b.get(name) else {
                println!("{layer:<10} {name:<36} missing in {change}");
                continue;
            };
            let (a1, am, a3) = stats::quartiles(va);
            let (b1, bm, b3) = stats::quartiles(vb);
            let delta = if am == 0.0 {
                if bm == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (bm - am) / am.abs()
            };
            let verdict = if bm >= a1.min(a3) && bm <= a1.max(a3) {
                "noise"
            } else if bm == am {
                "same"
            } else {
                "moved"
            };
            println!(
                "{layer:<10} {name:<36} {unit:>8} {:>32} {:>32} {:>+8.2}%  {verdict} (n={}/{})",
                format!("{a1:.4}/{am:.4}/{a3:.4}"),
                format!("{b1:.4}/{bm:.4}/{b3:.4}"),
                delta * 100.0,
                va.len(),
                vb.len(),
            );
        }
    }
    for group in b.keys().filter(|g| !a.contains_key(*g)) {
        println!("== {group}: only in {change}");
    }
    Ok(())
}
