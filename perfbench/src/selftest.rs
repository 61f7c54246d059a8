//! `perfbench selftest`: every workload at tiny size, untraced and
//! traced. Checks that each registered metric is emitted with its unit,
//! that `BENCHMARK.json` (when present) names exactly these metrics and
//! workloads, and that a corrupted digest counts as a failure.

use std::path::PathBuf;
use std::time::Duration;

use tagnn_serve::json;

use crate::report::{self, Outcome};
use crate::{run_workload, Run, WORKLOADS};

fn tiny_run(workload: &str, traced: bool, corrupt: u64) -> Run {
    let out_dir = PathBuf::from(".perfbench");
    Run {
        workload: workload.to_string(),
        seed: 1,
        measure: Duration::from_secs(1),
        traced,
        tiny: true,
        corrupt,
        work: out_dir.join(format!("selftest-{}", std::process::id())),
        out_dir,
    }
}

/// The metric block must parse as JSON and carry every registered name
/// with its registered unit.
fn check_block(o: &Outcome, traced: bool) -> Result<(), String> {
    let (block, _) = o.metric_block(traced)?;
    let doc = json::parse(&block).map_err(|e| format!("metric block is not JSON: {e}"))?;
    let registry = if traced {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for (name, unit) in registry {
        let m = doc
            .get(name)
            .ok_or_else(|| format!("metric {name} missing"))?;
        if m.get("unit").and_then(json::Value::as_str) != Some(unit) {
            return Err(format!("metric {name} lacks unit {unit}"));
        }
        if m.get("value").and_then(json::Value::as_f64).is_none() {
            return Err(format!("metric {name} has no numeric value"));
        }
    }
    if !traced {
        for (name, _) in registry {
            if o.metrics.get(name).is_some_and(|v| v <= 0.0) {
                return Err(format!("end-to-end metric {name} is not positive"));
            }
        }
    }
    Ok(())
}

/// `BENCHMARK.json` must list the registry's metrics, in order, with the
/// same units, and the same workloads.
fn check_manifest() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        println!("selftest: no BENCHMARK.json in the working directory, manifest not checked");
        return Ok(());
    };
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(json::Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(json::Value::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    for (key, registry) in [
        ("end_to_end", report::END_TO_END),
        ("per_layer", report::PER_LAYER),
    ] {
        let want: Vec<(String, String)> = registry
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if listed(key) != want {
            return Err(format!("BENCHMARK.json {key} differs from the registry"));
        }
    }
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    if workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} != {WORKLOADS:?}"
        ));
    }
    Ok(())
}

pub fn run() -> Result<(), String> {
    check_manifest()?;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let o = run_workload(&tiny_run(workload, traced, 0))?;
            if !o.correct() {
                return Err(format!(
                    "{workload} trace={traced}: not correct ({} of {} failed; {:?}; notes {:?})",
                    o.failed, o.attempted, o.invalid, o.notes
                ));
            }
            check_block(&o, traced).map_err(|e| format!("{workload} trace={traced}: {e}"))?;
            println!(
                "selftest: {workload} trace={} ok ({} checks)",
                u8::from(traced),
                o.attempted
            );
        }
        let o = run_workload(&tiny_run(workload, false, 1))?;
        if o.failed == 0 || o.metrics.get("failed_frac") <= Some(report::FAILED_FRAC_FLOOR) {
            return Err(format!("{workload}: a corrupted digest was not counted"));
        }
        println!(
            "selftest: {workload} corrupted digests counted ({} of {} failed)",
            o.failed, o.attempted
        );
    }
    println!("selftest: all workloads ok");
    Ok(())
}
