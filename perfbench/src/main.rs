//! `perfbench`: the repository's benchmark. One invocation runs one
//! workload in its own process and prints every metric by name with its
//! unit, then one JSON result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! perfbench diff <parent.jsonl> <change.jsonl>
//! perfbench selftest
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metric-to-layer map
//! and the known gaps.

mod driver;
mod host;
mod offline;
mod report;
mod selftest;
mod serve;
mod spans;
mod stats;

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use report::Outcome;

pub const WORKLOADS: [&str; 2] = ["offline-ep", "serve-flash-durable"];

/// Everything that parameterises one workload run.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase.
    pub measure: Duration,
    pub traced: bool,
    /// Tiny inputs and phases, for the self-test.
    pub tiny: bool,
    /// XOR mask applied to every produced digest before it is checked;
    /// nonzero only in the self-test, to prove a wrong output counts.
    pub corrupt: u64,
    /// Scratch directory for durable state, removed after the run.
    pub work: PathBuf,
    /// Where span files are written.
    pub out_dir: PathBuf,
}

impl Run {
    pub fn write_spans(&self, tracer: &spans::Tracer, o: &mut Outcome) {
        let path = self.out_dir.join(format!(
            "spans-{}-seed{}{}.json",
            self.workload,
            self.seed,
            if self.tiny { "-tiny" } else { "" }
        ));
        match std::fs::write(&path, tracer.to_json()) {
            Ok(()) => o.note(format!("spans written to {}", path.display())),
            Err(e) => o.note(format!("could not write {}: {e}", path.display())),
        }
    }
}

/// Runs one workload and fills in the metrics every workload shares.
pub fn run_workload(run: &Run) -> Result<Outcome, String> {
    std::fs::create_dir_all(&run.work)
        .map_err(|e| format!("create {}: {e}", run.work.display()))?;
    let mut o = Outcome::default();
    let result = match run.workload.as_str() {
        "offline-ep" => {
            offline::run(&offline::Spec::ep(run.tiny), run, &mut o);
            Ok(())
        }
        "serve-flash-durable" => serve::run(&serve::Spec::flash(run.tiny), run, &mut o),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    };
    let _ = std::fs::remove_dir_all(&run.work);
    result?;
    if !run.traced {
        o.metrics.set("peak_rss_mb", host::peak_rss_mb());
        o.metrics.set("failed_frac", o.failed_frac());
    }
    Ok(o)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn bench(args: &[String]) -> Result<(), String> {
    const KNOWN: [&str; 5] = ["--workload", "--seed", "--seconds", "--trace", "--out"];
    for pair in args.chunks(2) {
        if !KNOWN.contains(&pair[0].as_str()) || pair.len() < 2 {
            return Err(format!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <file>]",
                WORKLOADS.join("|")
            ));
        }
    }
    let need = |name: &str| flag(args, name).ok_or_else(|| format!("missing {name}"));
    let seed: u64 = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let traced = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let out_dir = PathBuf::from(".perfbench");
    let run = Run {
        workload: need("--workload")?.to_string(),
        seed,
        measure: Duration::from_secs_f64(seconds),
        traced,
        tiny: false,
        corrupt: 0,
        work: out_dir.join(format!("work-{}", std::process::id())),
        out_dir,
    };
    let o = run_workload(&run)?;
    let host = host::describe_brief();
    let record = report::emit(&run.workload, seed, traced, &host, &o)?;
    if let Some(path) = flag(args, "--out") {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {path}: {e}"))?;
        writeln!(f, "{record}").map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("diff") => match &args[1..] {
            [a, b] => report::diff(a, b),
            _ => Err("usage: perfbench diff <parent.jsonl> <change.jsonl>".to_string()),
        },
        Some("selftest") => selftest::run(),
        Some("durable-child") => serve::durable_child(&args[1..]),
        _ => bench(&args),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
