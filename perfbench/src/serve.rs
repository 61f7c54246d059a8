//! Open-loop serving over loopback TCP (binary wire) against an
//! in-process `Server` on `ServeConfig::default()`, plus the fixed-rate
//! ladder for `max_rate_rps`, hard-kill recovery timing, and a traced
//! in-process replay through the public layer functions.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tagnn_durable::checkpoint::CheckpointStore;
use tagnn_durable::wal::WalWriter;
use tagnn_graph::{GeneratorConfig, PlanSource, WindowPlanner};
use tagnn_models::{ConcurrentEngine, DgnnModel, ExecutionStats, StatefulModel};
use tagnn_serve::binwire;
use tagnn_serve::loadgen::{build_trace, Trace};
use tagnn_serve::wire::WireRequest;
use tagnn_serve::{
    digest_matrices, persist, DurabilityConfig, InferRequest, Reply, ServeConfig, ServeCore,
    Server, ShardRouter, ShardedRoller, WindowResult, WindowRoller, WireFormat,
};

use crate::driver::{self, Request, RunOut, Status};
use crate::host::{self, Host};
use crate::offline::publish_engine_stats;
use crate::report::Outcome;
use crate::spans::{span, Tracer};
use crate::stats;
use crate::Run;

/// Snapshots per trace pass (one request per snapshot): with K=4 a pass
/// rolls two windows.
const SNAPSHOTS: usize = 8;
/// Requests the crashed durable server accepted before the hard kill.
const CRASH_REQUESTS: usize = 100;
/// Stream ids at or above this are the benchmark's own probes (warm-up,
/// restart), never reused by the measured load.
const PROBE_STREAMS: u64 = 1 << 40;
/// Requests offered per ladder attempt: fewer than the nominal phase
/// serves, so the memory high-water mark (which grows with streams
/// served) comes from the nominal phase, not from the rung reached.
const RUNG_REQUESTS: f64 = 600.0;
/// Share of `--seconds` the nominal load takes; the ladder and the
/// recovery fill most of the rest.
const NOMINAL_SHARE: f64 = 0.7;
/// The nominal load runs as this many equal phases, each on a fresh
/// server, and each latency figure is the median over the phases. A
/// stall of the shared host that hits one phase then does not move the
/// figure, and the state the server keeps per stream served (see
/// `perfbench/README.md`, Known gaps) grows for one phase's length, not
/// for the whole run's. Each phase holds 1000 requests or more at
/// `--seconds 40`, so its p99 is resolved.
const NOMINAL_PHASES: usize = 5;
/// A phase during which the hypervisor stole more than `MAX_STEAL` of
/// the CPU time is run again, up to `EXTRA_PHASES` times per run, and the
/// `NOMINAL_PHASES` phases with the least steal are reported. On two
/// vCPUs a few percent of steal lengthens the serving tail by half.
const MAX_STEAL: f64 = 0.02;
const EXTRA_PHASES: usize = 3;
/// Set-ups per run (the median is reported) and recoveries per run.
const SETUPS: usize = 25;
const RECOVERIES: usize = 9;

/// What defines the serving workload; the server runs
/// `ServeConfig::default()` apart from the trace's universe and feature
/// width, and `DurabilityConfig::new` in a fresh directory.
pub struct Spec {
    /// Offered rate of the measured phase, requests/s.
    nominal_rps: f64,
    /// Client p99 limit a ladder rung must meet.
    limit_ms: f64,
    ladder: Vec<f64>,
    tiny: bool,
}

/// Geometric rate ladder from `lo` to at most `hi`, rounded to whole
/// requests per second.
fn ladder(lo: f64, hi: f64, ratio: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut r = lo;
    while r <= hi * 1.0001 {
        out.push(r.round());
        r *= ratio;
    }
    out
}

impl Spec {
    /// The flash-crowd preset with durability on, ending with a
    /// hard-kill recovery.
    pub fn flash(tiny: bool) -> Self {
        Self {
            nominal_rps: if tiny { 50.0 } else { 200.0 },
            limit_ms: 100.0,
            ladder: if tiny {
                vec![25.0, 50.0]
            } else {
                ladder(100.0, 1600.0, 1.05)
            },
            tiny,
        }
    }

    fn graph(&self, seed: u64) -> GeneratorConfig {
        let mut g = GeneratorConfig::flash_crowd(SNAPSHOTS);
        g.seed = seed;
        g
    }

    fn config(&self, g: &GeneratorConfig, dir: &Path) -> ServeConfig {
        ServeConfig {
            universe: g.num_vertices,
            feature_dim: g.feature_dim,
            durability: Some(DurabilityConfig::new(dir)),
            ..ServeConfig::default()
        }
    }
}

fn boot(cfg: ServeConfig) -> Result<Server, String> {
    Server::bind_with(ServeCore::start(cfg), "127.0.0.1:0", WireFormat::Binary)
        .map_err(|e| format!("bind loopback: {e}"))
}

/// One trace pass, one request in flight at a time, on stream `stream`.
fn closed_pass(server: &Server, trace: &Trace, stream: u64) -> Vec<WindowResult> {
    let mut windows = Vec::new();
    for (events, flush) in trace {
        let ticket = server.core().submit(InferRequest {
            stream,
            events: events.clone(),
            flush: *flush,
        });
        if let Ok(Ok(reply)) = ticket.map(|t| t.wait()) {
            windows.extend(reply.windows);
        }
    }
    windows
}

/// Checks served windows against the reference digests (indexed by the
/// window's sequence number within its stream).
fn mismatches(windows: &[WindowResult], expected: &[u64], corrupt: u64) -> usize {
    windows
        .iter()
        .filter(|w| expected.get(w.seq as usize) != Some(&(w.digest ^ corrupt)))
        .count()
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    shed: u64,
    errors: u64,
    unanswered: u64,
    /// Requests with at least one window that differs from the reference
    /// (only counted when the server never degraded).
    mismatched: u64,
    /// Windows served while the server had degraded, counted but not
    /// compared.
    degraded_windows: u64,
    windows: u64,
    /// Requests over the latency limit, or not answered successfully.
    over_limit: u64,
    request_ms: Vec<f64>,
    window_ms: Vec<f64>,
    /// Client time from send (not due) of window-carrying requests.
    window_service_ms: Vec<f64>,
}

impl Tally {
    fn failures(&self) -> u64 {
        self.shed + self.errors + self.unanswered + self.mismatched
    }
}

fn tally(reqs: &[Request], expected: &[u64], degraded: bool, limit_ms: f64, corrupt: u64) -> Tally {
    let mut t = Tally::default();
    for r in reqs {
        t.attempted += 1;
        match r.status {
            Status::Shed => t.shed += 1,
            Status::Error => t.errors += 1,
            Status::Unanswered => t.unanswered += 1,
            Status::Ok => {}
        }
        let latency = r.latency_ms();
        if r.status != Status::Ok || latency.is_none_or(|l| l > limit_ms) {
            t.over_limit += 1;
        }
        if r.status != Status::Ok {
            continue;
        }
        let l = latency.expect("answered requests have a latency");
        t.request_ms.push(l);
        if !r.windows.is_empty() {
            t.windows += r.windows.len() as u64;
            t.window_ms.push(l);
            t.window_service_ms
                .push(r.service_ms().expect("answered requests have a latency"));
            if degraded {
                t.degraded_windows += r.windows.len() as u64;
            } else if mismatches(&r.windows, expected, corrupt) > 0 {
                t.mismatched += 1;
            }
        }
    }
    t
}

/// Reference digests of one trace pass: the same trace replayed in
/// process through the roller and an `EngineSession`.
fn reference(cfg: &ServeConfig, trace: &Trace) -> Vec<u64> {
    let out = replay(cfg, trace, 1, None, None);
    let mut digests = vec![0u64; out.digests.len()];
    for (seq, d) in out.digests {
        digests[seq as usize] = d;
    }
    digests
}

struct Booted {
    server: Server,
    trace: Trace,
    total_s: f64,
    generate_s: f64,
    warm: Vec<WindowResult>,
}

/// Set-up: generate the trace, boot the server, serve one warm-up pass.
fn setup(spec: &Spec, run: &Run, label: &str) -> Result<Booted, String> {
    let t0 = Instant::now();
    let g = spec.graph(run.seed);
    let trace = build_trace(&g);
    let generate_s = t0.elapsed().as_secs_f64();
    let server = boot(spec.config(&g, &run.work.join(label)))?;
    let warm = closed_pass(&server, &trace, PROBE_STREAMS);
    Ok(Booted {
        server,
        trace,
        total_s: t0.elapsed().as_secs_f64(),
        generate_s,
        warm,
    })
}

pub fn run(spec: &Spec, run: &Run, o: &mut Outcome) -> Result<(), String> {
    if run.traced {
        traced(spec, run, o)
    } else {
        untraced(spec, run, o)
    }
}

fn conns() -> usize {
    host::cpus().clamp(1, 2)
}

fn untraced(spec: &Spec, run: &Run, o: &mut Outcome) -> Result<(), String> {
    let g = spec.graph(run.seed);
    let mut setup_s = Vec::new();
    let mut booted: Option<Booted> = None;
    for i in 0..SETUPS {
        if let Some(b) = booted.take() {
            b.server.shutdown();
        }
        let b = setup(spec, run, &format!("setup-{i}"))?;
        setup_s.push(b.total_s);
        booted = Some(b);
    }
    let b = booted.expect("set-up ran");
    let cfg = b.server.core().config().clone();
    let expected = reference(&cfg, &b.trace);
    o.check(
        b.warm.len() as u64,
        mismatches(&b.warm, &expected, run.corrupt) as u64,
    );

    // The measured part: the nominal phases, the ladder and the recovery.
    // The CPU share the hypervisor stole meanwhile is noted beside it.
    let steal = host::Steal::start();
    let best = measure(spec, run, &g, &b.trace, &expected, b.server, o)?;
    o.note(format!(
        "CPU steal {:.1} % during the measured part",
        steal.frac() * 100.0
    ));
    if let Some(reason) = best.invalid {
        o.invalid.push(reason);
    }
    let phases = &best.nominal;
    let windows: u64 = phases.iter().map(|t| t.windows).sum();
    let attempted: u64 = phases.iter().map(|t| t.attempted).sum();
    // Each latency figure is the median over the phases of that phase's
    // percentile.
    let over_phases = |q: f64, pick: fn(&Tally) -> &[f64]| -> f64 {
        let per: Vec<f64> = phases
            .iter()
            .map(|t| stats::pct(pick(t), q).value)
            .collect();
        stats::median(&per)
    };
    let m = &mut o.metrics;
    m.set(
        "windows_per_s",
        windows as f64 / (attempted as f64 / spec.nominal_rps),
    );
    m.set("window_p50_ms", over_phases(0.50, |t| &t.window_ms));
    m.set("window_p95_ms", over_phases(0.95, |t| &t.window_ms));
    m.set("request_p50_ms", over_phases(0.50, |t| &t.request_ms));
    m.set("request_p99_ms", over_phases(0.99, |t| &t.request_ms));
    m.set("max_rate_rps", best.max_rate);
    m.set("recovery_s", best.recovery_s);
    m.set("setup_s", stats::median(&setup_s));
    Ok(())
}

/// What the measured part of a serving run produced.
struct Measured {
    /// One tally per nominal phase.
    nominal: Vec<Tally>,
    max_rate: f64,
    recovery_s: f64,
    /// Set when the load generator fell behind in a nominal phase.
    invalid: Option<String>,
}

/// The nominal phases (the first on `server`, each later one on a fresh
/// server), then the rate ladder, then the hard-kill recovery.
fn measure(
    spec: &Spec,
    run: &Run,
    g: &GeneratorConfig,
    trace: &Trace,
    expected: &[u64],
    server: Server,
    o: &mut Outcome,
) -> Result<Measured, String> {
    let phase =
        Duration::from_secs_f64(run.measure.as_secs_f64() * NOMINAL_SHARE / NOMINAL_PHASES as f64);
    let conns = conns();
    let mut server = Some(server);
    // (phase index, CPU steal, tally) of every phase run.
    let mut phases: Vec<(usize, f64, Tally)> = Vec::new();
    let mut invalid = None;
    let quiet = |phases: &[(usize, f64, Tally)]| phases.iter().filter(|p| p.1 <= MAX_STEAL).count();
    for i in 0..NOMINAL_PHASES + EXTRA_PHASES {
        if quiet(&phases) >= NOMINAL_PHASES {
            break;
        }
        let server = match server.take() {
            Some(s) => s,
            None => {
                let dir = run.work.join(format!("nominal-{i}"));
                let s = boot(spec.config(g, &dir))?;
                closed_pass(&s, trace, PROBE_STREAMS);
                s
            }
        };
        let steal = host::Steal::start();
        let out = driver::open_loop(
            server.local_addr(),
            trace,
            spec.nominal_rps,
            phase,
            conns,
            0,
        )
        .map_err(|e| format!("driver: {e}"))?;
        let steal = steal.frac();
        let degraded = server.core().max_degrade_level() > 0;
        server.shutdown();
        let t = tally(
            &out.requests,
            expected,
            degraded,
            spec.limit_ms,
            run.corrupt,
        );
        o.check(t.attempted, t.failures());
        o.note(format!(
            "nominal phase {i}: {} req/s for {:.1} s over {conns} connections: {} requests, \
             {} windows ({} degraded, not compared), shed {} errors {} unanswered {} mismatched {}; \
             send lag p99 {:.3} ms, max backlog {}; window_p95 {:.2} ms ({}); request_p99 {:.2} ms ({}); \
             CPU steal {:.1} %",
            spec.nominal_rps,
            phase.as_secs_f64(),
            t.attempted,
            t.windows,
            t.degraded_windows,
            t.shed,
            t.errors,
            t.unanswered,
            t.mismatched,
            out.send_lag_p99_ms(),
            out.max_backlog,
            stats::pct(&t.window_ms, 0.95).value,
            stats::pct(&t.window_ms, 0.95).describe(),
            stats::pct(&t.request_ms, 0.99).value,
            stats::pct(&t.request_ms, 0.99).describe(),
            steal * 100.0,
        ));
        invalid = invalid.or(out.behind(spec.limit_ms));
        phases.push((i, steal, t));
    }
    phases.sort_by(|a, b| a.1.total_cmp(&b.1));
    phases.truncate(NOMINAL_PHASES);
    phases.sort_by_key(|p| p.0);
    o.note(format!(
        "phases reported (least CPU steal): {:?}",
        phases.iter().map(|p| p.0).collect::<Vec<_>>()
    ));
    let nominal = phases.into_iter().map(|p| p.2).collect();

    // The ladder: binary search for the highest rung that meets the
    // limit, each attempt on a fresh server. A rung meets when two of
    // three attempts meet, so one transient stall of the shared host, or
    // one lucky attempt, does not decide the search.
    let rung_requests = if spec.tiny { 40.0 } else { RUNG_REQUESTS };
    let (mut lo, mut hi) = (-1i64, spec.ladder.len() as i64);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rate = spec.ladder[mid as usize];
        let (mut met, mut missed) = (0, 0);
        while met < 2 && missed < 2 {
            let len = Duration::from_secs_f64(rung_requests / rate);
            let (pass, why) = rung(spec, run, g, expected, rate, len, o)?;
            o.note(format!(
                "ladder {rate} req/s try {}: {}",
                met + missed,
                if pass { "meets" } else { why.as_str() }
            ));
            if pass {
                met += 1;
            } else {
                missed += 1;
            }
        }
        if met == 2 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let max_rate = if lo >= 0 {
        spec.ladder[lo as usize]
    } else {
        // Not even the lowest rung met the limit; report a token rate
        // far below it so the metric stays positive and any comparison
        // flags the collapse.
        spec.ladder[0] / 100.0
    };

    let recovery_s = crash_and_recover(spec, run, g, expected, RECOVERIES, o)?;
    Ok(Measured {
        invalid,
        nominal,
        max_rate,
        recovery_s,
    })
}

/// One ladder rung on a fresh server: does `rate` meet the p99 limit
/// with no shed, no errors, degrade level 0, and no backlog?
#[allow(clippy::too_many_arguments)]
fn rung(
    spec: &Spec,
    run: &Run,
    g: &GeneratorConfig,
    expected: &[u64],
    rate: f64,
    len: Duration,
    o: &mut Outcome,
) -> Result<(bool, String), String> {
    let dir = run.work.join(format!("rung-{}", o.attempted));
    let server = boot(spec.config(g, &dir))?;
    let trace = build_trace(g);
    closed_pass(&server, &trace, PROBE_STREAMS);
    let conns = conns();
    let out = driver::open_loop(server.local_addr(), &trace, rate, len, conns, 0)
        .map_err(|e| format!("driver: {e}"))?;
    let level = server.core().max_degrade_level();
    server.shutdown();
    let t = tally(
        &out.requests,
        expected,
        level > 0,
        spec.limit_ms,
        run.corrupt,
    );
    // Overload shows as shedding or lateness here, not as a failure; a
    // wrong or errored answer is one.
    o.check(t.attempted, t.errors + t.mismatched);
    let allowed = (t.attempted as f64 * 0.01).floor() as u64;
    let mut why = Vec::new();
    if t.shed + t.errors + t.unanswered > 0 {
        why.push(format!(
            "shed {} errors {} unanswered {}",
            t.shed, t.errors, t.unanswered
        ));
    }
    if t.over_limit > allowed {
        why.push(format!(
            "{} of {} over {} ms",
            t.over_limit, t.attempted, spec.limit_ms
        ));
    }
    if level > 0 {
        why.push(format!("degrade level {level}"));
    }
    if let Some(reason) = out.behind(spec.limit_ms) {
        why.push(reason);
    }
    Ok((why.is_empty(), why.join("; ")))
}

fn first_reply(core: &ServeCore, trace: &Trace) -> Result<Reply, String> {
    core.submit(InferRequest {
        stream: PROBE_STREAMS + 1,
        events: trace[0].0.clone(),
        flush: false,
    })
    .and_then(|t| t.wait())
    .map_err(|e| format!("first reply after start: {e}"))
}

/// Hard-kills a durable server in a child process after it accepted
/// `CRASH_REQUESTS` requests, then times `ServeCore::start` on copies of
/// the directory it left, to the first successful reply. Windows the
/// recovery re-served must match the reference.
fn crash_and_recover(
    spec: &Spec,
    run: &Run,
    g: &GeneratorConfig,
    expected: &[u64],
    reps: usize,
    o: &mut Outcome,
) -> Result<f64, String> {
    let dir = run.work.join("crashed");
    let requests = if spec.tiny { 20 } else { CRASH_REQUESTS };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("durable-child")
        .arg(run.seed.to_string())
        .arg(&dir)
        .arg(requests.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn durable child: {e}"))?;
    let mut line = String::new();
    let ready = child
        .stdout
        .take()
        .map(|out| BufReader::new(out).read_line(&mut line));
    let _ = child.kill();
    let _ = child.wait();
    if !matches!(ready, Some(Ok(n)) if n > 0) || line.trim() != "ready" {
        return Err(format!("durable child did not get ready (said {line:?})"));
    }

    let trace = build_trace(g);
    let mut times = Vec::new();
    for rep in 0..reps {
        let copy = run.work.join(format!("recover-{rep}"));
        copy_dir(&dir, &copy).map_err(|e| format!("copy crashed dir: {e}"))?;
        let t = Instant::now();
        let core = ServeCore::start(spec.config(g, &copy));
        first_reply(&core, &trace)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(r) = core.recovery_report() {
            let bad = mismatches(&r.replayed_windows, expected, run.corrupt);
            o.check(r.replayed_windows.len() as u64, bad as u64);
            if rep == 0 {
                o.note(format!(
                    "recovery: checkpoint {:?}, {} requests / {} events replayed in {} us, \
                     {} windows re-served ({bad} mismatched)",
                    r.checkpoint_seq,
                    r.replayed_requests,
                    r.replayed_events,
                    r.replay_us,
                    r.replayed_windows.len(),
                ));
                o.metrics
                    .set("durable.replayed_events", r.replayed_events as f64);
                o.metrics.set("durable.replay_ms", r.replay_us as f64 / 1e3);
            }
        } else {
            o.check(1, 1);
            o.note("recovery: durable core booted without a recovery report");
        }
        core.shutdown();
    }
    Ok(stats::median(&times))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The process `crash_and_recover` kills: serves `requests` requests of
/// the flash-crowd trace synchronously on a durable core, lets the
/// checkpoint writer settle, prints `ready`, and waits to be killed
/// (exiting on its own after a minute if nobody does).
pub fn durable_child(args: &[String]) -> Result<(), String> {
    let [seed, dir, requests] = args else {
        return Err("usage: perfbench durable-child <seed> <dir> <requests>".to_string());
    };
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let requests: usize = requests.parse().map_err(|e| format!("requests: {e}"))?;
    let spec = Spec::flash(false);
    let g = spec.graph(seed);
    let trace = build_trace(&g);
    let core = ServeCore::start(spec.config(&g, Path::new(dir)));
    for j in 0..requests {
        let (events, flush) = &trace[j % trace.len()];
        core.submit(InferRequest {
            stream: (j / trace.len()) as u64,
            events: events.clone(),
            flush: *flush,
        })
        .and_then(|t| t.wait())
        .map_err(|e| format!("durable child request {j}: {e}"))?;
    }
    std::thread::sleep(Duration::from_millis(300));
    println!("ready");
    std::thread::sleep(Duration::from_secs(60));
    Ok(())
}

/// What a replay produced: per-window digests in roll order, the
/// engine's work counters, and the plan statistics.
struct ReplayOut {
    digests: Vec<(u64, u64)>,
    stats: ExecutionStats,
    requests: u64,
    events: u64,
    windows: u64,
    wal_appends: u64,
    fallbacks: u64,
    plan_ns: u64,
    classified: u64,
    unaffected: u64,
    stable: u64,
    affected: u64,
    subgraph_vertices: u64,
    elapsed_s: f64,
}

/// Replays `passes` trace passes in process and in sequence through the
/// public layer functions a request crosses: wire codec →
/// `ShardedRoller::apply` → plan → `EngineSession::process_window`, plus
/// `WalWriter::append` and `CheckpointStore::write` when `durable` is a
/// directory. Each call gets a span when `tracer` is set.
fn replay(
    cfg: &ServeConfig,
    trace: &Trace,
    passes: usize,
    tracer: Option<&Tracer>,
    durable: Option<&Path>,
) -> ReplayOut {
    let model = DgnnModel::new(cfg.model, cfg.feature_dim, cfg.hidden, cfg.seed);
    let engine = ConcurrentEngine::with_options(model, cfg.skip, cfg.window, cfg.reuse)
        .with_dispatch_mode(cfg.dispatch);
    let router = ShardRouter::new(
        cfg.shard_assignment,
        cfg.universe,
        cfg.shards,
        cfg.degree_profile.as_deref(),
    );
    let planner = WindowPlanner::new(cfg.window);
    let dcfg = DurabilityConfig::new(durable.unwrap_or(Path::new(".")));
    let mut durable = durable.map(|dir| {
        let store = CheckpointStore::open(dir, dcfg.keep_checkpoints)
            .expect("open the replay checkpoint store");
        let (wal, _) = WalWriter::open(&dir.join("replay-wal.log"), dcfg.group_commit)
            .expect("open the replay WAL");
        (wal, store)
    });
    let mut out = ReplayOut {
        digests: Vec::new(),
        stats: ExecutionStats::default(),
        requests: 0,
        events: 0,
        windows: 0,
        wal_appends: 0,
        fallbacks: 0,
        plan_ns: 0,
        classified: 0,
        unaffected: 0,
        stable: 0,
        affected: 0,
        subgraph_vertices: 0,
        elapsed_s: 0.0,
    };
    let started = Instant::now();
    let mut frame = Vec::new();
    for pass in 0..passes {
        let stream = pass as u64;
        let mut roller = ShardedRoller::new(
            WindowRoller::new(cfg.universe, cfg.feature_dim, cfg.window)
                .with_incremental_planning(),
            router.clone(),
        );
        let mut session = engine.session(cfg.universe);
        for (i, (events, flush)) in trace.iter().enumerate() {
            let id = (pass * trace.len() + i) as u64;
            let _request = span(tracer, "serve.request", id);
            let req = {
                let _g = span(tracer, "serve.wire", id);
                frame.clear();
                binwire::encode_infer(&mut frame, id, stream, events, *flush);
                let f = binwire::try_decode_frame(&frame)
                    .ok()
                    .flatten()
                    .expect("a frame the codec encoded decodes");
                match binwire::decode_request(&f) {
                    Ok(WireRequest::Infer { req, .. }) => req,
                    _ => panic!("the codec round-trips an infer request"),
                }
            };
            if let Some((wal, _)) = durable.as_mut() {
                let _g = span(tracer, "durable.wal_append", id);
                wal.append(&persist::encode_request(&req))
                    .expect("append to the replay WAL");
                out.wal_appends += 1;
            }
            let mut rolled = Vec::new();
            {
                let _g = span(tracer, "serve.roller_apply", id);
                for ev in &req.events {
                    if let Some(w) = roller.apply(ev).expect("generated traces are valid") {
                        rolled.push(w);
                    }
                }
                if req.flush {
                    if let Some(w) = roller.flush().expect("generated traces are valid") {
                        rolled.push(w);
                    }
                }
            }
            out.requests += 1;
            out.events += req.events.len() as u64;
            let mut results = Vec::with_capacity(rolled.len());
            for w in rolled {
                let refs: Vec<_> = w.graph.snapshots().iter().collect();
                let (plan, source) = match &w.plan {
                    Some(p) => (Arc::clone(p), PlanSource::Incremental),
                    None => {
                        out.fallbacks += 1;
                        let _g = span(tracer, "graph.plan_window", id);
                        (Arc::new(planner.plan_window(&refs, 0)), PlanSource::Scratch)
                    }
                };
                let s = plan.stats();
                out.plan_ns += s.build_ns;
                out.classified += s.classified_vertices;
                out.unaffected += s.counts.unaffected as u64;
                out.stable += s.counts.stable as u64;
                out.affected += s.counts.affected as u64;
                out.subgraph_vertices += s.subgraph_vertices;
                let win = {
                    let _g = span(tracer, "models.process_window", id);
                    session.process_window(&refs, &plan)
                };
                out.stats.merge(&win.stats);
                let digest = digest_matrices(&win.final_features);
                out.digests.push((w.seq, digest));
                out.windows += 1;
                results.push(WindowResult {
                    stream,
                    seq: w.seq,
                    snapshots: refs.len(),
                    digest,
                    macs: win.stats.total_macs(),
                    skipped_cells: win.stats.skip.skipped,
                    plan_source: source,
                    latency_us: 0,
                });
                if let Some((_, store)) = durable.as_mut() {
                    if out.windows.is_multiple_of(dcfg.checkpoint_every_windows) {
                        let _g = span(tracer, "durable.checkpoint_write", id);
                        let mut payload = persist::encode_sharded_roller(&roller.export_state());
                        payload.extend(persist::encode_engine_state(&session.export_state()));
                        store
                            .write(out.windows / dcfg.checkpoint_every_windows, &payload)
                            .expect("write a replay checkpoint");
                    }
                }
            }
            let _g = span(tracer, "serve.wire", id);
            frame.clear();
            binwire::encode_reply(
                &mut frame,
                id,
                &Reply {
                    accepted_events: req.events.len(),
                    windows: results,
                },
            );
            let f = binwire::try_decode_frame(&frame)
                .ok()
                .flatten()
                .expect("a frame the codec encoded decodes");
            binwire::decode_reply(f.body).expect("the codec round-trips a reply");
        }
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    out
}

fn hist_q(server: &Server, name: &str, q: f64) -> f64 {
    server
        .core()
        .recorder()
        .histogram(name)
        .map_or(0.0, |h| h.quantile(q) as f64)
}

fn traced(spec: &Spec, run: &Run, o: &mut Outcome) -> Result<(), String> {
    let host = Host::probe();
    let b = setup(spec, run, "traced")?;
    let cfg = b.server.core().config().clone();
    let expected = reference(&cfg, &b.trace);
    o.check(
        b.warm.len() as u64,
        mismatches(&b.warm, &expected, run.corrupt) as u64,
    );

    // Untraced load at the nominal rate; afterwards read the server's own
    // histograms and counters.
    let conns = conns();
    let rss_before = host::status_kb("VmRSS:");
    let out: RunOut = driver::open_loop(
        b.server.local_addr(),
        &b.trace,
        spec.nominal_rps,
        Duration::from_secs_f64(run.measure.as_secs_f64() * 0.4),
        conns,
        0,
    )
    .map_err(|e| format!("driver: {e}"))?;
    let rss_after = host::status_kb("VmRSS:");
    let core = b.server.core();
    let degraded = core.max_degrade_level() > 0;
    let t = tally(
        &out.requests,
        &expected,
        degraded,
        spec.limit_ms,
        run.corrupt,
    );
    o.check(t.attempted, t.failures());
    if let Some(reason) = out.behind(spec.limit_ms) {
        o.invalid.push(reason);
    }
    let m = &mut o.metrics;
    let server_req_p50 = hist_q(&b.server, "serve.request_latency_us", 0.5) / 1e3;
    m.set("serve.server_request_ms.p50", server_req_p50);
    m.set(
        "serve.server_request_ms.p99",
        hist_q(&b.server, "serve.request_latency_us", 0.99) / 1e3,
    );
    m.set(
        "serve.server_window_ms.p95",
        hist_q(&b.server, "serve.window_latency_us", 0.95) / 1e3,
    );
    m.set(
        "serve.net_ms.p50",
        stats::median(&t.window_service_ms) - server_req_p50,
    );
    m.set(
        "serve.batch_size.mean",
        core.recorder()
            .histogram("serve.batch_size")
            .map_or(0.0, |h| h.mean()),
    );
    let shards = core.shard_stats();
    let routed: Vec<f64> = shards.routed.iter().map(|&r| r as f64).collect();
    let routed_mean = stats::mean(&routed);
    m.set(
        "serve.routed_skew",
        routed.iter().copied().fold(0.0, f64::max) / routed_mean.max(1.0),
    );
    m.set("serve.shed", core.shed_count() as f64);
    m.set(
        "serve.max_degrade_level",
        f64::from(core.max_degrade_level()),
    );
    m.set("serve.cross_seal_edges", shards.cross_shard_edges as f64);
    let sources = core.plan_source_counts();
    m.set("serve.plan_source.incremental", sources.incremental as f64);
    m.set("serve.plan_source.cached", sources.cached as f64);
    m.set("serve.plan_source.scratch", sources.scratch as f64);
    m.set(
        "graph.seal_us.p50",
        hist_q(&b.server, "serve.plan_build_us", 0.5),
    );
    m.set(
        "graph.seal_us.p99",
        hist_q(&b.server, "serve.plan_build_us", 0.99),
    );
    m.set(
        "serve.rss_kb_per_stream",
        rss_after.saturating_sub(rss_before) as f64 / out.streams.max(1) as f64,
    );
    m.set("driver.send_lag_ms.p99", out.send_lag_p99_ms());
    m.set("driver.backlog", out.max_backlog as f64);
    let d = core.durable_stats();
    m.set("durable.wal_appends", d.wal_appends as f64);
    m.set("durable.wal_fsyncs", d.wal_fsyncs as f64);
    m.set("durable.checkpoints", d.checkpoints_written as f64);
    m.set(
        "durable.fsync_us.p50",
        hist_q(&b.server, "serve.wal.fsync_us", 0.5),
    );
    m.set(
        "durable.fsync_us.p99",
        hist_q(&b.server, "serve.wal.fsync_us", 0.99),
    );
    m.set(
        "durable.checkpoint_ms.p50",
        hist_q(&b.server, "serve.checkpoint_us", 0.5) / 1e3,
    );
    m.set(
        "durable.checkpoint_mb",
        core.recorder()
            .histogram("serve.checkpoint_bytes")
            .map_or(0.0, |h| h.mean())
            / (1024.0 * 1024.0),
    );
    o.note(format!(
        "server phase: {} requests, {} windows, {} streams, VmRSS {} -> {} kB",
        t.attempted, t.windows, out.streams, rss_before, rss_after
    ));
    b.server.shutdown();

    // Traced and untraced in-process replays of the same passes.
    let passes = if spec.tiny { 2 } else { 8 };
    let plain_dir = run.work.join("replay-plain");
    let plain = replay(&cfg, &b.trace, passes, None, Some(&plain_dir));
    let tracer = Tracer::new();
    let traced_dir = run.work.join("replay-traced");
    let traced = replay(&cfg, &b.trace, passes, Some(&tracer), Some(&traced_dir));
    let bad_traced = traced
        .digests
        .iter()
        .zip(&plain.digests)
        .filter(|(a, b)| a.1 ^ run.corrupt != b.1)
        .count()
        + traced.digests.len().abs_diff(plain.digests.len());
    let bad_reference = plain
        .digests
        .iter()
        .filter(|(seq, d)| expected.get(*seq as usize) != Some(d))
        .count();
    o.check(
        (traced.digests.len() + plain.digests.len()) as u64,
        (bad_traced + bad_reference) as u64,
    );
    crash_and_recover(spec, run, &spec.graph(run.seed), &expected, 1, o)?;

    let spans = tracer.aggregate();
    let total_ns = |name: &str| spans.get(name).map_or(0, |a| a.total_ns) as f64;
    let m = &mut o.metrics;
    host.publish(m);
    m.set("tensor.gemm_gflops", host::gemm_gflops(499, 500, 48, 0.1));
    publish_engine_stats(m, &traced.stats);
    let windows = traced.windows.max(1) as f64;
    let classified = traced.classified.max(1) as f64;
    m.set("graph.plan_ms", traced.plan_ns as f64 / 1e6 / windows);
    m.set(
        "graph.unaffected_frac",
        traced.unaffected as f64 / classified,
    );
    m.set("graph.stable_frac", traced.stable as f64 / classified);
    m.set("graph.affected_frac", traced.affected as f64 / classified);
    m.set(
        "graph.subgraph_vertices",
        traced.subgraph_vertices as f64 / windows,
    );
    m.set("graph.incremental_fallbacks", traced.fallbacks as f64);
    m.set("graph.generate_s", b.generate_s);
    let window_ms = total_ns("models.process_window") / 1e6 / windows;
    m.set("models.exec_ms", window_ms);
    m.set("serve.session_window_ms", window_ms);
    m.set(
        "serve.roller_apply_us",
        total_ns("serve.roller_apply") / 1e3 / traced.events.max(1) as f64,
    );
    m.set(
        "serve.wire_us",
        total_ns("serve.wire") / 1e3 / traced.requests.max(1) as f64,
    );
    m.set(
        "durable.wal_append_us",
        total_ns("durable.wal_append") / 1e3 / traced.wal_appends.max(1) as f64,
    );
    m.set(
        "obs.trace_overhead_frac",
        (traced.elapsed_s - plain.elapsed_s) / plain.elapsed_s,
    );
    o.note(host.describe());
    o.note(format!(
        "replay: {} passes, {} requests, {} events, {} windows, {} plan fallbacks",
        passes, traced.requests, traced.events, traced.windows, traced.fallbacks
    ));
    run.write_spans(&tracer, o);
    Ok(())
}
