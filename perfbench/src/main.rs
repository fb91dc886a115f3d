//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm_grid|cold_sweep|grid_inproc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload against the public API of
//! `oranges-campaign` — a daemon child over loopback TCP, or
//! `run_campaign` in-process — checks every output, prints a table of
//! metrics with units and sample counts, and ends with one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer split with
//! `--trace 1`. Spans of a traced run are written to
//! `perfbench/out/`. `perfbench/README.md` defines every metric.

mod gen;
mod layers;
mod replay;
mod stats;
mod trace;
mod wire;

use gen::{ClientPlan, GenRequest, Workload};
use layers::{layer_metrics, paper_verified_sizes, summarize, ReplaySet, TimedPhase};
use oranges_campaign::{run_campaign, ExecutionEngine, Priority, ResultCache};
use oranges_harness::json::JsonValue;
use stats::{median, tail};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use trace::{Recorder, Span};
use wire::{Daemon, Ending, Sample, WireClient, DAEMON_WORKERS};

/// Value-identity fingerprint of the paper grid (Fig. 1–4 × M1–M4).
const PAPER_GRID_FINGERPRINT: &str = "eb58ccace1744c65";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Engine workers of the in-process campaign and of the replay.
const INPROC_WORKERS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
        note: String::new(),
    }
}

impl Metric {
    fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// What one run measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Check failures beyond per-request failures (identity, replay).
    broken: Vec<String>,
    /// Failed requests by kind, for the report.
    failures: BTreeMap<String, u64>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        if let Err(error) = wire::serve_daemon() {
            eprintln!("perfbench daemon: {error}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    let plans = gen::generate(args.workload, args.seed, args.seconds);
    let result = if args.workload.is_wire() {
        run_wire(&args, &plans)
    } else {
        run_inproc(&args, &plans)
    };
    match result {
        Ok(outcome) => report(&args, &outcome),
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// p50 of `samples` as a metric (0 with no samples).
fn p50_metric(name: &str, samples: &[f64], unit: &'static str) -> Metric {
    metric(name, median(samples).unwrap_or(0.0), unit, samples.len())
}

/// The end-to-end timing metrics shared by every workload.
fn latency_metrics(latency_ms: &[f64], first_unit_ms: &[f64], setup: &[f64]) -> Vec<Metric> {
    let p90 = tail(latency_ms, 90.0).map_or_else(
        || metric("request_p90_ms", 0.0, "ms", 0),
        |t| {
            let m = metric("request_p90_ms", t.value, "ms", latency_ms.len());
            if t.resolved() {
                m.note(format!("{} samples beyond", t.beyond))
            } else {
                m.note(format!(
                    "only {} samples beyond: below the {}-sample rule, not a resolved tail",
                    t.beyond,
                    stats::TAIL_MIN_BEYOND
                ))
            }
        },
    );
    vec![
        p50_metric("setup_s", setup, "s").note("median of the run's set-ups"),
        p50_metric("request_p50_ms", latency_ms, "ms"),
        p90,
        p50_metric("first_unit_p50_ms", first_unit_ms, "ms"),
    ]
}

// ---------------------------------------------------------------- wire

/// Set up a daemon: start it and fill its cache with the paper grid.
fn set_up_daemon() -> Result<(Daemon, Duration), String> {
    let started = Instant::now();
    let daemon = Daemon::spawn()?;
    let fill = WireClient::connect(&daemon.endpoint)?.request(&gen::fill_request(), None);
    let elapsed = started.elapsed();
    match &fill.ending {
        Ending::Done { fingerprint, .. }
            if fingerprint == PAPER_GRID_FINGERPRINT && fill.units == 16 =>
        {
            Ok((daemon, elapsed))
        }
        other => Err(format!(
            "cache fill returned {other:?} with {} units",
            fill.units
        )),
    }
}

/// Whether a wire request's answer is correct for the workload.
fn wire_sample_ok(workload: Workload, request: &GenRequest, sample: &Sample) -> bool {
    let Ending::Done {
        fingerprint,
        computed_units,
    } = &sample.ending
    else {
        return false;
    };
    let units = oranges_campaign::Plan::expand(&request.spec).len();
    sample.units == units
        && match workload {
            Workload::WarmGrid => fingerprint == PAPER_GRID_FINGERPRINT && *computed_units == 0,
            _ => *computed_units as usize == units,
        }
}

struct ClientRun {
    samples: Vec<Sample>,
    spans: Vec<Span>,
    elapsed: Duration,
}

fn run_wire(args: &Args, plans: &[ClientPlan]) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = daemon.take() {
            Daemon::stop(previous)?;
        }
        let (fresh, elapsed) = set_up_daemon()?;
        setups.push(elapsed.as_secs_f64());
        daemon = Some(fresh);
    }
    let daemon = daemon.expect("at least one set-up");
    let pid = daemon.pid().to_string();

    let mut clients = plans
        .iter()
        .map(|_| WireClient::connect(&daemon.endpoint))
        .collect::<Result<Vec<_>, _>>()?;
    let before = wire::daemon_stats(&daemon.endpoint)?;
    let cpu_before = wire::cpu_ticks(&pid).ok_or("daemon /proc stat unreadable")?;
    let origin = Instant::now();
    let barrier = Barrier::new(plans.len());
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plans)
            .enumerate()
            .map(|(index, (client, plan))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut recorder = Recorder::new(origin, (index as u64 + 1) << 40);
                    barrier.wait();
                    let started = Instant::now();
                    let samples = plan
                        .requests
                        .iter()
                        .enumerate()
                        .map(|(i, request)| {
                            // Every other request runs inside client-side
                            // spans, so the run measures its own overhead.
                            let traced = args.trace && i % 2 == 0;
                            client.request(request, traced.then_some(&mut recorder))
                        })
                        .collect();
                    ClientRun {
                        samples,
                        spans: recorder.into_spans(),
                        elapsed: started.elapsed(),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let cpu_after = wire::cpu_ticks(&pid).ok_or("daemon /proc stat unreadable")?;
    let rss_kb = wire::rss_kb(&pid).ok_or("daemon /proc status unreadable")?;
    let after = wire::daemon_stats(&daemon.endpoint)?;
    drop(clients);
    daemon.stop()?;

    let mut outcome = Outcome::default();
    let s = &after.summary;
    let resolved = s.units_computed
        + s.unit_cache_hits
        + s.coalesced_joins
        + s.units_failed
        + s.units_cancelled;
    if s.units_submitted != resolved || after.gauges.units_inflight != 0 {
        outcome.broken.push(format!(
            "daemon counter identity broken at quiescence: submitted {} != resolved {resolved} \
             (inflight {})",
            s.units_submitted, after.gauges.units_inflight
        ));
    }

    let makespan = runs
        .iter()
        .map(|r| r.elapsed)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let mut latency_ms = Vec::new();
    let mut first_unit_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut units = 0usize;
    let mut bytes = 0u64;
    // Fingerprint and latency of each correct request, by id.
    let mut answers = BTreeMap::new();
    for (run, plan) in runs.iter().zip(plans) {
        for (sample, request) in run.samples.iter().zip(&plan.requests) {
            outcome.attempted += 1;
            if !wire_sample_ok(args.workload, request, sample) {
                outcome.failed += 1;
                let kind = match &sample.ending {
                    Ending::Failed { kind, detail } => {
                        eprintln!("request {} failed: {kind}: {detail}", request.id);
                        kind.clone()
                    }
                    Ending::Done { .. } => "mismatch".to_string(),
                };
                *outcome.failures.entry(kind).or_default() += 1;
                continue;
            }
            let latency = ms(sample.latency);
            if let Ending::Done { fingerprint, .. } = &sample.ending {
                answers.insert(request.id, (fingerprint.clone(), latency));
            }
            latency_ms.push(latency);
            if sample.traced {
                traced_ms.push(latency);
            } else {
                untraced_ms.push(latency);
            }
            first_unit_ms.extend(sample.first_unit.map(ms));
            units += sample.units;
            bytes += sample.bytes;
        }
    }
    let done = latency_ms.len();
    let computed = s.units_computed - before.summary.units_computed;
    if args.workload == Workload::ColdSweep && computed as usize != units {
        outcome.broken.push(format!(
            "daemon computed {computed} units for {units} delivered cold units"
        ));
    }

    outcome.end_to_end = latency_metrics(&latency_ms, &first_unit_ms, &setups);
    let cpu_ms = (cpu_after - cpu_before) as f64 / wire::TICKS_PER_S * 1e3;
    outcome.end_to_end.extend([
        metric("requests_per_s", done as f64 / makespan, "1/s", done),
        metric("units_per_s", units as f64 / makespan, "1/s", units),
        metric(
            "cpu_ms_per_request",
            cpu_ms / done.max(1) as f64,
            "ms",
            done,
        )
        .note("daemon utime+stime"),
        metric("rss_mb", rss_kb as f64 / 1024.0, "MB", 1).note("daemon VmRSS"),
    ]);

    if args.trace {
        let delta = |f: fn(&oranges_campaign::ServiceSummary) -> u64| {
            f(&after.summary) - f(&before.summary)
        };
        let submitted = delta(|s| s.units_submitted);
        let wire_spans: Vec<Span> = runs.into_iter().flat_map(|r| r.spans).collect();
        let replayed = replay_wire(args.workload, plans, origin)?;
        // The blocking-path split compares like with like: the wire
        // latencies of exactly the requests the replay re-ran.
        let replayed_ms: Vec<f64> = replayed
            .requests
            .iter()
            .filter_map(|r| answers.get(&r.request).map(|answer| answer.1))
            .collect();
        let timed = TimedPhase {
            request_p50_ms: median(&replayed_ms).unwrap_or(0.0),
            p50_samples: replayed_ms.len(),
            traced_ms,
            untraced_ms,
            bytes_per_request: bytes as f64 / done.max(1) as f64,
            units_computed: computed,
            units_failed: delta(|s| s.units_failed),
            coalesced_share: delta(|s| s.coalesced_joins) as f64 / submitted.max(1) as f64,
            notify_wakeups_per_request: delta(|s| s.reactor_notify_wakeups) as f64
                / done.max(1) as f64,
            timer_wakeups: delta(|s| s.reactor_timer_wakeups) as f64,
            requests: done,
        };
        for replay in &replayed.requests {
            let Some(local) = &replay.fingerprint else {
                outcome.broken.push(format!(
                    "replayed request {} had a failed unit",
                    replay.request
                ));
                continue;
            };
            if let Some((wire, _)) = answers.get(&replay.request) {
                if wire != local {
                    outcome.broken.push(format!(
                        "request {}: daemon fingerprint {wire} != in-process {local}",
                        replay.request
                    ));
                }
            }
        }
        outcome.broken.extend(replayed.broken.iter().cloned());
        outcome.per_layer = layer_metrics(args.workload, &timed, &replayed, None);
        write_spans(args, [&wire_spans, &replayed.fill_spans, &replayed.spans]);
    }
    Ok(outcome)
}

/// Requests per client replayed in a traced wire run.
fn replay_per_client(workload: Workload) -> usize {
    match workload {
        Workload::WarmGrid => 100,
        _ => 20,
    }
}

fn replay_wire(
    workload: Workload,
    plans: &[ClientPlan],
    origin: Instant,
) -> Result<ReplaySet, String> {
    let engine = ExecutionEngine::new(DAEMON_WORKERS);
    let cache = ResultCache::new();
    let shadow = ResultCache::new();
    let mut recorder = Recorder::new(origin, 1 << 50);
    let fill = replay::replay(
        &gen::fill_request(),
        Priority::Normal,
        &engine,
        &cache,
        &shadow,
        &mut recorder,
    )?;
    let fill_spans = recorder.into_spans();
    let per_client = replay_per_client(workload);
    let started = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(index, plan)| {
                let (engine, cache, shadow) = (&engine, &cache, &shadow);
                scope.spawn(move || {
                    let mut recorder = Recorder::new(origin, (index as u64 + 2) << 50);
                    let replays = plan
                        .requests
                        .iter()
                        .take(per_client)
                        .map(|request| {
                            replay::replay(
                                request,
                                plan.priority,
                                engine,
                                cache,
                                shadow,
                                &mut recorder,
                            )
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok((replays, recorder.into_spans()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let client_wall = started.elapsed();
    let mut requests = Vec::new();
    let mut spans = Vec::new();
    for (replays, client_spans) in results {
        requests.extend(replays);
        spans.extend(client_spans);
    }
    let mut broken = engine_identity(&engine);
    if fill.fingerprint.as_deref() != Some(PAPER_GRID_FINGERPRINT) {
        broken.push(format!("replayed fill fingerprint {:?}", fill.fingerprint));
    }
    if workload == Workload::WarmGrid {
        for replay in &requests {
            if replay.fingerprint.as_deref() != Some(PAPER_GRID_FINGERPRINT) {
                broken.push(format!(
                    "replayed request {} fingerprint {:?}",
                    replay.request, replay.fingerprint
                ));
            }
        }
    }
    let mut gemm_sizes: Vec<usize> = match workload {
        Workload::ColdSweep => plans
            .iter()
            .flat_map(|plan| plan.requests.iter().take(per_client))
            .flat_map(|request| request.spec.gemm_sizes.clone().unwrap_or_default())
            .collect(),
        _ => paper_verified_sizes(),
    };
    gemm_sizes.sort_unstable();
    gemm_sizes.dedup();
    Ok(ReplaySet {
        requests,
        fills: vec![fill],
        spans,
        fill_spans,
        client_wall,
        gemm_sizes,
        broken,
    })
}

/// The engine counter identity at quiescence.
fn engine_identity(engine: &ExecutionEngine) -> Vec<String> {
    let s = engine.stats();
    let resolved =
        s.units_computed + s.cache_hits + s.coalesced_joins + s.units_failed + s.units_cancelled;
    if s.units_submitted == resolved && engine.inflight() == 0 {
        Vec::new()
    } else {
        vec![format!(
            "replay engine identity broken: submitted {} != resolved {resolved}",
            s.units_submitted
        )]
    }
}

// ----------------------------------------------------------- in-process

fn run_inproc(args: &Args, plans: &[ClientPlan]) -> Result<Outcome, String> {
    let requests = &plans[0].requests;
    let mut outcome = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let report = run_campaign(&requests[0].spec, &ResultCache::new())
            .map_err(|e| format!("set-up campaign: {e}"))?;
        setups.push(started.elapsed().as_secs_f64());
        if report.fingerprint() != PAPER_GRID_FINGERPRINT {
            return Err(format!("set-up fingerprint {}", report.fingerprint()));
        }
    }

    let origin = Instant::now();
    let mut recorder = Recorder::new(origin, 1 << 40);
    let cpu_before = wire::cpu_ticks("self").ok_or("/proc/self/stat unreadable")?;
    let started = Instant::now();
    let mut latency_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut grids = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        outcome.attempted += 1;
        let traced = args.trace && i % 2 == 0;
        let span = traced.then(|| recorder.open("inproc.run_campaign", request.id, None));
        let call = Instant::now();
        let result = run_campaign(&request.spec, &ResultCache::new());
        let latency = ms(call.elapsed());
        if let Some(span) = span {
            recorder.close(span);
        }
        match result {
            Ok(report) if report.fingerprint() == PAPER_GRID_FINGERPRINT => {
                latency_ms.push(latency);
                if traced {
                    traced_ms.push(latency);
                } else {
                    untraced_ms.push(latency);
                }
                grids.push(summarize(&report));
            }
            Ok(report) => {
                outcome.failed += 1;
                *outcome.failures.entry("mismatch".to_string()).or_default() += 1;
                eprintln!(
                    "request {}: fingerprint {}",
                    request.id,
                    report.fingerprint()
                );
            }
            Err(error) => {
                outcome.failed += 1;
                *outcome.failures.entry("error".to_string()).or_default() += 1;
                eprintln!("request {}: {error}", request.id);
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let cpu_after = wire::cpu_ticks("self").ok_or("/proc/self/stat unreadable")?;
    let rss_kb = wire::rss_kb("self").ok_or("/proc/self/status unreadable")?;

    let done = latency_ms.len();
    let units: usize = grids.iter().map(|g| g.units).sum();
    // `run_campaign` hands back every unit when it returns, so the
    // caller's first unit arrives with the last.
    outcome.end_to_end = latency_metrics(&latency_ms, &latency_ms, &setups);
    outcome.end_to_end[3].note = "run_campaign returns all units at once".to_string();
    let cpu_ms = (cpu_after - cpu_before) as f64 / wire::TICKS_PER_S * 1e3;
    outcome.end_to_end.extend([
        metric("requests_per_s", done as f64 / elapsed, "1/s", done),
        metric("units_per_s", units as f64 / elapsed, "1/s", units),
        metric(
            "cpu_ms_per_request",
            cpu_ms / done.max(1) as f64,
            "ms",
            done,
        )
        .note("process utime+stime"),
        metric("rss_mb", rss_kb as f64 / 1024.0, "MB", 1).note("process VmRSS"),
    ]);

    if args.trace {
        let timed_spans = recorder.into_spans();
        let computed: usize = grids.iter().map(|g| g.computed).sum();
        let timed = TimedPhase {
            request_p50_ms: median(&latency_ms).unwrap_or(0.0),
            p50_samples: done,
            traced_ms,
            untraced_ms,
            bytes_per_request: 0.0,
            units_computed: computed as u64,
            units_failed: outcome.failed,
            coalesced_share: grids.iter().map(|g| g.coalesced).sum::<usize>() as f64
                / units.max(1) as f64,
            notify_wakeups_per_request: 0.0,
            timer_wakeups: 0.0,
            requests: done,
        };
        // Replay two calls' plans, one per scheduling class, each on a
        // fresh cache as `run_campaign` is given.
        let engine = ExecutionEngine::new(INPROC_WORKERS);
        let shadow = ResultCache::new();
        let mut replay_recorder = Recorder::new(origin, 2 << 50);
        let started = Instant::now();
        let mut replays = Vec::new();
        for (request, priority) in requests.iter().zip([Priority::High, Priority::Batch]) {
            let cache = ResultCache::new();
            replays.push(replay::replay(
                request,
                priority,
                &engine,
                &cache,
                &shadow,
                &mut replay_recorder,
            )?);
        }
        let mut broken = engine_identity(&engine);
        for replay in &replays {
            if replay.fingerprint.as_deref() != Some(PAPER_GRID_FINGERPRINT) {
                broken.push(format!(
                    "replayed grid fingerprint {:?}",
                    replay.fingerprint
                ));
            }
        }
        let replayed = ReplaySet {
            requests: replays,
            fills: Vec::new(),
            spans: replay_recorder.into_spans(),
            fill_spans: Vec::new(),
            client_wall: started.elapsed(),
            gemm_sizes: paper_verified_sizes(),
            broken,
        };
        outcome.broken.extend(replayed.broken.iter().cloned());
        outcome.per_layer = layer_metrics(args.workload, &timed, &replayed, Some(&grids));
        write_spans(args, [&timed_spans, &replayed.spans]);
    }
    Ok(outcome)
}

fn write_spans<const N: usize>(args: &Args, parts: [&Vec<Span>; N]) {
    let spans: Vec<Span> = parts.into_iter().flatten().cloned().collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
    if let Err(error) = trace::write_jsonl(&path, &spans) {
        eprintln!("could not write {}: {error}", path.display());
    }
}

// --------------------------------------------------------------- report

fn report(args: &Args, outcome: &Outcome) {
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "workload {} · seed {} · {} s · trace {} · {} cores",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "{:<38} {:>14} {:<8} {:>8}  note",
        "metric", "value", "unit", "samples"
    );
    let row = |m: &Metric| {
        println!(
            "{:<38} {:>14.4} {:<8} {:>8}  {}",
            m.name, m.value, m.unit, m.samples, m.note
        )
    };
    for m in &outcome.end_to_end {
        row(m);
    }
    row(&metric(
        "failed_share",
        failed_share,
        "ratio",
        outcome.attempted as usize,
    )
    .note(format!("{:?}", outcome.failures)));
    if args.trace {
        println!("-- per layer (traced run)");
        for m in &outcome.per_layer {
            row(m);
        }
    }
    for problem in &outcome.broken {
        println!("CHECK FAILED: {problem}");
    }
    let mut correct = outcome.failed == 0 && outcome.broken.is_empty();
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        if !m.value.is_finite() {
            println!("CHECK FAILED: {} is not a finite number", m.name);
            correct = false;
        }
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let metrics = JsonValue::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    JsonValue::Object(vec![
                        (
                            "value".to_string(),
                            // A non-finite value already failed the run;
                            // keep the line valid JSON.
                            JsonValue::number(if m.value.is_finite() { m.value } else { 0.0 }),
                        ),
                        ("unit".to_string(), JsonValue::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let result = JsonValue::Object(vec![
        ("correct".to_string(), JsonValue::Bool(correct)),
        (
            "attempted".to_string(),
            JsonValue::integer(outcome.attempted),
        ),
        ("failed".to_string(), JsonValue::integer(outcome.failed)),
        ("metrics".to_string(), metrics),
    ]);
    println!("{}", result.to_json_string());
}
