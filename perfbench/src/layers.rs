//! The per-layer split of a traced run: the figures a timed phase and a
//! replay yield, and the metrics derived from them.

use crate::gen::Workload;
use crate::replay::{self, Replayed, BLOCKING_PATH};
use crate::stats::median;
use crate::trace::{self, Span};
use crate::wire::DAEMON_WORKERS;
use crate::{metric, ms, p50_metric, Metric};
use oranges_campaign::{CampaignReport, Priority, UnitSource};
use oranges_gemm::gemm_flops;
use oranges_kernels::{sgemm_f32_blocked, CacheParams};
use std::time::{Duration, Instant};

/// Timed-phase figures the per-layer split needs.
pub struct TimedPhase {
    /// Request p50 the blocking-path split is taken against, and its
    /// sample count.
    pub request_p50_ms: f64,
    pub p50_samples: usize,
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
    pub bytes_per_request: f64,
    pub units_computed: u64,
    pub units_failed: u64,
    pub coalesced_share: f64,
    pub notify_wakeups_per_request: f64,
    pub timer_wakeups: f64,
    pub requests: usize,
}

/// Everything a replay produced.
pub struct ReplaySet {
    /// Replays of generated client requests.
    pub requests: Vec<Replayed>,
    /// Replays that warm the cache (the daemon's fill), if any.
    pub fills: Vec<Replayed>,
    /// Spans of the client-request replays.
    pub spans: Vec<Span>,
    /// Spans of the fill replays.
    pub fill_spans: Vec<Span>,
    /// Wall time of the concurrent client phase.
    pub client_wall: Duration,
    /// Square sizes the workload's GEMM verification runs at.
    pub gemm_sizes: Vec<usize>,
    /// Checks the replay broke.
    pub broken: Vec<String>,
}

/// Fig. 2 sizes the paper grid verifies functionally (the default
/// ceiling admits every size up to 256).
pub fn paper_verified_sizes() -> Vec<usize> {
    oranges_gemm::paper_sizes()
        .into_iter()
        .filter(|&n| gemm_flops(n as u64) <= gemm_flops(256))
        .collect()
}

/// Per-report figures from an in-process campaign: computed units'
/// walls by experiment id, the slowest unit's and the workers' busy
/// share of the campaign wall, unit counts, and the Fig. 2 units'
/// verified GFLOP.
pub struct GridSummary {
    pub compute_ms: Vec<(String, f64)>,
    pub slowest_share: f64,
    pub busy_share: f64,
    pub computed: usize,
    pub coalesced: usize,
    pub units: usize,
    pub verify_gflop: Vec<f64>,
}

/// Summarize one `run_campaign` report.
pub fn summarize(report: &CampaignReport) -> GridSummary {
    let wall = report.wall.as_secs_f64();
    let computed: Vec<_> = report.units.iter().filter(|u| !u.from_cache()).collect();
    let busy: f64 = computed.iter().map(|u| u.wall.as_secs_f64()).sum();
    GridSummary {
        compute_ms: computed
            .iter()
            .map(|u| (u.key.id.clone(), ms(u.wall)))
            .collect(),
        slowest_share: report
            .slowest_unit()
            .map_or(0.0, |u| u.wall.as_secs_f64() / wall),
        busy_share: busy / (report.workers as f64 * wall),
        computed: computed.len(),
        coalesced: report.coalesced_units(),
        units: report.units.len(),
        verify_gflop: report
            .units
            .iter()
            .filter(|u| u.key.id == "fig2")
            .map(replay::verify_gflop)
            .collect(),
    }
}

/// Rate of `oranges_kernels::block::sgemm_f32_blocked` over square
/// problems of the given sizes, with the bytes each call must touch.
fn sgemm_rate(sizes: &[usize]) -> (f64, f64, usize) {
    let params = CacheParams::host_default();
    let mut flops = 0.0;
    let mut seconds = 0.0;
    let mut bytes = 0.0;
    let mut calls = 0;
    for &n in sizes {
        let a: Vec<f32> = (0..n * n)
            .map(|i| ((i * 7 % 13) as f32 - 6.0) / 8.0)
            .collect();
        let b: Vec<f32> = (0..n * n)
            .map(|i| ((i * 5 % 11) as f32 - 5.0) / 8.0)
            .collect();
        let mut c = vec![0.0f32; n * n];
        // About 0.2 GFLOP per size, at least one call.
        let per_call = gemm_flops(n as u64) as f64;
        let reps = ((2e8 / per_call).ceil() as usize).max(1);
        let started = Instant::now();
        for _ in 0..reps {
            sgemm_f32_blocked(
                n,
                n,
                n,
                std::hint::black_box(&a),
                n,
                std::hint::black_box(&b),
                n,
                &mut c,
                n,
                &params,
            );
            std::hint::black_box(&mut c);
        }
        seconds += started.elapsed().as_secs_f64();
        flops += per_call * reps as f64;
        bytes += (3 * n * n * std::mem::size_of::<f32>() * reps) as f64;
        calls += reps;
    }
    (flops / seconds / 1e9, bytes / calls as f64, calls)
}

/// Every per-layer metric of a traced run, in `BENCHMARK.json` order.
/// `grids` carries the timed `run_campaign` reports of `grid_inproc`.
pub fn layer_metrics(
    workload: Workload,
    timed: &TimedPhase,
    replayed: &ReplaySet,
    grids: Option<&[GridSummary]>,
) -> Vec<Metric> {
    // Per-request self time of one span name, over the replayed client
    // requests only (a fill is set-up).
    let self_ns = trace::self_times(&replayed.spans);
    let per_request = |name: &str| trace::per_request_ms(&replayed.spans, &self_ns, name);
    let p50_ms = |name: &str| median(&per_request(name)).unwrap_or(0.0);

    let mut m = Vec::new();
    let scaled = |name: &str, span: &str, unit: &'static str, scale: f64| {
        let samples: Vec<f64> = per_request(span).iter().map(|v| v * scale).collect();
        p50_metric(name, &samples, unit)
    };
    m.push(scaled("json.unit_parse_ms", "json.unit_parse", "ms", 1.0));
    m.push(scaled("json.unit_emit_ms", "json.unit_emit", "ms", 1.0));
    m.push(scaled(
        "envelope.request_parse_us",
        "envelope.request_parse",
        "us",
        1e3,
    ));
    m.push(scaled("spec.parse_us", "spec.parse", "us", 1e3));
    m.push(scaled("plan.expand_us", "plan.expand", "us", 1e3));
    m.push(scaled("cache.lookup_us", "cache.lookup", "us", 1e3));
    m.push(scaled("engine.run_ms", "engine.run", "ms", 1.0).note("submit to last delivery"));
    m.push(scaled("reactor.frame_us", "reactor.frame", "us", 1e3));

    let (bytes, bytes_note) = if workload.is_wire() {
        (timed.bytes_per_request, "sent + received on the wire")
    } else {
        let replay_bytes: Vec<f64> = replayed.requests.iter().map(|r| r.bytes as f64).collect();
        (
            replay_bytes.iter().sum::<f64>() / replay_bytes.len().max(1) as f64,
            "request + unit lines the wire would carry",
        )
    };
    m.push(metric("wire.bytes_per_request", bytes, "bytes", timed.requests).note(bytes_note));
    m.push(metric(
        "reactor.notify_wakeups_per_request",
        timed.notify_wakeups_per_request,
        "count",
        timed.requests,
    ));
    m.push(metric(
        "reactor.timer_wakeups",
        timed.timer_wakeups,
        "count",
        1,
    ));

    // The blocking path: what the replay spans cover of the wire p50.
    let path: &[&str] = if workload.is_wire() {
        &BLOCKING_PATH
    } else {
        &["plan.expand", "cache.lookup", "engine.run"]
    };
    let covered: f64 = path.iter().map(|name| p50_ms(name)).sum();
    m.push(
        metric(
            "trace.request_p50_ms",
            timed.request_p50_ms,
            "ms",
            timed.p50_samples,
        )
        .note("wire p50 of the replayed requests; all calls in-process"),
    );
    m.push(
        metric(
            "unattributed_ms",
            timed.request_p50_ms - covered,
            "ms",
            timed.p50_samples,
        )
        .note(format!(
            "request p50 {:.4} ms = {covered:.4} ms of {} + this",
            timed.request_p50_ms,
            path.join(" + ")
        )),
    );
    let overhead =
        median(&timed.traced_ms).unwrap_or(0.0) - median(&timed.untraced_ms).unwrap_or(0.0);
    m.push(
        metric("trace.overhead_ms", overhead, "ms", timed.traced_ms.len())
            .note("p50 of traced minus untraced requests"),
    );

    // Cache.
    let lookups: usize = replayed.requests.iter().map(|r| r.lookups).sum();
    let hits: usize = replayed.requests.iter().map(|r| r.hits).sum();
    m.push(metric(
        "cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups,
    ));
    let inserts: Vec<f64> = replayed
        .fill_spans
        .iter()
        .chain(&replayed.spans)
        .filter(|s| s.name == "cache.insert")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    m.push(p50_metric("cache.insert_us", &inserts, "us").note("per computed unit, shadow cache"));

    // Engine.
    for (priority, name) in [
        (Priority::High, "engine.queue_wait_ms.high"),
        (Priority::Batch, "engine.queue_wait_ms.batch"),
    ] {
        let waits: Vec<f64> = replayed
            .requests
            .iter()
            .filter(|r| r.priority == priority)
            .flat_map(|r| r.units.iter().map(|u| ms(u.queue_wait)))
            .collect();
        m.push(p50_metric(name, &waits, "ms").note("submit to delivery minus unit wall"));
    }
    let busy_share = match grids {
        Some(grids) => {
            median(&grids.iter().map(|g| g.busy_share).collect::<Vec<_>>()).unwrap_or(0.0)
        }
        None => {
            let busy: f64 = replayed
                .requests
                .iter()
                .flat_map(|r| &r.units)
                .filter(|u| u.source == UnitSource::Computed)
                .map(|u| u.wall.as_secs_f64())
                .sum();
            // `+ 0.0` turns the empty sum's -0.0 into 0.
            busy / (DAEMON_WORKERS as f64 * replayed.client_wall.as_secs_f64()) + 0.0
        }
    };
    m.push(metric(
        "engine.worker_busy_share",
        busy_share,
        "ratio",
        timed.requests,
    ));
    m.push(metric(
        "engine.coalesced_share",
        timed.coalesced_share,
        "ratio",
        timed.requests,
    ));
    m.push(metric(
        "engine.units_computed",
        timed.units_computed as f64,
        "count",
        1,
    ));
    m.push(metric(
        "engine.units_failed",
        timed.units_failed as f64,
        "count",
        1,
    ));

    // Experiments.
    let compute_samples: Vec<(String, f64)> = match grids {
        Some(grids) => grids.iter().flat_map(|g| g.compute_ms.clone()).collect(),
        None => replayed
            .fills
            .iter()
            .chain(&replayed.requests)
            .flat_map(|r| &r.units)
            .filter(|u| u.source == UnitSource::Computed)
            .map(|u| (u.experiment.clone(), ms(u.wall)))
            .collect(),
    };
    for figure in ["fig1", "fig2", "fig3", "fig4"] {
        let samples: Vec<f64> = compute_samples
            .iter()
            .filter(|(id, _)| id == figure)
            .map(|(_, v)| *v)
            .collect();
        m.push(p50_metric(
            &format!("experiments.{figure}.compute_ms"),
            &samples,
            "ms",
        ));
    }
    let slowest: Vec<f64> = match grids {
        Some(grids) => grids.iter().map(|g| g.slowest_share).collect(),
        None => replayed
            .fills
            .iter()
            .map(|f| {
                let slowest = f.units.iter().map(|u| u.wall).max().unwrap_or_default();
                slowest.as_secs_f64() / f.engine_wall.as_secs_f64()
            })
            .collect(),
    };
    m.push(
        p50_metric("experiments.slowest_unit_share", &slowest, "ratio")
            .note("slowest unit wall / paper-grid wall"),
    );

    // GEMM verification and the blocked kernel.
    let verify: Vec<f64> = match grids {
        Some(grids) => grids.iter().flat_map(|g| g.verify_gflop.clone()).collect(),
        None => replayed
            .requests
            .iter()
            .flat_map(|r| r.units.iter().filter_map(|u| u.verify_gflop))
            .collect(),
    };
    m.push(metric(
        "gemm.verify_gflop_per_unit",
        verify.iter().sum::<f64>() / verify.len().max(1) as f64,
        "GFLOP",
        verify.len(),
    ));
    let (gflops, bytes_per_call, calls) = sgemm_rate(&replayed.gemm_sizes);
    m.push(metric(
        "kernels.sgemm_blocked_gflops",
        gflops,
        "GFLOP/s",
        calls,
    ));
    m.push(metric(
        "kernels.sgemm_blocked_bytes_per_call",
        bytes_per_call,
        "bytes",
        calls,
    ));
    m
}
