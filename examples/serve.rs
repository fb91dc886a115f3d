//! Campaign service mode: a long-running daemon serving `CampaignSpec`
//! requests over a pluggable transport (`unix:` socket or `tcp:`),
//! answering from a warm cache.
//!
//! ```text
//! cargo run --release --example serve [-- OPTIONS]
//!
//! Options:
//!   --listen URI    endpoint to bind: unix:/path/to.sock or
//!                   tcp:host:port (tcp port 0 = OS-assigned; the
//!                   resolved endpoint is printed at startup).
//!                   Default: unix:$TMPDIR/oranges-campaign.sock
//!   --socket PATH   legacy alias for --listen unix:PATH
//!   --workers N     persistent worker threads (default 4)
//!   --queue-cap N   bound the engine's admission queue: a run whose
//!                   fresh units outnumber the free slots is refused
//!                   whole with a typed `busy` response instead of
//!                   queueing unboundedly (default: unbounded)
//!   --cache PATH    warm-start the cache from PATH and save it back on
//!                   shutdown
//!   --self-check    smoke mode: bind a private endpoint (honors
//!                   --listen, e.g. --listen tcp:127.0.0.1:0), submit a
//!                   spec through a real client, assert a MetricSet
//!                   comes back and a repeat is fully cached, shut down
//!   --concurrent-check
//!                   smoke mode: two simultaneous clients submit
//!                   overlapping specs; assert each shared unit was
//!                   computed exactly once (coalesce counter > 0, both
//!                   fingerprints identical to a local serial run)
//!   --fleet-check   smoke mode: two TCP loopback daemons + a fleet
//!                   orchestrator sharding one campaign across them;
//!                   assert the merged report fingerprint equals a
//!                   single-process run
//!   --metrics-check smoke mode: run a small campaign with a live
//!                   `subscribe` watcher attached, scrape `metrics`
//!                   (assert the exposition parses and carries latency
//!                   histogram buckets), probe `health` before and
//!                   after the shutdown drain
//!   --admission-check
//!                   smoke mode: saturate a 1-worker daemon with
//!                   batch-priority bulk runs, prove a high-priority
//!                   probe overtakes the backlog, cancel the bulk by
//!                   token; then prove a `--queue-cap 2` daemon
//!                   refuses an oversized run with a typed `busy`
//!                   rejection while admitting a fitting one
//!
//! Protocol (newline-delimited JSON; see docs/PROTOCOL.md):
//!   {"id":1,"method":"run","body":{"experiments":["fig4"],"chips":["M1"]}}
//!   {"id":2,"method":"stats"}   {"id":3,"method":"ping"}   {"id":4,"method":"shutdown"}
//! ```
//!
//! Talk to it from a shell with e.g.
//! `nc -U /tmp/oranges-campaign.sock` (unix) or `nc 127.0.0.1 7771`
//! (tcp).

use oranges_campaign::prelude::*;
use oranges_campaign::service::{
    CampaignService, RunOptions, ServiceClient, ServiceConfig, ServiceError,
};
use oranges_harness::transport::{AnyTransport, TcpTransport};
use std::path::PathBuf;

struct Options {
    listen: Option<Endpoint>,
    workers: usize,
    queue_cap: Option<usize>,
    cache: Option<PathBuf>,
    self_check: bool,
    concurrent_check: bool,
    fleet_check: bool,
    metrics_check: bool,
    admission_check: bool,
}

/// The long-running daemon's default endpoint: a well-known unix socket.
fn default_listen() -> Endpoint {
    Endpoint::Unix(std::env::temp_dir().join("oranges-campaign.sock"))
}

/// A private, collision-free endpoint for the check modes.
fn private_endpoint(tag: &str) -> Endpoint {
    Endpoint::Unix(std::env::temp_dir().join(format!("oranges-{tag}-{}.sock", std::process::id())))
}

fn parse_options() -> Options {
    let mut options = Options {
        listen: None,
        workers: 4,
        queue_cap: None,
        cache: None,
        self_check: false,
        concurrent_check: false,
        fleet_check: false,
        metrics_check: false,
        admission_check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--listen" => {
                let uri = value("--listen");
                options.listen = Some(
                    uri.parse()
                        .unwrap_or_else(|error| panic!("--listen: {error}")),
                );
            }
            "--socket" => options.listen = Some(Endpoint::Unix(PathBuf::from(value("--socket")))),
            "--workers" => options.workers = value("--workers").parse().expect("--workers N"),
            "--queue-cap" => {
                options.queue_cap = Some(value("--queue-cap").parse().expect("--queue-cap N"))
            }
            "--cache" => options.cache = Some(PathBuf::from(value("--cache"))),
            "--self-check" => options.self_check = true,
            "--concurrent-check" => options.concurrent_check = true,
            "--fleet-check" => options.fleet_check = true,
            "--metrics-check" => options.metrics_check = true,
            "--admission-check" => options.admission_check = true,
            other => panic!("unknown option {other}"),
        }
    }
    options
}

fn main() {
    let options = parse_options();
    if options.self_check {
        let endpoint = options
            .listen
            .unwrap_or_else(|| private_endpoint("self-check"));
        self_check(endpoint, options.workers);
        return;
    }
    if options.concurrent_check {
        let endpoint = options
            .listen
            .unwrap_or_else(|| private_endpoint("concurrent-check"));
        concurrent_check(endpoint, options.workers);
        return;
    }
    if options.fleet_check {
        fleet_check(options.workers);
        return;
    }
    if options.metrics_check {
        let endpoint = options
            .listen
            .unwrap_or_else(|| private_endpoint("metrics-check"));
        metrics_check(endpoint, options.workers);
        return;
    }
    if options.admission_check {
        let endpoint = options
            .listen
            .unwrap_or_else(|| private_endpoint("admission-check"));
        admission_check(endpoint);
        return;
    }

    let listen = options.listen.unwrap_or_else(default_listen);
    let mut config = ServiceConfig::new(listen).with_workers(options.workers);
    if let Some(cap) = options.queue_cap {
        config = config.with_queue_cap(cap);
    }
    if let Some(cache) = &options.cache {
        config = config.with_cache_path(cache);
    }
    let service = CampaignService::<AnyTransport>::bind(config).expect("bind service");
    println!(
        "oranges campaign service: listening on {} ({} workers, {} queue cap, {} cached units)",
        service.local_endpoint(),
        options.workers,
        options
            .queue_cap
            .map_or("unbounded".to_string(), |cap| cap.to_string()),
        service.cache().stats().entries,
    );
    println!("send {{\"id\":1,\"method\":\"shutdown\"}} to stop\n");
    let summary = service.serve().expect("serve");
    println!(
        "served {} connections / {} requests ({} runs, {} units streamed; \
         {} computed, {} cache hits, {} coalesced joins)",
        summary.connections,
        summary.requests,
        summary.runs,
        summary.units_streamed,
        summary.units_computed,
        summary.unit_cache_hits,
        summary.coalesced_joins,
    );
}

/// The CI concurrent-clients smoke: two simultaneous clients submit
/// *overlapping* specs to one daemon, and the engine must compute
/// each shared unit exactly once. The spec also lists a duplicated
/// kind, so at least one coalesced join is guaranteed regardless of
/// how the two clients' timing interleaves. Runs over whatever
/// transport the endpoint names.
fn concurrent_check(endpoint: Endpoint, workers: usize) {
    let service =
        CampaignService::<AnyTransport>::bind(ServiceConfig::new(endpoint).with_workers(workers))
            .expect("bind");
    let local = service.local_endpoint().clone();
    let daemon = std::thread::spawn(move || service.serve().expect("serve"));

    // Overlapping specs: both cover Fig3+Fig4 on M2/M3, and each
    // duplicates one kind (a deterministic within-request coalesce).
    let spec_a = CampaignSpec::new(
        vec![
            ExperimentKind::Fig3,
            ExperimentKind::Fig4,
            ExperimentKind::Fig4,
        ],
        vec![ChipGeneration::M2, ChipGeneration::M3],
    )
    .with_power_sizes(vec![2048, 4096]);
    let spec_b = CampaignSpec::new(
        vec![
            ExperimentKind::Fig4,
            ExperimentKind::Fig3,
            ExperimentKind::Fig3,
        ],
        vec![ChipGeneration::M2, ChipGeneration::M3],
    )
    .with_power_sizes(vec![2048, 4096]);

    let run_client = |spec: CampaignSpec| {
        let endpoint = local.clone();
        std::thread::spawn(move || {
            let mut client = ServiceClient::<AnyTransport>::connect(&endpoint).expect("connect");
            client.run(&spec).expect("run")
        })
    };
    let (client_a, client_b) = (run_client(spec_a.clone()), run_client(spec_b.clone()));
    let outcome_a = client_a.join().expect("client A");
    let outcome_b = client_b.join().expect("client B");

    // Value identity: each streamed report equals a local serial run.
    let serial_a = run_campaign_serial(&spec_a).expect("serial A");
    let serial_b = run_campaign_serial(&spec_b).expect("serial B");
    assert_eq!(outcome_a.fingerprint, serial_a.fingerprint(), "client A");
    assert_eq!(outcome_b.fingerprint, serial_b.fingerprint(), "client B");

    let mut client = ServiceClient::<AnyTransport>::connect(&local).expect("connect probe");
    let stats = client.stats().expect("stats");
    // Exactly-once: 4 distinct units across both specs (fig3/fig4 ×
    // M2/M3), no matter how the clients interleaved.
    assert_eq!(
        stats.summary.units_computed, 4,
        "each shared unit computed exactly once"
    );
    assert!(
        stats.summary.coalesced_joins > 0,
        "overlap must coalesce, not recompute"
    );
    assert_eq!(
        stats.summary.units_computed
            + stats.summary.unit_cache_hits
            + stats.summary.coalesced_joins,
        12,
        "every submitted unit accounted for"
    );
    println!(
        "concurrent-check [{local}]: 2 clients x 6 units -> {} computed, {} cache hits, \
         {} coalesced joins; both fingerprints match serial — OK",
        stats.summary.units_computed, stats.summary.unit_cache_hits, stats.summary.coalesced_joins,
    );
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
}

/// The CI smoke path: a real daemon on a private endpoint, a real client,
/// and hard assertions — start, submit, verify a `MetricSet` comes back,
/// verify the repeat is fully cached, shut down. `--listen
/// tcp:127.0.0.1:0` runs the same path over TCP.
fn self_check(endpoint: Endpoint, workers: usize) {
    let service =
        CampaignService::<AnyTransport>::bind(ServiceConfig::new(endpoint).with_workers(workers))
            .expect("bind");
    let local = service.local_endpoint().clone();
    let daemon = std::thread::spawn(move || service.serve().expect("serve"));

    let mut client = ServiceClient::<AnyTransport>::connect(&local).expect("connect");
    client.ping().expect("ping");

    let spec = CampaignSpec::new(
        vec![ExperimentKind::Fig4, ExperimentKind::Contention],
        vec![ChipGeneration::M1, ChipGeneration::M4],
    )
    .with_power_sizes(vec![2048]);

    let first = client.run(&spec).expect("first run");
    assert_eq!(first.units.len(), 4, "2 kinds x 2 chips");
    assert_eq!(first.computed_units, 4, "cold cache computes everything");
    let set = &first.units[0].output.sets[0];
    assert!(!set.metrics.is_empty(), "a MetricSet came back");
    assert!(
        set.provenance.chip.is_some(),
        "provenance survives the wire"
    );
    println!(
        "self-check [{local}]: first run computed {} units, e.g. {} metrics for {} [{}]",
        first.computed_units,
        set.metrics.len(),
        set.provenance.experiment,
        set.provenance.chip.as_deref().unwrap_or("?"),
    );

    let second = client.run(&spec).expect("second run");
    assert_eq!(
        second.computed_units, 0,
        "repeat is served from the warm cache"
    );
    assert_eq!(second.fingerprint, first.fingerprint, "value-identical");
    assert!(second.units.iter().all(|u| u.from_cache()));
    println!(
        "self-check: repeat served entirely from cache (fingerprint {})",
        second.fingerprint
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.summary.runs, 2);
    client.shutdown().expect("shutdown");
    let summary = daemon.join().expect("daemon thread");
    assert_eq!(summary.runs, 2);
    println!(
        "self-check: daemon shut down cleanly after {} requests — OK",
        summary.requests
    );
}

/// Strict-enough exposition parse: every non-comment line must be
/// `name{labels} value` (or `name value`) with a float-parseable value
/// and balanced, quote-escaped labels. Returns the sample count.
fn assert_exposition_parses(text: &str) -> usize {
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value separator in {line:?}"));
        assert!(
            value == "+Inf" || value == "-Inf" || value == "NaN" || value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
        let name = series.split('{').next().unwrap_or("");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "illegal metric name in {line:?}"
        );
        if let Some(open) = series.find('{') {
            assert!(series.ends_with('}'), "unterminated labels in {line:?}");
            let labels = &series[open + 1..series.len() - 1];
            // Quotes must balance after unescaping — the cheap proof
            // that label values were escaped correctly.
            let unescaped_quotes = labels
                .as_bytes()
                .iter()
                .enumerate()
                .filter(|(i, b)| **b == b'"' && (*i == 0 || labels.as_bytes()[i - 1] != b'\\'))
                .count();
            assert!(
                unescaped_quotes % 2 == 0,
                "unbalanced label quotes in {line:?}"
            );
        }
        samples += 1;
    }
    samples
}

/// The CI observability smoke: a daemon on any transport, a live
/// `subscribe` watcher, a small campaign, a `metrics` scrape that must
/// parse and carry per-experiment latency histograms, and `health`
/// probes bracketing the shutdown drain.
fn metrics_check(endpoint: Endpoint, workers: usize) {
    let service =
        CampaignService::<AnyTransport>::bind(ServiceConfig::new(endpoint).with_workers(workers))
            .expect("bind");
    let local = service.local_endpoint().clone();
    let daemon = std::thread::spawn(move || service.serve().expect("serve"));

    // Health before: live and ready, all workers up.
    let mut client = ServiceClient::<AnyTransport>::connect(&local).expect("connect");
    let health = client.health().expect("health");
    assert!(health.ready, "fresh daemon must be ready: {health:?}");
    assert_eq!(health.workers_alive, workers as u64);
    assert_eq!(health.endpoint, local.to_string());

    // Attach a live watcher before any work exists.
    let watcher_endpoint = local.clone();
    let watcher = std::thread::spawn(move || {
        let watcher_client =
            ServiceClient::<AnyTransport>::connect(&watcher_endpoint).expect("watcher connect");
        let mut events = Vec::new();
        watcher_client
            .subscribe(|event| {
                events.push(event.clone());
                true
            })
            .expect("subscribe stream");
        events
    });
    // Wait until the subscription is registered so no event outruns it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while client.stats().expect("stats").gauges.event_subscribers == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "subscriber never registered"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // A short-lived probe connection, opened while the watcher is
    // live, so connection open/close events are observed too.
    {
        let mut probe = ServiceClient::<AnyTransport>::connect(&local).expect("probe connect");
        probe.ping().expect("probe ping");
    }

    let spec = CampaignSpec::new(
        vec![ExperimentKind::Fig4, ExperimentKind::Contention],
        vec![ChipGeneration::M1, ChipGeneration::M3],
    )
    .with_power_sizes(vec![2048]);
    let outcome = client.run(&spec).expect("run");
    assert_eq!(outcome.units.len(), 4, "2 kinds x 2 chips");

    // Scrape and parse the exposition.
    let text = client.metrics().expect("metrics");
    let samples = assert_exposition_parses(&text);
    assert!(samples > 20, "suspiciously small exposition: {samples}");
    for needle in [
        "# TYPE oranges_unit_latency_seconds histogram",
        "oranges_unit_latency_seconds_bucket{experiment=\"fig4\",le=\"+Inf\"}",
        "oranges_unit_latency_seconds_count{experiment=\"fig4\"}",
        "# TYPE oranges_units_total counter",
        "oranges_units_total{source=\"computed\"} 4",
        "oranges_runs_total 1",
        "oranges_workers_alive",
        "oranges_events_dropped_total 0",
    ] {
        assert!(text.contains(needle), "metrics missing {needle:?}:\n{text}");
    }

    // One counter set: metrics and stats must agree.
    let stats = client.stats().expect("stats");
    assert!(text.contains(&format!(
        "oranges_units_submitted_total {}",
        stats.summary.units_submitted
    )));
    let health = client.health().expect("health mid-run");
    assert!(health.ready, "still ready after the run");

    client.shutdown().expect("shutdown");
    let summary = daemon.join().expect("daemon thread");
    assert_eq!(summary.units_failed, 0);

    // The watcher saw the whole lifecycle: every unit started and
    // completed exactly once, and the drain ended its stream cleanly.
    let events = watcher.join().expect("watcher thread");
    let count = |kind: &str| events.iter().filter(|e| e.kind.as_str() == kind).count();
    assert_eq!(count("unit_started"), 4, "events: {events:?}");
    assert_eq!(count("unit_completed"), 4);
    assert_eq!(count("unit_failed"), 0);
    assert!(count("connection_opened") >= 1);

    // Health after the drain: the endpoint is gone — connection refused
    // IS the supervisor's not-ready signal once the daemon exits.
    assert!(
        ServiceClient::<AnyTransport>::connect(&local).is_err(),
        "daemon still reachable after drain"
    );
    println!(
        "metrics-check [{local}]: {samples} samples scraped, {} events streamed \
         (4 started + 4 completed), health ready -> drained — OK",
        events.len(),
    );
}

/// The CI fleet smoke: two TCP loopback daemons stand in for two
/// measurement hosts; the fleet orchestrator shards one campaign
/// across them and the merged report must be value-identical to a
/// single-process run.
fn fleet_check(workers: usize) {
    let spec = CampaignSpec::new(
        vec![
            ExperimentKind::Fig3,
            ExperimentKind::Fig4,
            ExperimentKind::Contention,
        ],
        vec![ChipGeneration::M1, ChipGeneration::M4],
    )
    .with_power_sizes(vec![2048]);

    let mut endpoints = Vec::new();
    let mut daemons = Vec::new();
    for _ in 0..2 {
        let service = CampaignService::<TcpTransport>::bind(
            ServiceConfig::new("tcp:127.0.0.1:0".parse::<Endpoint>().expect("endpoint"))
                .with_workers(workers),
        )
        .expect("bind daemon");
        endpoints.push(service.local_endpoint().clone());
        daemons.push(std::thread::spawn(move || service.serve().expect("serve")));
    }

    let cache = ResultCache::new();
    let run = Orchestrator::fleet(endpoints.clone())
        .run(&spec, &cache)
        .expect("fleet run");
    let local = run_campaign(&spec, &ResultCache::new()).expect("local run");
    assert_eq!(
        run.report.fingerprint(),
        local.fingerprint(),
        "fleet == single-process"
    );
    assert_eq!(run.report.computed_units(), 0, "shards covered the plan");
    assert_eq!(
        run.merged.added,
        run.report.units.len(),
        "every unit remote"
    );

    // Both daemons did real shard work.
    for endpoint in &endpoints {
        let mut client = ServiceClient::<TcpTransport>::connect(endpoint).expect("probe");
        let stats = client.stats().expect("stats");
        assert!(stats.summary.units_computed > 0, "{endpoint} sat idle");
        client.shutdown().expect("shutdown");
    }
    for daemon in daemons {
        daemon.join().expect("daemon thread");
    }
    println!(
        "fleet-check: 2 TCP daemons ({}) -> merged fingerprint {} == single-process — OK",
        endpoints
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        run.report.fingerprint(),
    );
}

/// A second collision-free endpoint on the same transport scheme as
/// `like` — the admission check needs two daemons and CI invokes it
/// once per scheme.
fn sibling_endpoint(like: &Endpoint, tag: &str) -> Endpoint {
    match like {
        Endpoint::Unix(_) => Endpoint::Unix(
            std::env::temp_dir().join(format!("oranges-{tag}-{}.sock", std::process::id())),
        ),
        Endpoint::Tcp(_) => "tcp:127.0.0.1:0".parse().expect("static endpoint"),
    }
}

/// The CI admission-control smoke: the three traffic-shaping
/// behaviours proven end to end over a real transport.
///
/// 1. Fairness: a 1-worker daemon is saturated with batch-priority
///    bulk runs; a high-priority probe submitted into that backlog
///    must complete while batch work is still queued — weighted fair
///    queueing let it overtake, FIFO would have parked it at the tail.
/// 2. Cancellation: the bulk runs are cancelled by token from a
///    *different* connection; queued units are abandoned (freeing
///    their slots), the bulk clients see typed `cancelled` terminals,
///    and the engine's counter identity still balances at quiescence.
/// 3. Bounded admission: a daemon capped at 2 queue slots refuses a
///    4-fresh-unit run with a typed `busy` rejection — and then admits
///    a fitting 2-unit run on the same connection.
fn admission_check(endpoint: Endpoint) {
    const BULK_RUNS: usize = 6;
    let service =
        CampaignService::<AnyTransport>::bind(ServiceConfig::new(endpoint).with_workers(1))
            .expect("bind");
    let local = service.local_endpoint().clone();
    let daemon = std::thread::spawn(move || service.serve().expect("serve"));

    // Saturate: six bulk runs over everything, each with distinct size
    // overrides (so the size-sweep kinds stay distinct keys run to
    // run; the size-independent kinds coalesce, which needs no slots),
    // at batch priority, each registered under a cancellation token.
    let bulk_clients: Vec<_> = (0..BULK_RUNS)
        .map(|i| {
            let endpoint = local.clone();
            std::thread::spawn(move || {
                let spec = CampaignSpec::full()
                    .with_gemm_sizes(vec![192 + 64 * i])
                    .with_power_sizes(vec![2048 + i])
                    .with_verify_max_flops(0);
                let mut client =
                    ServiceClient::<AnyTransport>::connect(&endpoint).expect("bulk connect");
                client.run_with(
                    &spec,
                    &RunOptions::priority(Priority::Batch)
                        .with_token(format!("admission-bulk-{i}")),
                )
            })
        })
        .collect();

    // Wait for a real backlog before probing.
    let mut client = ServiceClient::<AnyTransport>::connect(&local).expect("connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let gauges = client.stats().expect("stats").gauges;
        if gauges.queue_batch >= 32 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "batch backlog never built up (queue_batch {})",
            gauges.queue_batch
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // The probe: one fresh high-priority unit (its power size is used
    // by no bulk run). Fair queueing must let it overtake the backlog.
    let probe_spec = CampaignSpec::new(vec![ExperimentKind::Fig4], vec![ChipGeneration::M1])
        .with_power_sizes(vec![1536]);
    let started = std::time::Instant::now();
    let probe = client
        .run_with(&probe_spec, &RunOptions::priority(Priority::High))
        .expect("high-priority probe");
    let latency = started.elapsed();
    assert_eq!(probe.units.len(), 1);
    assert_eq!(probe.computed_units, 1, "the probe key is fresh");
    assert!(
        latency < std::time::Duration::from_secs(10),
        "probe took {latency:?}"
    );
    let after = client.stats().expect("stats");
    assert!(
        after.gauges.queue_batch > 0,
        "the probe only proves fairness if batch work was still queued when it finished"
    );

    // Cancel every bulk run by token, from this third connection.
    let mut active_cancels = 0;
    let mut jobs_abandoned = 0;
    for i in 0..BULK_RUNS {
        let ack = client
            .cancel(&format!("admission-bulk-{i}"))
            .expect("cancel");
        if ack.active {
            active_cancels += 1;
        }
        jobs_abandoned += ack.jobs_abandoned;
    }
    assert!(active_cancels > 0, "no bulk run was still active");
    assert!(jobs_abandoned > 0, "cancellation abandoned no queued work");
    let mut typed_cancelled = 0;
    for handle in bulk_clients {
        match handle.join().expect("bulk thread") {
            Err(ServiceError::Cancelled(_)) => typed_cancelled += 1,
            Ok(_) => {} // finished before the cancel landed — fine
            Err(other) => panic!("bulk run failed unexpectedly: {other}"),
        }
    }
    assert!(
        typed_cancelled > 0,
        "no bulk client saw a typed cancelled terminal"
    );

    // Quiescence, then the counter identity: every submitted unit is
    // accounted for even after mass cancellation.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let stats = loop {
        let stats = client.stats().expect("stats");
        if stats.gauges.queue_depth == 0 && stats.gauges.units_inflight == 0 {
            break stats;
        }
        assert!(std::time::Instant::now() < deadline, "engine never drained");
        std::thread::sleep(std::time::Duration::from_millis(2));
    };
    let s = &stats.summary;
    assert_eq!(
        s.units_submitted,
        s.units_computed
            + s.unit_cache_hits
            + s.coalesced_joins
            + s.units_failed
            + s.units_cancelled,
        "counter identity after mass cancellation"
    );
    assert!(s.units_cancelled > 0, "abandoned units must be counted");
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    println!(
        "admission-check [{local}]: high-priority probe overtook {} queued batch units \
         in {latency:?}; cancel abandoned {jobs_abandoned} queued units \
         ({typed_cancelled} typed cancelled terminals) — OK",
        after.gauges.queue_batch,
    );

    // Bounded admission: a capped daemon refuses an oversized run
    // outright — value-identical to never having seen it — and admits
    // a fitting one.
    let capped = CampaignService::<AnyTransport>::bind(
        ServiceConfig::new(sibling_endpoint(&local, "admission-busy"))
            .with_workers(1)
            .with_queue_cap(2),
    )
    .expect("bind capped");
    let capped_local = capped.local_endpoint().clone();
    let capped_daemon = std::thread::spawn(move || capped.serve().expect("serve"));
    let mut client = ServiceClient::<AnyTransport>::connect(&capped_local).expect("connect");
    let oversized = CampaignSpec::new(
        vec![ExperimentKind::Fig4, ExperimentKind::Contention],
        vec![ChipGeneration::M1, ChipGeneration::M4],
    )
    .with_power_sizes(vec![2048]);
    match client.run(&oversized) {
        Err(ServiceError::Busy { queued, cap }) => {
            assert_eq!(queued, 0, "the daemon was idle");
            assert_eq!(cap, 2);
        }
        Ok(_) => panic!("4 fresh units must not fit a cap of 2"),
        Err(other) => panic!("expected a typed busy rejection, got: {other}"),
    }
    let fitting = CampaignSpec::new(
        vec![ExperimentKind::Fig4],
        vec![ChipGeneration::M1, ChipGeneration::M4],
    )
    .with_power_sizes(vec![2048]);
    let outcome = client.run(&fitting).expect("fitting run");
    assert_eq!(outcome.units.len(), 2, "1 kind x 2 chips fits the cap");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.summary.submissions_rejected, 1);
    assert_eq!(stats.summary.units_computed, 2);
    client.shutdown().expect("shutdown");
    capped_daemon.join().expect("capped daemon");
    println!(
        "admission-check [{capped_local}]: cap 2 refused 4 fresh units with a typed busy \
         rejection, then admitted 2 — OK"
    );
}
