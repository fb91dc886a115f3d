//! The traced replay: each generated request re-run in-process through
//! the public calls the daemon makes for a `run`, one span per call.
//!
//! `Request::from_line` → `CampaignSpec::from_json_value` →
//! `Plan::expand` → `ResultCache::get` per unit →
//! `ExecutionEngine::submit_with` (same worker count, priority and
//! cache state) → per unit `json::parse` of the output and
//! `Response::to_line` of the unit body → `FrameBuffer` over the
//! response bytes. Those spans are the request's blocking path.
//! Off that path, every computed output is also inserted into a shadow
//! `ResultCache` to time `ResultCache::insert`, which the engine calls
//! on its worker threads.

use crate::gen::GenRequest;
use crate::trace::Recorder;
use oranges_campaign::{
    CampaignReport, CampaignSpec, ExecutionEngine, Plan, Priority, ResultCache, SubmitOptions,
    UnitReport, UnitSource,
};
use oranges_gemm::gemm_flops;
use oranges_harness::envelope::{Request, Response};
use oranges_harness::json::{self, JsonValue};
use oranges_harness::reactor::FrameBuffer;
use std::time::{Duration, Instant};

/// Span names on a replayed request's blocking path, in call order.
pub const BLOCKING_PATH: [&str; 8] = [
    "envelope.request_parse",
    "spec.parse",
    "plan.expand",
    "cache.lookup",
    "engine.run",
    "json.unit_parse",
    "json.unit_emit",
    "reactor.frame",
];

/// One unit as the replay saw it delivered.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// Experiment id (`"fig1"`…).
    pub experiment: String,
    /// How the engine satisfied it.
    pub source: UnitSource,
    /// Worker wall time charged for it.
    pub wall: Duration,
    /// Submit-to-delivery time minus `wall`.
    pub queue_wait: Duration,
    /// Verified Fig. 2 cells' operation count, GFLOP (Fig. 2 only).
    pub verify_gflop: Option<f64>,
}

/// What replaying one request measured.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The request's id.
    pub request: u64,
    /// Scheduling class it was submitted under.
    pub priority: Priority,
    /// Fingerprint of the replayed campaign (`None` if a unit failed).
    pub fingerprint: Option<String>,
    /// Units delivered, in plan order.
    pub units: Vec<Delivered>,
    /// `ResultCache::get` calls made and hits among them.
    pub lookups: usize,
    /// Hits among `lookups`.
    pub hits: usize,
    /// Request line plus unit lines, in bytes.
    pub bytes: u64,
    /// Wall time from submit to the last delivery.
    pub engine_wall: Duration,
}

/// Replay one generated request at `priority` against `engine` and
/// `cache`.
pub fn replay(
    generated: &GenRequest,
    priority: Priority,
    engine: &ExecutionEngine,
    cache: &ResultCache,
    shadow: &ResultCache,
    rec: &mut Recorder,
) -> Result<Replayed, String> {
    let id = generated.id;
    let line = generated.line.as_str();
    let root = rec.open("replay.request", id, None);
    let parent = Some(root.id());
    let request = rec
        .time("envelope.request_parse", id, parent, || {
            Request::from_line(line)
        })
        .map_err(|e| format!("request line: {e}"))?;
    if request.id != id {
        return Err(format!("line carries id {} for request {id}", request.id));
    }
    let body = request.body.ok_or("run request without body")?;
    let spec = rec
        .time("spec.parse", id, parent, || {
            CampaignSpec::from_json_value(&body)
        })
        .map_err(|e| format!("spec: {e}"))?;
    let plan = rec.time("plan.expand", id, parent, || Plan::expand(&spec));
    let hits = rec.time("cache.lookup", id, parent, || {
        plan.units
            .iter()
            .filter(|unit| cache.get(&unit.key).is_some())
            .count()
    });

    let engine_span = rec.open("engine.run", id, parent);
    let submitted = Instant::now();
    let subscription = engine
        .submit_with(&plan.units, cache, SubmitOptions::priority(priority))
        .map_err(|e| format!("admission: {e:?}"))?;
    let mut slots: Vec<Option<(UnitReport, Duration)>> = vec![None; plan.len()];
    let mut failed_units = 0;
    for _ in 0..subscription.expected() {
        let Some(delivery) = subscription.recv() else {
            break;
        };
        let at = submitted.elapsed();
        match delivery.outcome {
            Ok(outcome) => {
                let unit = &plan.units[delivery.index];
                slots[delivery.index] = Some((
                    UnitReport {
                        index: unit.index,
                        key: unit.key.clone(),
                        source: outcome.source,
                        wall: outcome.wall,
                        output: outcome.output,
                    },
                    at.saturating_sub(outcome.wall),
                ));
            }
            Err(_) => failed_units += 1,
        }
    }
    let engine_wall = submitted.elapsed();
    rec.close(engine_span);

    let mut bytes = line.len() as u64;
    let mut response = Vec::new();
    let mut units = Vec::with_capacity(plan.len());
    let mut reports = Vec::with_capacity(plan.len());
    for (report, queue_wait) in slots.into_iter().flatten() {
        let sets = rec
            .time("json.unit_parse", id, parent, || {
                json::parse(&report.output.json)
            })
            .map_err(|e| format!("unit JSON: {e}"))?;
        let unit_line = rec.time("json.unit_emit", id, parent, || {
            Response::ok(id, "unit")
                .with_body(unit_body(&report, sets))
                .to_line()
        });
        bytes += unit_line.len() as u64;
        response.extend_from_slice(unit_line.as_bytes());
        units.push(Delivered {
            experiment: report.key.id.clone(),
            source: report.source,
            wall: report.wall,
            queue_wait,
            verify_gflop: (report.key.id == "fig2").then(|| verify_gflop(&report)),
        });
        reports.push(report);
    }
    let framed = rec.time("reactor.frame", id, parent, || {
        let mut frame = FrameBuffer::new();
        frame.extend(&response);
        let mut lines = 0;
        while let Ok(Some(_)) = frame.next_line() {
            lines += 1;
        }
        lines
    });
    if framed != units.len() {
        return Err(format!("framed {framed} lines for {} units", units.len()));
    }

    for report in reports.iter().filter(|r| r.source == UnitSource::Computed) {
        let output = (*report.output).clone();
        let key = report.key.clone();
        rec.time("cache.insert", id, parent, || shadow.insert(key, output));
    }
    rec.close(root);

    let fingerprint = (failed_units == 0 && reports.len() == plan.len()).then(|| {
        CampaignReport::new(reports, engine.workers(), engine_wall, cache.stats()).fingerprint()
    });
    Ok(Replayed {
        request: id,
        priority,
        fingerprint,
        units,
        lookups: plan.len(),
        hits,
        bytes,
        engine_wall,
    })
}

/// The `unit` response body the daemon builds for a delivered unit.
fn unit_body(unit: &UnitReport, sets: JsonValue) -> JsonValue {
    let mut fields = vec![
        ("index".to_string(), JsonValue::integer(unit.index as u64)),
        ("id".to_string(), JsonValue::String(unit.key.id.clone())),
        (
            "params".to_string(),
            JsonValue::String(unit.key.params.clone()),
        ),
        (
            "source".to_string(),
            JsonValue::String(unit.source.as_str().to_string()),
        ),
        ("from_cache".to_string(), JsonValue::Bool(unit.from_cache())),
    ];
    if let Some(wall) = unit.output.wall_time_s() {
        fields.push(("wall_time_s".to_string(), JsonValue::number(wall)));
    }
    if let Some(rendered) = &unit.output.rendered {
        fields.push(("rendered".to_string(), JsonValue::String(rendered.clone())));
    }
    fields.push(("sets".to_string(), sets));
    JsonValue::Object(fields)
}

/// Operation count of a Fig. 2 unit's functionally verified cells.
pub fn verify_gflop(unit: &UnitReport) -> f64 {
    unit.output
        .sets
        .iter()
        .filter(|set| set.get("verified").is_some())
        .filter_map(|set| set.n)
        .map(|n| gemm_flops(n) as f64 / 1e9)
        .sum()
}
