//! Campaign-level adapters over the unit-granular [`ExecutionEngine`].
//!
//! The engine schedules *units*; campaigns are just batches of them.
//! Both entry points here expand a spec to its plan, submit every unit
//! under one subscription, and assemble the deliveries back into
//! deterministic plan order:
//!
//! - [`run_campaign`] — spins up a private engine for the call (the
//!   one-shot CLI shape: threads live exactly as long as the campaign);
//! - [`WorkerPool`] — keeps one engine alive across calls (the service
//!   shape: warm platform pools, and *concurrent* `run`s coalesce
//!   overlapping units instead of computing them twice).
//!
//! Because each unit is deterministic and assembly sorts by plan index,
//! a concurrent campaign is value-identical to a serial one — the same
//! property the pre-engine scheduler had, now inherited from a core
//! that also dedupes across campaigns.

use crate::cache::ResultCache;
use crate::engine::{ExecutionEngine, Subscription};
use crate::plan::{Plan, UnitKey};
use crate::report::{CampaignReport, UnitReport};
use crate::spec::{CampaignSpec, SpecParseError};
use oranges::experiments::ExperimentError;
use std::fmt;
use std::sync::mpsc::TryRecvError;
use std::time::Instant;

/// Campaign failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The spec did not describe a runnable campaign (e.g. a degenerate
    /// shard assignment patched directly into the struct).
    Spec(SpecParseError),
    /// A unit's experiment failed.
    Unit {
        /// Which unit.
        key: UnitKey,
        /// Its error.
        error: ExperimentError,
    },
    /// A unit's experiment *panicked*. The engine catches the unwind —
    /// only the subscriptions waiting on this unit fail, the engine and
    /// its workers keep serving.
    UnitPanicked {
        /// Which unit.
        key: UnitKey,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The engine itself misbehaved (shut down mid-campaign).
    Worker(String),
    /// The unit's subscription was cancelled (explicitly or by
    /// dropping it) before this unit ran. Coalesced siblings of the
    /// same unit are unaffected.
    Cancelled {
        /// Which unit.
        key: UnitKey,
    },
    /// The subscription's deadline expired before this unit resolved.
    /// If the computation was already running it still completes into
    /// the cache — only this delivery fails.
    DeadlineExceeded {
        /// Which unit.
        key: UnitKey,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(e) => write!(f, "campaign spec: {e}"),
            CampaignError::Unit { key, error } => write!(f, "unit {key} failed: {error}"),
            CampaignError::UnitPanicked { key, message } => {
                write!(f, "unit {key} panicked: {message}")
            }
            CampaignError::Worker(msg) => write!(f, "worker failure: {msg}"),
            CampaignError::Cancelled { key } => {
                write!(f, "unit {key} cancelled before it ran")
            }
            CampaignError::DeadlineExceeded { key } => {
                write!(f, "unit {key} missed its submission deadline")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<SpecParseError> for CampaignError {
    fn from(e: SpecParseError) -> Self {
        CampaignError::Spec(e)
    }
}

/// Expand a spec into its (possibly sharded) plan — the one expansion
/// path every entry point (CLI adapters and the service) goes through.
pub(crate) fn expand_plan(spec: &CampaignSpec) -> Result<Plan, CampaignError> {
    let plan = Plan::expand(spec);
    match spec.shard {
        Some((index, count)) => Ok(plan.shard(index, count)?),
        None => Ok(plan),
    }
}

/// What one [`Assembly::next`] step saw.
pub(crate) enum Next<'a> {
    /// A unit succeeded; its report is already in its plan slot.
    Unit(&'a UnitReport),
    /// A unit failed, or the engine shut down; the error is recorded.
    Failed,
    /// Nothing is queued yet (non-blocking steps only).
    Pending,
    /// Every delivery is in: call [`Assembly::finish`].
    Complete,
}

/// One run's deliveries, assembled back into plan order: the one home of
/// the result rule. Every unit is awaited (siblings of a failing unit
/// still land in the cache), the earliest plan index's error wins, and a
/// shut-down engine or a never-reported unit is a worker error. The
/// blocking adapters [`wait`](Assembly::wait) on it; the service's
/// reactor steps it with `next(false)` on each delivery wakeup.
pub(crate) struct Assembly {
    plan: Plan,
    subscription: Subscription,
    slots: Vec<Option<UnitReport>>,
    first_error: Option<(usize, CampaignError)>,
    received: usize,
    started: Instant,
}

impl Assembly {
    pub(crate) fn new(plan: Plan, subscription: Subscription, started: Instant) -> Self {
        Assembly {
            slots: (0..plan.len()).map(|_| None).collect(),
            plan,
            subscription,
            first_error: None,
            received: 0,
            started,
        }
    }

    /// Take the next delivery; `block` waits for one, otherwise an
    /// empty channel is [`Next::Pending`].
    pub(crate) fn next(&mut self, block: bool) -> Next<'_> {
        let expected = self.subscription.expected();
        if self.received == expected {
            return Next::Complete;
        }
        let delivery = if block {
            self.subscription.recv().ok_or(TryRecvError::Disconnected)
        } else {
            self.subscription.try_recv()
        };
        let delivery = match delivery {
            Ok(delivery) => delivery,
            Err(TryRecvError::Empty) => return Next::Pending,
            Err(TryRecvError::Disconnected) => {
                // Deliveries are missing and no sender is left: the
                // engine shut down underneath us, and nothing more comes.
                self.received = expected;
                self.first_error = Some((
                    0,
                    CampaignError::Worker("engine shut down mid-campaign".to_string()),
                ));
                return Next::Failed;
            }
        };
        self.received += 1;
        match delivery.outcome {
            Ok(outcome) => {
                let unit = &self.plan.units[delivery.index];
                Next::Unit(self.slots[delivery.index].insert(UnitReport {
                    index: unit.index,
                    key: unit.key.clone(),
                    source: outcome.source,
                    wall: outcome.wall,
                    output: outcome.output,
                }))
            }
            Err(error) => {
                let first = self.first_error.as_ref();
                if first.is_none_or(|(index, _)| delivery.index < *index) {
                    self.first_error = Some((delivery.index, error));
                }
                Next::Failed
            }
        }
    }

    /// Block through every delivery, then [`finish`](Self::finish).
    fn wait(
        mut self,
        workers: usize,
        cache: &ResultCache,
    ) -> Result<CampaignReport, CampaignError> {
        while !matches!(self.next(true), Next::Complete) {}
        self.finish(workers, cache)
    }

    /// Apply the result rule to the assembled deliveries; `workers` is
    /// clamped to the plan size for the report.
    pub(crate) fn finish(
        self,
        workers: usize,
        cache: &ResultCache,
    ) -> Result<CampaignReport, CampaignError> {
        if let Some((_, error)) = self.first_error {
            return Err(error);
        }
        let mut units = Vec::with_capacity(self.plan.len());
        for (unit, slot) in self.plan.units.iter().zip(self.slots) {
            units.push(slot.ok_or_else(|| {
                CampaignError::Worker(format!("unit {} never reported", unit.key))
            })?);
        }
        Ok(CampaignReport::new(
            units,
            workers.clamp(1, self.plan.len().max(1)),
            self.started.elapsed(),
            cache.stats(),
        ))
    }
}

/// Run a campaign on a private, call-scoped engine. The cache persists
/// across calls: pass the same instance again and an identical spec
/// re-run is served entirely from it.
pub fn run_campaign(
    spec: &CampaignSpec,
    cache: &ResultCache,
) -> Result<CampaignReport, CampaignError> {
    let plan = expand_plan(spec)?;
    let workers = spec.workers.clamp(1, plan.len().max(1));
    let started = Instant::now();
    let engine = ExecutionEngine::new(workers);
    let subscription = engine.submit(&plan.units, cache);
    Assembly::new(plan, subscription, started).wait(workers, cache)
}

/// The serial baseline: the same plan, one worker, a private throwaway
/// cache (every unit computes). Concurrent campaigns are asserted
/// value-identical to this.
pub fn run_campaign_serial(spec: &CampaignSpec) -> Result<CampaignReport, CampaignError> {
    let serial_spec = spec.clone().with_workers(1);
    run_campaign(&serial_spec, &ResultCache::new())
}

/// A *persistent* campaign runner: one long-lived
/// [`ExecutionEngine`] that successive — and *concurrent* — campaigns
/// re-enter without paying thread spawn or platform construction again.
///
/// [`run_campaign`] builds an engine per call — right for a one-shot CLI
/// run. A long-running process (the campaign service) instead keeps one
/// `WorkerPool` alive and pushes every incoming spec through it: the
/// workers' platform state stays warm across requests, and because all
/// submissions share the engine's in-flight table, two overlapping
/// campaigns against the same [`ResultCache`] compute each shared unit
/// exactly once (the later one coalesces). The pool is `Sync`: `run`
/// takes `&self` and any number of threads may call it at once, each
/// getting its own subscription.
///
/// Dropping the pool shuts the engine's threads down.
pub struct WorkerPool {
    engine: ExecutionEngine,
}

impl WorkerPool {
    /// Spawn `workers` (≥ 1 enforced) persistent engine threads.
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            engine: ExecutionEngine::new(workers),
        }
    }

    /// Number of persistent threads.
    pub fn workers(&self) -> usize {
        self.engine.workers()
    }

    /// The underlying engine (e.g. to read its dedupe/coalesce
    /// counters).
    pub fn engine(&self) -> &ExecutionEngine {
        &self.engine
    }

    /// Run one campaign through the shared engine. Semantically
    /// identical to [`run_campaign`] (same plan expansion, sharding,
    /// cache protocol, deterministic assembly, earliest-failure error) —
    /// only the engine lifetime differs. `spec.workers` is ignored; the
    /// pool's own size governs parallelism.
    pub fn run(
        &self,
        spec: &CampaignSpec,
        cache: &ResultCache,
    ) -> Result<CampaignReport, CampaignError> {
        let plan = expand_plan(spec)?;
        let started = Instant::now();
        let subscription = self.engine.submit(&plan.units, cache);
        Assembly::new(plan, subscription, started).wait(self.engine.workers(), cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{unit_of, PanickingExperiment};
    use crate::spec::ExperimentKind;
    use oranges_soc::chip::ChipGeneration;
    use std::sync::Arc;
    use std::time::Duration;

    fn tiny_spec(workers: usize) -> CampaignSpec {
        CampaignSpec::new(
            vec![ExperimentKind::Fig4, ExperimentKind::Contention],
            vec![ChipGeneration::M1, ChipGeneration::M3],
        )
        .with_power_sizes(vec![2048])
        .with_workers(workers)
    }

    #[test]
    fn both_drivers_report_the_earliest_plan_index_error() {
        // Four units; plan indices 1 and 3 panic under distinct keys.
        let mut plan = Plan::expand(&tiny_spec(2));
        plan.units[1] = unit_of(1, Arc::new(PanickingExperiment("one")));
        plan.units[3] = unit_of(3, Arc::new(PanickingExperiment("three")));
        let assembly = || {
            let (engine, cache) = (ExecutionEngine::new(2), ResultCache::new());
            let subscription = engine.submit(&plan.units, &cache);
            (
                Assembly::new(plan.clone(), subscription, Instant::now()),
                cache,
                engine,
            )
        };
        let expect_index_1 = |result: Result<CampaignReport, CampaignError>| match result {
            Err(CampaignError::UnitPanicked { key, .. }) => assert_eq!(key, plan.units[1].key),
            other => panic!("expected index 1's panic, got {other:?}"),
        };

        // Blocking: the in-process adapters' driver.
        let (blocking, cache, _engine) = assembly();
        expect_index_1(blocking.wait(2, &cache));

        // Non-blocking: the reactor's driver, yielding while idle.
        let (mut stepped, cache, _engine) = assembly();
        let mut units = 0;
        loop {
            match stepped.next(false) {
                Next::Unit(_) => units += 1,
                Next::Failed => {}
                Next::Pending => std::thread::yield_now(),
                Next::Complete => break,
            }
        }
        assert_eq!(units, 2, "the healthy siblings still deliver");
        expect_index_1(stepped.finish(2, &cache));
    }

    #[test]
    fn inline_and_pooled_runs_agree() {
        let serial = run_campaign_serial(&tiny_spec(1)).unwrap();
        let pooled = run_campaign(&tiny_spec(3), &ResultCache::new()).unwrap();
        assert_eq!(serial.digest(), pooled.digest());
        assert_eq!(serial.units.len(), 4);
        assert_eq!(pooled.workers, 3);
    }

    #[test]
    fn rerun_is_fully_cached() {
        let cache = ResultCache::new();
        let first = run_campaign(&tiny_spec(2), &cache).unwrap();
        assert!(first.units.iter().all(|u| !u.from_cache()));
        let second = run_campaign(&tiny_spec(2), &cache).unwrap();
        assert!(second.units.iter().all(|u| u.from_cache()));
        assert_eq!(first.digest(), second.digest());
        assert_eq!(second.cache.hit_rate(), 0.5, "4 misses then 4 hits");
    }

    #[test]
    fn duplicate_units_coalesce_within_one_campaign() {
        let cache = ResultCache::new();
        let spec = CampaignSpec::new(
            vec![ExperimentKind::Fig4, ExperimentKind::Fig4],
            vec![ChipGeneration::M2],
        )
        .with_power_sizes(vec![2048])
        .with_workers(1);
        let report = run_campaign(&spec, &cache).unwrap();
        assert_eq!(report.units.len(), 2);
        assert!(!report.units[0].from_cache());
        assert!(report.units[1].from_cache(), "second occurrence coalesced");
        assert_eq!(report.units[0].output.json, report.units[1].output.json);
        assert_eq!(report.computed_units(), 1);
        assert_eq!(report.coalesced_units(), 1);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn worker_count_exceeding_plan_is_clamped() {
        let report = run_campaign(&tiny_spec(64), &ResultCache::new()).unwrap();
        assert_eq!(report.workers, 4, "clamped to the 4 plan units");
    }

    #[test]
    fn computed_units_carry_wall_time_everywhere() {
        let cache = ResultCache::new();
        let report = run_campaign(&tiny_spec(2), &cache).unwrap();
        for unit in &report.units {
            assert!(unit.wall > Duration::ZERO, "{}", unit.key);
            let compute = unit.output.wall_time_s().expect("stamped at compute time");
            assert!(compute > 0.0, "{}", unit.key);
            assert!(unit
                .output
                .sets
                .iter()
                .all(|s| s.provenance.wall_time_s == Some(compute)));
        }
        // Cache hits keep the original compute wall in provenance.
        let rerun = run_campaign(&tiny_spec(2), &cache).unwrap();
        for (unit, original) in rerun.units.iter().zip(&report.units) {
            assert!(unit.from_cache());
            assert_eq!(unit.output.wall_time_s(), original.output.wall_time_s());
        }
    }

    #[test]
    fn persistent_pool_matches_scoped_scheduler_and_reenters_warm() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let cache = ResultCache::new();
        let first = pool.run(&tiny_spec(3), &cache).unwrap();
        let scoped = run_campaign(&tiny_spec(3), &ResultCache::new()).unwrap();
        assert_eq!(first.digest(), scoped.digest(), "same values either way");
        assert!(first.units.iter().all(|u| !u.from_cache()));

        // Re-entry over the warm cache: zero computed units.
        let second = pool.run(&tiny_spec(3), &cache).unwrap();
        assert!(second.units.iter().all(|u| u.from_cache()));
        assert_eq!(second.computed_units(), 0);
        assert_eq!(second.fingerprint(), first.fingerprint());

        // A different spec re-enters the same threads.
        let sharded = tiny_spec(3).with_shard(0, 2).expect("valid shard");
        let other = pool.run(&sharded, &cache).unwrap();
        assert_eq!(other.units.len(), 2);
        assert_eq!(
            pool.engine().stats().units_computed,
            4,
            "nothing recomputed"
        );
        drop(pool); // joins cleanly
    }

    #[test]
    fn pool_shuts_down_even_when_never_used() {
        let pool = WorkerPool::new(4);
        drop(pool);
    }

    #[test]
    fn a_degenerate_shard_patched_into_the_spec_is_a_typed_error() {
        // `with_shard` rejects this at build time; patching the field
        // directly must surface the same typed error, not a panic.
        let mut spec = tiny_spec(1);
        spec.shard = Some((9, 2));
        match run_campaign(&spec, &ResultCache::new()) {
            Err(CampaignError::Spec(error)) => {
                assert!(error.to_string().contains("out of range"), "{error}")
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn sharded_specs_run_their_subset_only() {
        let whole = run_campaign(&tiny_spec(1), &ResultCache::new()).unwrap();
        let mut union: Vec<String> = Vec::new();
        for index in 0..2 {
            let spec = tiny_spec(1).with_shard(index, 2).expect("valid shard");
            let shard = run_campaign(&spec, &ResultCache::new()).unwrap();
            assert_eq!(shard.units.len(), 2, "4 units split 2/2");
            union.extend(shard.units.iter().map(|u| u.key.to_string()));
        }
        let mut expected: Vec<String> = whole.units.iter().map(|u| u.key.to_string()).collect();
        union.sort();
        expected.sort();
        assert_eq!(union, expected);
    }
}
