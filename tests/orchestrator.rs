//! Local-mode orchestration integration: real child processes (the
//! `campaign_worker` binary) serving as campaign daemons, one shared
//! cache, and the acceptance property — an orchestrated N-process
//! campaign is value-identical to a single-process run, and shard
//! conflicts fail loudly.

use oranges_campaign::cache::{CacheMergeError, MergeStats};
use oranges_campaign::prelude::*;
use oranges_campaign::{ExperimentOutput, OrchestrateError, Plan, UnitKey};
use std::path::PathBuf;

/// The worker binary cargo builds alongside these tests.
fn worker_program() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_campaign_worker"))
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oranges-orch-{}-{name}", std::process::id()))
}

fn grid_spec() -> CampaignSpec {
    // 3 kinds x 2 chips + 1 chip-independent = 7 units, so 4 processes
    // get uneven shards (3/2/1/1) — the merge must still cover exactly.
    CampaignSpec::new(
        vec![
            ExperimentKind::Fig4,
            ExperimentKind::Contention,
            ExperimentKind::Tables,
            ExperimentKind::MixedPrecision,
        ],
        vec![ChipGeneration::M1, ChipGeneration::M4],
    )
    .with_power_sizes(vec![2048])
    .with_workers(2)
}

/// A forged output under `key`: what a corrupt file or a stale-model
/// shard would carry — a value no honest run computes.
fn forged_output(key: &UnitKey) -> ExperimentOutput {
    ExperimentOutput::from_sets(
        vec![MetricSet::for_chip("fig4", &key.params, "M1").metric(
            "gflops_per_watt",
            9999.0,
            "GFLOPS/W",
        )],
        None,
    )
    .expect("serializable forgery")
}

#[test]
fn four_process_campaign_is_value_identical_to_single_process() {
    let single = run_campaign(&grid_spec(), &ResultCache::new()).expect("single-process run");

    let cache = ResultCache::new();
    let run = Orchestrator::new(worker_program(), 4)
        .run(&grid_spec(), &cache)
        .expect("orchestrated run");

    assert_eq!(run.processes, 4);
    assert_eq!(run.report.units.len(), single.units.len());
    // The acceptance property: same digests, unit for unit.
    assert_eq!(run.report.digest(), single.digest());
    assert_eq!(run.report.fingerprint(), single.fingerprint());
    // The shards covered the whole plan, so assembly computed nothing.
    assert_eq!(run.report.computed_units(), 0);
    assert!(run.report.units.iter().all(|u| u.from_cache()));
    // Every distinct unit arrived from exactly one shard.
    assert_eq!(run.merged.added, 7);
    assert_eq!(run.merged.identical, 0);
}

#[test]
fn orchestrator_warm_starts_children_from_the_shared_cache() {
    // Seed the shared cache with a forged sentinel for one unit. A child
    // that warm-started from it serves the sentinel back, which merges
    // as identical; a child that did not would compute the honest value
    // and the merge would fail with a `RemoteConflict`.
    let key = Plan::expand(&grid_spec()).units[0].key.clone();
    let cache = ResultCache::new();
    let sentinel = cache.insert(key.clone(), forged_output(&key));

    let run = Orchestrator::new(worker_program(), 2)
        .run(&grid_spec(), &cache)
        .expect("warm-started children agree with the shared cache");
    assert_eq!(run.report.units[0].key, key);
    assert_eq!(run.report.units[0].output.json, sentinel.json);
    assert_eq!(
        run.merged,
        MergeStats {
            added: 6,
            identical: 1,
            stale: 0
        }
    );
}

#[test]
fn orchestrated_cache_file_round_trips_to_a_fully_warm_rerun() {
    let cache_file = temp_path("shared.json");
    std::fs::remove_file(&cache_file).ok();

    let cache = ResultCache::new();
    let run = Orchestrator::new(worker_program(), 3)
        .run(&grid_spec(), &cache)
        .expect("orchestrated run");
    cache.save(&cache_file).expect("persist the merged cache");

    // A later process loads the one shared cache file and recomputes
    // nothing — multi-process warmth survives on disk.
    let warm = ResultCache::load(&cache_file).expect("load shared cache");
    let rerun = run_campaign(&grid_spec(), &warm).expect("warm rerun");
    assert_eq!(rerun.computed_units(), 0);
    assert_eq!(rerun.fingerprint(), run.report.fingerprint());
    std::fs::remove_file(&cache_file).ok();
}

#[test]
fn shard_digest_mismatches_fail_the_merge_loudly() {
    // Two caches that disagree on the same key: one honest run, and one
    // carrying a forged output under the honest unit's key. Both
    // round-trip through disk, as a warm-start file or a saved merged
    // cache does.
    let spec = CampaignSpec::new(vec![ExperimentKind::Fig4], vec![ChipGeneration::M1])
        .with_power_sizes(vec![2048])
        .with_workers(1);
    let honest = ResultCache::new();
    run_campaign(&spec, &honest).expect("honest shard");

    let disputed_key = Plan::expand(&spec).units[0].key.clone();
    let forged = ResultCache::new();
    forged.insert(disputed_key.clone(), forged_output(&disputed_key));

    let (honest_file, forged_file) = (temp_path("honest.json"), temp_path("forged.json"));
    honest.save(&honest_file).expect("save honest");
    forged.save(&forged_file).expect("save forged");

    // The merge — the orchestrator's join step — is where the
    // disagreement must be caught.
    let destination = ResultCache::new();
    destination
        .merge_from(&ResultCache::load(&honest_file).expect("load honest"))
        .expect("first shard merges");
    let error = destination
        .merge_from(&ResultCache::load(&forged_file).expect("load forged"))
        .expect_err("digest mismatch must fail loudly");
    let CacheMergeError::Conflict { key, .. } = &error;
    assert_eq!(key, &disputed_key);
    assert!(error.to_string().contains("merge conflict"));
    // And nothing half-merged: the destination still holds the honest value.
    assert_eq!(
        destination.get(&disputed_key).expect("honest entry").json,
        honest.get(&disputed_key).expect("honest entry").json
    );

    std::fs::remove_file(&honest_file).ok();
    std::fs::remove_file(&forged_file).ok();
}

#[test]
fn dead_workers_surface_their_stderr() {
    // Point the orchestrator at a program that is not a worker: this
    // test binary rejects the worker flags and exits before printing a
    // readiness line, and the orchestrator reports it.
    let program = std::env::current_exe().expect("test binary path");
    let error = Orchestrator::new(program, 2)
        .run(&grid_spec(), &ResultCache::new())
        .expect_err("broken workers must fail the campaign");
    match error {
        OrchestrateError::Worker {
            shard,
            status,
            stderr,
        } => {
            assert_eq!(shard, 0, "earliest shard reported first");
            assert!(status.is_some(), "the child exited on its own");
            assert!(stderr.contains("campaign-worker"), "stderr: {stderr}");
        }
        other => panic!("expected worker failure, got {other}"),
    }
}
