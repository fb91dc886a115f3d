//! Multi-worker shard orchestration: run a campaign as N round-robin
//! [`Plan::shard`](crate::plan::Plan::shard)s across N campaign daemons
//! — a **fleet** of remote hosts, or daemons started as child
//! *processes* on this host — then join the shard results into one
//! unified report.
//!
//! Both modes share one dispatch-and-join path. The parent
//!
//! 1. probes every daemon's `health` before dispatching anything;
//! 2. sends shard *i* of *N* to the *i*-th service [`Endpoint`] as a
//!    batch-priority `run` request (the spec's own `shard` field carries
//!    the assignment), all shards concurrently, and streams the unit
//!    responses back ([`ServiceClient::run_with`]);
//! 3. merges each shard into the shared cache under the versioned-cache
//!    rules ([`ResultCache::merge_from`]): a daemon answering with a
//!    different `model_digest` is **stale** (its units are dropped,
//!    counted in [`MergeStats::stale`], and recomputed by step 4), while
//!    same-version shards must agree byte-for-byte or the campaign
//!    fails loudly;
//! 4. re-enters the scheduler over the merged cache to assemble one
//!    unified [`CampaignReport`] in plan order — every unit a cache hit,
//!    value-identical to a single-process run (`tests/orchestrator.rs`
//!    and `tests/fleet.rs` prove fingerprint equality).
//!
//! **Fleet mode** ([`Orchestrator::fleet`]) dials daemons that are
//! already running — `tcp:host:port` on other machines, `unix:` ones
//! locally, mixed freely. **Local mode** ([`Orchestrator::new`]) first
//! starts N children of a worker `program`, each a daemon on a private
//! `unix:` socket warm-started from the parent's cache, and stops them
//! after the join. Any binary becomes a worker by calling
//! [`maybe_run_worker`] first thing in `main` — `examples/campaign.rs`
//! does exactly that, so `--spawn N` re-invokes the example itself N
//! times.

use crate::cache::{CacheMergeError, CachePersistError, MergeStats, ResultCache};
use crate::engine::Priority;
use crate::report::CampaignReport;
use crate::scheduler::{run_campaign, CampaignError};
use crate::service::{
    CampaignService, RunOptions, RunOutcome, ServiceClient, ServiceConfig, ServiceError,
};
use crate::spec::CampaignSpec;
use oranges_harness::transport::{AnyTransport, Endpoint};
use std::fmt;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

/// The marker flag a worker invocation carries. A program that calls
/// [`maybe_run_worker`] at the top of `main` turns into a local campaign
/// daemon whenever this flag is present in its arguments.
pub const WORKER_FLAG: &str = "--campaign-worker";

/// Failure of an orchestrated campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum OrchestrateError {
    /// Filesystem or process-spawn failure (context, cause).
    Io(String, String),
    /// A local worker process exited before reporting itself ready.
    Worker {
        /// Which shard (0-based).
        shard: usize,
        /// Its exit code, when it exited at all.
        status: Option<i32>,
        /// Captured stderr.
        stderr: String,
    },
    /// The warm-start cache would not save or load.
    Cache(CachePersistError),
    /// The assembly run over the merged cache failed.
    Campaign(CampaignError),
    /// A worker invocation had missing/malformed arguments.
    Args(String),
    /// A shard's service call failed (connect, protocol, or an in-band
    /// error from the daemon).
    Remote {
        /// Which shard (0-based).
        shard: usize,
        /// The endpoint that failed, in display form.
        endpoint: String,
        /// The underlying [`ServiceError`], rendered.
        message: String,
    },
    /// A daemon answered its pre-dispatch `health` probe but reported
    /// itself not ready (draining, or dead worker threads) — the shard
    /// was never dispatched, so the campaign fails in milliseconds
    /// instead of timing out mid-run.
    Unhealthy {
        /// Which shard (0-based).
        shard: usize,
        /// The endpoint that reported unhealthy, in display form.
        endpoint: String,
        /// Why it is not ready, as reported by the daemon.
        reason: String,
    },
    /// A same-version shard disagreed with the shared cache on a unit's
    /// value identity — a corrupt or dishonest daemon, never an honest
    /// one (the simulation is deterministic per model version).
    RemoteConflict {
        /// The underlying conflict.
        error: CacheMergeError,
        /// The endpoint whose shard conflicted, in display form.
        endpoint: String,
    },
}

impl fmt::Display for OrchestrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestrateError::Io(context, cause) => {
                write!(f, "orchestrator io ({context}): {cause}")
            }
            OrchestrateError::Worker {
                shard,
                status,
                stderr,
            } => write!(
                f,
                "shard {shard} worker failed (exit {}): {}",
                status.map_or_else(|| "signal".to_string(), |c| c.to_string()),
                stderr.trim()
            ),
            OrchestrateError::Cache(e) => write!(f, "orchestrator cache: {e}"),
            OrchestrateError::Campaign(e) => write!(f, "orchestrator assembly: {e}"),
            OrchestrateError::Args(message) => write!(f, "worker arguments: {message}"),
            OrchestrateError::Remote {
                shard,
                endpoint,
                message,
            } => write!(f, "fleet shard {shard} ({endpoint}) failed: {message}"),
            OrchestrateError::Unhealthy {
                shard,
                endpoint,
                reason,
            } => write!(
                f,
                "fleet shard {shard} ({endpoint}) is not ready: {reason}; \
                 nothing was dispatched"
            ),
            OrchestrateError::RemoteConflict { error, endpoint } => write!(
                f,
                "fleet merge: {error} (shard served by {endpoint}; \
                 compare its model constants and cache file against this host's)"
            ),
        }
    }
}

impl std::error::Error for OrchestrateError {}

impl From<CachePersistError> for OrchestrateError {
    fn from(e: CachePersistError) -> Self {
        OrchestrateError::Cache(e)
    }
}

impl From<CampaignError> for OrchestrateError {
    fn from(e: CampaignError) -> Self {
        OrchestrateError::Campaign(e)
    }
}

/// The result of an orchestrated campaign.
#[derive(Debug)]
pub struct OrchestratedRun {
    /// The unified report, in plan order — value-identical to a
    /// single-process run of the same spec.
    pub report: CampaignReport,
    /// Totals of the shard merges.
    pub merged: MergeStats,
    /// Shard workers used: local daemons, or fleet endpoints.
    pub processes: usize,
}

/// Scratch-directory uniquifier so concurrent orchestrators (e.g. test
/// threads) never collide.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Dispatches shards to campaign daemons — remote endpoints, or local
/// child processes it starts itself — and joins their results into one
/// report.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    /// Local mode: the worker program, and how many daemons of it to
    /// start (one per shard).
    local: Option<(PathBuf, usize)>,
    /// Fleet mode: one running daemon per shard.
    endpoints: Vec<Endpoint>,
}

impl Orchestrator {
    /// An orchestrator starting `processes` (≥ 1 enforced) instances of
    /// `program` as local campaign daemons, one shard each. The program
    /// must call [`maybe_run_worker`] before its own argument parsing.
    pub fn new(program: impl Into<PathBuf>, processes: usize) -> Self {
        Orchestrator {
            local: Some((program.into(), processes.max(1))),
            endpoints: Vec::new(),
        }
    }

    /// An orchestrator dispatching one shard to each of `endpoints` —
    /// running campaign daemons (`cargo run --example serve -- --listen
    /// tcp:…`), one per measurement host. Shard *i* of *N* travels as a
    /// `run` request to endpoint *i*; results stream back over the
    /// service protocol and merge under the versioned-cache rules, so
    /// the unified report is value-identical to a single-process run.
    ///
    /// ```no_run
    /// use oranges_campaign::prelude::*;
    ///
    /// let endpoints = vec![
    ///     "tcp:m1-host.local:7771".parse::<Endpoint>()?,
    ///     "tcp:m3-host.local:7771".parse::<Endpoint>()?,
    /// ];
    /// let cache = ResultCache::new();
    /// let run = Orchestrator::fleet(endpoints).run(&CampaignSpec::paper_grid(), &cache)?;
    /// println!("fleet fingerprint: {}", run.report.fingerprint());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn fleet(endpoints: Vec<Endpoint>) -> Self {
        Orchestrator {
            local: None,
            endpoints,
        }
    }

    /// Run `spec` across the shard daemons, merging every shard into
    /// `cache` (so a warm cache skips work in local children too, and
    /// the caller can persist the union afterwards).
    ///
    /// `spec` must be unsharded: shard assignment is the orchestrator's
    /// job, and silently combining a caller shard with orchestrator
    /// sharding would compute one thing and report another.
    pub fn run(
        &self,
        spec: &CampaignSpec,
        cache: &ResultCache,
    ) -> Result<OrchestratedRun, OrchestrateError> {
        if spec.shard.is_some() {
            return Err(OrchestrateError::Args(
                "cannot orchestrate an already-sharded spec: drop the shard \
                 (the orchestrator assigns one shard per worker)"
                    .to_string(),
            ));
        }
        let Some((program, processes)) = &self.local else {
            return self.run_fleet(&self.endpoints, spec, cache);
        };
        let local = LocalDaemons::start(program, *processes, spec.workers, cache)?;
        let endpoints: Vec<Endpoint> = local.daemons.iter().map(|d| d.endpoint.clone()).collect();
        let run = self.run_fleet(&endpoints, spec, cache)?;
        local.shut_down();
        Ok(run)
    }

    /// The one dispatch-and-join path: one shard per endpoint,
    /// concurrently, each a `run` request whose spec carries the shard
    /// assignment. Each shard's served units land in a local
    /// [`ResultCache`] and merge under the versioned-cache rules — a
    /// remote `model_digest` mismatch makes the whole shard *stale*
    /// (dropped, counted, recomputed by the assembly pass), same-version
    /// shards merge under the strict identity rule.
    fn run_fleet(
        &self,
        endpoints: &[Endpoint],
        spec: &CampaignSpec,
        cache: &ResultCache,
    ) -> Result<OrchestratedRun, OrchestrateError> {
        if endpoints.is_empty() {
            return Err(OrchestrateError::Args(
                "fleet mode needs at least one endpoint".to_string(),
            ));
        }
        let count = endpoints.len();
        // Health pre-poll: probe every endpoint's `health` before
        // dispatching anything. An unreachable host is a typed
        // connect failure and an unhealthy one (draining, dead worker
        // threads) a typed `Unhealthy` — either way the campaign fails
        // in milliseconds with the shard and endpoint named, instead
        // of a shard timing out mid-run with work already dispatched.
        for (index, endpoint) in endpoints.iter().enumerate() {
            let remote = |error: ServiceError| OrchestrateError::Remote {
                shard: index,
                endpoint: endpoint.to_string(),
                message: error.to_string(),
            };
            let mut probe = ServiceClient::<AnyTransport>::connect(endpoint).map_err(remote)?;
            let health = probe.health().map_err(remote)?;
            if !health.ready {
                return Err(OrchestrateError::Unhealthy {
                    shard: index,
                    endpoint: endpoint.to_string(),
                    reason: if health.draining {
                        "draining after shutdown".to_string()
                    } else {
                        format!(
                            "{}/{} engine workers alive",
                            health.workers_alive, health.workers_configured
                        )
                    },
                });
            }
        }
        // Dispatch every shard concurrently and join them all before
        // judging any (no shard is abandoned mid-flight when a sibling
        // fails), then report the earliest failed shard.
        let outcomes: Vec<Result<RunOutcome, ServiceError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .iter()
                .enumerate()
                .map(|(index, endpoint)| {
                    scope.spawn(move || {
                        let shard_spec = spec.clone().with_shard(index, count)?;
                        let mut client = ServiceClient::<AnyTransport>::connect(endpoint)?;
                        // Fleet shards are bulk work: dispatch at batch
                        // priority so an interactive probe against the
                        // same daemon overtakes them in the queue.
                        client.run_with(&shard_spec, &RunOptions::priority(Priority::Batch))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("fleet client thread"))
                .collect()
        });

        let mut merged = MergeStats::default();
        for (index, (endpoint, outcome)) in endpoints.iter().zip(outcomes).enumerate() {
            let outcome = outcome.map_err(|error| OrchestrateError::Remote {
                shard: index,
                endpoint: endpoint.to_string(),
                message: error.to_string(),
            })?;
            if outcome.model_digest != cache.model_digest() {
                // The rule a stale cache *file* gets: its entries are
                // dropped (counted), never merged and never conflicting;
                // the assembly pass recomputes them under this host's
                // constants.
                eprintln!(
                    "orchestrator: fleet shard {index} ({endpoint}) is stale \
                     (model digest {} != {}); recomputing its {} units locally",
                    outcome.model_digest,
                    cache.model_digest(),
                    outcome.units.len(),
                );
                merged.stale += outcome.units.len();
                continue;
            }
            let shard_cache = ResultCache::new();
            for unit in outcome.units {
                shard_cache.insert(unit.key, unit.output);
            }
            let stats = cache.merge_from(&shard_cache).map_err(|error| {
                OrchestrateError::RemoteConflict {
                    error,
                    endpoint: endpoint.to_string(),
                }
            })?;
            merged.added += stats.added;
            merged.identical += stats.identical;
            merged.stale += stats.stale;
        }

        // Assembly: re-enter the scheduler over the merged cache for one
        // plan-ordered, value-identical report (every unit a hit unless
        // a stale shard was dropped).
        let report = run_campaign(spec, cache)?;
        Ok(OrchestratedRun {
            report,
            merged,
            processes: count,
        })
    }
}

/// One local worker daemon: the child process, the endpoint it serves,
/// and the thread draining its stderr.
struct LocalDaemon {
    endpoint: Endpoint,
    child: Child,
    stderr: Option<JoinHandle<Vec<u8>>>,
}

impl LocalDaemon {
    /// Everything the child wrote to stderr, once its pipe has closed.
    fn stderr(&mut self) -> String {
        let bytes = self
            .stderr
            .take()
            .map(|drain| drain.join().unwrap_or_default());
        String::from_utf8_lossy(&bytes.unwrap_or_default()).into_owned()
    }
}

/// Local mode's daemons, each on a unix socket in a private scratch
/// directory. Dropping it kills and reaps every child still running and
/// removes the scratch directory, so no path out of
/// [`Orchestrator::run`] — error or panic — leaves a process or a file
/// behind.
struct LocalDaemons {
    daemons: Vec<LocalDaemon>,
    scratch: PathBuf,
}

impl LocalDaemons {
    /// Start `processes` children of `program` as
    /// `program --campaign-worker --listen unix:<scratch>/w<i>.sock
    /// --workers <workers> [--cache-in <scratch>/warm.json]` and wait
    /// until each has printed its readiness line.
    fn start(
        program: &Path,
        processes: usize,
        workers: usize,
        cache: &ResultCache,
    ) -> Result<Self, OrchestrateError> {
        let scratch = std::env::temp_dir().join(format!(
            "oranges-orchestrator-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&scratch).map_err(|e| {
            OrchestrateError::Io(format!("creating {}", scratch.display()), e.to_string())
        })?;
        let mut local = LocalDaemons {
            daemons: Vec::with_capacity(processes),
            scratch,
        };
        // Warm start: ship the parent's cache to the children so units
        // the parent already knows are not recomputed anywhere.
        let warm = local.scratch.join("warm.json");
        let warm = if cache.stats().entries > 0 {
            cache.save(&warm)?;
            Some(warm)
        } else {
            None
        };
        for index in 0..processes {
            let endpoint = Endpoint::Unix(local.scratch.join(format!("w{index}.sock")));
            let mut command = Command::new(program);
            command
                .arg(WORKER_FLAG)
                .arg("--listen")
                .arg(endpoint.to_string())
                .arg("--workers")
                .arg(workers.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped());
            if let Some(warm) = &warm {
                command.arg("--cache-in").arg(warm);
            }
            let mut child = command.spawn().map_err(|e| {
                OrchestrateError::Io(format!("spawning {}", program.display()), e.to_string())
            })?;
            // Drain stderr for the child's whole life: a serving daemon
            // must never stall on a full pipe nobody reads.
            let stderr = child.stderr.take().map(|mut pipe| {
                std::thread::spawn(move || {
                    let mut bytes = Vec::new();
                    pipe.read_to_end(&mut bytes).ok();
                    bytes
                })
            });
            local.daemons.push(LocalDaemon {
                endpoint,
                child,
                stderr,
            });
        }
        for (shard, daemon) in local.daemons.iter_mut().enumerate() {
            let stdout = daemon.child.stdout.as_mut().expect("stdout is piped");
            let mut line = String::new();
            if BufReader::new(stdout).read_line(&mut line).unwrap_or(0) == 0 {
                // EOF before the readiness line: the child is exiting.
                daemon.child.kill().ok();
                let status = daemon.child.wait().ok().and_then(|status| status.code());
                return Err(OrchestrateError::Worker {
                    shard,
                    status,
                    stderr: daemon.stderr(),
                });
            }
        }
        Ok(local)
    }

    /// Ask every daemon to shut down and wait for it to exit; `Drop`
    /// kills whichever did not take the request.
    fn shut_down(mut self) {
        for daemon in &mut self.daemons {
            let stopped = ServiceClient::<AnyTransport>::connect(&daemon.endpoint)
                .and_then(|mut client| client.shutdown());
            if stopped.is_ok() {
                daemon.child.wait().ok();
            }
        }
    }
}

impl Drop for LocalDaemons {
    fn drop(&mut self) {
        for daemon in &mut self.daemons {
            daemon.child.kill().ok();
            daemon.child.wait().ok();
            daemon.stderr();
        }
        std::fs::remove_dir_all(&self.scratch).ok();
    }
}

/// Worker-process entry point. Call first thing in `main`:
///
/// ```no_run
/// if let Some(code) = oranges_campaign::orchestrate::maybe_run_worker() {
///     std::process::exit(code);
/// }
/// // … normal argument parsing …
/// ```
///
/// Returns `None` when the arguments carry no [`WORKER_FLAG`] (the
/// process is not a worker). Otherwise runs a campaign daemon on
/// `--listen URI` with `--workers N` engine threads, its cache
/// warm-started from an optional `--cache-in PATH`; prints the bound
/// endpoint on stdout as its readiness line, serves until a `shutdown`
/// request, and returns the exit code to terminate with, printing any
/// failure to stderr.
pub fn maybe_run_worker() -> Option<i32> {
    let args: Vec<String> = std::env::args().collect();
    if !args.iter().any(|arg| arg == WORKER_FLAG) {
        return None;
    }
    Some(match run_worker(&args) {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("campaign worker: {error}");
            1
        }
    })
}

/// The worker body, separated for testability.
fn run_worker(args: &[String]) -> Result<(), OrchestrateError> {
    let value_of = |flag: &str| -> Result<&str, OrchestrateError> {
        args.windows(2)
            .find(|pair| pair[0] == flag)
            .map(|pair| pair[1].as_str())
            .ok_or_else(|| OrchestrateError::Args(format!("missing {flag} <value>")))
    };
    let listen: Endpoint = value_of("--listen")?
        .parse()
        .map_err(|e| OrchestrateError::Args(format!("bad --listen: {e}")))?;
    let workers = value_of("--workers")?;
    let workers = workers
        .parse()
        .map_err(|_| OrchestrateError::Args(format!("bad --workers '{workers}', want N")))?;

    // The warm file is merged in rather than configured as the service's
    // cache path: N daemons would otherwise all persist to that one path
    // on shutdown. The parent keeps the merged result; the children
    // persist nothing.
    let serving =
        |e: ServiceError| OrchestrateError::Io(format!("serving {listen}"), e.to_string());
    let service = CampaignService::<AnyTransport>::bind(
        ServiceConfig::new(listen.clone()).with_workers(workers),
    )
    .map_err(serving)?;
    if let Ok(path) = value_of("--cache-in") {
        service
            .cache()
            .merge_from(&ResultCache::load(path)?)
            .expect("a freshly bound cache has nothing to conflict with");
    }
    println!("{}", service.local_endpoint());
    service.serve().map_err(serving)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_rejects_malformed_invocations() {
        let args = |pairs: &[&str]| -> Vec<String> {
            ["worker", WORKER_FLAG]
                .iter()
                .chain(pairs)
                .map(|arg| arg.to_string())
                .collect()
        };
        for (pairs, want) in [
            (vec!["--workers", "2"], "missing --listen"),
            (vec!["--listen", "nope", "--workers", "2"], "bad --listen"),
            (
                vec!["--listen", "unix:/nonexistent/w.sock"],
                "missing --workers",
            ),
            (
                vec!["--listen", "unix:/nonexistent/w.sock", "--workers", "x"],
                "bad --workers",
            ),
        ] {
            let error = run_worker(&args(&pairs)).expect_err("must reject");
            assert!(matches!(error, OrchestrateError::Args(_)), "{error}");
            assert!(
                error.to_string().contains(want),
                "{error} should mention {want}"
            );
        }
    }

    #[test]
    fn orchestrator_rejects_already_sharded_specs() {
        let spec = CampaignSpec::smoke().with_shard(0, 2).expect("valid shard");
        let error = Orchestrator::new("unused", 2)
            .run(&spec, &ResultCache::new())
            .expect_err("shard assignment belongs to the orchestrator");
        assert!(matches!(error, OrchestrateError::Args(_)), "{error}");
        assert!(error.to_string().contains("already-sharded"));
    }

    #[test]
    fn errors_render_their_context() {
        let error = OrchestrateError::Worker {
            shard: 2,
            status: Some(1),
            stderr: "boom\n".to_string(),
        };
        assert_eq!(error.to_string(), "shard 2 worker failed (exit 1): boom");
        let signal = OrchestrateError::Worker {
            shard: 0,
            status: None,
            stderr: String::new(),
        };
        assert!(signal.to_string().contains("signal"));
    }
}
