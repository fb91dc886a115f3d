//! Standalone worker binary for the local-mode orchestrator: a minimal
//! campaign daemon.
//!
//! The orchestrator can drive any program that calls
//! [`oranges_campaign::orchestrate::maybe_run_worker`] first thing in
//! `main`; this binary is the minimal such program. The integration
//! tests (`tests/orchestrator.rs`) point [`Orchestrator`] at it via
//! `CARGO_BIN_EXE_campaign_worker`. The orchestrator starts it as
//!
//! ```text
//! campaign_worker --campaign-worker --listen unix:<scratch>/w0.sock \
//!     --workers 4 [--cache-in <scratch>/warm.json]
//! ```
//!
//! and it prints its endpoint on stdout once bound, then serves the
//! service protocol (docs/PROTOCOL.md) until a `shutdown` request. For
//! workers on **other hosts**, run the campaign daemon there instead
//! (`cargo run --example serve -- --listen tcp:0.0.0.0:7771`) and point
//! the fleet orchestrator at it
//! ([`Orchestrator::fleet`](oranges_campaign::orchestrate::Orchestrator::fleet),
//! or `--example campaign -- --fleet tcp:hostA:7771,tcp:hostB:7771`) —
//! see docs/OPERATIONS.md.
//!
//! [`Orchestrator`]: oranges_campaign::orchestrate::Orchestrator

fn main() {
    match oranges_campaign::orchestrate::maybe_run_worker() {
        Some(code) => std::process::exit(code),
        None => {
            eprintln!(
                "campaign_worker runs only as an orchestrator child; \
                 pass {} --listen <uri> --workers N [--cache-in <path>]",
                oranges_campaign::orchestrate::WORKER_FLAG
            );
            std::process::exit(2);
        }
    }
}
