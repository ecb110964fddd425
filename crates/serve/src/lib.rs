//! # terse-serve
//!
//! Estimation-as-a-service for the TERSE framework: a config-driven batch
//! runner and crash-resumable job server (ROADMAP item 2). Sweeps
//! like accelerator-style operating-point grids become queued batch jobs
//! instead of hand-driven loops:
//!
//! 1. **[`spec`]** — a strict JSON [`JobSpec`] (workload, dataset,
//!    operating-point grid, chip population, seed), validated by the
//!    JS001–JS004 checks that live in that module, so the CLI and the
//!    store admit the same specs.
//! 2. **[`store`]** — a directory-backed [`JobStore`]
//!    (`jobs/<id>/{spec.json,state,checkpoints/,report.json}`) with atomic
//!    state transitions (`queued → running → done|failed|cancelled`, plus
//!    the `running → queued` recovery/time-slice edge), `O_EXCL` claim
//!    files for worker mutual exclusion, and crash recovery. [`JobState`]
//!    and its transition table come from `terse_analyze::job_pass`, whose
//!    JS005–JS012 passes audit the store.
//! 3. **[`runner`]** — runs one job per-grid-point on the existing
//!    framework, with TERSECP1 estimate checkpoints and TERSEMC1 Monte
//!    Carlo checkpoints per point, so a SIGKILL at any instant resumes
//!    bit-exactly; deterministic results and wall-clock telemetry are kept
//!    in separate report sections.
//! 4. **[`executor`]** — a worker pool that fans queued jobs across
//!    workers (each scans in sorted-id order; the claim file decides who
//!    runs a job); the `terse` binary wraps it as
//!    `terse serve/submit/status/cancel/report/verify`.
//! 5. **[`supervise`]** — a supervisor thread that reclaims hung, dead,
//!    and deadline-expired jobs, retrying them under a bounded budget
//!    with exponential backoff and quarantining repeat offenders with a
//!    diagnostic bundle (DESIGN.md §17).
//!
//! Determinism contract: the deterministic section of a job's report
//! (`id`, `name`, `spec_digest`, `points`) is a pure function of the spec
//! — independent of worker count, scan order, time slicing, and kill/resume
//! cuts. The soak and crash-resume suites enforce this bit-for-bit.

#![warn(missing_docs)]

pub mod executor;
pub mod runner;
pub mod spec;
pub mod store;
pub mod supervise;

pub use executor::{serve, ExecutorConfig, ExecutorStats};
pub use runner::{deterministic_section, run_job, FrameworkCache, RunOutcome};
pub use spec::{JobSpec, PipelinePreset, WorkloadSpec};
pub use store::{ClaimToken, JobStore, Recovery};
pub use supervise::{SupervisorConfig, SupervisorStats};
/// The JSON value model every job spec and report is built in.
pub use terse_analyze::json;
/// A job's lifecycle state; the store audit shares the one definition.
pub use terse_analyze::JobState;

use std::fmt;

/// Errors from the job server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Malformed JSON (parse-level).
    Json(String),
    /// A structurally valid spec that fails validation (JS001–JS004,
    /// unknown keys, bad enum strings).
    Spec(String),
    /// A store filesystem operation failed.
    Io {
        /// What was being attempted.
        op: &'static str,
        /// The path involved.
        path: String,
        /// The underlying error rendering.
        message: String,
    },
    /// A state-machine violation (illegal transition, unknown state,
    /// duplicate id).
    State(String),
    /// A job's estimation/simulation failed (the job moves to `failed`;
    /// the server keeps running).
    Run(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Json(m) => write!(f, "json: {m}"),
            ServeError::Spec(m) => write!(f, "spec: {m}"),
            ServeError::Io { op, path, message } => {
                write!(f, "store io: {op} `{path}`: {message}")
            }
            ServeError::State(m) => write!(f, "state: {m}"),
            ServeError::Run(m) => write!(f, "run: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Crate-wide result alias.
pub type Result<T, E = ServeError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    #[test]
    fn error_traits() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::ServeError>();
    }
}
