//! The directory-backed job store.
//!
//! Layout (everything under one *store root*):
//!
//! ```text
//! <root>/incoming/      private staging dirs of in-flight submits
//! <root>/jobs/<id>/
//!     spec.json         canonical spec (written first, atomically)
//!     state             current state, atomic tmp+rename
//!     transitions.log   append-only `<from> -> <to>` lines
//!     claim             worker mutual exclusion (O_EXCL, holds `pid:token`)
//!     cancel            cancellation request flag
//!     heartbeat         worker liveness counter (monotonic sequence)
//!     started           attempt start instant (epoch ms) for deadlines
//!     attempts          decimal attempt count (retry budget accounting)
//!     backoff           retry not-before instant (epoch ms)
//!     checkpoints/      TERSECP1 / TERSEMC1 files + per-point results
//!     report.json       final report, renamed into place before `done`
//!     report.json.crc32 integrity sidecar (CRC32 of the report bytes)
//!     error.txt         last failure message (failed / quarantined jobs)
//!     quarantine/       diagnostic bundle of a quarantined job
//! ```
//!
//! The state machine is `queued → running → done|failed|cancelled|
//! quarantined`, plus `running → queued` (crash recovery / time slicing /
//! retry) and `queued → cancelled`; [`terse_analyze::valid_transition`] is
//! the single source of truth and every [`JobStore::transition`] call is
//! guarded by it.
//!
//! Crash windows: `state` is written *before* the log line is appended, so
//! a kill between the two leaves the log one step behind the
//! (authoritative) state file; [`JobStore::recover`] re-appends the missing
//! line and requeues `running` jobs whose worker died. All multi-byte
//! writes go through tmp+rename, so no reader ever observes a torn file.
//!
//! Supervision bookkeeping (heartbeat sequence, started instant, attempt
//! count, backoff instant) is deliberately *outside* the state machine:
//! the files are advisory inputs to the supervisor and never gate a
//! transition's legality. The heartbeat is a bare counter — hang detection
//! compares sequences across supervisor scans, never wall clocks, so a
//! paused VM cannot produce false hangs.

use crate::spec::JobSpec;
use crate::supervise::pid_alive;
use crate::{Result, ServeError};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use terse_analyze::{crc32_hex, is_terminal_state, valid_transition, JOB_STATES};

/// A job's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Submitted, waiting for a worker.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Completed; `report.json` is in place.
    Done,
    /// Terminated with a job error (recorded in `error.txt`).
    Failed,
    /// Cancelled before completion.
    Cancelled,
    /// Exhausted its retry budget; parked with a diagnostic bundle.
    Quarantined,
}

impl JobState {
    /// The canonical string (what the `state` file holds).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Quarantined => "quarantined",
        }
    }

    /// Parses a canonical state string.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on anything else.
    pub fn parse(s: &str) -> Result<JobState> {
        match s {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            "cancelled" => Ok(JobState::Cancelled),
            "quarantined" => Ok(JobState::Quarantined),
            _ => Err(ServeError::State(format!(
                "unknown state `{s}` (states: {})",
                JOB_STATES.join(", ")
            ))),
        }
    }

    /// Whether this state has no outgoing transitions.
    pub fn is_terminal(self) -> bool {
        is_terminal_state(self.as_str())
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A fencing token returned by [`JobStore::try_claim_token`]: the exact
/// content of the claim file (`pid:counter`). [`JobStore::release_claim_if`]
/// only releases a claim whose content still matches, so a worker whose
/// claim was broken by the supervisor (hang reclaim) cannot release the
/// *next* holder's claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimToken(String);

impl ClaimToken {
    /// The `pid:counter` content.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// What [`JobStore::recover`] found and did at startup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// `running` jobs requeued because their worker is gone.
    pub requeued: Vec<String>,
    /// Jobs whose torn submit was completed (spec present, state missing).
    pub repaired: Vec<String>,
    /// Job dirs that could not be recovered (unreadable spec and state) —
    /// left in place for `terse scrub` to diagnose.
    pub damaged: Vec<String>,
}

/// Process-wide claim-token counter; combined with the pid it makes every
/// claim file content unique across workers and restarts.
static CLAIM_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Process-wide staging-directory counter; combined with the pid it gives
/// every in-flight submit its own directory under `incoming/`.
static STAGE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A handle to a store root. Cheap to clone; all state lives on disk.
#[derive(Debug, Clone)]
pub struct JobStore {
    root: PathBuf,
}

impl JobStore {
    /// Opens (creating if needed) a store at `root`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<JobStore> {
        let root = root.into();
        let jobs = root.join("jobs");
        fs::create_dir_all(&jobs).map_err(|e| io_err("create store", &jobs, &e))?;
        Ok(JobStore { root })
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory of one job.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.root.join("jobs").join(id)
    }

    /// The checkpoint directory of one job.
    pub fn checkpoint_dir(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("checkpoints")
    }

    /// Submits a job: creates `jobs/<id>/` with the canonical spec and
    /// state `queued`. Fails if the id already exists.
    ///
    /// The job is built in a private staging directory under
    /// `<root>/incoming/` and renamed into `jobs/` whole, so a concurrent
    /// scan ([`JobStore::list`] then [`JobStore::state`]) sees the job
    /// complete or not at all. A submit that fails midway removes its
    /// staging directory; one killed midway leaves it behind, outside
    /// `jobs/`, where no scan looks.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spec`] on validation failure, [`ServeError::State`]
    /// on a duplicate id, [`ServeError::Io`] on write failure.
    pub fn submit(&self, spec: &JobSpec) -> Result<()> {
        spec.validate()?;
        let dir = self.job_dir(&spec.id);
        let duplicate = || ServeError::State(format!("job `{}` already exists", spec.id));
        if dir.exists() {
            return Err(duplicate());
        }
        let stage = self.root.join("incoming").join(format!(
            "{}.{}.{}",
            spec.id,
            std::process::id(),
            STAGE_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let built = (|| {
            let ckpt = stage.join("checkpoints");
            fs::create_dir_all(&ckpt).map_err(|e| io_err("create job dir", &ckpt, &e))?;
            atomic_write(&stage.join("spec.json"), spec.to_json().as_bytes())?;
            atomic_write(&stage.join("state"), b"queued")?;
            // A racing submit of the same id wins the rename; this one
            // then finds `jobs/<id>` occupied and reports the duplicate.
            fs::rename(&stage, &dir).map_err(|e| {
                if dir.exists() {
                    duplicate()
                } else {
                    io_err("publish job dir", &dir, &e)
                }
            })
        })();
        if built.is_err() {
            let _ = fs::remove_dir_all(&stage);
        }
        built
    }

    /// Loads and re-validates a job's spec.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on a missing file; parse/validation errors as
    /// [`JobSpec::from_json`].
    pub fn load_spec(&self, id: &str) -> Result<JobSpec> {
        let path = self.job_dir(id).join("spec.json");
        let text = fs::read_to_string(&path).map_err(|e| io_err("read spec", &path, &e))?;
        JobSpec::from_json(&text)
    }

    /// Reads a job's current state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on a missing job, [`ServeError::State`] on a
    /// corrupt state file.
    pub fn state(&self, id: &str) -> Result<JobState> {
        let path = self.job_dir(id).join("state");
        let text = fs::read_to_string(&path).map_err(|e| io_err("read state", &path, &e))?;
        JobState::parse(text.trim())
    }

    /// All job ids, sorted (deterministic scan order).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the store is unreadable.
    pub fn list(&self) -> Result<Vec<String>> {
        let jobs = self.root.join("jobs");
        let rd = fs::read_dir(&jobs).map_err(|e| io_err("list jobs", &jobs, &e))?;
        let mut ids = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| io_err("list jobs", &jobs, &e))?;
            if entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                ids.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Atomically moves a job from `from` to `to`, enforcing the state
    /// machine. The state file is replaced first (authoritative), then the
    /// log line is appended. The whole check-write-append sequence runs
    /// under the job's transition lock: without it, a supervisor reclaim
    /// can slip between a worker's state write and its log append and the
    /// log lines land out of order (a JS007 broken chain over two
    /// individually-legal edges).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] when the job is not in `from` or the edge is
    /// not in [`valid_transition`]'s table; [`ServeError::Io`] on write
    /// failure.
    pub fn transition(&self, id: &str, from: JobState, to: JobState) -> Result<()> {
        if !valid_transition(from.as_str(), to.as_str()) {
            return Err(ServeError::State(format!(
                "`{from} -> {to}` is not a legal transition"
            )));
        }
        let _guard = self.transition_lock(id)?;
        let current = self.state(id)?;
        if current != from {
            return Err(ServeError::State(format!(
                "job `{id}` is `{current}`, not `{from}`"
            )));
        }
        let dir = self.job_dir(id);
        atomic_write(&dir.join("state"), to.as_str().as_bytes())?;
        append_line(&dir.join("transitions.log"), &format!("{from} -> {to}\n"))
    }

    /// Acquires the job's advisory transition lock (flock on `.lock` in
    /// the job dir). Blocks until the current holder finishes; released
    /// when the returned handle drops — including on crash, since an OS
    /// advisory lock dies with its process, so a SIGKILL'd holder never
    /// wedges the store.
    fn transition_lock(&self, id: &str) -> Result<fs::File> {
        let path = self.job_dir(id).join(".lock");
        let file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open transition lock", &path, &e))?;
        file.lock()
            .map_err(|e| io_err("acquire transition lock", &path, &e))?;
        Ok(file)
    }

    /// Claims a job for exclusive processing (`O_EXCL` create of the
    /// `claim` file). Returns `false` when another worker holds it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on filesystem failure other than "exists".
    pub fn try_claim(&self, id: &str) -> Result<bool> {
        Ok(self.try_claim_token(id)?.is_some())
    }

    /// [`JobStore::try_claim`], returning the fencing token on success.
    /// The claim file holds `pid:counter`; the supervisor uses the pid to
    /// detect claims from dead processes, and workers release through
    /// [`JobStore::release_claim_if`] so a broken-and-retaken claim is
    /// never released by its previous holder.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on filesystem failure other than "exists".
    pub fn try_claim_token(&self, id: &str) -> Result<Option<ClaimToken>> {
        let path = self.job_dir(id).join("claim");
        let token = format!(
            "{}:{}",
            std::process::id(),
            CLAIM_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                f.write_all(token.as_bytes())
                    .map_err(|e| io_err("claim", &path, &e))?;
                Ok(Some(ClaimToken(token)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(None),
            Err(e) => Err(io_err("claim", &path, &e)),
        }
    }

    /// The pid recorded in a job's claim file, when one is held and the
    /// content is well-formed. Legacy empty claim files yield `None`.
    pub fn claim_pid(&self, id: &str) -> Option<u32> {
        let text = fs::read_to_string(self.job_dir(id).join("claim")).ok()?;
        text.split(':').next()?.trim().parse().ok()
    }

    /// Releases a claim taken by [`JobStore::try_claim`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on failure other than "already gone".
    pub fn release_claim(&self, id: &str) -> Result<()> {
        let path = self.job_dir(id).join("claim");
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("release claim", &path, &e)),
        }
    }

    /// Releases a claim only while `token` still holds it. Returns whether
    /// the claim was ours to release — `false` means the supervisor broke
    /// the claim (and possibly another worker retook the job) while we
    /// were working.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on filesystem failure.
    pub fn release_claim_if(&self, id: &str, token: &ClaimToken) -> Result<bool> {
        let path = self.job_dir(id).join("claim");
        match fs::read_to_string(&path) {
            Ok(content) if content == token.0 => {
                self.release_claim(id)?;
                Ok(true)
            }
            Ok(_) => Ok(false),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err("read claim", &path, &e)),
        }
    }

    /// Whether `token` still holds the job's claim. Workers check this
    /// before side effects that must not race a reclaimed job (the final
    /// report write, terminal transitions).
    pub fn holds_claim(&self, id: &str, token: &ClaimToken) -> bool {
        fs::read_to_string(self.job_dir(id).join("claim"))
            .map(|c| c == token.0)
            .unwrap_or(false)
    }

    /// Breaks a claim regardless of holder — supervisor-only, used when
    /// reclaiming a hung or dead worker's job.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on failure other than "already gone".
    pub fn break_claim(&self, id: &str) -> Result<()> {
        self.release_claim(id)
    }

    /// Advances a job's heartbeat sequence. Workers call this at phase
    /// and checkpoint boundaries; the supervisor flags a running job whose
    /// sequence stays flat across several scans as hung. Heartbeat loss is
    /// injectable (`serve::heartbeat_loss`) and the write is best-effort:
    /// a heartbeat that cannot be persisted must not fail the job (the
    /// supervisor will reclaim it, which is the safe outcome).
    pub fn beat(&self, id: &str) {
        if failpoints::ENABLED && failpoints::eval("serve::heartbeat_loss").is_some() {
            return;
        }
        let seq = self.heartbeat_seq(id).wrapping_add(1);
        let _ = atomic_write(
            &self.job_dir(id).join("heartbeat"),
            seq.to_string().as_bytes(),
        );
    }

    /// The job's current heartbeat sequence (0 when never beaten).
    pub fn heartbeat_seq(&self, id: &str) -> u64 {
        fs::read_to_string(self.job_dir(id).join("heartbeat"))
            .ok()
            .and_then(|t| t.trim().parse().ok())
            .unwrap_or(0)
    }

    /// Records the start instant of the current attempt (epoch ms) — the
    /// deadline reference point. Called on `queued → running`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on write failure.
    pub fn mark_started(&self, id: &str) -> Result<()> {
        atomic_write(
            &self.job_dir(id).join("started"),
            epoch_ms().to_string().as_bytes(),
        )
    }

    /// The current attempt's start instant (epoch ms), when recorded.
    pub fn started_ms(&self, id: &str) -> Option<u64> {
        fs::read_to_string(self.job_dir(id).join("started"))
            .ok()
            .and_then(|t| t.trim().parse().ok())
    }

    /// The job's attempt count so far (0 when never attempted/failed).
    pub fn attempts(&self, id: &str) -> u32 {
        fs::read_to_string(self.job_dir(id).join("attempts"))
            .ok()
            .and_then(|t| t.trim().parse().ok())
            .unwrap_or(0)
    }

    /// Increments and returns the job's attempt count. Called when an
    /// attempt *fails* (errors, hangs, or misses its deadline) — clean
    /// requeues (time slicing, graceful shutdown) do not consume budget.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on write failure.
    pub fn record_attempt(&self, id: &str) -> Result<u32> {
        let n = self.attempts(id) + 1;
        atomic_write(&self.job_dir(id).join("attempts"), n.to_string().as_bytes())?;
        Ok(n)
    }

    /// Sets the retry backoff: workers must not claim this job before
    /// `not_before_ms` (epoch ms).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on write failure.
    pub fn set_backoff(&self, id: &str, not_before_ms: u64) -> Result<()> {
        atomic_write(
            &self.job_dir(id).join("backoff"),
            not_before_ms.to_string().as_bytes(),
        )
    }

    /// The job's backoff instant (epoch ms), when one is set.
    pub fn backoff_until(&self, id: &str) -> Option<u64> {
        fs::read_to_string(self.job_dir(id).join("backoff"))
            .ok()
            .and_then(|t| t.trim().parse().ok())
    }

    /// Whether the job is currently inside its retry backoff window.
    pub fn in_backoff(&self, id: &str) -> bool {
        self.backoff_until(id).is_some_and(|t| epoch_ms() < t)
    }

    /// Requests cancellation: sets the `cancel` flag, and if the job is
    /// unclaimed and still `queued`, transitions it to `cancelled`
    /// directly. Claimed jobs are cancelled by their worker at the next
    /// checkpoint boundary. Returns the state observed after the request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] / [`ServeError::State`] as the underlying ops.
    pub fn cancel(&self, id: &str) -> Result<JobState> {
        let dir = self.job_dir(id);
        atomic_write(&dir.join("cancel"), b"1")?;
        if let Some(token) = self.try_claim_token(id)? {
            // We hold the claim: nobody else can transition concurrently.
            let result = match self.state(id)? {
                JobState::Queued => {
                    self.transition(id, JobState::Queued, JobState::Cancelled)?;
                    Ok(JobState::Cancelled)
                }
                s => Ok(s),
            };
            self.release_claim_if(id, &token)?;
            result
        } else {
            self.state(id)
        }
    }

    /// Whether cancellation has been requested for a job.
    pub fn cancel_requested(&self, id: &str) -> bool {
        self.job_dir(id).join("cancel").exists()
    }

    /// Moves a `running` job to `quarantined` with a diagnostic bundle.
    /// Called when the retry budget is exhausted. The bundle
    /// (`quarantine/`) snapshots everything needed to diagnose the job
    /// offline: the spec, the final error, the attempt count, and the full
    /// transition history *including* the closing `running -> quarantined`
    /// edge. JS012 audits bundle completeness.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] when the job is not `running`;
    /// [`ServeError::Io`] on write failure.
    pub fn quarantine(&self, id: &str, error: &str) -> Result<()> {
        let dir = self.job_dir(id);
        self.write_error(id, error)?;
        let bundle = dir.join("quarantine");
        fs::create_dir_all(&bundle).map_err(|e| io_err("create quarantine", &bundle, &e))?;
        for f in ["spec.json", "error.txt", "attempts"] {
            let src = dir.join(f);
            if src.exists() {
                fs::copy(&src, bundle.join(f)).map_err(|e| io_err("bundle copy", &src, &e))?;
            }
        }
        self.transition(id, JobState::Running, JobState::Quarantined)?;
        // Copied last so the bundle's history includes the closing edge;
        // a crash before this copy leaves an incomplete bundle that JS012
        // flags on the next scrub.
        let log = dir.join("transitions.log");
        fs::copy(&log, bundle.join("transitions.log"))
            .map_err(|e| io_err("bundle copy", &log, &e))?;
        Ok(())
    }

    /// Store recovery, run once at serve startup **before** workers spawn:
    ///
    /// 1. completes torn submits (a parsable `spec.json` with no `state`
    ///    file becomes `queued`),
    /// 2. reconciles a transition log left one step behind its state file
    ///    by a crash between the two writes,
    /// 3. requeues every `running` job (its worker is gone — this process
    ///    owns the store) and clears stale claims — including claims whose
    ///    recorded pid belongs to a dead process,
    /// 4. deletes the `<name>.tmp.<pid>` files a killed writer left in a
    ///    job dir or its `checkpoints/` (only for dead pids: a live pid's
    ///    write may still be in flight), and
    /// 5. reports (without touching) job dirs that are beyond repair, for
    ///    `terse scrub` to diagnose.
    ///
    /// Zero-length or damaged checkpoint files are deliberately *not*
    /// handled here: the TERSECP1/TERSEMC1 loaders detect them via the
    /// framing CRC and fall back to the previous generation on their own.
    ///
    /// # Errors
    ///
    /// Propagates store I/O errors (an unreadable jobs dir); per-job
    /// damage is reported in [`Recovery::damaged`], not as an error.
    pub fn recover(&self) -> Result<Recovery> {
        let mut rec = Recovery::default();
        for id in self.list()? {
            let dir = self.job_dir(&id);
            remove_dead_writer_tmps(&dir)?;
            remove_dead_writer_tmps(&dir.join("checkpoints"))?;
            let state = match self.state(&id) {
                Ok(s) => s,
                Err(_) => {
                    // No (or corrupt) state file. A parsable spec means the
                    // submit was torn between its two writes: finish it.
                    if self.load_spec(&id).is_ok() {
                        atomic_write(&self.job_dir(&id).join("state"), b"queued")?;
                        rec.repaired.push(id.clone());
                        JobState::Queued
                    } else {
                        rec.damaged.push(id.clone());
                        continue;
                    }
                }
            };
            self.reconcile_log(&id, state)?;
            if state == JobState::Running {
                self.transition(&id, JobState::Running, JobState::Queued)?;
                rec.requeued.push(id.clone());
            }
            if !state.is_terminal() {
                self.release_claim(&id)?;
            }
        }
        Ok(rec)
    }

    /// Re-appends the log line a crash between the state write and the
    /// log append swallowed (the state file is authoritative).
    fn reconcile_log(&self, id: &str, state: JobState) -> Result<()> {
        let log_path = self.job_dir(id).join("transitions.log");
        let tail = fs::read_to_string(&log_path)
            .ok()
            .and_then(|log| {
                log.lines()
                    .last()
                    .and_then(|l| l.split(" -> ").nth(1).map(str::to_owned))
            })
            .unwrap_or_else(|| "queued".to_owned());
        if tail != state.as_str() && valid_transition(&tail, state.as_str()) {
            append_line(&log_path, &format!("{tail} -> {}\n", state))?;
        }
        Ok(())
    }

    /// Writes the final report atomically, then stamps the
    /// `report.json.crc32` integrity sidecar. Called by the runner
    /// *before* the `running → done` transition, so `done` always implies
    /// a complete `report.json` (JS008) with a matching digest (JS010).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on write failure.
    pub fn write_report(&self, id: &str, json: &str) -> Result<()> {
        let dir = self.job_dir(id);
        atomic_write(&dir.join("report.json"), json.as_bytes())?;
        atomic_write(
            &dir.join("report.json.crc32"),
            crc32_hex(json.as_bytes()).as_bytes(),
        )
    }

    /// Reads a job's final report, verifying the integrity sidecar when
    /// one is present. A digest mismatch is a typed error — a bit-flipped
    /// report is never served.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the report does not exist (yet);
    /// [`ServeError::State`] when the sidecar digest does not match.
    pub fn read_report(&self, id: &str) -> Result<String> {
        let path = self.job_dir(id).join("report.json");
        let text = fs::read_to_string(&path).map_err(|e| io_err("read report", &path, &e))?;
        if let Ok(stored) = fs::read_to_string(self.job_dir(id).join("report.json.crc32")) {
            let computed = crc32_hex(text.as_bytes());
            if stored.trim() != computed {
                return Err(ServeError::State(format!(
                    "report digest mismatch for job `{id}`: sidecar {}, computed {computed}",
                    stored.trim()
                )));
            }
        }
        Ok(text)
    }

    /// Records the error message of a failed job (`error.txt`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on write failure.
    pub fn write_error(&self, id: &str, message: &str) -> Result<()> {
        atomic_write(&self.job_dir(id).join("error.txt"), message.as_bytes())
    }

    /// Reads a job's recorded error message, if any.
    pub fn read_error(&self, id: &str) -> Option<String> {
        fs::read_to_string(self.job_dir(id).join("error.txt")).ok()
    }

    /// Reads a job's transition history (the raw `transitions.log` text).
    pub fn read_transitions(&self, id: &str) -> Option<String> {
        fs::read_to_string(self.job_dir(id).join("transitions.log")).ok()
    }
}

/// Milliseconds since the UNIX epoch. Supervision bookkeeping only
/// (deadlines, backoff); never feeds estimation results.
pub(crate) fn epoch_ms() -> u64 {
    // terse-analyze: allow(AZ003): supervision bookkeeping, never results.
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Tmp+rename write — a reader sees the old bytes or the new bytes, never
/// a prefix. The tmp name embeds the pid so two processes on one store
/// cannot collide.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    failpoints::fail_point!("serve::store_write", |_| Err(ServeError::Io {
        op: "write (injected fault)",
        path: path.display().to_string(),
        message: "injected store-write fault".into(),
    }));
    failpoints::fail_point!("serve::enospc", |_| Err(ServeError::Io {
        op: "write (injected fault)",
        path: path.display().to_string(),
        message: "No space left on device (injected)".into(),
    }));
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, bytes).map_err(|e| io_err("write", &tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("rename", path, &e))
}

/// Deletes the `<name>.tmp.<pid>` files in `dir` whose writer is dead:
/// [`atomic_write`] leaves one behind when its process is killed between
/// the write and the rename. A live pid's file may belong to a write still
/// in flight, so it stays. A missing `dir` has nothing to clean.
fn remove_dead_writer_tmps(dir: &Path) -> Result<()> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(());
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.rsplit_once(".tmp."))
            .and_then(|(_, pid)| pid.parse::<u32>().ok());
        if pid.is_some_and(|pid| !pid_alive(pid)) {
            let path = entry.path();
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err("remove stale tmp", &path, &e)),
            }
        }
    }
    Ok(())
}

fn append_line(path: &Path, line: &str) -> Result<()> {
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| io_err("append", path, &e))?;
    f.write_all(line.as_bytes())
        .map_err(|e| io_err("append", path, &e))
}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> ServeError {
    ServeError::Io {
        op,
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;

    fn temp_store(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("terse_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn spec(id: &str) -> JobSpec {
        JobSpec::from_json(&format!(
            r#"{{"id":"{id}","workload":{{"asm":"halt\n"}},"samples":1}}"#
        ))
        .unwrap()
    }

    #[test]
    fn submit_claim_transition_lifecycle() {
        let root = temp_store("life");
        let store = JobStore::open(&root).unwrap();
        store.submit(&spec("a")).unwrap();
        assert_eq!(store.state("a").unwrap(), JobState::Queued);
        assert_eq!(store.list().unwrap(), vec!["a"]);
        // Double submit is rejected.
        assert!(store.submit(&spec("a")).is_err());
        // Claim is exclusive.
        assert!(store.try_claim("a").unwrap());
        assert!(!store.try_claim("a").unwrap());
        store
            .transition("a", JobState::Queued, JobState::Running)
            .unwrap();
        // Wrong `from` is a typed error.
        assert!(store
            .transition("a", JobState::Queued, JobState::Running)
            .is_err());
        // Illegal edge is a typed error.
        assert!(store
            .transition("a", JobState::Running, JobState::Running)
            .is_err());
        store.write_report("a", "{}").unwrap();
        store
            .transition("a", JobState::Running, JobState::Done)
            .unwrap();
        store.release_claim("a").unwrap();
        assert!(store.try_claim("a").unwrap());
        // The log records the full chain.
        let log = fs::read_to_string(store.job_dir("a").join("transitions.log")).unwrap();
        assert_eq!(log, "queued -> running\nrunning -> done\n");
        // The analyzer agrees the store is clean.
        let mut report = terse_analyze::AnalysisReport::new();
        terse_analyze::analyze_job_store(&root, &mut report).unwrap();
        store.release_claim("a").unwrap();
        assert!(report.is_clean(), "{}", report.render_text());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn claim_tokens_fence_releases() {
        let root = temp_store("fence");
        let store = JobStore::open(&root).unwrap();
        store.submit(&spec("f")).unwrap();
        let t1 = store.try_claim_token("f").unwrap().expect("claim");
        assert!(store.holds_claim("f", &t1));
        assert_eq!(store.claim_pid("f"), Some(std::process::id()));
        // Supervisor breaks the claim; another worker retakes it.
        store.break_claim("f").unwrap();
        let t2 = store.try_claim_token("f").unwrap().expect("reclaim");
        assert_ne!(t1, t2);
        // The first holder's release is fenced out.
        assert!(!store.release_claim_if("f", &t1).unwrap());
        assert!(store.holds_claim("f", &t2));
        assert!(store.release_claim_if("f", &t2).unwrap());
        assert!(!store.holds_claim("f", &t2));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn heartbeat_attempts_and_backoff_bookkeeping() {
        let root = temp_store("beats");
        let store = JobStore::open(&root).unwrap();
        store.submit(&spec("b")).unwrap();
        assert_eq!(store.heartbeat_seq("b"), 0);
        store.beat("b");
        store.beat("b");
        assert_eq!(store.heartbeat_seq("b"), 2);
        assert_eq!(store.attempts("b"), 0);
        assert_eq!(store.record_attempt("b").unwrap(), 1);
        assert_eq!(store.record_attempt("b").unwrap(), 2);
        assert_eq!(store.attempts("b"), 2);
        store.mark_started("b").unwrap();
        assert!(store.started_ms("b").is_some());
        assert!(!store.in_backoff("b"));
        store.set_backoff("b", epoch_ms() + 60_000).unwrap();
        assert!(store.in_backoff("b"));
        store.set_backoff("b", 1).unwrap();
        assert!(!store.in_backoff("b"));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn quarantine_builds_a_complete_bundle() {
        let root = temp_store("quar");
        let store = JobStore::open(&root).unwrap();
        store.submit(&spec("q")).unwrap();
        assert!(store.try_claim("q").unwrap());
        store
            .transition("q", JobState::Queued, JobState::Running)
            .unwrap();
        store.record_attempt("q").unwrap();
        store.quarantine("q", "injected: it kept failing").unwrap();
        assert_eq!(store.state("q").unwrap(), JobState::Quarantined);
        assert!(store.state("q").unwrap().is_terminal());
        let bundle = store.job_dir("q").join("quarantine");
        for f in ["spec.json", "error.txt", "transitions.log", "attempts"] {
            assert!(bundle.join(f).exists(), "bundle missing {f}");
        }
        // The bundled history includes the closing edge.
        let log = fs::read_to_string(bundle.join("transitions.log")).unwrap();
        assert!(log.ends_with("running -> quarantined\n"), "{log}");
        assert_eq!(
            store.read_error("q").as_deref(),
            Some("injected: it kept failing")
        );
        store.release_claim("q").unwrap();
        // The scrub pass agrees the bundle is complete.
        let mut report = terse_analyze::AnalysisReport::new();
        terse_analyze::scrub_job_store(&root, &mut report).unwrap();
        assert!(
            !report.has_code("JS012"),
            "complete bundle flagged: {}",
            report.render_text()
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn report_digest_sidecar_is_stamped_and_verified() {
        let root = temp_store("digest");
        let store = JobStore::open(&root).unwrap();
        store.submit(&spec("d")).unwrap();
        store.write_report("d", "{\"points\":[]}").unwrap();
        let sidecar = store.job_dir("d").join("report.json.crc32");
        assert!(sidecar.exists());
        assert_eq!(store.read_report("d").unwrap(), "{\"points\":[]}");
        // A bit-flip is caught.
        fs::write(store.job_dir("d").join("report.json"), "{\"points\":[1]}").unwrap();
        let err = store.read_report("d").unwrap_err();
        assert!(matches!(err, ServeError::State(_)), "{err}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cancel_queued_job_directly_and_flag_running() {
        let root = temp_store("cancel");
        let store = JobStore::open(&root).unwrap();
        store.submit(&spec("q")).unwrap();
        assert_eq!(store.cancel("q").unwrap(), JobState::Cancelled);
        // Terminal: cancel again is a no-op.
        assert_eq!(store.cancel("q").unwrap(), JobState::Cancelled);

        store.submit(&spec("r")).unwrap();
        assert!(store.try_claim("r").unwrap());
        store
            .transition("r", JobState::Queued, JobState::Running)
            .unwrap();
        // Claimed: only the flag is set; the worker will see it.
        assert_eq!(store.cancel("r").unwrap(), JobState::Running);
        assert!(store.cancel_requested("r"));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recover_requeues_running_jobs_and_reconciles_logs() {
        let root = temp_store("recover");
        let store = JobStore::open(&root).unwrap();
        store.submit(&spec("x")).unwrap();
        assert!(store.try_claim("x").unwrap());
        store
            .transition("x", JobState::Queued, JobState::Running)
            .unwrap();
        // Simulate a crash window: state advanced, log append lost.
        fs::write(store.job_dir("x").join("transitions.log"), "").unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.requeued, vec!["x"]);
        assert!(rec.repaired.is_empty() && rec.damaged.is_empty());
        assert_eq!(store.state("x").unwrap(), JobState::Queued);
        // Claim was stale and is gone.
        assert!(store.try_claim("x").unwrap());
        let log = fs::read_to_string(store.job_dir("x").join("transitions.log")).unwrap();
        assert_eq!(log, "queued -> running\nrunning -> queued\n");
        fs::remove_dir_all(&root).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn recover_removes_dead_writer_tmp_files_and_keeps_live_ones() {
        let root = temp_store("tmps");
        let store = JobStore::open(&root).unwrap();
        store.submit(&spec("t")).unwrap();
        let dir = store.job_dir("t");
        fs::create_dir_all(dir.join("checkpoints")).unwrap();
        // Above any kernel's pid_max, so no process can own it.
        let dead = u32::MAX - 1;
        let live = std::process::id();
        let dead_state = dir.join(format!("state.tmp.{dead}"));
        let dead_ckpt = dir.join("checkpoints").join(format!("point-0.tmp.{dead}"));
        let live_beat = dir.join(format!("heartbeat.tmp.{live}"));
        for f in [&dead_state, &dead_ckpt, &live_beat] {
            fs::write(f, b"x").unwrap();
        }
        store.recover().unwrap();
        assert!(!dead_state.exists(), "dead writer's tmp file survived");
        assert!(!dead_ckpt.exists(), "dead writer's checkpoint tmp survived");
        assert!(live_beat.exists(), "a live writer's tmp file was removed");
        assert_eq!(store.state("t").unwrap(), JobState::Queued);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn state_strings_round_trip_and_match_analyzer() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
            JobState::Quarantined,
        ] {
            assert_eq!(JobState::parse(s.as_str()).unwrap(), s);
            assert!(JOB_STATES.contains(&s.as_str()));
        }
        assert!(JobState::parse("paused").is_err());
    }
}
