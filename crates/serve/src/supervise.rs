//! The supervisor: reclaims hung, dead, and deadline-expired jobs.
//!
//! One supervisor thread runs alongside the worker pool (see
//! [`crate::executor::serve`]) and periodically scans every `running` job
//! for three liveness failures:
//!
//! * **hang** — the job's heartbeat sequence stayed flat across
//!   [`SupervisorConfig::hang_scans`] consecutive scans. Detection is
//!   purely sequence-based (never wall-clock deltas), so a paused VM or a
//!   suspended laptop cannot produce false hangs — scans and heartbeats
//!   pause together.
//! * **dead worker** — the claim file records a pid that no longer exists
//!   (another `terse serve` process on the same store crashed).
//! * **deadline** — the spec carries `deadline_ms` and the current attempt
//!   (the `started` file) has exceeded it.
//!
//! A reclaimed job has its claim broken, its attempt counted, and is then
//! either requeued with exponential backoff (attempts remaining), moved to
//! `failed` (the classic `retries: 0` contract), or moved to `quarantined`
//! with a diagnostic bundle (retry budget exhausted). Workers release
//! claims through fencing tokens ([`crate::store::ClaimToken`]), so a
//! reclaimed worker that later wakes cannot release the next holder's
//! claim or commit terminal transitions for a job it no longer owns.

use crate::store::{epoch_ms, JobStore};
use crate::{JobState, Result, ServeError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Supervisor tuning knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Scan interval in milliseconds.
    pub scan_ms: u64,
    /// Consecutive flat-heartbeat scans before a running job counts as
    /// hung. Generous by default: workers beat at grid-point and
    /// checkpoint boundaries, which can be seconds apart on big configs.
    pub hang_scans: u32,
    /// Exponential retry backoff base: attempt `n` waits
    /// `backoff_base_ms << (n - 1)` before it may be reclaimed.
    pub backoff_base_ms: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            scan_ms: 500,
            hang_scans: 20,
            backoff_base_ms: 100,
        }
    }
}

/// Aggregate counters of one supervisor run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Total reclaims (hang + dead worker + deadline).
    pub reclaimed: usize,
    /// Reclaims that requeued the job for another attempt.
    pub retried: usize,
    /// Reclaims that exhausted the retry budget into `quarantined`.
    pub quarantined: usize,
    /// Reclaims on `retries: 0` jobs, moved straight to `failed`.
    pub failed: usize,
}

/// The exponential backoff instant for a just-counted attempt.
pub(crate) fn backoff_deadline(base_ms: u64, attempts: u32) -> u64 {
    let shift = attempts.saturating_sub(1).min(16);
    epoch_ms().saturating_add(base_ms.saturating_mul(1 << shift))
}

/// Runs the supervisor loop until `done` is raised. Per-job store errors
/// are tolerated (the job is skipped this scan); only a broken store root
/// aborts the loop.
///
/// # Errors
///
/// [`ServeError::Io`] when the jobs directory itself is unreadable.
pub fn supervise(
    store: &JobStore,
    cfg: &SupervisorConfig,
    done: &AtomicBool,
    on_event: &(impl Fn(&str) + Sync),
) -> Result<SupervisorStats> {
    let mut stats = SupervisorStats::default();
    // id -> (last observed heartbeat sequence, flat scan count).
    let mut watch: HashMap<String, (u64, u32)> = HashMap::new();
    while !done.load(Ordering::SeqCst) {
        scan(store, cfg, &mut watch, &mut stats, on_event)?;
        // Sleep in small slices so shutdown is prompt.
        let mut slept = 0;
        while slept < cfg.scan_ms && !done.load(Ordering::SeqCst) {
            let slice = (cfg.scan_ms - slept).min(10);
            std::thread::sleep(Duration::from_millis(slice));
            slept += slice;
        }
    }
    Ok(stats)
}

/// One supervisor scan over the store. Exposed for deterministic tests
/// (drive scans by hand instead of racing a thread).
pub fn scan(
    store: &JobStore,
    cfg: &SupervisorConfig,
    watch: &mut HashMap<String, (u64, u32)>,
    stats: &mut SupervisorStats,
    on_event: &(impl Fn(&str) + Sync),
) -> Result<()> {
    let ids = store.list()?;
    // Drop watch entries for jobs that left `running`.
    watch.retain(|id, _| ids.binary_search(id).is_ok());
    for id in ids {
        let state = match store.state(&id) {
            Ok(s) => s,
            Err(_) => continue, // damaged dir: scrub's problem, not ours
        };
        if state != JobState::Running {
            watch.remove(&id);
            continue;
        }
        if let Some(reason) = reclaim_reason(store, cfg, &id, watch) {
            watch.remove(&id);
            if let Err(e) = reclaim(store, cfg, &id, &reason, stats, on_event) {
                // A worker racing us to a terminal transition is benign —
                // the job finished; anything else is worth surfacing.
                if !matches!(e, ServeError::State(_)) {
                    return Err(e);
                }
            }
        }
    }
    Ok(())
}

/// Why a running job must be reclaimed, if any reason applies this scan.
fn reclaim_reason(
    store: &JobStore,
    cfg: &SupervisorConfig,
    id: &str,
    watch: &mut HashMap<String, (u64, u32)>,
) -> Option<String> {
    // Dead worker: the claim names a pid that is gone. Our own pid is
    // always alive, so in-process workers never trip this.
    if let Some(pid) = store.claim_pid(id) {
        if pid != std::process::id() && !pid_alive(pid) {
            return Some(format!("worker process {pid} is gone"));
        }
    }
    // Deadline: the attempt outlived the spec's `deadline_ms`.
    let deadline_forced =
        failpoints::ENABLED && failpoints::eval("serve::deadline_expire").is_some();
    if deadline_forced {
        return Some("attempt exceeded its deadline (injected)".into());
    }
    if let Ok(spec) = store.load_spec(id) {
        if let (Some(deadline), Some(started)) = (spec.deadline_ms, store.started_ms(id)) {
            let now = epoch_ms();
            if now.saturating_sub(started) > deadline {
                return Some(format!(
                    "attempt exceeded its {deadline} ms deadline ({} ms elapsed)",
                    now - started
                ));
            }
        }
    }
    // Hang: heartbeat sequence flat across `hang_scans` scans.
    let seq = store.heartbeat_seq(id);
    let entry = watch.entry(id.to_owned()).or_insert((seq, 0));
    if entry.0 == seq {
        entry.1 += 1;
        if entry.1 >= cfg.hang_scans {
            return Some(format!("heartbeat flat at seq {seq} for {} scans", entry.1));
        }
    } else {
        *entry = (seq, 0);
    }
    None
}

/// Breaks a running job's claim and routes it by retry budget: requeue
/// with backoff, `failed` (`retries: 0`), or `quarantined` (exhausted).
fn reclaim(
    store: &JobStore,
    cfg: &SupervisorConfig,
    id: &str,
    reason: &str,
    stats: &mut SupervisorStats,
    on_event: &(impl Fn(&str) + Sync),
) -> Result<()> {
    store.break_claim(id)?;
    // Re-check under no claim: the worker may have finished while we
    // decided (its terminal transition wins; nothing to reclaim).
    if store.state(id)? != JobState::Running {
        return Ok(());
    }
    let attempts = store.record_attempt(id)?;
    let retries = store.load_spec(id).map(|s| s.retries).unwrap_or(0);
    stats.reclaimed += 1;
    let msg = format!(
        "supervisor reclaim: {reason} (attempt {attempts} of {} allowed)",
        u64::from(retries) + 1
    );
    if attempts > retries {
        if retries > 0 {
            store.quarantine(id, &msg)?;
            stats.quarantined += 1;
            on_event(&format!("supervisor {id} quarantined: {reason}"));
        } else {
            store.write_error(id, &msg)?;
            store.transition(id, JobState::Running, JobState::Failed)?;
            stats.failed += 1;
            on_event(&format!("supervisor {id} failed: {reason}"));
        }
    } else {
        store.transition(id, JobState::Running, JobState::Queued)?;
        store.set_backoff(id, backoff_deadline(cfg.backoff_base_ms, attempts))?;
        stats.retried += 1;
        on_event(&format!(
            "supervisor {id} reclaimed (attempt {attempts}): {reason}"
        ));
    }
    Ok(())
}

/// Whether a pid names a live process.
pub(crate) fn pid_alive(pid: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        std::path::Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        true // no portable probe: assume alive, rely on hang detection
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;
    use std::fs;

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("terse_sup_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn spec(id: &str, extra: &str) -> JobSpec {
        JobSpec::from_json(&format!(
            r#"{{"id":"{id}","workload":{{"asm":"halt\n"}},"samples":1{extra}}}"#
        ))
        .unwrap()
    }

    fn quiet() -> impl Fn(&str) + Sync {
        |_: &str| {}
    }

    /// Drives `n` scans by hand (no supervisor thread, no sleeps).
    fn scans(
        store: &JobStore,
        cfg: &SupervisorConfig,
        watch: &mut HashMap<String, (u64, u32)>,
        stats: &mut SupervisorStats,
        n: u32,
    ) {
        for _ in 0..n {
            scan(store, cfg, watch, stats, &quiet()).unwrap();
        }
    }

    #[test]
    fn flat_heartbeat_reclaims_and_requeues_with_backoff() {
        let root = temp_store("hang");
        let store = JobStore::open(&root).unwrap();
        store.submit(&spec("h", r#","retries":2"#)).unwrap();
        assert!(store.try_claim_token("h").unwrap().is_some());
        store
            .transition("h", JobState::Queued, JobState::Running)
            .unwrap();
        let cfg = SupervisorConfig {
            scan_ms: 1,
            hang_scans: 3,
            backoff_base_ms: 50,
        };
        let mut watch = HashMap::new();
        let mut stats = SupervisorStats::default();
        // Beating keeps the job alive.
        scans(&store, &cfg, &mut watch, &mut stats, 2);
        store.beat("h");
        scans(&store, &cfg, &mut watch, &mut stats, 2);
        assert_eq!(stats.reclaimed, 0);
        assert_eq!(store.state("h").unwrap(), JobState::Running);
        // Silence for hang_scans scans reclaims it.
        scans(&store, &cfg, &mut watch, &mut stats, 3);
        assert_eq!(stats.reclaimed, 1);
        assert_eq!(stats.retried, 1);
        assert_eq!(store.state("h").unwrap(), JobState::Queued);
        assert_eq!(store.attempts("h"), 1);
        assert!(store.in_backoff("h"));
        // The stale worker's claim is gone: the job is claimable again.
        assert!(store.try_claim_token("h").unwrap().is_some());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn exhausted_retry_budget_quarantines() {
        let root = temp_store("exhaust");
        let store = JobStore::open(&root).unwrap();
        store.submit(&spec("x", r#","retries":1"#)).unwrap();
        let cfg = SupervisorConfig {
            scan_ms: 1,
            hang_scans: 1,
            backoff_base_ms: 0,
        };
        let mut watch = HashMap::new();
        let mut stats = SupervisorStats::default();
        for round in 0..2 {
            assert!(
                store.try_claim_token("x").unwrap().is_some(),
                "round {round}"
            );
            store
                .transition("x", JobState::Queued, JobState::Running)
                .unwrap();
            // Two flat scans: one to baseline the sequence, one to trip.
            scans(&store, &cfg, &mut watch, &mut stats, 2);
        }
        assert_eq!(stats.reclaimed, 2);
        assert_eq!((stats.retried, stats.quarantined), (1, 1));
        assert_eq!(store.state("x").unwrap(), JobState::Quarantined);
        let bundle = store.job_dir("x").join("quarantine");
        for f in ["spec.json", "error.txt", "transitions.log", "attempts"] {
            assert!(bundle.join(f).exists(), "bundle missing {f}");
        }
        let err = store.read_error("x").unwrap();
        assert!(err.contains("heartbeat flat"), "{err}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn zero_retries_jobs_fail_on_reclaim() {
        let root = temp_store("zero");
        let store = JobStore::open(&root).unwrap();
        store.submit(&spec("z", "")).unwrap();
        assert!(store.try_claim_token("z").unwrap().is_some());
        store
            .transition("z", JobState::Queued, JobState::Running)
            .unwrap();
        let cfg = SupervisorConfig {
            scan_ms: 1,
            hang_scans: 1,
            backoff_base_ms: 0,
        };
        let mut watch = HashMap::new();
        let mut stats = SupervisorStats::default();
        scans(&store, &cfg, &mut watch, &mut stats, 2);
        assert_eq!((stats.reclaimed, stats.failed), (1, 1));
        assert_eq!(store.state("z").unwrap(), JobState::Failed);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn deadline_expiry_reclaims_promptly() {
        let root = temp_store("deadline");
        let store = JobStore::open(&root).unwrap();
        store
            .submit(&spec("d", r#","retries":1,"deadline_ms":1"#))
            .unwrap();
        assert!(store.try_claim_token("d").unwrap().is_some());
        store.mark_started("d").unwrap();
        store
            .transition("d", JobState::Queued, JobState::Running)
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let cfg = SupervisorConfig {
            scan_ms: 1,
            hang_scans: 1000, // hang detection can't be the trigger
            backoff_base_ms: 0,
        };
        let mut watch = HashMap::new();
        let mut stats = SupervisorStats::default();
        // Beat every scan so only the deadline can reclaim.
        store.beat("d");
        scans(&store, &cfg, &mut watch, &mut stats, 1);
        assert_eq!(stats.reclaimed, 1);
        assert_eq!(store.state("d").unwrap(), JobState::Queued);
        let err = store.read_error("d");
        assert!(err.is_none(), "requeue records no error.txt");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dead_pid_claims_are_reclaimed() {
        let root = temp_store("deadpid");
        let store = JobStore::open(&root).unwrap();
        store.submit(&spec("p", r#","retries":1"#)).unwrap();
        assert!(store.try_claim_token("p").unwrap().is_some());
        store
            .transition("p", JobState::Queued, JobState::Running)
            .unwrap();
        // Rewrite the claim as if a (now dead) foreign process held it.
        // Pid 0 is never a live claimable process.
        fs::write(store.job_dir("p").join("claim"), "0:7").unwrap();
        let cfg = SupervisorConfig {
            scan_ms: 1,
            hang_scans: 1000,
            backoff_base_ms: 0,
        };
        let mut watch = HashMap::new();
        let mut stats = SupervisorStats::default();
        scans(&store, &cfg, &mut watch, &mut stats, 1);
        assert_eq!(stats.reclaimed, 1);
        assert_eq!(store.state("p").unwrap(), JobState::Queued);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn backoff_deadline_grows_exponentially_and_saturates() {
        let now = epoch_ms();
        let d1 = backoff_deadline(100, 1);
        let d4 = backoff_deadline(100, 4);
        assert!(d1 >= now + 100 && d1 <= now + 100 + 1000);
        assert!(d4 >= now + 800, "attempt 4 waits 100 << 3");
        // Huge attempt counts must not overflow.
        let far = backoff_deadline(u64::MAX, u32::MAX);
        assert_eq!(far, u64::MAX);
    }
}
