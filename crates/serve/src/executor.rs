//! The worker pool.
//!
//! Every worker scans the store's queued jobs in sorted-id order and
//! claims the first one it can. Mutual exclusion is the store's `O_EXCL`
//! claim file, so correctness (no lost, no duplicated job) never depends
//! on the scan order, and multiple `terse serve` processes can share a
//! store. A job directory whose state cannot be read (one that
//! [`JobStore::recover`] reported damaged) is skipped, as the supervisor
//! skips it: it waits for `terse scrub` and never stops the pool.
//!
//! Each worker owns a [`FrameworkCache`]; frameworks are not shared across
//! workers (the framework's rayon pool is per-instance, and jobs default
//! to one thread each — parallelism comes from the pool of workers).
//!
//! A worker whose scan processed a job scans again at once. Each scan that
//! finds nothing to process sleeps before the next one: first
//! `IDLE_FLOOR_MS` (1 ms), then twice as long after each further empty
//! scan, up to [`ExecutorConfig::poll_ms`]. So a job submitted just after
//! a completion is picked up within about a millisecond, while a long idle
//! stretch costs at most ⌈log2(`poll_ms`)⌉ scans more than a flat
//! `poll_ms` sleep would (5 at the 20 ms default). Workers poll the store
//! rather than wait on an in-process signal, because jobs arrive from
//! other processes (`terse submit`) and by directory renames into `jobs/`,
//! which only a directory listing sees.
//!
//! In drain mode a worker exits when a full scan finds no queued job and
//! no worker is busy (a busy worker may still requeue a time-sliced job,
//! so the queue is only provably empty when both hold). Queued jobs inside
//! a retry backoff window still count as pending — a worker waits them
//! out rather than abandoning them.
//!
//! A supervisor thread (see [`crate::supervise`]) runs alongside the pool,
//! reclaiming hung, dead, and deadline-expired jobs. Workers hold fencing
//! tokens for their claims: a worker whose job was reclaimed detects the
//! lost claim before any terminal transition and abandons the attempt
//! (its checkpoint/report writes are idempotent and deterministic, so the
//! retry converges on bit-identical artifacts).

use crate::runner::{run_job, FrameworkCache, RunOutcome};
use crate::store::JobStore;
use crate::supervise::{backoff_deadline, supervise, SupervisorConfig};
use crate::{JobState, Result, ServeError};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker threads (>= 1).
    pub workers: usize,
    /// Exit once the queue is fully drained (otherwise poll forever).
    pub drain: bool,
    /// The longest idle sleep between two scans of a worker, in
    /// milliseconds. After a processed job the sleep starts at 1 ms and
    /// doubles with each empty scan up to this cap, so an idle stretch
    /// costs at most ⌈log2(`poll_ms`)⌉ scans more than a flat `poll_ms`
    /// sleep. `0` never sleeps.
    pub poll_ms: u64,
    /// Supervisor tuning (scan interval, hang threshold, retry backoff).
    pub supervisor: SupervisorConfig,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 4,
            drain: true,
            poll_ms: 20,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Aggregate counters of one executor run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Jobs taken to `done`.
    pub completed: usize,
    /// Jobs taken to `failed`.
    pub failed: usize,
    /// Jobs taken to `cancelled`.
    pub cancelled: usize,
    /// `running → queued` requeues (time slicing / budgets).
    pub requeued: usize,
    /// Claim attempts that processed a job (attempts = the sum of the
    /// other transition counters).
    pub attempts: usize,
    /// Failed attempts requeued for retry (worker-side retry budget).
    pub retried: usize,
    /// Jobs whose retry budget was exhausted into `quarantined`.
    pub quarantined: usize,
    /// Supervisor reclaims (hang / dead worker / deadline expiry).
    pub reclaimed: usize,
    /// Attempts abandoned because the supervisor broke the claim while
    /// the worker was still running the job.
    pub preempted: usize,
}

impl ExecutorStats {
    fn absorb(&mut self, other: ExecutorStats) {
        self.completed += other.completed;
        self.failed += other.failed;
        self.cancelled += other.cancelled;
        self.requeued += other.requeued;
        self.attempts += other.attempts;
        self.retried += other.retried;
        self.quarantined += other.quarantined;
        self.reclaimed += other.reclaimed;
        self.preempted += other.preempted;
    }
}

/// The first idle sleep after a scan that processed a job, in
/// milliseconds.
const IDLE_FLOOR_MS: u64 = 1;

/// The sleep before a worker's next scan, in milliseconds. A scan that
/// processed a job rescans at once and resets `idle_ms` to the floor; an
/// empty scan sleeps `idle_ms` capped at `poll_ms`, and doubles `idle_ms`
/// for the next one.
fn idle_sleep_ms(idle_ms: &mut u64, processed: bool, poll_ms: u64) -> u64 {
    if processed {
        *idle_ms = IDLE_FLOOR_MS;
        return 0;
    }
    let sleep_ms = (*idle_ms).min(poll_ms);
    *idle_ms = idle_ms.saturating_mul(2);
    sleep_ms
}

/// Runs store recovery, then the worker pool plus supervisor, until
/// drained (drain mode) or until `stop` is raised (daemon mode).
///
/// `on_event` receives one line per job-state change, e.g.
/// `"w2 job-17 done"` — the CLI streams these to stderr; tests collect
/// them to audit the state machine.
///
/// # Errors
///
/// [`ServeError::Run`] when a worker thread cannot be spawned, store
/// errors from recovery. Per-job failures are *not* errors here — they
/// move the job to `failed`/`quarantined` and count in [`ExecutorStats`].
pub fn serve(
    store: &JobStore,
    cfg: &ExecutorConfig,
    stop: &AtomicBool,
    on_event: impl Fn(&str) + Sync,
) -> Result<ExecutorStats> {
    let recovery = store.recover()?;
    for id in &recovery.requeued {
        on_event(&format!("recover {id} requeued"));
    }
    for id in &recovery.repaired {
        on_event(&format!("recover {id} repaired (torn submit)"));
    }
    for id in &recovery.damaged {
        on_event(&format!("recover {id} damaged (run `terse scrub`)"));
    }
    let workers = cfg.workers.max(1);
    let busy = AtomicUsize::new(0);
    let pool_done = AtomicBool::new(false);
    let mut stats = ExecutorStats::default();
    std::thread::scope(|scope| -> Result<()> {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            failpoints::fail_point!("serve::worker_spawn", |_| Err(ServeError::Run(
                "injected worker-spawn fault".into()
            )));
            let busy = &busy;
            let on_event = &on_event;
            let builder = std::thread::Builder::new().name(format!("terse-worker-{w}"));
            let handle = builder
                .spawn_scoped(scope, move || {
                    worker_loop(store, w, cfg, stop, busy, on_event)
                })
                .map_err(|e| ServeError::Run(format!("worker spawn failed: {e}")))?;
            handles.push(handle);
        }
        // The supervisor is spawned after the workers so a worker-spawn
        // fault leaves nothing running; it exits when the pool drains.
        let sup_handle = {
            let pool_done = &pool_done;
            let on_event = &on_event;
            std::thread::Builder::new()
                .name("terse-supervisor".into())
                .spawn_scoped(scope, move || {
                    supervise(store, &cfg.supervisor, pool_done, on_event)
                })
                .map_err(|e| ServeError::Run(format!("supervisor spawn failed: {e}")))?
        };
        let mut pool_result = Ok(());
        for handle in handles {
            match handle.join() {
                Ok(Ok(s)) => stats.absorb(s),
                Ok(Err(e)) => {
                    if pool_result.is_ok() {
                        pool_result = Err(e);
                    }
                }
                Err(_) => {
                    if pool_result.is_ok() {
                        pool_result = Err(ServeError::Run("worker panicked".into()));
                    }
                }
            }
        }
        pool_done.store(true, Ordering::SeqCst);
        match sup_handle.join() {
            Ok(Ok(s)) => {
                stats.reclaimed += s.reclaimed;
                stats.retried += s.retried;
                stats.quarantined += s.quarantined;
                stats.failed += s.failed;
            }
            Ok(Err(e)) => {
                if pool_result.is_ok() {
                    pool_result = Err(e);
                }
            }
            Err(_) => {
                if pool_result.is_ok() {
                    pool_result = Err(ServeError::Run("supervisor panicked".into()));
                }
            }
        }
        pool_result
    })?;
    Ok(stats)
}

fn worker_loop(
    store: &JobStore,
    w: usize,
    cfg: &ExecutorConfig,
    stop: &AtomicBool,
    busy: &AtomicUsize,
    on_event: &(impl Fn(&str) + Sync),
) -> Result<ExecutorStats> {
    let mut cache = FrameworkCache::new();
    let mut stats = ExecutorStats::default();
    let mut idle_ms = IDLE_FLOOR_MS;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(stats);
        }
        // Deterministic scan in sorted-id order; a damaged dir (state
        // unreadable) is skipped, not fatal.
        let queued: Vec<String> = store
            .list()?
            .into_iter()
            .filter(|id| matches!(store.state(id), Ok(JobState::Queued)))
            .collect();
        // Backoff jobs still count as pending work (drain must wait for
        // them) but are not claimable yet.
        let had_queued = !queued.is_empty();
        let mut processed = false;
        for id in queued {
            if stop.load(Ordering::SeqCst) {
                return Ok(stats);
            }
            if store.in_backoff(&id) {
                continue;
            }
            let Some(token) = store.try_claim_token(&id)? else {
                continue;
            };
            busy.fetch_add(1, Ordering::SeqCst);
            let outcome =
                process_claimed(store, &id, &token, &mut cache, cfg, &mut stats, w, on_event);
            busy.fetch_sub(1, Ordering::SeqCst);
            outcome?;
            processed = true;
        }
        if !processed && cfg.drain && !had_queued && busy.load(Ordering::SeqCst) == 0 {
            return Ok(stats);
        }
        let sleep_ms = idle_sleep_ms(&mut idle_ms, processed, cfg.poll_ms);
        std::thread::sleep(Duration::from_millis(sleep_ms));
    }
}

/// Processes one claimed job: state transitions around [`run_job`]. The
/// claim is released through its fencing token, whatever the outcome —
/// unless the supervisor already broke it, in which case the attempt is
/// abandoned without touching the state machine (the reclaim owns it).
#[allow(clippy::too_many_arguments)]
fn process_claimed(
    store: &JobStore,
    id: &str,
    token: &crate::store::ClaimToken,
    cache: &mut FrameworkCache,
    cfg: &ExecutorConfig,
    stats: &mut ExecutorStats,
    w: usize,
    on_event: &(impl Fn(&str) + Sync),
) -> Result<()> {
    let result = (|| -> Result<()> {
        // Between the scan and the claim someone may have transitioned the
        // job (e.g. `terse cancel` on an unclaimed queued job); re-check
        // under the claim.
        if store.state(id)? != JobState::Queued {
            return Ok(());
        }
        stats.attempts += 1;
        if store.cancel_requested(id) {
            store.transition(id, JobState::Queued, JobState::Cancelled)?;
            stats.cancelled += 1;
            on_event(&format!("w{w} {id} cancelled"));
            return Ok(());
        }
        store.mark_started(id)?;
        store.transition(id, JobState::Queued, JobState::Running)?;
        store.beat(id);
        on_event(&format!("w{w} {id} running"));
        let outcome = run_job(store, id, cache);
        // The supervisor may have reclaimed the job while we ran (hang /
        // deadline). Our claim token no longer holds: the reclaim owns the
        // job's fate, and every write we made is idempotent — abandon.
        if !store.holds_claim(id, token) {
            stats.preempted += 1;
            on_event(&format!("w{w} {id} preempted (claim reclaimed)"));
            return Ok(());
        }
        match outcome {
            Ok(RunOutcome::Done) => {
                store.transition(id, JobState::Running, JobState::Done)?;
                stats.completed += 1;
                on_event(&format!("w{w} {id} done"));
            }
            Ok(RunOutcome::Requeued { completed, total }) => {
                store.transition(id, JobState::Running, JobState::Queued)?;
                stats.requeued += 1;
                on_event(&format!("w{w} {id} requeued {completed}/{total}"));
            }
            Ok(RunOutcome::Cancelled) => {
                store.transition(id, JobState::Running, JobState::Cancelled)?;
                stats.cancelled += 1;
                on_event(&format!("w{w} {id} cancelled"));
            }
            Err(e) => {
                let attempts = store.record_attempt(id)?;
                let retries = store.load_spec(id).map(|s| s.retries).unwrap_or(0);
                if attempts > retries {
                    if retries > 0 {
                        store.quarantine(id, &e.to_string())?;
                        stats.quarantined += 1;
                        on_event(&format!("w{w} {id} quarantined: {e}"));
                    } else {
                        store.write_error(id, &e.to_string())?;
                        store.transition(id, JobState::Running, JobState::Failed)?;
                        stats.failed += 1;
                        on_event(&format!("w{w} {id} failed: {e}"));
                    }
                } else {
                    store.write_error(id, &e.to_string())?;
                    store.transition(id, JobState::Running, JobState::Queued)?;
                    store.set_backoff(
                        id,
                        backoff_deadline(cfg.supervisor.backoff_base_ms, attempts),
                    )?;
                    stats.retried += 1;
                    on_event(&format!("w{w} {id} retry {attempts}/{retries}: {e}"));
                }
            }
        }
        Ok(())
    })();
    // Release even on store errors — a stuck claim would wedge the job
    // until the next recovery. Fenced: never release a successor's claim.
    let release = store.release_claim_if(id, token).map(|_| ());
    result.and(release)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;
    use std::sync::Mutex;

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("terse_exec_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn tiny(id: &str, extra: &str) -> JobSpec {
        JobSpec::from_json(&format!(
            r#"{{"id":"{id}","workload":{{"asm":"li r1, 0xAAAA\nadd r2, r1, r1\nhalt\n","name":"tiny"}},"samples":1,"grid":[1.4],"checkpoint_every":2{extra}}}"#
        ))
        .expect("spec")
    }

    #[test]
    fn drains_a_small_batch_across_workers() {
        let root = temp_store("batch");
        let store = JobStore::open(&root).unwrap();
        for i in 0..6 {
            store.submit(&tiny(&format!("job-{i}"), "")).unwrap();
        }
        let events = Mutex::new(Vec::new());
        let stats = serve(
            &store,
            &ExecutorConfig {
                workers: 3,
                drain: true,
                poll_ms: 5,
                ..ExecutorConfig::default()
            },
            &AtomicBool::new(false),
            |e| events.lock().unwrap().push(e.to_owned()),
        )
        .unwrap();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.failed + stats.cancelled, 0);
        for i in 0..6 {
            assert_eq!(
                store.state(&format!("job-{i}")).unwrap(),
                JobState::Done,
                "job-{i}"
            );
        }
        // Every job reported exactly one `done` event (no duplication).
        let done_events = events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.ends_with(" done"))
            .count();
        assert_eq!(done_events, 6);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn failed_jobs_are_isolated() {
        let root = temp_store("fail");
        let store = JobStore::open(&root).unwrap();
        store.submit(&tiny("ok", "")).unwrap();
        // An infinite loop trips the instruction budget -> job failure.
        let bad = JobSpec::from_json(
            r#"{"id":"bad","workload":{"asm":"jal r0, 0\n","name":"loop"},"samples":1,"grid":[1.4]}"#,
        )
        .unwrap();
        store.submit(&bad).unwrap();
        let stats = serve(
            &store,
            &ExecutorConfig {
                workers: 2,
                drain: true,
                poll_ms: 5,
                ..ExecutorConfig::default()
            },
            &AtomicBool::new(false),
            |_| {},
        )
        .unwrap();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(store.state("ok").unwrap(), JobState::Done);
        assert_eq!(store.state("bad").unwrap(), JobState::Failed);
        assert!(store.job_dir("bad").join("error.txt").exists());
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Every stored spec carries a `"sim"` key. A job queued with a retired
    /// strategy fails with a spec error naming it; a job stored with
    /// `"sim":"event"` completes with the deterministic section it had
    /// before the key was retired (digest pinned from that build).
    #[test]
    fn queued_jobs_with_retired_sim_value_fail_typed_and_event_jobs_complete() {
        let root = temp_store("sim");
        let store = JobStore::open(&root).unwrap();
        store.submit(&tiny("packed", "")).unwrap();
        store.submit(&tiny("event", "")).unwrap();
        let spec_path = store.job_dir("packed").join("spec.json");
        let text = std::fs::read_to_string(&spec_path).unwrap();
        assert!(text.contains(r#""sim":"event""#), "{text}");
        std::fs::write(
            &spec_path,
            text.replace(r#""sim":"event""#, r#""sim":"packed""#),
        )
        .unwrap();
        let stats = serve(
            &store,
            &ExecutorConfig {
                workers: 1,
                drain: true,
                poll_ms: 5,
                ..ExecutorConfig::default()
            },
            &AtomicBool::new(false),
            |_| {},
        )
        .unwrap();
        assert_eq!((stats.completed, stats.failed), (1, 1));
        assert_eq!(store.state("packed").unwrap(), JobState::Failed);
        let error = store.read_error("packed").expect("error.txt written");
        assert!(error.contains(r#""packed" is retired"#), "{error}");
        assert_eq!(store.state("event").unwrap(), JobState::Done);
        let section = crate::deterministic_section(&store.read_report("event").unwrap()).unwrap();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in section.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(format!("{h:016x}"), "25fa95c4cfe2eadd", "{section}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A job queued before phase sampling was removed still has a
    /// `"sampling"` section in its on-disk spec. Draining must fail it with
    /// a typed spec error naming the key: no panic, no silent exact run.
    #[test]
    fn queued_job_with_retired_sampling_section_fails_typed() {
        let root = temp_store("sampling");
        let store = JobStore::open(&root).unwrap();
        store.submit(&tiny("old", "")).unwrap();
        let spec_path = store.job_dir("old").join("spec.json");
        let text = std::fs::read_to_string(&spec_path).unwrap();
        let old = format!(
            "{},\"sampling\":{{\"window_size\":64,\"max_clusters\":4}}}}",
            text.trim_end().strip_suffix('}').unwrap()
        );
        std::fs::write(&spec_path, old).unwrap();
        let stats = serve(
            &store,
            &ExecutorConfig {
                workers: 1,
                drain: true,
                poll_ms: 5,
                ..ExecutorConfig::default()
            },
            &AtomicBool::new(false),
            |_| {},
        )
        .unwrap();
        assert_eq!((stats.completed, stats.failed), (0, 1));
        assert_eq!(store.state("old").unwrap(), JobState::Failed);
        let error = store.read_error("old").expect("error.txt written");
        assert!(error.contains("sampling"), "{error}");
        assert!(
            store.read_report("old").is_err(),
            "no report from an exact rerun"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn failing_jobs_with_retries_are_retried_then_quarantined() {
        let root = temp_store("retry");
        let store = JobStore::open(&root).unwrap();
        // Always fails (instruction budget), two retries allowed.
        let bad = JobSpec::from_json(
            r#"{"id":"rq","workload":{"asm":"jal r0, 0\n","name":"loop"},"samples":1,"grid":[1.4],"retries":2}"#,
        )
        .unwrap();
        store.submit(&bad).unwrap();
        let mut cfg = ExecutorConfig {
            workers: 1,
            drain: true,
            poll_ms: 2,
            ..ExecutorConfig::default()
        };
        cfg.supervisor.backoff_base_ms = 1; // keep the drain fast
        let events = Mutex::new(Vec::new());
        let stats = serve(&store, &cfg, &AtomicBool::new(false), |e| {
            events.lock().unwrap().push(e.to_owned())
        })
        .unwrap();
        assert_eq!(stats.retried, 2, "{:?}", events.lock().unwrap());
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.failed, 0, "quarantine replaces failed here");
        assert_eq!(store.state("rq").unwrap(), JobState::Quarantined);
        assert_eq!(store.attempts("rq"), 3);
        // The bundle is complete and the error names the real failure.
        let bundle = store.job_dir("rq").join("quarantine");
        for f in ["spec.json", "error.txt", "transitions.log", "attempts"] {
            assert!(bundle.join(f).exists(), "bundle missing {f}");
        }
        // The transition history shows the retry loop.
        let log = store.read_transitions("rq").unwrap();
        assert_eq!(log.matches("running -> queued").count(), 2, "{log}");
        assert!(log.ends_with("running -> quarantined\n"), "{log}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn idle_sleep_doubles_to_the_cap_and_resets_after_a_job() {
        let mut idle_ms = IDLE_FLOOR_MS;
        // Past 64 empty scans the doubling saturates rather than overflows.
        let sleeps: Vec<u64> = (0..80)
            .map(|_| idle_sleep_ms(&mut idle_ms, false, 20))
            .collect();
        assert_eq!(sleeps[..6], [1, 2, 4, 8, 16, 20]);
        assert!(sleeps[6..].iter().all(|&ms| ms == 20));
        assert_eq!(idle_sleep_ms(&mut idle_ms, true, 20), 0);
        assert_eq!(idle_sleep_ms(&mut idle_ms, false, 20), 1);
        assert_eq!(idle_sleep_ms(&mut idle_ms, false, 20), 2);
        // A cap below the floor wins, and 0 never sleeps.
        for poll_ms in [0, 1] {
            let mut idle_ms = IDLE_FLOOR_MS;
            for _ in 0..4 {
                assert_eq!(idle_sleep_ms(&mut idle_ms, false, poll_ms), poll_ms);
            }
        }
    }

    /// A daemon whose cap is a minute still picks up a job submitted right
    /// after a completion: the worker re-polls within milliseconds rather
    /// than sleeping out `poll_ms`.
    #[test]
    fn daemon_picks_up_a_job_submitted_after_a_completion() {
        let root = temp_store("repoll");
        let store = JobStore::open(&root).unwrap();
        store.submit(&tiny("a", "")).unwrap();
        let stop = AtomicBool::new(false);
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let cfg = ExecutorConfig {
            workers: 1,
            drain: false,
            poll_ms: 60_000,
            ..ExecutorConfig::default()
        };
        let (stats, b_done) = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                serve(&store, &cfg, &stop, |e| {
                    let _ = tx.send(e.to_owned());
                })
            });
            // Whether `id` reaches `done` within `timeout`.
            let done_within = |id: &str, timeout: Duration| {
                let deadline = std::time::Instant::now() + timeout;
                let want = format!(" {id} done");
                while let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) {
                    match rx.recv_timeout(left) {
                        Ok(event) if event.ends_with(&want) => return true,
                        Ok(_) => {}
                        Err(_) => return false,
                    }
                }
                false
            };
            let b_done = done_within("a", Duration::from_secs(60))
                && store.submit(&tiny("b", "")).is_ok()
                && done_within("b", Duration::from_secs(5));
            // Raised on every path, so the scope can join the daemon.
            stop.store(true, Ordering::SeqCst);
            (server.join().unwrap().unwrap(), b_done)
        });
        assert!(b_done, "job b was not done within 5 s of its submit");
        assert_eq!(stats.completed, 2);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
