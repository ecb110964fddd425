//! Fault-injection suite for the job server (runs with
//! `--features failpoints` on `terse-serve`).
//!
//! Every fail point compiled into the serving layer is driven here, and
//! every injected fault must surface as a **typed [`ServeError`]** at the
//! crate boundary — never a panic, never a silently wrong artifact, and
//! never a corrupted store. The catalog (see DESIGN.md §16):
//!
//! | fail point           | site                       | injected error |
//! |----------------------|----------------------------|----------------|
//! | `serve::spec_parse`  | `JobSpec::from_json`       | `ServeError::Spec` |
//! | `serve::store_write` | every atomic store write   | `ServeError::Io` |
//! | `serve::worker_spawn`| executor worker spawn      | `ServeError::Run` |
//! | `serve::ckpt_flush`  | per-point result flush     | `ServeError::Io` (job → `failed`) |
//! | `serve::enospc`      | every atomic store write   | `ServeError::Io` (ENOSPC) |
//! | `serve::heartbeat_loss` | worker heartbeat writes | silently dropped beats |
//! | `serve::worker_hang` | top of `run_job`           | injected stall (payload = ms) |
//! | `serve::deadline_expire` | supervisor scan        | forced deadline reclaim |
//! | `integrity::frame_corrupt` | `TERSEFR1` framing   | corrupted checkpoint images |
//!
//! Like the core pipeline, the server fails fast: a fault inside one job
//! fails *that job* (typed error recorded in `error.txt`, legal
//! `running → failed` transition); a fault in the store or the pool
//! surfaces as a typed error from [`serve`] with the on-disk state machine
//! left consistent, so a later run recovers.
//!
//! Tests hold a [`FailScenario`] for their whole body: it serializes
//! scenarios across test threads and clears the registry on entry and
//! drop, so points configured here can never leak into other tests.

use failpoints::FailScenario;
use std::sync::atomic::AtomicBool;
use terse_serve::{serve, ExecutorConfig, JobSpec, JobState, JobStore, ServeError};

fn temp_store(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("terse_fi_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A multi-block kernel (loop + tail) that runs to `done` when no fault
/// is configured.
fn good_spec(id: &str) -> JobSpec {
    JobSpec::from_json(&format!(
        r#"{{"id":"{id}","workload":{{"asm":"li r1, 3\nli r2, 0xF0F0\nloop: add r3, r3, r2\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n","name":"fi"}},"samples":1,"grid":[1.4]}}"#
    ))
    .expect("spec parses with no faults configured")
}

fn drain_cfg(workers: usize) -> ExecutorConfig {
    ExecutorConfig {
        workers,
        drain: true,
        poll_ms: 2,
        ..ExecutorConfig::default()
    }
}

/// A failed submit leaves nothing behind: no job dir under `jobs/` and no
/// stray stage under `incoming/` (`JobStore::submit` stages the job there
/// and removes the stage on error).
fn failed_submit_left_no_trace(store: &JobStore, root: &std::path::Path, id: &str) -> bool {
    let staged = std::fs::read_dir(root.join("incoming"))
        .map(|dir| dir.count())
        .unwrap_or(0);
    !store.job_dir(id).exists() && staged == 0
}

fn analyzer_is_clean(root: &std::path::Path) -> bool {
    let mut report = terse_analyze::AnalysisReport::new();
    terse_analyze::analyze_job_store(root, &mut report).expect("store scan");
    report.is_clean()
}

#[test]
fn spec_parse_faults_are_typed_errors() {
    let _scenario = FailScenario::setup();
    failpoints::cfg("serve::spec_parse", "return").unwrap();
    let err = JobSpec::from_json(r#"{"id":"p1","workload":{"asm":"halt\n"}}"#).unwrap_err();
    assert!(matches!(err, ServeError::Spec(_)), "{err}");
    assert!(err.to_string().contains("injected"), "{err}");
    failpoints::remove("serve::spec_parse");
    // The same source parses once the point is removed.
    assert!(JobSpec::from_json(r#"{"id":"p1","workload":{"asm":"halt\n"}}"#).is_ok());
}

#[test]
fn spec_parse_fault_fails_the_job_not_the_server() {
    let _scenario = FailScenario::setup();
    let root = temp_store("spec");
    let store = JobStore::open(&root).unwrap();
    store.submit(&good_spec("fi-spec")).unwrap();
    // The fault fires when the *worker* re-loads the spec: the job moves
    // to `failed` with the typed message recorded, the pool survives.
    failpoints::cfg("serve::spec_parse", "return").unwrap();
    let stats = serve(&store, &drain_cfg(1), &AtomicBool::new(false), |_| {}).unwrap();
    failpoints::remove("serve::spec_parse");
    assert_eq!((stats.completed, stats.failed), (0, 1));
    assert_eq!(store.state("fi-spec").unwrap(), JobState::Failed);
    let msg = std::fs::read_to_string(store.job_dir("fi-spec").join("error.txt")).unwrap();
    assert!(msg.contains("injected spec-parse fault"), "{msg}");
    assert!(analyzer_is_clean(&root), "failed is a legal terminal state");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn store_write_faults_are_typed_and_leave_state_intact() {
    let _scenario = FailScenario::setup();
    let root = temp_store("write");
    let store = JobStore::open(&root).unwrap();
    store.submit(&good_spec("fi-w")).unwrap();
    // Persistent fault: submit of a new job fails typed; the existing
    // job's state file is untouched (reads don't go through the point).
    failpoints::cfg("serve::store_write", "return").unwrap();
    let err = store.submit(&good_spec("fi-w2")).unwrap_err();
    assert!(matches!(err, ServeError::Io { .. }), "{err}");
    assert!(
        err.to_string().contains("injected store-write fault"),
        "{err}"
    );
    let err = store
        .transition("fi-w", JobState::Queued, JobState::Running)
        .unwrap_err();
    assert!(matches!(err, ServeError::Io { .. }), "{err}");
    // The state write failed *before* anything changed: still queued, and
    // no orphan log line (state file is written first, log second).
    assert_eq!(store.state("fi-w").unwrap(), JobState::Queued);
    assert!(!store.job_dir("fi-w").join("transitions.log").exists());
    failpoints::remove("serve::store_write");
    // The failed submit was staged, so it tore nothing: no job dir, no
    // stray stage, and a clean audit.
    assert!(failed_submit_left_no_trace(&store, &root, "fi-w2"));
    assert!(analyzer_is_clean(&root));
    // Transient fault (`1*return`): one transition fails, the retry
    // succeeds, and the log chain stays consistent.
    failpoints::cfg("serve::store_write", "1*return").unwrap();
    assert!(store
        .transition("fi-w", JobState::Queued, JobState::Running)
        .is_err());
    store
        .transition("fi-w", JobState::Queued, JobState::Running)
        .unwrap();
    store
        .transition("fi-w", JobState::Running, JobState::Queued)
        .unwrap();
    let log = std::fs::read_to_string(store.job_dir("fi-w").join("transitions.log")).unwrap();
    assert_eq!(log, "queued -> running\nrunning -> queued\n");
    assert!(analyzer_is_clean(&root));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn store_write_fault_during_serve_is_a_typed_error_then_recovers() {
    let _scenario = FailScenario::setup();
    let root = temp_store("serve_write");
    let store = JobStore::open(&root).unwrap();
    store.submit(&good_spec("fi-sw")).unwrap();
    // Every store write fails: the pool surfaces a typed error instead of
    // panicking or corrupting the store.
    failpoints::cfg("serve::store_write", "return").unwrap();
    let err = serve(&store, &drain_cfg(1), &AtomicBool::new(false), |_| {}).unwrap_err();
    assert!(matches!(err, ServeError::Io { .. }), "{err}");
    failpoints::remove("serve::store_write");
    // The job is still queued (the failed write never landed) and its
    // claim was released, so a healthy run completes it.
    assert_eq!(store.state("fi-sw").unwrap(), JobState::Queued);
    let stats = serve(&store, &drain_cfg(1), &AtomicBool::new(false), |_| {}).unwrap();
    assert_eq!((stats.completed, stats.failed), (1, 0));
    assert_eq!(store.state("fi-sw").unwrap(), JobState::Done);
    assert!(analyzer_is_clean(&root));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn worker_spawn_faults_are_typed_errors() {
    let _scenario = FailScenario::setup();
    let root = temp_store("spawn");
    let store = JobStore::open(&root).unwrap();
    store.submit(&good_spec("fi-sp")).unwrap();
    failpoints::cfg("serve::worker_spawn", "return").unwrap();
    let err = serve(&store, &drain_cfg(2), &AtomicBool::new(false), |_| {}).unwrap_err();
    assert!(matches!(err, ServeError::Run(_)), "{err}");
    assert!(
        err.to_string().contains("injected worker-spawn fault"),
        "{err}"
    );
    // Nothing ran: the job is untouched.
    assert_eq!(store.state("fi-sp").unwrap(), JobState::Queued);
    failpoints::remove("serve::worker_spawn");
    let stats = serve(&store, &drain_cfg(2), &AtomicBool::new(false), |_| {}).unwrap();
    assert_eq!((stats.completed, stats.failed), (1, 0));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn ckpt_flush_fault_fails_one_job_and_isolates_the_rest() {
    let _scenario = FailScenario::setup();
    let root = temp_store("flush");
    let store = JobStore::open(&root).unwrap();
    store.submit(&good_spec("fi-a")).unwrap();
    store.submit(&good_spec("fi-b")).unwrap();
    // One worker processes ids in sorted order, so exactly the first job
    // hits the single-shot flush fault; the second completes normally.
    failpoints::cfg("serve::ckpt_flush", "1*return").unwrap();
    let stats = serve(&store, &drain_cfg(1), &AtomicBool::new(false), |_| {}).unwrap();
    failpoints::remove("serve::ckpt_flush");
    assert_eq!((stats.completed, stats.failed), (1, 1));
    assert_eq!(store.state("fi-a").unwrap(), JobState::Failed);
    assert_eq!(store.state("fi-b").unwrap(), JobState::Done);
    let msg = std::fs::read_to_string(store.job_dir("fi-a").join("error.txt")).unwrap();
    assert!(msg.contains("injected checkpoint-flush fault"), "{msg}");
    assert!(analyzer_is_clean(&root));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn enospc_faults_are_typed_and_recoverable() {
    let _scenario = FailScenario::setup();
    let root = temp_store("enospc");
    let store = JobStore::open(&root).unwrap();
    store.submit(&good_spec("fi-e")).unwrap();
    // A full disk fails every artifact write with a typed Io error.
    failpoints::cfg("serve::enospc", "return").unwrap();
    let err = store.submit(&good_spec("fi-e2")).unwrap_err();
    assert!(matches!(err, ServeError::Io { .. }), "{err}");
    assert!(err.to_string().contains("No space left"), "{err}");
    // The pool surfaces the same typed error instead of corrupting the
    // store; the queued job is untouched.
    let err = serve(&store, &drain_cfg(1), &AtomicBool::new(false), |_| {}).unwrap_err();
    assert!(matches!(err, ServeError::Io { .. }), "{err}");
    failpoints::remove("serve::enospc");
    assert_eq!(store.state("fi-e").unwrap(), JobState::Queued);
    // The failed submit of fi-e2 was staged: no job dir, no stray stage,
    // and a clean audit.
    assert!(failed_submit_left_no_trace(&store, &root, "fi-e2"));
    assert!(analyzer_is_clean(&root));
    // Space restored: the same store drains clean.
    let stats = serve(&store, &drain_cfg(1), &AtomicBool::new(false), |_| {}).unwrap();
    assert_eq!((stats.completed, stats.failed), (1, 0));
    assert!(analyzer_is_clean(&root));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn heartbeat_loss_is_best_effort_and_never_fails_a_job() {
    let _scenario = FailScenario::setup();
    let root = temp_store("hb");
    let store = JobStore::open(&root).unwrap();
    store.submit(&good_spec("fi-hb")).unwrap();
    // Every beat is dropped. The default supervisor needs 20 flat scans
    // at 500 ms to call that a hang, so a short job completes untouched —
    // lost heartbeats degrade detection latency, never correctness.
    failpoints::cfg("serve::heartbeat_loss", "return").unwrap();
    let stats = serve(&store, &drain_cfg(1), &AtomicBool::new(false), |_| {}).unwrap();
    failpoints::remove("serve::heartbeat_loss");
    assert_eq!((stats.completed, stats.failed), (1, 0));
    assert_eq!(store.state("fi-hb").unwrap(), JobState::Done);
    assert_eq!(store.heartbeat_seq("fi-hb"), 0, "no beat ever landed");
    assert!(analyzer_is_clean(&root));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn deadline_expire_fault_forces_a_supervisor_reclaim() {
    use std::collections::HashMap;
    use terse_serve::supervise::{scan, SupervisorConfig, SupervisorStats};

    let _scenario = FailScenario::setup();
    let root = temp_store("deadline");
    let store = JobStore::open(&root).unwrap();
    let spec =
        JobSpec::from_json(r#"{"id":"fi-dl","workload":{"asm":"halt\n"},"samples":1,"retries":1}"#)
            .unwrap();
    store.submit(&spec).unwrap();
    assert!(store.try_claim_token("fi-dl").unwrap().is_some());
    store
        .transition("fi-dl", JobState::Queued, JobState::Running)
        .unwrap();
    // The injected point forces the deadline branch regardless of clocks.
    failpoints::cfg("serve::deadline_expire", "return").unwrap();
    let cfg = SupervisorConfig {
        scan_ms: 1,
        hang_scans: 1000,
        backoff_base_ms: 0,
    };
    let mut watch = HashMap::new();
    let mut stats = SupervisorStats::default();
    scan(&store, &cfg, &mut watch, &mut stats, &|_: &str| {}).unwrap();
    failpoints::remove("serve::deadline_expire");
    assert_eq!((stats.reclaimed, stats.retried), (1, 1));
    assert_eq!(store.state("fi-dl").unwrap(), JobState::Queued);
    assert_eq!(store.attempts("fi-dl"), 1);
    // With the fault cleared the requeued job completes on its retry.
    let stats = serve(&store, &drain_cfg(1), &AtomicBool::new(false), |_| {}).unwrap();
    assert_eq!((stats.completed, stats.failed), (1, 0));
    assert!(analyzer_is_clean(&root));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn worker_hang_fault_is_reclaimed_by_the_supervisor() {
    use terse_serve::SupervisorConfig;

    let _scenario = FailScenario::setup();
    let root = temp_store("hang");
    let store = JobStore::open(&root).unwrap();
    store.submit(&good_spec("fi-hang")).unwrap();
    // The worker stalls 400 ms before its first beat; an aggressive
    // supervisor (3 flat scans at 5 ms) reclaims long before it wakes.
    // retries defaults to 0, so the reclaim routes straight to `failed`;
    // the woken zombie is fenced out by its broken claim token.
    failpoints::cfg("serve::worker_hang", "return(400)").unwrap();
    let cfg = ExecutorConfig {
        workers: 1,
        drain: true,
        poll_ms: 2,
        supervisor: SupervisorConfig {
            scan_ms: 5,
            hang_scans: 3,
            backoff_base_ms: 1,
        },
    };
    let stats = serve(&store, &cfg, &AtomicBool::new(false), |_| {}).unwrap();
    failpoints::remove("serve::worker_hang");
    assert_eq!(stats.failed, 1, "{stats:?}");
    assert_eq!(
        stats.preempted, 1,
        "the zombie observed its lost claim: {stats:?}"
    );
    assert_eq!(store.state("fi-hang").unwrap(), JobState::Failed);
    let msg = store.read_error("fi-hang").expect("error recorded");
    assert!(msg.contains("heartbeat flat"), "{msg}");
    assert!(
        !store.job_dir("fi-hang").join("report.json").exists(),
        "a preempted zombie never publishes a report"
    );
    assert!(analyzer_is_clean(&root), "failed is a legal terminal state");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn frame_corrupt_fault_is_detected_and_never_loaded() {
    let _scenario = FailScenario::setup();
    // A 1-block budget with per-block flushes, so the run actually
    // round-trips through the TERSECP1 checkpoint several times.
    let spec = JobSpec::from_json(
        r#"{"id":"fi-fc","workload":{"asm":"li r1, 3\nli r2, 0xF0F0\nloop: add r3, r3, r2\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n","name":"fi"},"samples":1,"grid":[1.4],"block_budget":1,"checkpoint_every":1}"#,
    )
    .unwrap();

    // Reference: the same job with no faults.
    let ref_root = temp_store("fc_ref");
    let ref_store = JobStore::open(&ref_root).unwrap();
    ref_store.submit(&spec).unwrap();
    let stats = serve(&ref_store, &drain_cfg(1), &AtomicBool::new(false), |_| {}).unwrap();
    assert_eq!(stats.completed, 1);
    let reference =
        terse_serve::deterministic_section(&ref_store.read_report("fi-fc").unwrap()).unwrap();

    // Victim: the first TERSEFR1 envelope written during the run is
    // corrupted at the framing layer (persistent corruption + a 1-block
    // budget could never make progress, by design — the loaders refuse
    // corrupt images). The loader must detect it via the CRC, set it
    // aside, and recompute — bitwise identically.
    let root = temp_store("fc");
    let store = JobStore::open(&root).unwrap();
    store.submit(&spec).unwrap();
    failpoints::cfg("integrity::frame_corrupt", "1*return").unwrap();
    let stats = serve(&store, &drain_cfg(1), &AtomicBool::new(false), |_| {}).unwrap();
    failpoints::remove("integrity::frame_corrupt");
    assert_eq!((stats.completed, stats.failed), (1, 0), "{stats:?}");
    let got = terse_serve::deterministic_section(&store.read_report("fi-fc").unwrap()).unwrap();
    assert_eq!(got, reference, "corrupt frames changed the result");
    assert!(analyzer_is_clean(&root));
    std::fs::remove_dir_all(&root).unwrap();
    std::fs::remove_dir_all(&ref_root).unwrap();
}

#[test]
fn all_points_removed_everything_recovers() {
    let _scenario = FailScenario::setup();
    // Configure and clear every serving fail point, then run a clean
    // job end to end — proof the registry does not leak between tests
    // and that the no-fault path is unperturbed by the instrumentation.
    for point in [
        "serve::spec_parse",
        "serve::store_write",
        "serve::worker_spawn",
        "serve::ckpt_flush",
        "serve::enospc",
        "serve::heartbeat_loss",
        "serve::worker_hang",
        "serve::deadline_expire",
        "integrity::frame_corrupt",
    ] {
        failpoints::cfg(point, "return").unwrap();
        failpoints::remove(point);
    }
    let root = temp_store("clean");
    let store = JobStore::open(&root).unwrap();
    store.submit(&good_spec("fi-clean")).unwrap();
    let stats = serve(&store, &drain_cfg(2), &AtomicBool::new(false), |_| {}).unwrap();
    assert_eq!((stats.completed, stats.failed), (1, 0));
    assert!(analyzer_is_clean(&root));
    std::fs::remove_dir_all(&root).unwrap();
}
