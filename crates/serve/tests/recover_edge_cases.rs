//! Edge cases of [`JobStore::recover`] — the states a store can be left
//! in by crashes that land *between* the atomic writes, plus the two
//! artifact shapes recovery deliberately leaves alone (damaged job dirs
//! for `terse scrub`, zero-length checkpoints for the framing loaders).

use std::fs;
use std::sync::atomic::AtomicBool;
use terse_serve::{serve, ExecutorConfig, JobSpec, JobState, JobStore};

fn temp_store(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("terse_recover_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    p
}

fn spec_json(id: &str) -> String {
    format!(
        r#"{{"id":"{id}","workload":{{"asm":"li r1, 2\nloop: add r3, r3, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n"}},"samples":1,"grid":[1.3,1.5]}}"#
    )
}

fn drain(store: &JobStore) -> terse_serve::ExecutorStats {
    serve(
        store,
        &ExecutorConfig {
            workers: 1,
            drain: true,
            poll_ms: 1,
            ..ExecutorConfig::default()
        },
        &AtomicBool::new(false),
        |_| {},
    )
    .expect("drain")
}

#[test]
fn empty_jobs_dir_recovers_to_nothing() {
    let root = temp_store("empty");
    let store = JobStore::open(&root).unwrap();
    let rec = store.recover().unwrap();
    assert!(rec.requeued.is_empty(), "{rec:?}");
    assert!(rec.repaired.is_empty(), "{rec:?}");
    assert!(rec.damaged.is_empty(), "{rec:?}");
    fs::remove_dir_all(&root).unwrap();
}

/// A submit torn between its `spec.json` and `state` writes leaves a job
/// dir with only a spec. Recovery finishes the submit: the job becomes
/// `queued` and runs to `done` like any other.
#[test]
fn spec_only_dir_is_a_torn_submit_and_gets_queued() {
    let root = temp_store("torn");
    let store = JobStore::open(&root).unwrap();
    let dir = store.job_dir("torn");
    fs::create_dir_all(&dir).unwrap();
    let spec = JobSpec::from_json(&spec_json("torn")).unwrap();
    fs::write(dir.join("spec.json"), spec.to_json()).unwrap();

    let rec = store.recover().unwrap();
    assert_eq!(rec.repaired, vec!["torn".to_owned()], "{rec:?}");
    assert!(rec.damaged.is_empty(), "{rec:?}");
    assert_eq!(store.state("torn").unwrap(), JobState::Queued);

    let stats = drain(&store);
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(store.state("torn").unwrap(), JobState::Done);
    fs::remove_dir_all(&root).unwrap();
}

/// A job dir with neither a readable state nor a parsable spec cannot be
/// repaired; recovery reports it and leaves it untouched for the scrub
/// pass to diagnose (JS006: missing/corrupt artifacts).
#[test]
fn unparsable_spec_without_state_is_reported_damaged() {
    let root = temp_store("damaged");
    let store = JobStore::open(&root).unwrap();
    let dir = store.job_dir("wreck");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("spec.json"), "{not json").unwrap();

    let rec = store.recover().unwrap();
    assert_eq!(rec.damaged, vec!["wreck".to_owned()], "{rec:?}");
    assert!(rec.repaired.is_empty(), "{rec:?}");
    // Untouched: no state file was invented for it.
    assert!(!dir.join("state").exists());
    // And the scrub pass flags it rather than recovery guessing.
    let mut audit = terse_analyze::AnalysisReport::new();
    terse_analyze::scrub_job_store(&root, &mut audit).unwrap();
    assert!(!audit.is_clean(), "scrub must flag the damaged dir");
    fs::remove_dir_all(&root).unwrap();
}

/// A damaged job dir must not stop the pool: the worker scan skips it,
/// as the supervisor scan does, and the good job next to it still drains
/// to `done`.
#[test]
fn damaged_dir_does_not_stop_the_drain() {
    let root = temp_store("damaged_drain");
    let store = JobStore::open(&root).unwrap();
    let wreck = store.job_dir("wreck");
    fs::create_dir_all(&wreck).unwrap();
    fs::write(wreck.join("spec.json"), "{not json").unwrap();
    store
        .submit(&JobSpec::from_json(&spec_json("good")).unwrap())
        .unwrap();

    let stats = drain(&store);
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(store.state("good").unwrap(), JobState::Done);
    assert!(
        !wreck.join("state").exists(),
        "the damaged dir is left alone"
    );
    fs::remove_dir_all(&root).unwrap();
}

/// A claim file whose recorded pid belongs to a dead process (pid 0 is
/// never a live worker) is stale by definition; recovery clears it so
/// the job is claimable again.
#[test]
fn stale_claim_from_dead_pid_is_released() {
    let root = temp_store("stale");
    let store = JobStore::open(&root).unwrap();
    store
        .submit(&JobSpec::from_json(&spec_json("stale")).unwrap())
        .unwrap();
    fs::write(store.job_dir("stale").join("claim"), "0:99").unwrap();
    assert_eq!(store.claim_pid("stale"), Some(0));

    let rec = store.recover().unwrap();
    assert!(
        rec.requeued.is_empty(),
        "queued job is not requeued: {rec:?}"
    );
    let token = store
        .try_claim_token("stale")
        .unwrap()
        .expect("stale claim was released, job claimable");
    store.release_claim_if("stale", &token).unwrap();
    fs::remove_dir_all(&root).unwrap();
}

/// The same stale claim on a `running` job: recovery requeues the job
/// *and* clears the claim, so a fresh pool picks it up immediately.
#[test]
fn running_job_with_stale_claim_is_requeued_and_released() {
    let root = temp_store("runstale");
    let store = JobStore::open(&root).unwrap();
    store
        .submit(&JobSpec::from_json(&spec_json("r")).unwrap())
        .unwrap();
    let t = store.try_claim_token("r").unwrap().unwrap();
    store
        .transition("r", JobState::Queued, JobState::Running)
        .unwrap();
    drop(t); // simulate the worker dying with the claim on disk

    let rec = store.recover().unwrap();
    assert_eq!(rec.requeued, vec!["r".to_owned()], "{rec:?}");
    assert_eq!(store.state("r").unwrap(), JobState::Queued);

    let stats = drain(&store);
    assert_eq!(stats.completed, 1, "{stats:?}");
    fs::remove_dir_all(&root).unwrap();
}

/// Zero-length checkpoint files (a crash or ENOSPC inside a non-atomic
/// writer, or a truncated copy) are *not* recovery's job: the TERSECP1 /
/// TERSEMC1 framing loaders detect them and fall back. The job must
/// still converge to the same deterministic report as an undamaged run.
#[test]
fn zero_length_checkpoints_are_survived_by_the_framing_loaders() {
    use terse_serve::deterministic_section;

    // Reference: clean run of the same spec.
    let ref_root = temp_store("zeroref");
    let ref_store = JobStore::open(&ref_root).unwrap();
    ref_store
        .submit(&JobSpec::from_json(&spec_json("z")).unwrap())
        .unwrap();
    drain(&ref_store);
    let reference = deterministic_section(&ref_store.read_report("z").unwrap()).unwrap();

    // Victim: zero-length checkpoint artifacts of every kind pre-planted.
    let root = temp_store("zero");
    let store = JobStore::open(&root).unwrap();
    store
        .submit(&JobSpec::from_json(&spec_json("z")).unwrap())
        .unwrap();
    let ckpt = store.checkpoint_dir("z");
    for name in ["est-0.ckpt", "mc-0.ckpt", "point-0.json"] {
        fs::write(ckpt.join(name), b"").unwrap();
    }

    let rec = store.recover().unwrap();
    assert!(
        rec.damaged.is_empty(),
        "checkpoints never mark a job damaged: {rec:?}"
    );
    let stats = drain(&store);
    assert_eq!(stats.completed, 1, "{stats:?}");
    let resumed = deterministic_section(&store.read_report("z").unwrap()).unwrap();
    assert_eq!(
        resumed, reference,
        "zero-length checkpoints changed the result"
    );

    fs::remove_dir_all(&root).unwrap();
    fs::remove_dir_all(&ref_root).unwrap();
}
