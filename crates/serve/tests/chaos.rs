//! Chaos suite: deterministic, seeded, replayable fault schedules over
//! every chaos-able fail point in the serving stack, plus SIGKILL rounds
//! against the real binary (runs with `--features failpoints`).
//!
//! Each schedule is derived from a seed by a splitmix64 generator: the
//! seed fully determines which fail points fire and how many times
//! (`N*return` trigger counts), so any failing schedule replays exactly
//! by rerunning with its seed. Thread interleaving is *not* controlled —
//! deliberately: the invariants below must hold under every
//! interleaving, so scheduling noise widens coverage instead of breaking
//! reproducibility.
//!
//! Invariants asserted for every schedule (the soak contract under
//! fire):
//!
//! 1. **Exactly-once** — every job reaches `done` exactly once: one
//!    `-> done` edge in its transition log, no lost and no duplicated
//!    jobs.
//! 2. **Bitwise determinism** — every job's deterministic report section
//!    is byte-identical to a fault-free serial reference run of the same
//!    specs: faults, retries, reclaims and preemptions are invisible in
//!    the results.
//! 3. **Store integrity** — the battered store passes the structural
//!    audit (JS005–JS008) *and* the artifact scrub (JS009–JS012): no
//!    corrupt frame is ever loaded, every digest matches.
//!
//! Transient schedules bound their total trigger count below every job's
//! retry budget, so convergence to all-`done` is guaranteed; a separate
//! test drives a *persistent* fault into quarantine and audits the
//! diagnostic bundle.
//!
//! Tier knobs: `TERSE_CHAOS_SCHEDULES` (default 8) and
//! `TERSE_CHAOS_JOBS` (default 12) size the default tier; the `#[ignore]`d
//! full tier (64 schedules, 300-job soak) runs in the scheduled CI chaos
//! job via `--include-ignored`.

use failpoints::FailScenario;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use terse_serve::{
    deterministic_section, serve, ExecutorConfig, JobSpec, JobState, JobStore, SupervisorConfig,
};

// --- Deterministic schedule generator -----------------------------------

/// splitmix64: tiny, seedable, and good enough to spread trigger counts.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Per-job retry budget in chaos specs. Every schedule keeps its total
/// attempt-consuming triggers strictly below this, so no transient
/// schedule can push a job into `failed` or `quarantined`.
const RETRIES: u32 = 10;

/// Total trigger budget across all points of one schedule.
const TRIGGER_BUDGET: u64 = 8;

/// One configured fail point of a schedule.
struct Fault {
    point: &'static str,
    cfg: String,
}

/// Derives a fault schedule from a seed: a subset of the chaos-able
/// points with `N*return` trigger counts summing to at most
/// [`TRIGGER_BUDGET`]. `serve::spec_parse` is deliberately absent — a
/// spec-load fault makes the retry budget itself unreadable (it reads
/// the spec), which turns transient faults into terminal routing; it has
/// its own dedicated test in the fault-injection suite.
fn schedule(seed: u64) -> Vec<Fault> {
    let mut rng = Rng(seed);
    let mut budget = TRIGGER_BUDGET;
    let mut faults = Vec::new();
    // (point, consumes retry budget when it fires)
    let points: [(&'static str, bool); 6] = [
        ("serve::ckpt_flush", true),
        ("serve::store_write", true),
        ("serve::enospc", true),
        ("serve::deadline_expire", true),
        ("serve::heartbeat_loss", false),
        ("integrity::frame_corrupt", false),
    ];
    for (point, consumes) in points {
        let max = if consumes { budget.min(2) } else { 3 };
        let n = rng.below(max + 1);
        if consumes {
            budget -= n;
        }
        if n > 0 {
            faults.push(Fault {
                point,
                cfg: format!("{n}*return"),
            });
        }
    }
    // An injected stall, long enough to shift interleavings but far below
    // the supervisor's hang threshold (50 scans x 5 ms = 250 ms flat).
    if rng.below(2) == 1 {
        faults.push(Fault {
            point: "serve::worker_hang",
            cfg: format!("{}*return(20)", 1 + rng.below(3)),
        });
    }
    faults
}

// --- Store / spec helpers ------------------------------------------------

fn temp_store(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("terse_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

const KERNELS: [&str; 3] = [
    r"li r1, 3\nli r2, 0xF0F0\nloop: add r3, r3, r2\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
    r"li r1, 4\nli r2, 0x0F0F\nloop: xor r3, r3, r2\nadd r4, r4, r3\naddi r1, r1, -1\nbne r1, r0, loop\nadd r5, r4, r2\nhalt\n",
    r"li r1, 2\nli r2, 0x00FF\nloop: slli r3, r2, 1\nor r4, r4, r3\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
];

/// The i-th chaos spec: kernel, grid and resume-churn variants cycle
/// like the soak batch; every job carries the [`RETRIES`] budget.
fn chaos_spec(i: usize) -> JobSpec {
    let kernel = KERNELS[i % KERNELS.len()];
    let grid = if i.is_multiple_of(2) {
        "[1.4]"
    } else {
        "[1.3,1.5]"
    };
    let extra = match i % 4 {
        0 => String::new(),
        1 => r#","block_budget":1"#.to_owned(),
        2 => format!(r#","chips":2,"mc_inputs":2,"seed":{i}"#),
        _ => format!(r#","chips":2,"mc_inputs":2,"mc_cell_budget":3,"seed":{i}"#),
    };
    JobSpec::from_json(&format!(
        r#"{{"id":"chaos-{i:04}","workload":{{"asm":"{kernel}","name":"chaos-k{}"}},"samples":1,"grid":{grid},"checkpoint_every":2,"retries":{RETRIES}{extra}}}"#,
        i % KERNELS.len()
    ))
    .expect("chaos spec parses")
}

fn env_knob(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn chaos_cfg(workers: usize) -> ExecutorConfig {
    ExecutorConfig {
        workers,
        drain: true,
        poll_ms: 2,
        supervisor: SupervisorConfig {
            scan_ms: 5,
            hang_scans: 50,
            backoff_base_ms: 1,
        },
    }
}

/// Drains the store to quiescence under fire. A pool-level injected
/// fault aborts `serve` with a typed error (and its stats die with it);
/// the next round recovers the store and keeps draining — exactly what
/// an operator (or a process supervisor) does. Returns the number of
/// serve rounds; ground truth about the jobs lives in the store, not in
/// any one round's stats.
fn drain_until_settled(store: &JobStore, cfg: &ExecutorConfig, max_rounds: usize) -> usize {
    for round in 1..=max_rounds {
        match serve(store, cfg, &AtomicBool::new(false), |_| {}) {
            // A drained Ok means the queue (including backoff) is
            // empty: every job is terminal.
            Ok(_) => return round,
            Err(_) => {
                // Typed pool abort (injected store fault). Claims were
                // released; recovery at the next round's start requeues
                // anything left `running`.
            }
        }
    }
    panic!("store did not settle within {max_rounds} serve rounds");
}

/// The fault-free serial reference sections for jobs `0..n`. The run holds
/// the fail-point scenario lock throughout, so faults a concurrent test
/// arms in the process-global registry cannot fire inside it.
fn reference_sections(n: usize) -> BTreeMap<String, String> {
    let _scenario = FailScenario::setup();
    let root = temp_store("ref");
    let store = JobStore::open(&root).unwrap();
    for i in 0..n {
        store.submit(&chaos_spec(i)).unwrap();
    }
    let stats = serve(
        &store,
        &ExecutorConfig {
            workers: 1,
            drain: true,
            poll_ms: 2,
            ..ExecutorConfig::default()
        },
        &AtomicBool::new(false),
        |_| {},
    )
    .unwrap();
    assert_eq!(stats.completed, n, "reference run must be fault-free");
    let mut sections = BTreeMap::new();
    for i in 0..n {
        let id = format!("chaos-{i:04}");
        sections.insert(
            id.clone(),
            deterministic_section(&store.read_report(&id).unwrap()).unwrap(),
        );
    }
    std::fs::remove_dir_all(&root).unwrap();
    sections
}

/// Runs one seeded schedule against a fresh store and asserts the three
/// chaos invariants.
fn run_schedule(seed: u64, n: usize, reference: &BTreeMap<String, String>) {
    let scenario = FailScenario::setup();
    let root = temp_store(&format!("s{seed}"));
    let store = JobStore::open(&root).unwrap();
    for i in 0..n {
        store.submit(&chaos_spec(i)).unwrap();
    }
    // Arm the schedule only once the batch is queued: chaos targets the
    // serving path; submission faults have their own dedicated test.
    let faults = schedule(seed);
    for f in &faults {
        failpoints::cfg(f.point, &f.cfg).unwrap();
    }
    let rounds = drain_until_settled(&store, &chaos_cfg(3), 50);
    drop(scenario); // clear any unexhausted triggers before asserting

    let label = format!(
        "seed {seed}: {:?}, {rounds} round(s)",
        faults
            .iter()
            .map(|f| format!("{} {}", f.point, f.cfg))
            .collect::<Vec<_>>()
    );
    // (1) exactly-once: every job done, one `-> done` edge each — no job
    // lost to `failed`/`quarantined`, none completed twice.
    for i in 0..n {
        let id = format!("chaos-{i:04}");
        assert_eq!(store.state(&id).unwrap(), JobState::Done, "{id} — {label}");
        let log = std::fs::read_to_string(store.job_dir(&id).join("transitions.log")).unwrap();
        let dones = log.lines().filter(|l| l.ends_with("-> done")).count();
        assert_eq!(dones, 1, "{id} reached done {dones} times — {label}\n{log}");
    }
    // (2) bitwise determinism vs the fault-free serial reference.
    for (id, expect) in reference {
        let got = deterministic_section(&store.read_report(id).unwrap()).unwrap();
        assert_eq!(&got, expect, "{id} diverged — {label}");
    }
    // (3) structural audit and artifact scrub: zero errors. JS011
    // warnings (`.corrupt` evidence set aside by a loader) are the
    // *success* trace of the frame_corrupt fault — a detected corruption
    // that was never loaded — so they are the one diagnostic allowed.
    let mut audit = terse_analyze::AnalysisReport::new();
    terse_analyze::scrub_job_store(&root, &mut audit).unwrap();
    assert_eq!(audit.error_count(), 0, "{label}\n{}", audit.render_text());
    for line in audit.render_text().lines() {
        if line.starts_with("warning ") {
            assert!(
                line.contains("[JS011]"),
                "unexpected warning — {label}\n{line}"
            );
        }
    }

    std::fs::remove_dir_all(&root).unwrap();
}

// --- The suites ----------------------------------------------------------

#[test]
fn seeded_fault_schedules_converge_exactly_once_and_bitwise() {
    let schedules = env_knob("TERSE_CHAOS_SCHEDULES", 8) as u64;
    let n = env_knob("TERSE_CHAOS_JOBS", 12);
    let reference = reference_sections(n);
    for seed in 0..schedules {
        run_schedule(seed, n, &reference);
    }
}

/// Full tier: 64 seeded schedules (disjoint from the default tier's
/// seeds). Scheduled CI runs this with `--include-ignored`.
#[test]
#[ignore = "full chaos tier — run in the scheduled CI chaos job"]
fn full_tier_64_schedules() {
    let n = env_knob("TERSE_CHAOS_JOBS", 12);
    let reference = reference_sections(n);
    for seed in 1000..1064 {
        run_schedule(seed, n, &reference);
    }
}

/// Full tier: one adversarial schedule over a 300-job soak batch.
#[test]
#[ignore = "full chaos tier — run in the scheduled CI chaos job"]
fn full_tier_300_job_soak_under_fire() {
    let n = env_knob("TERSE_CHAOS_SOAK_JOBS", 300);
    let reference = reference_sections(n);
    run_schedule(31337, n, &reference);
}

/// A persistent fault exhausts the retry budget: the job lands in
/// `quarantined` with a complete diagnostic bundle, the pool survives,
/// and healthy jobs are untouched.
#[test]
fn persistent_fault_quarantines_with_a_complete_bundle() {
    let _scenario = FailScenario::setup();
    let root = temp_store("quarantine");
    let store = JobStore::open(&root).unwrap();
    let sick = JobSpec::from_json(
        r#"{"id":"sick","workload":{"asm":"li r1, 2\nloop: add r3, r3, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n"},"samples":1,"retries":2}"#,
    )
    .unwrap();
    store.submit(&sick).unwrap();
    failpoints::cfg("serve::ckpt_flush", "return").unwrap();
    let cfg = chaos_cfg(1);
    let stats = serve(&store, &cfg, &AtomicBool::new(false), |_| {}).unwrap();
    failpoints::remove("serve::ckpt_flush");
    assert_eq!(stats.quarantined, 1, "{stats:?}");
    assert_eq!(
        stats.retried, 2,
        "two retries before the budget ran out: {stats:?}"
    );
    assert_eq!(store.state("sick").unwrap(), JobState::Quarantined);
    let bundle = store.job_dir("sick").join("quarantine");
    for f in ["spec.json", "error.txt", "transitions.log", "attempts"] {
        assert!(bundle.join(f).exists(), "bundle missing {f}");
    }
    let log = std::fs::read_to_string(bundle.join("transitions.log")).unwrap();
    assert!(
        log.ends_with("running -> quarantined\n"),
        "bundle history includes the closing edge:\n{log}"
    );
    // The bundle is complete, so the scrub pass (JS012 audits bundles)
    // stays clean; a healthy job drains past the quarantined one.
    store
        .submit(
            &JobSpec::from_json(r#"{"id":"well","workload":{"asm":"halt\n"},"samples":1}"#)
                .unwrap(),
        )
        .unwrap();
    let stats = serve(&store, &cfg, &AtomicBool::new(false), |_| {}).unwrap();
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(store.state("well").unwrap(), JobState::Done);
    assert_eq!(store.state("sick").unwrap(), JobState::Quarantined);
    let mut audit = terse_analyze::AnalysisReport::new();
    terse_analyze::scrub_job_store(&root, &mut audit).unwrap();
    assert!(audit.is_clean(), "{}", audit.render_text());
    std::fs::remove_dir_all(&root).unwrap();
}

/// Process-level chaos: SIGKILL the real `terse serve` binary at seeded
/// random instants over a multi-job batch until everything completes;
/// the battered store must drain to the same bytes as the in-process
/// reference and pass the scrub.
#[cfg(unix)]
#[test]
fn sigkill_rounds_over_a_batch_converge_bitwise() {
    use std::process::{Command, Stdio};

    let n = 8;
    let reference = reference_sections(n);
    // Hold the fail-point scenario lock for the rest of the test: the
    // in-process submits, state reads and audit below must not see faults
    // a concurrent test arms in the global registry.
    let _scenario = FailScenario::setup();

    let root = temp_store("sigkill");
    let store = JobStore::open(&root).unwrap();
    for i in 0..n {
        store.submit(&chaos_spec(i)).unwrap();
    }
    let bin = env!("CARGO_BIN_EXE_terse");
    let root_arg = root.display().to_string();
    let all_done = |store: &JobStore| {
        (0..n).all(|i| store.state(&format!("chaos-{i:04}")).unwrap() == JobState::Done)
    };
    let mut rng = Rng(0xC0FFEE);
    for _ in 0..120 {
        if all_done(&store) {
            break;
        }
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--store",
                &root_arg,
                "--workers",
                "2",
                "--drain",
                "--poll-ms",
                "1",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn terse serve");
        std::thread::sleep(std::time::Duration::from_millis(3 + rng.below(40)));
        let _ = child.kill();
        let _ = child.wait();
    }
    // Finish the remainder unkilled.
    let status = Command::new(bin)
        .args([
            "serve",
            "--store",
            &root_arg,
            "--workers",
            "2",
            "--drain",
            "--poll-ms",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("final serve");
    assert!(status.success(), "final serve failed: {status}");
    assert!(all_done(&store));

    for (id, expect) in &reference {
        let got = deterministic_section(&store.read_report(id).unwrap()).unwrap();
        assert_eq!(&got, expect, "{id} diverged after SIGKILL rounds");
    }
    let mut audit = terse_analyze::AnalysisReport::new();
    terse_analyze::scrub_job_store(&root, &mut audit).unwrap();
    assert!(audit.is_clean(), "{}", audit.render_text());
    std::fs::remove_dir_all(&root).unwrap();
}
