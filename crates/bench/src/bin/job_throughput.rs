//! Job-server throughput benchmark: one batch of estimation jobs drained
//! by worker pools of increasing width.
//!
//! ```text
//! cargo run --release -p terse-bench --bin job_throughput
//! ```
//!
//! Writes `results/BENCH_jobserver.json` (the common
//! `{bench, config, wall_ms, speedup, checks, detail}` envelope) and prints
//! the same JSON to stdout. Before any speedup is reported, the deterministic report
//! section of **every** job under every pool width is checked byte for
//! byte against the single-worker reference — the run aborts if
//! scheduling is ever visible in the results.
//!
//! Environment knobs (for the CI smoke job):
//!
//! * `TERSE_BENCH_SMOKE=1` — small batch (24 jobs).
//! * `TERSE_BENCH_JOBS=N` — explicit batch size.
//!
//! The batch mixes plain estimation jobs, block-budgeted jobs that
//! requeue (TERSECP1 resume churn), and Monte Carlo jobs with and without
//! cell budgets (TERSEMC1 resume churn), over two operating-point grids —
//! the same shape mix as the soak suite, so the measured throughput
//! includes the cost of time-sliced resume.

use std::sync::atomic::AtomicBool;
use std::time::Instant;
use terse_analyze::json::Value;
use terse_bench::BenchEnvelope;
use terse_serve::{deterministic_section, serve, ExecutorConfig, JobSpec, JobStore};

const KERNELS: [&str; 3] = [
    "li r1, 3\nli r2, 0xF0F0\nloop: add r3, r3, r2\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
    "li r1, 4\nli r2, 0x0F0F\nloop: xor r3, r3, r2\nadd r4, r4, r3\naddi r1, r1, -1\nbne r1, r0, loop\nadd r5, r4, r2\nhalt\n",
    "li r1, 2\nli r2, 0x00FF\nloop: slli r3, r2, 1\nor r4, r4, r3\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
];

fn batch_spec(i: usize) -> JobSpec {
    let grid: &[f64] = if i.is_multiple_of(2) {
        &[1.4]
    } else {
        &[1.3, 1.5]
    };
    let mut fields = vec![
        ("id".into(), Value::Str(format!("job-{i:04}"))),
        (
            "workload".into(),
            Value::Obj(vec![
                ("asm".into(), Value::Str(KERNELS[i % KERNELS.len()].into())),
                (
                    "name".into(),
                    Value::Str(format!("bench-k{}", i % KERNELS.len())),
                ),
            ]),
        ),
        ("samples".into(), Value::Num(1.0)),
        (
            "grid".into(),
            Value::Arr(grid.iter().map(|&f| Value::Num(f)).collect()),
        ),
        ("checkpoint_every".into(), Value::Num(2.0)),
    ];
    match i % 4 {
        0 => {}
        1 => fields.push(("block_budget".into(), Value::Num(1.0))),
        k => {
            fields.push(("chips".into(), Value::Num(2.0)));
            fields.push(("mc_inputs".into(), Value::Num(2.0)));
            if k == 3 {
                fields.push(("mc_cell_budget".into(), Value::Num(3.0)));
            }
            fields.push(("seed".into(), Value::Num(i as f64)));
        }
    }
    JobSpec::from_value(&Value::Obj(fields)).expect("batch spec is valid")
}

struct PoolResult {
    workers: usize,
    wall_s: f64,
    jobs_per_s: f64,
    requeued: usize,
    attempts: usize,
    sections: Vec<String>,
}

/// Submits the batch to a fresh store and drains it with `workers`
/// workers, timing the drain and collecting every job's deterministic
/// report section.
fn drain_batch(n: usize, workers: usize) -> PoolResult {
    let mut root = std::env::temp_dir();
    root.push(format!(
        "terse_bench_jobserver_w{workers}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let store = JobStore::open(&root).expect("store");
    for i in 0..n {
        store.submit(&batch_spec(i)).expect("submit");
    }
    let t = Instant::now();
    let stats = serve(
        &store,
        &ExecutorConfig {
            workers,
            drain: true,
            poll_ms: 2,
            ..ExecutorConfig::default()
        },
        &AtomicBool::new(false),
        |_| {},
    )
    .expect("serve");
    let wall_s = t.elapsed().as_secs_f64();
    assert_eq!(stats.completed, n, "pool of {workers} lost jobs: {stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    let mut audit = terse_analyze::AnalysisReport::new();
    terse_analyze::analyze_job_store(&root, &mut audit).expect("audit");
    assert!(audit.is_clean(), "{}", audit.render_text());
    let sections = (0..n)
        .map(|i| {
            let report = store.read_report(&format!("job-{i:04}")).expect("report");
            deterministic_section(&report).expect("section")
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    PoolResult {
        workers,
        wall_s,
        jobs_per_s: n as f64 / wall_s,
        requeued: stats.requeued,
        attempts: stats.attempts,
        sections,
    }
}

fn main() {
    let wall = Instant::now();
    let smoke = std::env::var("TERSE_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let n = std::env::var("TERSE_BENCH_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if smoke { 24 } else { 120 });
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let widths: &[usize] = &[1, 2, 4];

    let mut results = Vec::with_capacity(widths.len());
    for &workers in widths {
        eprintln!("[{workers} worker(s)] draining {n} jobs...");
        let r = drain_batch(n, workers);
        eprintln!(
            "[{workers} worker(s)] {:.3}s wall, {:.1} jobs/s, {} requeue(s), {} attempt(s)",
            r.wall_s, r.jobs_per_s, r.requeued, r.attempts
        );
        results.push(r);
    }

    // Bitwise gate: every pool width must produce byte-identical
    // deterministic sections before any speedup is reported.
    let reference = &results[0].sections;
    let mut bitwise_identical = true;
    for r in &results[1..] {
        for (i, (got, want)) in r.sections.iter().zip(reference).enumerate() {
            assert_eq!(
                got, want,
                "job-{i:04}: {}-worker pool diverged from serial reference",
                r.workers
            );
        }
        bitwise_identical &= r.sections == *reference;
    }

    let serial_s = results[0].wall_s;
    let pools = results
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("workers".into(), Value::Num(r.workers as f64)),
                ("wall_s".into(), Value::Num(r.wall_s)),
                ("jobs_per_s".into(), Value::Num(r.jobs_per_s)),
                ("speedup_vs_serial".into(), Value::Num(serial_s / r.wall_s)),
                ("requeued".into(), Value::Num(r.requeued as f64)),
                ("attempts".into(), Value::Num(r.attempts as f64)),
            ])
        })
        .collect();
    let detail = Value::Obj(vec![
        ("bitwise_identical".into(), Value::Bool(bitwise_identical)),
        ("pools".into(), Value::Arr(pools)),
    ]);
    let widest = results.last().expect("at least one pool");
    let env = BenchEnvelope {
        bench: "jobserver",
        config: Value::Obj(vec![
            ("host_threads".into(), Value::Num(host as f64)),
            ("jobs".into(), Value::Num(n as f64)),
            (
                "widths".into(),
                Value::Arr(widths.iter().map(|&w| Value::Num(w as f64)).collect()),
            ),
        ]),
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        // Headline: the widest pool vs the single-worker drain.
        speedup: serial_s / widest.wall_s,
        checks: vec![("bitwise_identical".into(), bitwise_identical)],
        detail,
    };
    match env.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results artifact: {e}"),
    }
}
