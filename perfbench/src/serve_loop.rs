//! `serve_closed_loop`: the `submit → report` round trip through the job
//! server.
//!
//! Each pass opens a fresh store under `perfbench/.work/`, starts the
//! executor with two workers in daemon mode, and waits for one tiny probe
//! job: that is set-up. Then one client thread keeps two jobs in flight
//! until the pass's fixed list of jobs is done. A job is a MiBench kernel
//! (cycling through all 12) with `Small` inputs, 2 samples and grid
//! `[1.15, 1.33]`; jobs 1 and 7 add a 64-chip Monte Carlo grid and jobs 4
//! and 10 an eight-block estimate budget, which requeues the job and
//! resumes it from its TERSECP1 checkpoint. With two jobs in six of each
//! kind the median latency falls inside the plain-job cluster rather than
//! on a gap between clusters. One op is submit → done observed →
//! `read_report`. The store is fresh every pass because the worker scan
//! grows with store size. The pool's worker threads run their parallel
//! calls at machine width; that is the server's own behaviour.

use crate::trace::{median_self_ms, Tracer};
use crate::{derive_seed, pinned, secs, Fnv, Metric, Outcome, Pass, Plan, RunClock, Samples};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use terse_serve::json::Value;
use terse_serve::{
    deterministic_section, serve, ExecutorConfig, ExecutorStats, JobSpec, JobState, JobStore,
};

/// Executor workers (the pinned width).
pub const THREADS: usize = 2;

/// Per-layer metrics this workload measures.
pub const LAYERS: &[&str] = &[
    "core.build_ms",
    "dta.datapath_train_ms",
    "serve.submit_ms",
    "serve.read_report_ms",
    "serve.scan_ms",
    "serve.probe_ms",
    "serve.job_compute_ms",
    "serve.simulation_ms",
    "serve.training_ms",
    "serve.estimation_ms",
    "serve.mc_ms",
    "serve.queue_wait_ms",
    "serve.requeues_per_job",
    "serve.attempts_per_job",
];

/// Share of passes (and of set-ups), fastest first, the timings use: every
/// pass, because a run holds only about 18 passes of 12 jobs each.
const KEEP: f64 = 1.0;

/// Jobs the client keeps in flight.
const IN_FLIGHT: usize = 2;

/// How long the client waits for one job before counting it failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The spec of job `j` of every pass.
fn job_spec(j: usize, seed: u64, smoke: bool) -> Result<JobSpec, String> {
    let kernels = terse_workloads::all();
    let kernel = kernels[j % kernels.len()].name;
    let mut extra = String::new();
    if j % 6 == 1 {
        extra.push_str(if smoke {
            r#","chips":8,"mc_inputs":1"#
        } else {
            r#","chips":64,"mc_inputs":2"#
        });
    }
    if j % 6 == 4 {
        extra.push_str(if smoke {
            r#","block_budget":1"#
        } else {
            r#","block_budget":8"#
        });
    }
    // Seeds stay below 2^32 so the JSON number round-trips exactly.
    let job_seed = derive_seed(seed, 100 + j as u64) >> 32;
    let samples = if smoke { 1 } else { 2 };
    JobSpec::from_json(&format!(
        r#"{{"id":"job-{j:04}","workload":{{"benchmark":"{kernel}","dataset":"small"}},"samples":{samples},"seed":{job_seed},"grid":[1.15,1.33]{extra}}}"#
    ))
    .map_err(|e| format!("job spec {j}: {e}"))
}

/// The probe job that shows the executor is serving.
fn probe_spec() -> Result<JobSpec, String> {
    JobSpec::from_json(
        r#"{"id":"probe","workload":{"asm":"li r1, 3\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n","name":"probe"},"samples":1,"grid":[1.4]}"#,
    )
    .map_err(|e| format!("probe spec: {e}"))
}

/// Terminal job events (`"w1 job-0003 done"` → `("job-0003", Done)`;
/// failures carry their error: `"w1 job-0003 failed: ..."`).
fn terminal_event(line: &str) -> Option<(String, JobState)> {
    let mut parts = line.split_whitespace();
    let _worker = parts.next()?;
    let id = parts.next()?;
    let state = match parts.next()? {
        "done" => JobState::Done,
        "failed:" | "failed" => JobState::Failed,
        "cancelled" => JobState::Cancelled,
        "quarantined:" | "quarantined" => JobState::Quarantined,
        _ => return None,
    };
    Some((id.to_owned(), state))
}

/// What one job's round trip produced.
struct JobResult {
    latency_ms: f64,
    /// Telemetry phase times, ms: simulation, training, estimation, mc.
    phases_ms: [f64; 4],
    section: String,
}

/// What one pass produced.
struct PassResult {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    jobs: BTreeMap<String, Result<JobResult, String>>,
    stats: ExecutorStats,
    audit_clean: bool,
}

fn telemetry_phases(report: &str) -> [f64; 4] {
    let v = Value::parse(report).ok();
    let tel = v.as_ref().and_then(|v| v.get("telemetry"));
    let f = |k: &str| {
        tel.and_then(|t| t.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            * 1e3
    };
    [
        f("simulation_s"),
        f("training_s"),
        f("estimation_s"),
        f("mc_s"),
    ]
}

/// Submits `spec` to a store that live workers are scanning.
///
/// `JobStore::submit` creates the job directory before it writes the
/// `state` file, and a worker scan that lists the directory in between
/// fails on the missing state and stops the executor. So the job is
/// submitted to a side store first and its complete directory renamed
/// into the live store, which a scan sees whole or not at all.
fn submit_live(staging: &JobStore, live: &JobStore, spec: &JobSpec) -> Result<(), String> {
    staging
        .submit(spec)
        .map_err(|e| format!("submit {}: {e}", spec.id))?;
    std::fs::rename(staging.job_dir(&spec.id), live.job_dir(&spec.id))
        .map_err(|e| format!("move {} into the live store: {e}", spec.id))
}

fn run_pass(
    root: &Path,
    specs: &[JobSpec],
    tracer: &Tracer,
    pass: usize,
) -> Result<PassResult, String> {
    let _ = std::fs::remove_dir_all(root);
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<String>();
    let probe = probe_spec()?;
    let op0 = (pass * (specs.len() + 1)) as u64;
    let t_setup = Instant::now();
    let store = tracer
        .span("serve.open", op0, || JobStore::open(root))
        .map_err(|e| format!("store open: {e}"))?;
    let store = &store;
    let staging = JobStore::open(root.join("staging")).map_err(|e| format!("staging open: {e}"))?;
    let staging = &staging;
    // The probe is queued before the executor starts, so the workers'
    // first scan finds it without waiting out a poll interval.
    tracer.span("serve.submit", op0, || submit_live(staging, store, &probe))?;
    std::thread::scope(|scope| -> Result<PassResult, String> {
        let stop_ref = &stop;
        let server = scope.spawn(move || {
            serve(
                store,
                &ExecutorConfig {
                    workers: THREADS,
                    drain: false,
                    ..ExecutorConfig::default()
                },
                stop_ref,
                move |e| {
                    let _ = tx.send(e.to_owned());
                },
            )
        });
        // Stop the executor on every exit path, so the scope can join it.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let guard = StopOnDrop(&stop);

        let wait_for = |id: &str| -> Result<JobState, String> {
            loop {
                let line = rx
                    .recv_timeout(JOB_TIMEOUT)
                    .map_err(|e| format!("waiting for {id}: {e}"))?;
                match terminal_event(&line) {
                    Some((got, state)) if got == id => return Ok(state),
                    Some((got, _)) => return Err(format!("unexpected event for {got}")),
                    None => {}
                }
            }
        };
        tracer.span("serve.probe", op0, || -> Result<(), String> {
            match wait_for("probe")? {
                JobState::Done => Ok(()),
                s => Err(format!("probe ended {}", s.as_str())),
            }
        })?;
        let setup_s = secs(t_setup);

        // Closed loop: keep IN_FLIGHT jobs submitted; the next is sent
        // only when one completes.
        let cpu0 = crate::procfs::cpu_seconds()?;
        let t_loop = Instant::now();
        let mut submitted: BTreeMap<String, (u64, Instant)> = BTreeMap::new();
        let mut jobs = BTreeMap::new();
        let mut next = 0usize;
        let submit = |j: usize, submitted: &mut BTreeMap<String, (u64, Instant)>| {
            let op = op0 + 1 + j as u64;
            let t = Instant::now();
            submitted.insert(specs[j].id.clone(), (op, t));
            tracer.span("serve.submit", op, || {
                submit_live(staging, store, &specs[j])
            })
        };
        while next < specs.len().min(IN_FLIGHT) {
            submit(next, &mut submitted)?;
            next += 1;
        }
        while !submitted.is_empty() {
            let line = rx
                .recv_timeout(JOB_TIMEOUT)
                .map_err(|e| format!("waiting for jobs: {e}"))?;
            let Some((id, state)) = terminal_event(&line) else {
                continue;
            };
            let Some((op, t0)) = submitted.remove(&id) else {
                continue;
            };
            let result = if state == JobState::Done {
                tracer
                    .span("serve.read_report", op, || store.read_report(&id))
                    .map_err(|e| format!("read_report {id}: {e}"))
                    .and_then(|report| {
                        let latency_ms = secs(t0) * 1e3;
                        let section = deterministic_section(&report)
                            .map_err(|e| format!("section {id}: {e}"))?;
                        Ok(JobResult {
                            latency_ms,
                            phases_ms: telemetry_phases(&report),
                            section,
                        })
                    })
            } else {
                Err(format!("{id} ended {}", state.as_str()))
            };
            jobs.insert(id, result);
            if next < specs.len() {
                submit(next, &mut submitted)?;
                next += 1;
            }
        }
        let wall_s = secs(t_loop);
        let cpu_s = crate::procfs::cpu_seconds()? - cpu0;

        drop(guard);
        let stats = server
            .join()
            .map_err(|_| "executor thread panicked".to_owned())?
            .map_err(|e| format!("executor: {e}"))?;
        // The scan every worker makes per poll, over the final store.
        tracer.span("serve.scan", op0, || -> Result<(), String> {
            for id in store.list().map_err(|e| format!("list: {e}"))? {
                store.state(&id).map_err(|e| format!("state {id}: {e}"))?;
            }
            Ok(())
        })?;
        let mut audit = terse_analyze::AnalysisReport::new();
        let audit_clean =
            terse_analyze::analyze_job_store(root, &mut audit).is_ok() && audit.is_clean();
        Ok(PassResult {
            setup_s,
            wall_s,
            cpu_s,
            jobs,
            stats,
            audit_clean,
        })
    })
}

/// Runs the workload.
///
/// # Errors
///
/// When the store or executor fails or the run cannot be measured.
pub fn run(plan: &Plan, tracer: &mut Tracer) -> Result<Outcome, String> {
    pinned(THREADS, || body(plan, tracer))
}

fn body(plan: &Plan, tracer: &mut Tracer) -> Result<Outcome, String> {
    // The smoke run still holds one Monte Carlo job (j = 1) and one
    // budgeted job (j = 4).
    let n_jobs = if plan.smoke { 5 } else { 12 };
    let specs: Vec<JobSpec> = (0..n_jobs)
        .map(|j| job_spec(j, plan.seed, plan.smoke))
        .collect::<Result<_, _>>()?;
    let root = plan.work_dir.join(format!("serve-{}", std::process::id()));
    let trace_on = tracer.enabled();
    let mut s = Samples::new(KEEP);
    let mut sections: Vec<Option<String>> = vec![None; n_jobs];
    let mut sections_equal = true;
    let mut audit_clean = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut phases: Vec<[f64; 4]> = Vec::new();
    let mut queue_wait_ms = Vec::new();
    let mut totals = ExecutorStats::default();
    let clock = RunClock::start(plan);
    let mut pass = 0usize;
    while clock.more(pass, s.enough(plan)) {
        let traced = trace_on && pass.is_multiple_of(2);
        tracer.set_enabled(traced);
        let r = run_pass(&root, &specs, tracer, pass);
        let _ = std::fs::remove_dir_all(&root);
        let r = r?;
        audit_clean &= r.audit_clean;
        totals.completed += r.stats.completed;
        totals.requeued += r.stats.requeued;
        totals.attempts += r.stats.attempts;
        let mut latency_ms = Vec::with_capacity(n_jobs);
        for (j, spec) in specs.iter().enumerate() {
            attempted += 1;
            match r.jobs.get(&spec.id) {
                Some(Ok(job)) => {
                    latency_ms.push(job.latency_ms);
                    let compute: f64 = job.phases_ms.iter().sum();
                    phases.push(job.phases_ms);
                    queue_wait_ms.push(job.latency_ms - compute);
                    match &sections[j] {
                        None => sections[j] = Some(job.section.clone()),
                        Some(first) => sections_equal &= *first == job.section,
                    }
                }
                Some(Err(e)) => {
                    failed += 1;
                    eprintln!("{e}");
                }
                None => {
                    failed += 1;
                    eprintln!("{}: no result", spec.id);
                }
            }
        }
        s.push(Pass {
            setup_s: r.setup_s,
            wall_s: r.wall_s,
            cpu_s: r.cpu_s,
            traced,
            latency_ms,
        });
        pass += 1;
    }
    tracer.set_enabled(trace_on);
    let _ = std::fs::remove_dir(&plan.work_dir);

    let mut digest = Fnv::default();
    for sec in sections.iter().flatten() {
        digest.write(sec.as_bytes());
    }
    let metrics = if trace_on {
        // The framework a serve worker builds for the first grid point.
        crate::mc::datapath_train(
            tracer,
            terse::Framework::builder()
                .pipeline(terse::PipelineConfig::small())
                .operating(terse::OperatingConfig {
                    overclock: 1.15,
                    ..terse::OperatingConfig::paper()
                })
                .samples(2)
                .threads(1),
        )?;
        let spans = tracer.spans();
        let med = |xs: Vec<f64>| crate::stats::median(&xs).unwrap_or(0.0);
        let phase = |i: usize| med(phases.iter().map(|p| p[i]).collect());
        // Jobs per pass plus the probe, which takes one attempt.
        let jobs = (pass * (n_jobs + 1)) as f64;
        let mut m = s.trace_common(THREADS, spans.len());
        m.extend([
            Metric::new("core.build_ms", median_self_ms(&spans, "core.build"), "ms"),
            Metric::new(
                "dta.datapath_train_ms",
                median_self_ms(&spans, "dta.datapath_train"),
                "ms",
            ),
            Metric::new(
                "serve.submit_ms",
                median_self_ms(&spans, "serve.submit"),
                "ms",
            ),
            Metric::new(
                "serve.read_report_ms",
                median_self_ms(&spans, "serve.read_report"),
                "ms",
            ),
            Metric::new("serve.scan_ms", median_self_ms(&spans, "serve.scan"), "ms"),
            Metric::new(
                "serve.probe_ms",
                median_self_ms(&spans, "serve.probe"),
                "ms",
            ),
            Metric::new(
                "serve.job_compute_ms",
                med(phases.iter().map(|p| p.iter().sum()).collect()),
                "ms",
            ),
            Metric::new("serve.simulation_ms", phase(0), "ms"),
            Metric::new("serve.training_ms", phase(1), "ms"),
            Metric::new("serve.estimation_ms", phase(2), "ms"),
            // Over the Monte Carlo jobs only; the others read 0.
            Metric::new(
                "serve.mc_ms",
                med(phases.iter().map(|p| p[3]).filter(|&x| x > 0.0).collect()),
                "ms",
            ),
            Metric::new("serve.queue_wait_ms", med(queue_wait_ms), "ms"),
            Metric::new(
                "serve.requeues_per_job",
                totals.requeued as f64 / jobs,
                "ratio",
            ),
            Metric::new(
                "serve.attempts_per_job",
                totals.attempts as f64 / jobs,
                "ratio",
            ),
        ]);
        m
    } else {
        s.end_to_end(plan)?
    };
    Ok(Outcome {
        workload: "serve_closed_loop",
        threads: THREADS,
        attempted,
        failed,
        checks: vec![
            (
                "every_job_done".into(),
                totals.completed == pass * (n_jobs + 1),
            ),
            ("store_audit_clean".into(), audit_clean),
            (
                "repeated_specs_byte_equal_sections".into(),
                sections_equal && pass > 1,
            ),
        ],
        digest: digest.finish(),
        metrics,
        layers: LAYERS,
        notes: vec![
            s.pass_note(),
            format!(
                "passes={pass} jobs_per_pass={n_jobs} in_flight={IN_FLIGHT} workers={THREADS} \
                 requeued={} attempts={} worker_parallel_width=machine",
                totals.requeued, totals.attempts
            ),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_events_match_the_executor_strings() {
        let cases = [
            ("w1 job-0003 done", Some(JobState::Done)),
            (
                "w2 job-0003 failed: machine: step limit",
                Some(JobState::Failed),
            ),
            ("w1 job-0003 cancelled", Some(JobState::Cancelled)),
            (
                "w1 job-0003 quarantined: retries exhausted",
                Some(JobState::Quarantined),
            ),
            ("w1 job-0003 requeued", None),
            ("w1", None),
        ];
        for (line, want) in cases {
            let got = terminal_event(line);
            assert_eq!(got.as_ref().map(|(_, s)| *s), want, "{line}");
            if let Some((id, _)) = got {
                assert_eq!(id, "job-0003");
            }
        }
    }
}
