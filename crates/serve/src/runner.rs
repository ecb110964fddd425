//! Runs one claimed job: per-operating-point estimation with TERSECP1 /
//! TERSEMC1 checkpoints, persisted per-point results, and the final
//! aggregated `report.json`.
//!
//! ## Resumability contract
//!
//! Every artifact the runner writes is either a checkpoint (whose formats
//! already guarantee bitwise-identical resume) or an atomic rename of a
//! *pure function of the spec*:
//!
//! * `checkpoints/point-<g>.json` — the deterministic result of grid
//!   point `g` (estimate JSON + pooled Monte Carlo counts). Written only
//!   when the point is complete; a finished point is never recomputed.
//! * `checkpoints/est-<g>.ckpt` / `mc-<g>.ckpt` — in-flight TERSECP1 /
//!   TERSEMC1 state for the point being computed.
//! * `report.json` — `{id, name, spec_digest, points, telemetry}`; only
//!   `telemetry` (wall clock, perf counters, attempt count) may differ
//!   between a straight-through run and a kill/resume run. The
//!   [`deterministic_section`] helper strips it for bit-comparison.
//!
//! A SIGKILL at *any* instant therefore loses at most the work since the
//! last checkpoint flush, and a re-run converges to byte-identical
//! deterministic output.

use crate::spec::{JobSpec, PipelinePreset};
use crate::store::{JobState, JobStore};
use crate::{json::Value, Result, ServeError};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;
use terse::{Checkpoint, Framework, OperatingConfig, RunTimings, TerseError, Workload};
use terse_isa::Cfg;
use terse_sim::monte_carlo::{self, MonteCarloConfig};
use terse_sim::SimError;

/// How one run attempt of a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// All grid points complete; `report.json` is in place.
    Done,
    /// A per-attempt budget ran out at a checkpoint boundary; the job goes
    /// back to the queue and a later attempt resumes bit-exactly.
    Requeued {
        /// Units completed in the interrupted phase.
        completed: usize,
        /// Total units in that phase.
        total: usize,
    },
    /// A cancellation request was honoured at a point boundary.
    Cancelled,
}

/// Worker-local cache of built frameworks, keyed by everything that
/// shapes one (pipeline build + operating-point derivation). Jobs in a
/// sweep share a handful of configurations, and the SSTA derivation is
/// the expensive part of a small job.
#[derive(Default)]
pub struct FrameworkCache {
    map: HashMap<CacheKey, Rc<Framework>>,
}

type CacheKey = (PipelinePreset, u64, usize, usize);

impl FrameworkCache {
    /// An empty cache.
    pub fn new() -> Self {
        FrameworkCache::default()
    }

    /// Number of distinct frameworks built so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no framework has been built yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The framework for one (spec, overclock factor) pair, built on
    /// first use.
    ///
    /// # Errors
    ///
    /// [`ServeError::Run`] when the framework cannot be built.
    pub fn framework(&mut self, spec: &JobSpec, overclock: f64) -> Result<Rc<Framework>> {
        let key: CacheKey = (
            spec.pipeline,
            overclock.to_bits(),
            spec.samples,
            spec.threads,
        );
        if let Some(fw) = self.map.get(&key) {
            return Ok(Rc::clone(fw));
        }
        let fw = Framework::builder()
            .pipeline(spec.pipeline.config())
            .operating(OperatingConfig {
                overclock,
                ..OperatingConfig::paper()
            })
            .samples(spec.samples)
            .threads(spec.threads)
            .build()
            .map_err(|e| ServeError::Run(format!("framework build failed: {e}")))?;
        let fw = Rc::new(fw);
        self.map.insert(key, Rc::clone(&fw));
        Ok(fw)
    }
}

/// Runs (or resumes) one claimed job end to end.
///
/// The caller owns the claim and the `queued → running` transition; this
/// function only computes and writes artifacts. It checks for
/// cancellation between grid points.
///
/// # Errors
///
/// [`ServeError::Run`] on estimation/simulation failures (the caller maps
/// this to `running → failed`); store I/O errors as [`ServeError::Io`].
pub fn run_job(store: &JobStore, id: &str, cache: &mut FrameworkCache) -> Result<RunOutcome> {
    // Injected worker hang: stop heartbeating for the payload's duration
    // (ms) so the supervisor's flat-sequence detector can reclaim the job.
    if failpoints::ENABLED {
        if let Some(payload) = failpoints::eval("serve::worker_hang") {
            let ms: u64 = payload.parse().unwrap_or(50);
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
    let spec = store.load_spec(id)?;
    let ckpt_dir = store.checkpoint_dir(id);
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| ServeError::Io {
        op: "create checkpoints dir",
        path: ckpt_dir.display().to_string(),
        message: e.to_string(),
    })?;
    let workload = spec.build_workload()?;
    let cfg = Cfg::from_program(workload.program());
    let mut timings = RunTimings::default();
    let mut mc_s = 0.0f64;
    let mut last_point: Option<(Rc<Framework>, terse::ErrorRateEstimate)> = None;
    for (g, &overclock) in spec.grid.iter().enumerate() {
        if store.cancel_requested(id) {
            return Ok(RunOutcome::Cancelled);
        }
        store.beat(id);
        let point_path = ckpt_dir.join(format!("point-{g}.json"));
        if point_path.exists() {
            // A finished point is never recomputed — but a damaged one
            // (torn by ENOSPC, bit-flipped at rest) is deleted and redone
            // rather than poisoning the aggregate.
            let intact = std::fs::read_to_string(&point_path)
                .ok()
                .and_then(|t| Value::parse(&t).ok())
                .is_some();
            if intact {
                continue;
            }
            let _ = std::fs::remove_file(&point_path);
        }
        let fw = cache.framework(&spec, overclock)?;
        // terse-analyze: allow(AZ003): wall-clock telemetry only; never feeds results.
        let t0 = Instant::now();
        let profiles = fw
            .profile_workload(&workload, &cfg)
            .map_err(|e| ServeError::Run(format!("profiling failed: {e}")))?;
        timings.simulation_s += t0.elapsed().as_secs_f64();
        // terse-analyze: allow(AZ003): wall-clock telemetry only; never feeds results.
        let t1 = Instant::now();
        let model = fw
            .train_model(&workload, &cfg, &profiles)
            .map_err(|e| ServeError::Run(format!("training failed: {e}")))?;
        timings.training_s += t1.elapsed().as_secs_f64();
        // --- Estimation (TERSECP1 checkpoint path) -----------------------
        let ckpt = Checkpoint::new(
            ckpt_dir.join(format!("est-{g}.ckpt")),
            spec.checkpoint_every,
        );
        // terse-analyze: allow(AZ003): wall-clock telemetry only; never feeds results.
        let t2 = Instant::now();
        let estimated = fw.estimate_with(
            &workload,
            &cfg,
            &profiles,
            &model,
            Some(&ckpt),
            spec.block_budget,
        );
        let est = match estimated {
            Ok(e) => e,
            Err(TerseError::Interrupted { completed, total }) => {
                return Ok(RunOutcome::Requeued { completed, total })
            }
            Err(e) => return Err(ServeError::Run(format!("estimation failed: {e}"))),
        };
        timings.estimation_s += t2.elapsed().as_secs_f64();
        // --- Monte Carlo grid (TERSEMC1 checkpoint path) -----------------
        let mc = if spec.chips > 0 {
            // terse-analyze: allow(AZ003): wall-clock telemetry only; never feeds results.
            let t3 = Instant::now();
            let chips = fw
                .sample_chips(spec.chips, spec.seed)
                .map_err(|e| ServeError::Run(format!("chip sampling failed: {e}")))?;
            let mck = Checkpoint::new(ckpt_dir.join(format!("mc-{g}.ckpt")), spec.checkpoint_every);
            let inputs = workload.input_count();
            let counts = match monte_carlo::error_counts_with(
                workload.program(),
                &model,
                &chips,
                spec.mc_inputs,
                fw.correction(),
                |i, m| {
                    if inputs > 0 {
                        workload.init_input(i % inputs, m);
                    }
                },
                MonteCarloConfig::default(),
                Some(&mck),
                spec.mc_cell_budget,
            ) {
                Ok(c) => c,
                Err(SimError::Interrupted { completed, total }) => {
                    return Ok(RunOutcome::Requeued { completed, total })
                }
                Err(e) => return Err(ServeError::Run(format!("monte carlo failed: {e}"))),
            };
            mc_s += t3.elapsed().as_secs_f64();
            let pooled = monte_carlo::pooled_counts(&counts);
            Some(Value::Obj(vec![
                ("chips".into(), Value::Num(spec.chips as f64)),
                ("inputs".into(), Value::Num(spec.mc_inputs as f64)),
                (
                    "pooled".into(),
                    Value::Arr(pooled.iter().map(|&c| Value::Num(c as f64)).collect()),
                ),
            ]))
        } else {
            None
        };
        // --- Persist the finished point ----------------------------------
        failpoints::fail_point!("serve::ckpt_flush", |_| Err(ServeError::Io {
            op: "flush point (injected fault)",
            path: point_path.display().to_string(),
            message: "injected checkpoint-flush fault".into(),
        }));
        let point = Value::Obj(vec![
            ("overclock".into(), Value::Num(overclock)),
            ("result".into(), est.to_value()),
            ("mc".into(), mc.unwrap_or(Value::Null)),
        ]);
        crate::store::atomic_write(&point_path, point.render().as_bytes())?;
        last_point = Some((fw, est));
    }
    // --- Aggregate report.json ------------------------------------------
    store.beat(id);
    let mut points = Vec::with_capacity(spec.grid.len());
    for g in 0..spec.grid.len() {
        let path = ckpt_dir.join(format!("point-{g}.json"));
        let text = std::fs::read_to_string(&path).map_err(|e| ServeError::Io {
            op: "read point",
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        points.push(Value::parse(&text).map_err(ServeError::Json)?);
    }
    let telemetry = telemetry_section(&workload, &cfg, last_point, timings, mc_s);
    let report = Value::Obj(vec![
        ("id".into(), Value::Str(spec.id.clone())),
        ("name".into(), Value::Str(workload.name().to_owned())),
        ("spec_digest".into(), Value::Str(spec.digest())),
        ("points".into(), Value::Arr(points)),
        ("telemetry".into(), telemetry),
    ]);
    // A supervisor reclaim may have routed the job to another terminal
    // state while this attempt computed (this worker is a zombie now —
    // its claim is broken). A report written here would contradict that
    // state (JS008); abandon instead. Every point artifact already on
    // disk is idempotent, so a retry loses nothing.
    if matches!(
        store.state(id),
        Ok(JobState::Failed | JobState::Quarantined | JobState::Cancelled)
    ) {
        return Ok(RunOutcome::Cancelled);
    }
    store.write_report(id, &report.render())?;
    Ok(RunOutcome::Done)
}

/// The non-deterministic tail of a report: wall-clock timings and perf
/// counters, plus the `Report` (with `perf_summary`) for the last
/// point this attempt computed. Resumed attempts that computed no point
/// (all were already on disk) emit a minimal section.
fn telemetry_section(
    workload: &Workload,
    cfg: &Cfg,
    last_point: Option<(Rc<Framework>, terse::ErrorRateEstimate)>,
    timings: RunTimings,
    mc_s: f64,
) -> Value {
    let mut fields = vec![
        ("simulation_s".into(), Value::Num(timings.simulation_s)),
        ("training_s".into(), Value::Num(timings.training_s)),
        ("estimation_s".into(), Value::Num(timings.estimation_s)),
        ("mc_s".into(), Value::Num(mc_s)),
    ];
    if let Some((fw, est)) = last_point {
        let report = fw.report(workload, cfg, est, timings);
        fields.push(("last_point_report".into(), report.to_value()));
        fields.push(("perf_summary".into(), Value::Str(report.perf_summary())));
    }
    Value::Obj(fields)
}

/// The deterministic section of a `report.json`: everything except
/// `telemetry`, re-rendered canonically. Two runs of the same spec —
/// straight through, or killed and resumed any number of times — produce
/// byte-identical sections.
///
/// # Errors
///
/// [`ServeError::Json`] when `report` is not a JSON object.
pub fn deterministic_section(report: &str) -> Result<String> {
    let v = Value::parse(report).map_err(ServeError::Json)?;
    let fields = v
        .as_obj()
        .ok_or_else(|| ServeError::Json("report is not an object".into()))?;
    let kept: Vec<(String, Value)> = fields
        .iter()
        .filter(|(k, _)| k != "telemetry")
        .cloned()
        .collect();
    Ok(Value::Obj(kept).render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{JobState, JobStore};

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("terse_runner_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    // A multi-block kernel (loop + tail), so block budgets can genuinely
    // interrupt the per-block estimate sweep.
    fn tiny_spec(id: &str, extra: &str) -> JobSpec {
        JobSpec::from_json(&format!(
            r#"{{"id":"{id}","workload":{{"asm":"li r1, 3\nli r2, 0xF0F0\nloop: add r3, r3, r2\naddi r1, r1, -1\nbne r1, r0, loop\nadd r4, r3, r2\nhalt\n","name":"tiny"}},"samples":2,"grid":[1.4],"checkpoint_every":2{extra}}}"#
        ))
        .expect("spec")
    }

    /// The bytes of a `point-<g>.json` are pinned: a resumed job keeps the
    /// points an earlier attempt stored, so the estimate's key order, the
    /// `.0` on integral numbers and `null` for non-finite values must
    /// never drift.
    #[test]
    fn point_json_bytes_are_pinned() {
        let lambda_normal = terse_stats::Normal::new(2.5, 0.5).unwrap();
        let est = terse::ErrorRateEstimate {
            lambda: terse_stats::SampleRv::from_fn(3, |i| [1.5, f64::NAN, 42.0][i]),
            lambda_normal,
            mixture: terse_stats::PoissonNormalMixture::new(lambda_normal).unwrap(),
            total_instructions: 1000.0,
            dk_lambda: 0.015625,
            dk_count: 1.0 / 3.0,
            chen_stein_b12_worst: -0.0,
        };
        let point = Value::Obj(vec![
            ("overclock".into(), Value::Num(1.4)),
            ("result".into(), est.to_value()),
            (
                "mc".into(),
                Value::Obj(vec![
                    ("chips".into(), Value::Num(2.0)),
                    ("inputs".into(), Value::Num(2.0)),
                    (
                        "pooled".into(),
                        Value::Arr(vec![Value::Num(0.0), Value::Num(3.0)]),
                    ),
                ]),
            ),
        ]);
        assert_eq!(
            point.render(),
            r#"{"overclock":1.4,"result":{"lambda_samples":[1.5,null,42.0],"lambda_mean":null,"lambda_sd":0.0,"total_instructions":1000.0,"mean_error_rate":null,"sd_error_rate":0.0,"dk_lambda":0.015625,"dk_count":0.3333333333333333,"chen_stein_b12_worst":-0.0},"mc":{"chips":2.0,"inputs":2.0,"pooled":[0.0,3.0]}}"#
        );
    }

    #[test]
    fn runs_a_tiny_job_to_done_with_mc() {
        let root = temp_store("done");
        let store = JobStore::open(&root).unwrap();
        let spec = tiny_spec("t1", r#","chips":3,"mc_inputs":2,"seed":9"#);
        store.submit(&spec).unwrap();
        assert!(store.try_claim("t1").unwrap());
        store
            .transition("t1", JobState::Queued, JobState::Running)
            .unwrap();
        let mut cache = FrameworkCache::new();
        let out = run_job(&store, "t1", &mut cache).unwrap();
        assert_eq!(out, RunOutcome::Done);
        store
            .transition("t1", JobState::Running, JobState::Done)
            .unwrap();
        let report = store.read_report("t1").unwrap();
        let v = Value::parse(&report).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("tiny"));
        let points = v.get("points").and_then(Value::as_arr).unwrap();
        assert_eq!(points.len(), 1);
        let mc = points[0].get("mc").unwrap();
        assert_eq!(mc.get("chips").and_then(Value::as_usize), Some(3));
        assert_eq!(
            mc.get("pooled").and_then(Value::as_arr).map(<[Value]>::len),
            Some(6)
        );
        assert!(points[0]
            .get("result")
            .unwrap()
            .get("lambda_mean")
            .is_some());
        // Telemetry exists but strips cleanly.
        assert!(v.get("telemetry").is_some());
        let det = deterministic_section(&report).unwrap();
        assert!(!det.contains("telemetry"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn block_budget_requeues_then_resumes_bitwise_identical() {
        let root = temp_store("slice");
        let store = JobStore::open(&root).unwrap();
        // Reference: the same spec id/params, no budget, straight through.
        let reference = tiny_spec("ref", "");
        store.submit(&reference).unwrap();
        let mut cache = FrameworkCache::new();
        assert_eq!(
            run_job(&store, "ref", &mut cache).unwrap(),
            RunOutcome::Done
        );
        let ref_report = store.read_report("ref").unwrap();

        // Sliced: 1-block budget forces repeated requeues.
        let sliced = tiny_spec("sliced", r#","block_budget":1"#);
        store.submit(&sliced).unwrap();
        let mut requeues = 0;
        loop {
            match run_job(&store, "sliced", &mut cache).unwrap() {
                RunOutcome::Done => break,
                RunOutcome::Requeued { completed, total } => {
                    assert!(completed < total);
                    requeues += 1;
                    assert!(requeues < 100, "not converging");
                }
                RunOutcome::Cancelled => panic!("not cancelled"),
            }
        }
        assert!(requeues > 0, "budget must interrupt at least once");
        let sliced_report = store.read_report("sliced").unwrap();
        // Deterministic sections differ only in id/digest (different spec);
        // the points array must match byte for byte.
        let p_ref = Value::parse(&ref_report).unwrap();
        let p_sliced = Value::parse(&sliced_report).unwrap();
        assert_eq!(
            p_ref.get("points").unwrap().render(),
            p_sliced.get("points").unwrap().render(),
            "resume must be bitwise identical"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cancellation_is_honoured_between_points() {
        let root = temp_store("cancel");
        let store = JobStore::open(&root).unwrap();
        let spec = tiny_spec("c1", "");
        store.submit(&spec).unwrap();
        store.cancel("c1").unwrap();
        // cancel() already moved the unclaimed job to cancelled; the
        // runner path is exercised via the flag check.
        assert_eq!(store.state("c1").unwrap(), JobState::Cancelled);

        let spec2 = tiny_spec("c2", "");
        store.submit(&spec2).unwrap();
        assert!(store.try_claim("c2").unwrap());
        store
            .transition("c2", JobState::Queued, JobState::Running)
            .unwrap();
        store.cancel("c2").unwrap(); // claimed: flag only
        let mut cache = FrameworkCache::new();
        assert_eq!(
            run_job(&store, "c2", &mut cache).unwrap(),
            RunOutcome::Cancelled
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn framework_cache_shares_across_jobs() {
        let root = temp_store("cache");
        let store = JobStore::open(&root).unwrap();
        let mut cache = FrameworkCache::new();
        for id in ["s1", "s2"] {
            store.submit(&tiny_spec(id, "")).unwrap();
            assert_eq!(run_job(&store, id, &mut cache).unwrap(), RunOutcome::Done);
        }
        assert_eq!(cache.len(), 1, "identical configs share one framework");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
