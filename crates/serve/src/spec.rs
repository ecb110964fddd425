//! The job spec: what one queued estimation job runs.
//!
//! A spec is a flat JSON object submitted via `terse submit`. Parsing is
//! strict (unknown keys are errors) and validation is delegated to the
//! analyzer's JS001–JS004 pass ([`terse_analyze::analyze_job_spec`]), so
//! the CLI, the store, and `terse-analyze` agree on what is admissible.
//!
//! ```json
//! {
//!   "id": "dijkstra-sweep-00",
//!   "workload": { "benchmark": "dijkstra", "dataset": "small" },
//!   "samples": 2,
//!   "seed": 42,
//!   "grid": [1.15, 1.33],
//!   "chips": 0,
//!   "mc_inputs": 0,
//!   "sim": "event",
//!   "threads": 1,
//!   "pipeline": "small",
//!   "checkpoint_every": 4,
//!   "block_budget": null,
//!   "mc_cell_budget": null,
//!   "retries": 0,
//!   "deadline_ms": null
//! }
//! ```
//!
//! `sim` names the gate-level simulation strategy. Event-driven
//! simulation is the only one left, so the key is optional and `"event"`
//! is its only legal value; it stays in the canonical rendering so that
//! stored specs keep their bytes and digests. The retired strategies
//! (`"fullscan"`, `"tape"`, `"packed"`) are rejected with an error that
//! names them.
//!
//! `workload` names either a benchmark from `terse-workloads` (with an
//! optional `dataset` of `"small"`/`"large"`) or carries inline assembly:
//! `{ "asm": "...", "name": "custom" }`. Everything except `id` and
//! `workload` has a default.

use crate::json::Value;
use crate::{Result, ServeError};
use terse::{PipelineConfig, Workload};
use terse_analyze::{analyze_job_spec, AnalysisReport, JobSpecView};
use terse_workloads::DatasetSize;

/// The workload a job runs.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A named benchmark from the `terse-workloads` registry.
    Benchmark {
        /// Registry name (e.g. `"dijkstra"`).
        name: String,
        /// Input-dataset size.
        dataset: DatasetSize,
    },
    /// Inline assembly.
    Asm {
        /// Display name for reports.
        name: String,
        /// Assembly source.
        source: String,
    },
}

/// A validated job spec.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job id — the directory name under `jobs/`.
    pub id: String,
    /// The workload to estimate.
    pub workload: WorkloadSpec,
    /// Lambda sample replicas (input draws).
    pub samples: usize,
    /// Seed for input synthesis and chip sampling.
    pub seed: u64,
    /// Operating-point grid: overclock factors versus the sign-off period.
    pub grid: Vec<f64>,
    /// Monte Carlo chip population (0 disables the MC grid).
    pub chips: usize,
    /// Monte Carlo inputs per chip (0 disables the MC grid).
    pub mc_inputs: usize,
    /// Worker-local rayon threads (jobs parallelize across workers, so 1
    /// per job is the default).
    pub threads: usize,
    /// Pipeline preset: `"small"` (8-bit, fast) or `"default"` (32-bit).
    pub pipeline: PipelinePreset,
    /// Checkpoint flush interval in work items: basic blocks for the
    /// estimate (TERSECP1), `(lane group, input)` tasks — program
    /// executions — for the Monte Carlo grid (TERSEMC1). The budgets
    /// still count blocks and cells.
    pub checkpoint_every: usize,
    /// Optional per-attempt estimate unit budget: when it runs out the job
    /// is requeued at a checkpoint boundary (time slicing).
    pub block_budget: Option<usize>,
    /// Optional per-attempt Monte Carlo cell budget (same contract).
    pub mc_cell_budget: Option<usize>,
    /// Failed-attempt retry budget. `0` (the default) preserves the
    /// classic semantics: the first error moves the job to `failed`. With
    /// `retries: N`, a failed/hung/expired attempt is requeued with
    /// exponential backoff up to `N` times; exhausting the budget moves
    /// the job to `quarantined` with a diagnostic bundle.
    pub retries: u32,
    /// Optional per-attempt wall-clock deadline (ms). The supervisor
    /// reclaims a running job whose attempt exceeds it.
    pub deadline_ms: Option<u64>,
}

/// The two pipeline presets a spec may name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelinePreset {
    /// `PipelineConfig::small()` — 8-bit, 60 cloud gates; the batch
    /// default (sweeps are many small jobs).
    Small,
    /// `PipelineConfig::default()` — the paper-scale 32-bit pipeline.
    Default,
}

impl PipelinePreset {
    /// The concrete pipeline configuration.
    pub fn config(self) -> PipelineConfig {
        match self {
            PipelinePreset::Small => PipelineConfig::small(),
            PipelinePreset::Default => PipelineConfig::default(),
        }
    }
}

impl JobSpec {
    /// Parses and validates a spec from JSON text.
    ///
    /// # Errors
    ///
    /// [`ServeError::Json`] on malformed JSON, [`ServeError::Spec`] on a
    /// structurally valid document that fails validation (unknown key,
    /// unknown benchmark, bad grid, …).
    pub fn from_json(src: &str) -> Result<JobSpec> {
        failpoints::fail_point!("serve::spec_parse", |_| Err(ServeError::Spec(
            "injected spec-parse fault".into()
        )));
        let v = Value::parse(src).map_err(ServeError::Json)?;
        JobSpec::from_value(&v)
    }

    /// [`JobSpec::from_json`] over an already-parsed value.
    ///
    /// # Errors
    ///
    /// As [`JobSpec::from_json`].
    pub fn from_value(v: &Value) -> Result<JobSpec> {
        let fields = v
            .as_obj()
            .ok_or_else(|| ServeError::Spec("spec must be a JSON object".into()))?;
        for (k, _) in fields {
            if !ALL_KEYS.contains(&k.as_str()) {
                return Err(ServeError::Spec(format!("unknown spec key `{k}`")));
            }
        }
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::Spec("`id` (string) is required".into()))?
            .to_owned();
        let workload = parse_workload(
            v.get("workload")
                .ok_or_else(|| ServeError::Spec("`workload` (object) is required".into()))?,
        )?;
        let grid = match v.get("grid") {
            None => vec![1.15],
            Some(g) => g
                .as_arr()
                .ok_or_else(|| ServeError::Spec("`grid` must be an array of numbers".into()))?
                .iter()
                .map(|x| {
                    x.as_f64().ok_or_else(|| {
                        ServeError::Spec("`grid` must be an array of numbers".into())
                    })
                })
                .collect::<Result<Vec<f64>>>()?,
        };
        check_sim(v.get("sim"))?;
        let spec = JobSpec {
            id,
            workload,
            samples: opt_usize(v, "samples")?.unwrap_or(2),
            seed: opt_u64(v, "seed")?.unwrap_or(0xD_AC19),
            grid,
            chips: opt_usize(v, "chips")?.unwrap_or(0),
            mc_inputs: opt_usize(v, "mc_inputs")?.unwrap_or(0),
            threads: opt_usize(v, "threads")?.unwrap_or(1),
            pipeline: parse_pipeline(v.get("pipeline"))?,
            checkpoint_every: opt_usize(v, "checkpoint_every")?.unwrap_or(4),
            block_budget: opt_budget(v, "block_budget")?,
            mc_cell_budget: opt_budget(v, "mc_cell_budget")?,
            retries: opt_u64(v, "retries")?.map_or(0, |n| n.min(u64::from(u32::MAX)) as u32),
            deadline_ms: match v.get("deadline_ms") {
                None | Some(Value::Null) => None,
                Some(x) => match x.as_u64() {
                    Some(n) if n >= 1 => Some(n),
                    _ => {
                        return Err(ServeError::Spec(
                            "`deadline_ms` must be null or an integer >= 1".into(),
                        ))
                    }
                },
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Runs the analyzer's JS001–JS004 pass over this spec.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spec`] carrying the rendered diagnostics when the
    /// pass reports any error-severity finding.
    pub fn validate(&self) -> Result<()> {
        let report = self.analysis();
        if report.has_errors() {
            return Err(ServeError::Spec(report.render_text()));
        }
        Ok(())
    }

    /// The JS001–JS004 analysis report of this spec (errors and warnings).
    pub fn analysis(&self) -> AnalysisReport {
        let names: Vec<&str> = terse_workloads::all().iter().map(|s| s.name).collect();
        let (benchmark, has_asm) = match &self.workload {
            WorkloadSpec::Benchmark { name, .. } => (Some(name.as_str()), false),
            WorkloadSpec::Asm { .. } => (None, true),
        };
        let view = JobSpecView {
            id: &self.id,
            benchmark,
            has_asm,
            samples: self.samples as u64,
            grid: &self.grid,
            chips: self.chips,
            mc_inputs: self.mc_inputs,
            threads: self.threads,
            checkpoint_every: self.checkpoint_every,
        };
        let mut report = AnalysisReport::new();
        analyze_job_spec(&view, &names, &mut report);
        report
    }

    /// The canonical JSON rendering of this spec (every field explicit,
    /// fixed key order) — what the store persists as `spec.json`.
    pub fn to_json(&self) -> String {
        let workload = match &self.workload {
            WorkloadSpec::Benchmark { name, dataset } => Value::Obj(vec![
                ("benchmark".into(), Value::Str(name.clone())),
                (
                    "dataset".into(),
                    Value::Str(
                        match dataset {
                            DatasetSize::Small => "small",
                            DatasetSize::Large => "large",
                        }
                        .into(),
                    ),
                ),
            ]),
            WorkloadSpec::Asm { name, source } => Value::Obj(vec![
                ("asm".into(), Value::Str(source.clone())),
                ("name".into(), Value::Str(name.clone())),
            ]),
        };
        let num = |n: usize| Value::Num(n as f64);
        let budget = |b: Option<usize>| b.map_or(Value::Null, |n| Value::Num(n as f64));
        Value::Obj(vec![
            ("id".into(), Value::Str(self.id.clone())),
            ("workload".into(), workload),
            ("samples".into(), num(self.samples)),
            ("seed".into(), Value::Num(self.seed as f64)),
            (
                "grid".into(),
                Value::Arr(self.grid.iter().map(|&f| Value::Num(f)).collect()),
            ),
            ("chips".into(), num(self.chips)),
            ("mc_inputs".into(), num(self.mc_inputs)),
            ("sim".into(), Value::Str("event".into())),
            ("threads".into(), num(self.threads)),
            (
                "pipeline".into(),
                Value::Str(
                    match self.pipeline {
                        PipelinePreset::Small => "small",
                        PipelinePreset::Default => "default",
                    }
                    .into(),
                ),
            ),
            ("checkpoint_every".into(), num(self.checkpoint_every)),
            ("block_budget".into(), budget(self.block_budget)),
            ("mc_cell_budget".into(), budget(self.mc_cell_budget)),
            ("retries".into(), Value::Num(f64::from(self.retries))),
            (
                "deadline_ms".into(),
                self.deadline_ms
                    .map_or(Value::Null, |n| Value::Num(n as f64)),
            ),
        ])
        .render()
    }

    /// FNV-1a digest of the canonical spec JSON, as fixed-width hex —
    /// reports embed it so a result can be traced to the exact spec.
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_json().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Builds the runnable workload: benchmark specs go through the
    /// registry; inline asm is assembled and given `samples` seeded
    /// input draws (stores into the first data words).
    ///
    /// # Errors
    ///
    /// [`ServeError::Spec`] for unknown benchmarks and assembly errors.
    pub fn build_workload(&self) -> Result<Workload> {
        match &self.workload {
            WorkloadSpec::Benchmark { name, dataset } => terse_workloads::by_name(name)
                .ok_or_else(|| ServeError::Spec(format!("unknown benchmark `{name}`")))?
                .workload(*dataset, self.samples, self.seed)
                .map_err(|e| ServeError::Spec(format!("workload build failed: {e}"))),
            WorkloadSpec::Asm { name, source } => {
                let mut w = Workload::from_asm(name.clone(), source)
                    .map_err(|e| ServeError::Spec(format!("assembly failed: {e}")))?;
                for s in 0..self.samples.max(1) {
                    let x = splitmix(self.seed.wrapping_add(s as u64));
                    w.push_input(move |m| {
                        // Ignore stores outside tiny memories: the draw is
                        // masked to the low words, which always exist.
                        let _ = m.store(0, (x & 0xFFFF) as u32);
                        let _ = m.store(1, ((x >> 16) & 0xFFFF) as u32);
                    });
                }
                Ok(w)
            }
        }
    }
}

/// Every legal spec key (strict parsing rejects the rest).
const ALL_KEYS: [&str; 15] = [
    "id",
    "workload",
    "samples",
    "seed",
    "grid",
    "chips",
    "mc_inputs",
    "sim",
    "threads",
    "pipeline",
    "checkpoint_every",
    "block_budget",
    "mc_cell_budget",
    "retries",
    "deadline_ms",
];

/// SplitMix64 — seeds the inline-asm input draws.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Accepts an absent `sim` key or `"event"`; names the retired strategies.
fn check_sim(v: Option<&Value>) -> Result<()> {
    let Some(v) = v else {
        return Ok(());
    };
    match v.as_str() {
        Some("event") => Ok(()),
        Some(retired @ ("fullscan" | "tape" | "packed")) => Err(ServeError::Spec(format!(
            "`sim` strategy \"{retired}\" is retired: event-driven simulation is the only \
             gate-level simulator; drop the key or set it to \"event\""
        ))),
        _ => Err(ServeError::Spec(
            "`sim` must be one of \"event\", \"fullscan\", \"tape\", \"packed\"".into(),
        )),
    }
}

fn parse_pipeline(v: Option<&Value>) -> Result<PipelinePreset> {
    let Some(v) = v else {
        return Ok(PipelinePreset::Small);
    };
    match v.as_str() {
        Some("small") => Ok(PipelinePreset::Small),
        Some("default") => Ok(PipelinePreset::Default),
        _ => Err(ServeError::Spec(
            "`pipeline` must be \"small\" or \"default\"".into(),
        )),
    }
}

fn parse_workload(v: &Value) -> Result<WorkloadSpec> {
    let fields = v
        .as_obj()
        .ok_or_else(|| ServeError::Spec("`workload` must be an object".into()))?;
    for (k, _) in fields {
        if !["benchmark", "dataset", "asm", "name"].contains(&k.as_str()) {
            return Err(ServeError::Spec(format!("unknown workload key `{k}`")));
        }
    }
    match (v.get("benchmark"), v.get("asm")) {
        (Some(b), None) => {
            let name = b
                .as_str()
                .ok_or_else(|| ServeError::Spec("`workload.benchmark` must be a string".into()))?
                .to_owned();
            let dataset = match v.get("dataset").map(|d| d.as_str()) {
                None => DatasetSize::default(),
                Some(Some("small")) => DatasetSize::Small,
                Some(Some("large")) => DatasetSize::Large,
                _ => {
                    return Err(ServeError::Spec(
                        "`workload.dataset` must be \"small\" or \"large\"".into(),
                    ))
                }
            };
            Ok(WorkloadSpec::Benchmark { name, dataset })
        }
        (None, Some(a)) => {
            let source = a
                .as_str()
                .ok_or_else(|| ServeError::Spec("`workload.asm` must be a string".into()))?
                .to_owned();
            let name = v
                .get("name")
                .map(|n| {
                    n.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| ServeError::Spec("`workload.name` must be a string".into()))
                })
                .transpose()?
                .unwrap_or_else(|| "custom".into());
            Ok(WorkloadSpec::Asm { name, source })
        }
        // Let JS001 phrase the error consistently with `terse-analyze`.
        (both_or_neither_a, _) => {
            let has_asm = both_or_neither_a.is_some();
            let mut report = AnalysisReport::new();
            analyze_job_spec(
                &JobSpecView {
                    id: "<spec>",
                    benchmark: if has_asm { Some("") } else { None },
                    has_asm,
                    samples: 1,
                    grid: &[1.0],
                    chips: 0,
                    mc_inputs: 0,
                    threads: 1,
                    checkpoint_every: 1,
                },
                &[""],
                &mut report,
            );
            Err(ServeError::Spec(report.render_text()))
        }
    }
}

fn opt_usize(v: &Value, key: &str) -> Result<Option<usize>> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_usize()
            .map(Some)
            .ok_or_else(|| ServeError::Spec(format!("`{key}` must be a non-negative integer"))),
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| ServeError::Spec(format!("`{key}` must be a non-negative integer"))),
    }
}

/// Budgets accept `null` (absent) or a positive integer.
fn opt_budget(v: &Value, key: &str) -> Result<Option<usize>> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => match x.as_usize() {
            Some(n) if n >= 1 => Ok(Some(n)),
            _ => Err(ServeError::Spec(format!(
                "`{key}` must be null or an integer >= 1"
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(id: &str) -> String {
        format!(r#"{{"id":"{id}","workload":{{"benchmark":"dijkstra"}}}}"#)
    }

    #[test]
    fn minimal_spec_gets_defaults() {
        let s = JobSpec::from_json(&minimal("j1")).unwrap();
        assert_eq!(s.id, "j1");
        assert_eq!(s.samples, 2);
        assert_eq!(s.grid, vec![1.15]);
        assert_eq!(s.chips, 0);
        assert_eq!(s.threads, 1);
        assert_eq!(s.pipeline, PipelinePreset::Small);
        assert!(s.block_budget.is_none());
        assert_eq!(s.retries, 0);
        assert!(s.deadline_ms.is_none());
    }

    #[test]
    fn spec_digests_are_pinned() {
        // The digest is how reports and stores cross-reference a spec, so
        // it must never drift. Pinned values guard against accidental
        // canonical-rendering changes.
        let legacy = JobSpec::from_json(&minimal("j1")).unwrap();
        assert_eq!(legacy.digest(), "7af7740d1aa7e8ce");
    }

    #[test]
    fn canonical_json_round_trips() {
        let src = r#"{"id":"mc-1","workload":{"asm":"halt\n","name":"nop"},"samples":3,"seed":7,"grid":[1.0,1.33],"chips":8,"mc_inputs":2,"sim":"event","threads":2,"pipeline":"default","checkpoint_every":2,"block_budget":5,"mc_cell_budget":3,"retries":2,"deadline_ms":60000}"#;
        let s = JobSpec::from_json(src).unwrap();
        let round = JobSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, round);
        assert_eq!(s.digest(), round.digest());
        // Canonical rendering is byte-stable.
        assert_eq!(s.to_json(), round.to_json());
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        for src in [
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"bogus":1}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra","extra":1}}"#,
            r#"{"workload":{"benchmark":"dijkstra"}}"#,
            r#"{"id":"x"}"#,
            r#"{"id":"x","workload":{"benchmark":"nope"}}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra","asm":"halt"}}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"sim":"warp"}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"grid":[]}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"grid":[0.0]}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"samples":0}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"block_budget":0}"#,
            r#"{"id":"../up","workload":{"benchmark":"dijkstra"}}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"chips":4}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"deadline_ms":0}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"retries":-1}"#,
            // The retired phase-sampling section is an unknown key, in
            // every shape it used to accept or reject.
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"sampling":null}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"sampling":{}}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"sampling":{"window_size":64,"max_clusters":4}}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"sampling":5}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"sampling":{"bogus":1}}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"sampling":{"window_size":0}}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"sampling":{"max_clusters":0}}"#,
            r#"{"id":"x","workload":{"benchmark":"dijkstra"},"sampling":{"window_size":-8}}"#,
        ] {
            match JobSpec::from_json(src) {
                Err(ServeError::Spec(msg)) => {
                    if src.contains("\"sampling\"") {
                        assert!(msg.contains("unknown spec key `sampling`"), "{msg}");
                    }
                }
                other => panic!("expected a spec error for {src}, got {other:?}"),
            }
        }
    }

    #[test]
    fn retired_sim_values_fail_typed() {
        for retired in ["fullscan", "tape", "packed"] {
            let src =
                format!(r#"{{"id":"x","workload":{{"benchmark":"dijkstra"}},"sim":"{retired}"}}"#);
            match JobSpec::from_json(&src) {
                Err(ServeError::Spec(msg)) => {
                    assert!(msg.contains(&format!("\"{retired}\" is retired")), "{msg}");
                }
                other => panic!("expected a retirement error for {retired}, got {other:?}"),
            }
        }
        // "event" (what every stored spec holds) and an absent key both
        // parse to the same spec, rendered with the same bytes.
        let explicit =
            JobSpec::from_json(r#"{"id":"j1","workload":{"benchmark":"dijkstra"},"sim":"event"}"#)
                .unwrap();
        let absent = JobSpec::from_json(&minimal("j1")).unwrap();
        assert_eq!(explicit, absent);
        assert_eq!(explicit.to_json(), absent.to_json());
        assert!(absent.to_json().contains(r#""sim":"event""#));
        // Any other value keeps the old error.
        match JobSpec::from_json(r#"{"id":"x","workload":{"benchmark":"dijkstra"},"sim":1}"#) {
            Err(ServeError::Spec(msg)) => assert!(msg.contains("must be one of"), "{msg}"),
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn asm_workload_builds_with_inputs() {
        let src = r#"{"id":"a1","workload":{"asm":"addi r1, r0, 1\nhalt\n"},"samples":3}"#;
        let s = JobSpec::from_json(src).unwrap();
        let w = s.build_workload().unwrap();
        assert_eq!(w.input_count(), 3);
        assert_eq!(w.name(), "custom");
    }

    #[test]
    fn benchmark_workload_builds() {
        let s = JobSpec::from_json(&minimal("b1")).unwrap();
        let w = s.build_workload().unwrap();
        assert_eq!(w.name(), "dijkstra");
        assert_eq!(w.input_count(), 2);
    }
}
