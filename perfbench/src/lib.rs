//! End-to-end and per-layer benchmark of the TERSE estimation flow.
//!
//! Two workloads, each run in its own process by `perfbench/run.py`:
//!
//! * [`mc`] — the paper's flow (preflight → profile → train → estimate →
//!   chip sampling) as set-up, then per-chip Monte Carlo batches against
//!   the analytic estimate, two threads;
//! * [`serve_loop`] — a closed-loop `submit → report` round trip through
//!   the job server, two workers.
//!
//! Every workload pins its thread width twice: it passes the width to the
//! program's own knob (`FrameworkBuilder::threads` or
//! `ExecutorConfig::workers`) and runs every call from the benchmark
//! thread inside a `rayon::ThreadPool` of that width ([`pinned`]). Timings
//! are medians over many passes of a fixed amount of work, never the time
//! of one pass. With tracing on, spans around every layer call feed the
//! per-layer metrics (see `perfbench/README.md`).
//!
//! The metric names and units come from `BENCHMARK.json` ([`BenchSpec`]);
//! the code holds no second copy of them.

pub mod mc;
pub mod procfs;
pub mod serve_loop;
pub mod stats;
pub mod trace;

use std::path::Path;
use std::time::Instant;
use terse_serve::json::Value;

/// Per-layer metrics every traced run measures, whatever the workload.
pub const COMMON_LAYERS: [&str; 5] = [
    "trace.overhead_s",
    "trace.spans",
    "rayon.parallel_efficiency",
    "host.threads",
    "workload.threads",
];

/// The metric lists of `BENCHMARK.json`, each as `(name, unit)` pairs.
#[derive(Debug, Clone, Default)]
pub struct BenchSpec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, reported by untraced runs.
    pub end_to_end: Vec<(String, String)>,
    /// Per-layer metrics, reported by traced runs.
    pub per_layer: Vec<(String, String)>,
}

impl BenchSpec {
    /// Reads `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// When the file cannot be read or lacks a list or field.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |section: &str, keys: [&str; 2]| -> Result<Vec<(String, String)>, String> {
            doc.get(section)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no `{section}` list"))?
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .map(str::to_owned)
                            .ok_or_else(|| format!("BENCHMARK.json: `{section}` entry lacks `{k}`"))
                    };
                    Ok((field(keys[0])?, field(keys[1])?))
                })
                .collect()
        };
        Ok(BenchSpec {
            workloads: list("workloads", ["name", "why"])?
                .into_iter()
                .map(|(n, _)| n)
                .collect(),
            end_to_end: list("end_to_end", ["name", "unit"])?,
            per_layer: list("per_layer", ["name", "unit"])?,
        })
    }
}

/// Orders `metrics` as `listed` names them. A listed metric the workload
/// does not measure (not in `owned`) reads 0.
///
/// # Errors
///
/// When `metrics` holds a name `listed` lacks, a unit differs, or a metric
/// the workload owns was not emitted.
pub fn complete(
    metrics: Vec<Metric>,
    listed: &[(String, String)],
    owned: &[&str],
) -> Result<Vec<Metric>, String> {
    for m in &metrics {
        match listed.iter().find(|(n, _)| *n == m.name) {
            Some((_, unit)) if *unit == m.unit => {}
            Some((_, unit)) => return Err(format!("{}: unit {} is not {unit}", m.name, m.unit)),
            None => return Err(format!("unlisted metric {}", m.name)),
        }
    }
    listed
        .iter()
        .map(
            |(name, unit)| match metrics.iter().find(|m| m.name == *name) {
                Some(m) => Ok(m.clone()),
                None if owned.contains(&name.as_str()) => {
                    Err(format!("owned metric {name} missing"))
                }
                None => Ok(Metric::new(name.clone(), 0.0, unit)),
            },
        )
        .collect()
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload seed; every input seed derives from it.
    pub seed: u64,
    /// Target length of the measured phase, in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs and a low sample floor, for the benchmark's own tests.
    pub smoke: bool,
    /// Scratch directory for job stores (removed after use).
    pub work_dir: std::path::PathBuf,
}

impl Plan {
    /// Fewest latency samples from which a p90 is reported.
    pub fn p90_min_samples(&self) -> usize {
        if self.smoke {
            1
        } else {
            stats::MIN_P90_SAMPLES
        }
    }

    /// Fewest passes a run makes (at least two traced and two untraced
    /// passes when tracing).
    pub fn min_passes(&self) -> usize {
        if self.smoke {
            2
        } else {
            4
        }
    }
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_owned(),
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// The pinned thread width T.
    pub threads: usize,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Named output checks.
    pub checks: Vec<(String, bool)>,
    /// FNV-1a digest of the run's deterministic outputs.
    pub digest: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics this workload measures, besides [`COMMON_LAYERS`].
    pub layers: &'static [&'static str],
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every output check passed and no op failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Every per-layer metric this workload measures.
    pub fn owned_layers(&self) -> Vec<&'static str> {
        COMMON_LAYERS.iter().chain(self.layers).copied().collect()
    }

    /// The final result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in JSON form (non-finite values become `null`, so they
/// never pass as a measurement).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// Runs `f` with every parallel call it makes from this thread limited to
/// `threads` workers.
pub fn pinned<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the vendored pool builder never fails")
        .install(f)
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little endian) into the digest.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Decides when a time-bounded run has measured enough.
#[derive(Debug)]
pub struct RunClock {
    start: Instant,
    seconds: f64,
    cap: f64,
    min_passes: usize,
}

impl RunClock {
    /// Starts the clock for `plan`'s measured phase.
    pub fn start(plan: &Plan) -> Self {
        RunClock {
            start: Instant::now(),
            seconds: plan.seconds,
            // A slow host still ends the process well inside its limit.
            cap: (plan.seconds * 4.0 + 20.0).min(130.0),
            min_passes: plan.min_passes(),
        }
    }

    /// Whether another pass should run after `passes` passes, given
    /// whether the samples already support every reported statistic.
    pub fn more(&self, passes: usize, enough: bool) -> bool {
        let t = self.start.elapsed().as_secs_f64();
        if passes == 0 {
            return true;
        }
        if t >= self.cap {
            return false;
        }
        t < self.seconds || passes < self.min_passes || !enough
    }
}

/// One pass of a workload's fixed work.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Set-up time before the pass, s.
    pub setup_s: f64,
    /// Wall clock, s.
    pub wall_s: f64,
    /// Process CPU time, s.
    pub cpu_s: f64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Latency of each op, ms.
    pub latency_ms: Vec<f64>,
}

/// Everything a run measures.
///
/// The host alternates between a fast state and one about 1.45x slower,
/// each lasting seconds to minutes (`perfbench/README.md`, noise study). A
/// median over all passes jumps between the two states with their share of
/// the run, so every end-to-end timing is taken over the fastest share
/// `keep` of the untraced passes: `wall_s` and `cpu_s` are the median of
/// those passes, and the latency percentiles pool their ops. Every pass
/// has its own set-up, so set-ups sample the same host states as the
/// passes; `setup_s` is the median of the fastest share `keep` of them.
#[derive(Debug, Clone)]
pub struct Samples {
    /// Share of the untraced passes, fastest first, the timings use.
    keep: f64,
    /// Every pass, in run order.
    pub passes: Vec<Pass>,
}

impl Samples {
    /// Samples whose timings use the fastest share `keep` (0, 1] of the
    /// untraced passes.
    pub fn new(keep: f64) -> Self {
        Samples {
            keep: keep.clamp(f64::MIN_POSITIVE, 1.0),
            passes: Vec::new(),
        }
    }

    /// Records one pass.
    pub fn push(&mut self, pass: Pass) {
        self.passes.push(pass);
    }

    fn untraced(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(|p| !p.traced)
    }

    /// The fastest share `keep` (rounded up) of `xs`.
    fn fastest(&self, mut xs: Vec<f64>) -> Vec<f64> {
        xs.sort_by(f64::total_cmp);
        xs.truncate((xs.len() as f64 * self.keep).ceil() as usize);
        xs
    }

    /// The fastest share `keep` (rounded up) of the untraced passes.
    pub fn kept(&self) -> Vec<&Pass> {
        let mut v: Vec<&Pass> = self.untraced().collect();
        v.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        v.truncate((v.len() as f64 * self.keep).ceil() as usize);
        v
    }

    /// Whether the run can stop: untraced runs need enough ops in their
    /// kept passes for the p90.
    pub fn enough(&self, plan: &Plan) -> bool {
        let kept_ops: usize = self.kept().iter().map(|p| p.latency_ms.len()).sum();
        plan.trace || kept_ops >= plan.p90_min_samples()
    }

    /// A note listing every untraced pass's set-up and wall clock, in ms.
    pub fn pass_note(&self) -> String {
        let ms: Vec<String> = self
            .untraced()
            .map(|p| format!("{:.1}+{:.1}", p.setup_s * 1e3, p.wall_s * 1e3))
            .collect();
        format!("untraced set-up+pass ms: {}", ms.join(" "))
    }

    /// The end-to-end metrics shared by every workload.
    ///
    /// # Errors
    ///
    /// When a sample is empty, the p90 lacks samples, or `/proc` is
    /// unreadable.
    pub fn end_to_end(&self, plan: &Plan) -> Result<Vec<Metric>, String> {
        let med =
            |xs: &[f64], what: &str| stats::median(xs).ok_or_else(|| format!("no {what} samples"));
        let setup = self.fastest(self.untraced().map(|p| p.setup_s).collect());
        let fast = self.kept();
        let wall: Vec<f64> = fast.iter().map(|p| p.wall_s).collect();
        let cpu: Vec<f64> = fast.iter().map(|p| p.cpu_s).collect();
        let latency: Vec<f64> = fast
            .iter()
            .flat_map(|p| p.latency_ms.iter().copied())
            .collect();
        let p90 =
            stats::percentile(&latency, 90, plan.p90_min_samples()).map_err(|e| e.to_string())?;
        Ok(vec![
            Metric::new("setup_s", med(&setup, "set-up")?, "s"),
            Metric::new("wall_s", med(&wall, "wall")?, "s"),
            Metric::new("cpu_s", med(&cpu, "cpu")?, "s"),
            Metric::new("latency_p50_ms", med(&latency, "latency")?, "ms"),
            Metric::new("latency_p90_ms", p90, "ms"),
            Metric::new("peak_rss_mib", procfs::peak_rss_mib()?, "MiB"),
        ])
    }

    /// Per-layer metrics every traced run reports ([`COMMON_LAYERS`]):
    /// tracing overhead (median traced minus median untraced pass wall
    /// clock) and the parallel efficiency of the untraced passes at width
    /// `threads`.
    pub fn trace_common(&self, threads: usize, spans: usize) -> Vec<Metric> {
        let med = |xs: Vec<f64>| stats::median(&xs).unwrap_or(0.0);
        let wall = med(self.untraced().map(|p| p.wall_s).collect());
        let cpu = med(self.untraced().map(|p| p.cpu_s).collect());
        let traced = med(self
            .passes
            .iter()
            .filter(|p| p.traced)
            .map(|p| p.wall_s)
            .collect());
        let efficiency = if wall > 0.0 {
            cpu / (wall * threads as f64)
        } else {
            0.0
        };
        vec![
            Metric::new("trace.overhead_s", traced - wall, "s"),
            Metric::new("trace.spans", spans as f64, "count"),
            Metric::new("rayon.parallel_efficiency", efficiency, "ratio"),
            Metric::new("host.threads", procfs::host_threads() as f64, "count"),
            Metric::new("workload.threads", threads as f64, "count"),
        ]
    }
}

/// Runs workload `name` under `plan`: the end-to-end metrics `spec` lists
/// when untraced, its per-layer metrics when traced (spans are written to
/// `trace_out`).
///
/// # Errors
///
/// For an unknown workload, or when the run fails.
pub fn run_workload(
    name: &str,
    plan: &Plan,
    spec: &BenchSpec,
    trace_out: Option<&Path>,
) -> Result<Outcome, String> {
    let mut tracer = trace::Tracer::new(plan.trace);
    let mut out = match name {
        "mc_validation" => mc::run(plan, &mut tracer)?,
        "serve_closed_loop" => serve_loop::run(plan, &mut tracer)?,
        _ => return Err(format!("unknown workload `{name}`")),
    };
    let metrics = std::mem::take(&mut out.metrics);
    out.metrics = if plan.trace {
        complete(metrics, &spec.per_layer, &out.owned_layers())?
    } else {
        let every: Vec<&str> = spec.end_to_end.iter().map(|(n, _)| n.as_str()).collect();
        complete(metrics, &spec.end_to_end, &every)?
    };
    if let (true, Some(path)) = (plan.trace, trace_out) {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_salt_and_repeat() {
        assert_eq!(derive_seed(5, 1), derive_seed(5, 1));
        assert_ne!(derive_seed(5, 1), derive_seed(5, 2));
        assert_ne!(derive_seed(5, 1), derive_seed(6, 1));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            workload: "w",
            threads: 1,
            attempted: 3,
            failed: 0,
            checks: vec![("ok".into(), true)],
            digest: 0,
            metrics: vec![Metric::new("wall_s", 1.25, "s")],
            layers: &[],
            notes: Vec::new(),
        };
        assert_eq!(
            o.result_json(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}"#
        );
    }

    #[test]
    fn complete_fills_only_metrics_the_workload_does_not_own() {
        let listed = vec![
            ("a_ms".to_owned(), "ms".to_owned()),
            ("b_ms".to_owned(), "ms".to_owned()),
        ];
        let got = complete(vec![Metric::new("a_ms", 2.0, "ms")], &listed, &["a_ms"]).unwrap();
        assert_eq!(
            got,
            vec![
                Metric::new("a_ms", 2.0, "ms"),
                Metric::new("b_ms", 0.0, "ms")
            ]
        );
        assert!(complete(Vec::new(), &listed, &["a_ms"]).is_err());
        assert!(complete(vec![Metric::new("c_ms", 1.0, "ms")], &listed, &[]).is_err());
        assert!(complete(vec![Metric::new("a_ms", 1.0, "s")], &listed, &[]).is_err());
    }

    #[test]
    fn setup_time_uses_the_fastest_share() {
        let mut s = Samples::new(0.5);
        for (i, setup) in [4.0, 1.0, 3.0, 2.0].into_iter().enumerate() {
            s.push(Pass {
                setup_s: setup,
                wall_s: 1.0 + i as f64,
                cpu_s: 1.0,
                traced: false,
                latency_ms: vec![1.0],
            });
        }
        let plan = Plan {
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: true,
            work_dir: std::env::temp_dir(),
        };
        let m = s.end_to_end(&plan).unwrap();
        assert_eq!(m[0], Metric::new("setup_s", 1.5, "s"));
        assert_eq!(m[1], Metric::new("wall_s", 1.5, "s"));
    }
}
