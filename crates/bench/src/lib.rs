//! # terse-bench
//!
//! The experiment harness: one binary per table/figure of the paper plus
//! ablation studies. See DESIGN.md §6 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.
//!
//! Report binaries (all print to stdout):
//!
//! * `table2` — Table 2: program sizes, runtime split, error-rate mean/SD,
//!   `d_K` bounds for all 12 benchmarks.
//! * `figure3` — Figure 3: per-benchmark error-rate CDFs with lower/upper
//!   bound envelopes and the performance-improvement axis.
//! * `setup_sweep` — Section 6.1: the derived operating points and an
//!   error-rate-vs-overclock sweep.
//! * `ablation_spatial` — effect of dropping the spatial-correlation
//!   component of process variation.
//! * `ablation_mc` — analytic estimate vs Monte Carlo ground truth on an
//!   affordable kernel (the validation the paper could not run).

use std::time::Instant;
use terse::{Framework, Report, Result, Workload};
use terse_analyze::json::Value;
use terse_workloads::{BenchmarkSpec, DatasetSize};

/// The common envelope every `results/BENCH_*.json` artifact shares, so CI
/// and ad-hoc tooling can read any benchmark's outcome without knowing its
/// internals: `{bench, config, wall_ms, speedup, checks, detail}`.
///
/// * `bench` — short benchmark id; the file is `results/BENCH_<bench>.json`.
/// * `config` — the knobs this run used (dataset, caps, thread counts).
/// * `wall_ms` — total wall-clock of the benchmark binary's measured work.
/// * `speedup` — the headline ratio the benchmark exists to demonstrate.
/// * `checks` — named pass/fail gates (bitwise equality), so a reader
///   need not re-derive thresholds from `detail`.
/// * `detail` — the benchmark-specific payload (the pre-envelope body).
#[derive(Debug, Clone)]
pub struct BenchEnvelope {
    /// Short benchmark id (`jobserver`).
    pub bench: &'static str,
    /// Run configuration knobs.
    pub config: Value,
    /// Total measured wall-clock in milliseconds.
    pub wall_ms: f64,
    /// Headline speedup ratio.
    pub speedup: f64,
    /// Named pass/fail gates, in evaluation order.
    pub checks: Vec<(String, bool)>,
    /// Benchmark-specific payload.
    pub detail: Value,
}

impl BenchEnvelope {
    /// The envelope as a JSON value with the fixed key order
    /// `bench, config, wall_ms, speedup, checks, detail`.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("bench".into(), Value::Str(self.bench.into())),
            ("config".into(), self.config.clone()),
            ("wall_ms".into(), Value::Num(self.wall_ms)),
            ("speedup".into(), Value::Num(self.speedup)),
            (
                "checks".into(),
                Value::Obj(
                    self.checks
                        .iter()
                        .map(|(name, ok)| (name.clone(), Value::Bool(*ok)))
                        .collect(),
                ),
            ),
            ("detail".into(), self.detail.clone()),
        ])
    }

    /// Renders the envelope, prints it to stdout, and writes it to
    /// `results/BENCH_<bench>.json` (creating `results/` if needed).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating or writing the artifact.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let json = format!("{}\n", self.to_value().render());
        print!("{json}");
        let path = std::path::Path::new("results").join(format!("BENCH_{}.json", self.bench));
        std::fs::create_dir_all("results")?;
        std::fs::write(&path, &json)?;
        Ok(path)
    }
}

/// Harness-wide experiment settings (kept small enough for laptop runs;
/// scale `samples` up for tighter data-variation statistics).
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Data-variation input draws per benchmark.
    pub samples: usize,
    /// Input dataset size.
    pub size: DatasetSize,
    /// Seed for dataset generation.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            samples: 4,
            size: DatasetSize::Large,
            seed: 0xDAC19,
        }
    }
}

/// Builds the default experiment framework (calibrated operating point,
/// paper correction scheme).
///
/// # Errors
///
/// Propagates framework construction errors.
pub fn default_framework(cfg: &HarnessConfig) -> Result<Framework> {
    Framework::builder().samples(cfg.samples).build()
}

/// Builds the workload of a benchmark spec under the harness settings.
///
/// # Errors
///
/// Propagates assembly errors.
pub fn workload_of(spec: &BenchmarkSpec, cfg: &HarnessConfig) -> Result<Workload> {
    spec.workload(cfg.size, cfg.samples, cfg.seed)
}

/// Runs one benchmark and prints progress to stderr.
///
/// # Errors
///
/// Propagates the framework's errors.
pub fn run_benchmark(
    framework: &Framework,
    spec: &BenchmarkSpec,
    cfg: &HarnessConfig,
) -> Result<Report> {
    let t0 = Instant::now();
    eprint!("  {:<14} ...", spec.name);
    let w = workload_of(spec, cfg)?;
    let report = framework.run(&w)?;
    eprintln!(
        " done in {:.1}s (rate {:.3}%)",
        t0.elapsed().as_secs_f64(),
        report.estimate.mean_error_rate_percent()
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips_with_fixed_key_order() {
        let env = BenchEnvelope {
            bench: "smoke",
            config: Value::Obj(vec![("cap".into(), Value::Num(96.0))]),
            wall_ms: 12.5,
            speedup: 6.0,
            checks: vec![
                ("bitwise_identical".into(), true),
                ("speedup_floor".into(), false),
            ],
            detail: Value::Null,
        };
        let v = Value::parse(&env.to_value().render()).unwrap();
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("smoke"));
        assert_eq!(
            v.get("checks")
                .and_then(|c| c.get("speedup_floor"))
                .and_then(Value::as_bool),
            Some(false)
        );
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["bench", "config", "wall_ms", "speedup", "checks", "detail"]
        );
    }

    #[test]
    fn harness_smoke() {
        // One small benchmark end to end through the harness plumbing.
        let cfg = HarnessConfig {
            samples: 2,
            size: DatasetSize::Small,
            seed: 7,
        };
        let fw = default_framework(&cfg).unwrap();
        let spec = terse_workloads::by_name("typeset").unwrap();
        let report = run_benchmark(&fw, spec, &cfg).unwrap();
        assert_eq!(report.name, "typeset");
        assert!(report.estimate.mean_error_rate() >= 0.0);
    }
}
