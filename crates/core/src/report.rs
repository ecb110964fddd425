//! Estimation results: the error-rate distribution with certified bounds,
//! run timings, and Table-2-style reporting.

use crate::perf::TsPerformanceModel;
use crate::Result;
use terse_dta::cache::DtsCacheStats;
use terse_dta::prescreen::PrescreenStats;
use terse_stats::mixture::CdfBounds;
use terse_stats::{Normal, PoissonNormalMixture, SampleRv};

/// The program error-rate estimate: the Eq. 14 mixture over the
/// CLT-approximated λ, its sampled data-variation distribution, and the
/// Stein / Chen–Stein approximation-error bounds.
#[derive(Debug, Clone)]
pub struct ErrorRateEstimate {
    /// The sampled λ (expected error count), one slot per input draw.
    pub lambda: SampleRv,
    /// The CLT (normal) approximation `λ̄` of λ.
    pub lambda_normal: Normal,
    /// The Eq. 14 estimator `N̄_E` (Poisson mixed over `λ̄`).
    pub mixture: PoissonNormalMixture,
    /// Total dynamic instructions the estimate refers to (after `e_i`
    /// scaling).
    pub total_instructions: f64,
    /// Stein bound `d_K(λ, λ̄)` (Eq. 13).
    pub dk_lambda: f64,
    /// Chen–Stein bound `d_K(N_E, N̄_E)` (Eq. 9) — also the error-rate
    /// column of Table 2 (`d_K` is invariant under the monotone rescaling
    /// `R_E = N_E / N`).
    pub dk_count: f64,
    /// Worst-case `b₁ + b₂` (mean + 6σ over data variation) used in Eq. 9.
    pub chen_stein_b12_worst: f64,
}

impl ErrorRateEstimate {
    /// Mean error rate, errors per instruction.
    pub fn mean_error_rate(&self) -> f64 {
        if self.total_instructions <= 0.0 {
            return 0.0;
        }
        self.lambda.mean() / self.total_instructions
    }

    /// Mean error rate in percent (the paper's Table 2 unit).
    pub fn mean_error_rate_percent(&self) -> f64 {
        self.mean_error_rate() * 100.0
    }

    /// Standard deviation of the error rate: by the law of total variance
    /// of the mixture, `Var(N) = E[λ] + Var(λ)`.
    pub fn sd_error_rate(&self) -> f64 {
        if self.total_instructions <= 0.0 {
            return 0.0;
        }
        (self.lambda.mean().max(0.0) + self.lambda.variance()).sqrt() / self.total_instructions
    }

    /// Error-rate SD in percent.
    pub fn sd_error_rate_percent(&self) -> f64 {
        self.sd_error_rate() * 100.0
    }

    /// The (lower, nominal, upper) cumulative probability that the program
    /// experiences at most `rate` errors per instruction — one point of the
    /// paper's Figure 3, bounds included.
    ///
    /// # Errors
    ///
    /// Propagates quadrature errors (practically unreachable).
    pub fn rate_cdf(&self, rate: f64) -> Result<CdfBounds> {
        let k = rate * self.total_instructions;
        Ok(self
            .mixture
            .cdf_bounds(k, self.dk_lambda.min(1.0), self.dk_count.min(1.0))?)
    }

    /// A Figure-3 series: `n` evenly spaced rate points covering
    /// `mean ± span·sd` (clamped at 0), each with bounds and the
    /// TS-performance improvement at that rate.
    ///
    /// # Errors
    ///
    /// Propagates [`ErrorRateEstimate::rate_cdf`] errors.
    pub fn rate_cdf_series(
        &self,
        n: usize,
        span: f64,
        perf: TsPerformanceModel,
    ) -> Result<Vec<RateCdfPoint>> {
        let mean = self.mean_error_rate();
        let sd = self.sd_error_rate().max(mean * 0.05 + 1e-9);
        let lo = (mean - span * sd).max(0.0);
        let hi = mean + span * sd;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let rate = lo + (hi - lo) * i as f64 / (n.max(2) - 1) as f64;
            let b = self.rate_cdf(rate)?;
            out.push(RateCdfPoint {
                rate,
                lower: b.lower,
                nominal: b.nominal,
                upper: b.upper,
                improvement_percent: perf.improvement_percent(rate),
            });
        }
        Ok(out)
    }

    /// The estimate as a JSON object. Contains only values that are a pure
    /// function of the run's inputs (no wall clock, no cache counters), so
    /// two bitwise-identical estimates render to identical bytes — the
    /// job server's crash-resume differential tests compare these strings
    /// directly.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        let samples: Vec<String> = self.lambda.samples().iter().map(|&v| json_f64(v)).collect();
        o.raw("lambda_samples", &format!("[{}]", samples.join(",")));
        o.f64("lambda_mean", self.lambda.mean());
        o.f64("lambda_sd", self.lambda.sd());
        o.f64("total_instructions", self.total_instructions);
        o.f64("mean_error_rate", self.mean_error_rate());
        o.f64("sd_error_rate", self.sd_error_rate());
        o.f64("dk_lambda", self.dk_lambda);
        o.f64("dk_count", self.dk_count);
        o.f64("chen_stein_b12_worst", self.chen_stein_b12_worst);
        o.finish()
    }
}

/// Renders an `f64` as a JSON value: Rust's shortest round-trip decimal for
/// finite values (equal bit patterns ⇒ equal bytes), `null` for non-finite
/// ones (JSON has no NaN/∞ literal).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers like `3` are valid JSON numbers, but keeping a
        // decimal point marks the field as floating-point for typed readers.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

/// Minimal ordered JSON-object builder (the workspace is offline — no
/// serde); `raw` values must already be valid JSON.
struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    fn new() -> Self {
        JsonObj { fields: Vec::new() }
    }

    fn raw(&mut self, key: &str, json: &str) {
        self.fields.push((key.to_owned(), json.to_owned()));
    }

    fn str(&mut self, key: &str, value: &str) {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                '\n' => "\\n".chars().collect(),
                '\t' => "\\t".chars().collect(),
                '\r' => "\\r".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect();
        self.fields.push((key.to_owned(), format!("\"{escaped}\"")));
    }

    fn f64(&mut self, key: &str, value: f64) {
        self.fields.push((key.to_owned(), json_f64(value)));
    }

    fn finish(self) -> String {
        let body: Vec<String> = self
            .fields
            .into_iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// One point of a Figure-3 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateCdfPoint {
    /// Error rate (errors per instruction).
    pub rate: f64,
    /// Lower-bound CDF value.
    pub lower: f64,
    /// Nominal Eq. 14 CDF value.
    pub nominal: f64,
    /// Upper-bound CDF value.
    pub upper: f64,
    /// TS performance improvement at this rate, percent (the figure's top
    /// axis).
    pub improvement_percent: f64,
}

/// Wall-clock split of a framework run, mirroring Table 2's
/// training/simulation columns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunTimings {
    /// Control-network characterization + datapath model training seconds.
    pub training_s: f64,
    /// Profiling/simulation seconds.
    pub simulation_s: f64,
    /// Estimation (marginals, bounds, Eq. 14) seconds.
    pub estimation_s: f64,
}

impl RunTimings {
    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        self.training_s + self.simulation_s + self.estimation_s
    }
}

/// A full per-workload report — one row of the paper's Table 2.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub name: String,
    /// The estimate.
    pub estimate: ErrorRateEstimate,
    /// Wall-clock timings.
    pub timings: RunTimings,
    /// Static instruction count.
    pub static_instructions: usize,
    /// Dynamic instructions represented (after scaling).
    pub dynamic_instructions: f64,
    /// Basic-block count.
    pub basic_blocks: usize,
    /// The performance model at the report's operating point.
    pub perf: TsPerformanceModel,
    /// Stage-DTS memo-cache counters at the end of the run (`None` when
    /// caching was disabled via `FrameworkBuilder::dta_cache(0)`).
    pub dta_cache: Option<DtsCacheStats>,
    /// Static pre-screening pair counters (`None` for reports assembled
    /// outside `Framework::run`, e.g. by hand in tests).
    pub prescreen: Option<PrescreenStats>,
}

impl Report {
    /// The Table 2 header line.
    pub fn table2_header() -> String {
        format!(
            "{:<14} {:>15} {:>7} {:>9} {:>9} {:>9} {:>8} {:>7} {:>9} {:>9}",
            "Benchmark",
            "Instructions",
            "Blocks",
            "Train(s)",
            "Sim(s)",
            "Total(s)",
            "Rate(%)",
            "SD(%)",
            "dK(l,l~)",
            "dK(R,R~)"
        )
    }

    /// This report as a Table 2 row.
    pub fn table2_row(&self) -> String {
        format!(
            "{:<14} {:>15} {:>7} {:>9.2} {:>9.2} {:>9.2} {:>8.3} {:>7.3} {:>9.2e} {:>9.4}",
            self.name,
            format_count(self.dynamic_instructions),
            self.basic_blocks,
            self.timings.training_s,
            self.timings.simulation_s,
            self.timings.total_s(),
            self.estimate.mean_error_rate_percent(),
            self.estimate.sd_error_rate_percent(),
            self.estimate.dk_lambda,
            self.estimate.dk_count,
        )
    }

    /// A multi-line performance summary: the per-phase wall-clock split plus
    /// the stage-DTS cache counters (when caching was enabled).
    pub fn perf_summary(&self) -> String {
        let mut s = format!(
            "phases: simulation {:.3}s, training {:.3}s, estimation {:.3}s (total {:.3}s)",
            self.timings.simulation_s,
            self.timings.training_s,
            self.timings.estimation_s,
            self.timings.total_s(),
        );
        match &self.dta_cache {
            Some(c) => {
                s.push_str(&format!(
                    "\ndta-cache: {} hits, {} misses ({:.1}% hit rate), \
                     {} evictions, {} collisions, {}/{} entries, \
                     {} interned vectors ({} interner hits)",
                    c.hits,
                    c.misses,
                    c.hit_rate() * 100.0,
                    c.evictions,
                    c.collisions,
                    c.entries,
                    c.capacity,
                    c.interned_vectors,
                    c.interner_hits,
                ));
            }
            None => s.push_str("\ndta-cache: disabled"),
        }
        match &self.prescreen {
            Some(p) => s.push_str(&format!(
                "\nprescreen: {}/{} pairs pruned ({:.1}%)",
                p.pairs_pruned,
                p.pairs_total,
                p.ratio() * 100.0,
            )),
            None => s.push_str("\nprescreen: n/a"),
        }
        s
    }

    /// The report as one self-contained JSON object — the job server's
    /// streaming format. Every key is always present (telemetry sections
    /// that did not run are `null`, never missing), so downstream
    /// consumers can index unconditionally. `f64`s are rendered in Rust's
    /// shortest round-trip form, so equal bit patterns produce equal bytes.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("name", &self.name);
        o.raw("static_instructions", &self.static_instructions.to_string());
        o.f64("dynamic_instructions", self.dynamic_instructions);
        o.raw("basic_blocks", &self.basic_blocks.to_string());
        o.raw("estimate", &self.estimate.to_json());
        o.raw(
            "perf",
            &format!(
                "{{\"overclock\":{},\"penalty_cycles\":{}}}",
                json_f64(self.perf.overclock),
                json_f64(self.perf.penalty_cycles)
            ),
        );
        let mut t = JsonObj::new();
        t.f64("simulation_s", self.timings.simulation_s);
        t.f64("training_s", self.timings.training_s);
        t.f64("estimation_s", self.timings.estimation_s);
        t.f64("total_s", self.timings.total_s());
        o.raw("timings", &t.finish());
        match &self.dta_cache {
            Some(c) => {
                let mut d = JsonObj::new();
                for (k, v) in [
                    ("hits", c.hits),
                    ("misses", c.misses),
                    ("evictions", c.evictions),
                    ("collisions", c.collisions),
                    ("entries", c.entries as u64),
                    ("capacity", c.capacity as u64),
                ] {
                    d.raw(k, &v.to_string());
                }
                d.f64("hit_rate", c.hit_rate());
                o.raw("dta_cache", &d.finish());
            }
            None => o.raw("dta_cache", "null"),
        }
        match &self.prescreen {
            Some(p) => {
                let mut pr = JsonObj::new();
                pr.raw("pairs_total", &p.pairs_total.to_string());
                pr.raw("pairs_pruned", &p.pairs_pruned.to_string());
                pr.f64("ratio", p.ratio());
                o.raw("prescreen", &pr.finish());
            }
            None => o.raw("prescreen", "null"),
        }
        o.finish()
    }
}

fn format_count(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.3}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.3}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(lam_mean: f64, lam_sd_frac: f64, total: f64) -> ErrorRateEstimate {
        let samples: Vec<f64> = (0..16)
            .map(|i| lam_mean * (1.0 + lam_sd_frac * ((i as f64 / 15.0) * 2.0 - 1.0) * 1.7))
            .collect();
        let lambda = SampleRv::new(samples).unwrap();
        let normal = Normal::new(lambda.mean(), lambda.sd()).unwrap();
        ErrorRateEstimate {
            lambda_normal: normal,
            mixture: PoissonNormalMixture::new(normal).unwrap(),
            lambda,
            total_instructions: total,
            dk_lambda: 0.02,
            dk_count: 0.015,
            chen_stein_b12_worst: 1.0,
        }
    }

    #[test]
    fn rate_statistics() {
        let e = estimate(4000.0, 0.1, 1_000_000.0);
        assert!((e.mean_error_rate() - 0.004).abs() < 1e-4);
        assert!((e.mean_error_rate_percent() - 0.4).abs() < 0.01);
        // SD includes both Poisson and λ spread.
        assert!(e.sd_error_rate() > 4000.0f64.sqrt() / 1e6 * 0.99);
    }

    #[test]
    fn rate_cdf_is_monotone_with_ordered_bounds() {
        let e = estimate(2000.0, 0.08, 1_000_000.0);
        let mut prev = 0.0;
        for i in 0..20 {
            let rate = 0.001 + i as f64 * 0.0002;
            let b = e.rate_cdf(rate).unwrap();
            assert!(b.lower <= b.nominal && b.nominal <= b.upper);
            assert!(b.nominal >= prev - 1e-9);
            prev = b.nominal;
        }
    }

    #[test]
    fn series_covers_the_distribution() {
        let e = estimate(2000.0, 0.08, 1_000_000.0);
        let pts = e
            .rate_cdf_series(41, 4.0, TsPerformanceModel::paper_default())
            .unwrap();
        assert_eq!(pts.len(), 41);
        assert!(pts.first().unwrap().nominal < 0.1);
        assert!(pts.last().unwrap().nominal > 0.9);
        // Performance axis decreases as the rate grows.
        assert!(pts.first().unwrap().improvement_percent > pts.last().unwrap().improvement_percent);
    }

    #[test]
    fn table_formatting() {
        let e = estimate(1000.0, 0.05, 5e8);
        let r = Report {
            name: "demo".into(),
            estimate: e,
            timings: RunTimings {
                training_s: 1.0,
                simulation_s: 2.0,
                estimation_s: 0.5,
            },
            static_instructions: 42,
            dynamic_instructions: 5e8,
            basic_blocks: 7,
            perf: TsPerformanceModel::paper_default(),
            dta_cache: None,
            prescreen: None,
        };
        let header = Report::table2_header();
        let row = r.table2_row();
        assert!(header.contains("Benchmark"));
        assert!(row.contains("demo"));
        assert!(row.contains("500.000M"));
        assert!((r.timings.total_s() - 3.5).abs() < 1e-12);
        // Without a cache, the perf summary says so.
        let summary = r.perf_summary();
        assert!(summary.contains("phases:"));
        assert!(summary.contains("dta-cache: disabled"));
    }

    /// The keys of a JSON object's outermost level, in order: each string
    /// that a depth-1 `:` follows.
    fn top_level_keys(json: &str) -> Vec<String> {
        let (mut keys, mut depth) = (Vec::new(), 0);
        let (mut in_str, mut escaped, mut last) = (false, false, String::new());
        for c in json.chars() {
            if in_str {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => in_str = false,
                    _ => {}
                }
                if in_str {
                    last.push(c);
                }
                continue;
            }
            match c {
                '"' => {
                    in_str = true;
                    last.clear();
                }
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                ':' if depth == 1 => keys.push(last.clone()),
                _ => {}
            }
        }
        keys
    }

    #[test]
    fn report_json_has_a_complete_key_set() {
        let e = estimate(1000.0, 0.05, 5e8);
        let r = Report {
            name: "demo \"quoted\"".into(),
            estimate: e,
            timings: RunTimings {
                training_s: 1.0,
                simulation_s: 2.0,
                estimation_s: 0.5,
            },
            static_instructions: 42,
            dynamic_instructions: 5e8,
            basic_blocks: 7,
            perf: TsPerformanceModel::paper_default(),
            dta_cache: None,
            prescreen: None,
        };
        let json = r.to_json();
        assert_eq!(
            top_level_keys(&json),
            [
                "name",
                "static_instructions",
                "dynamic_instructions",
                "basic_blocks",
                "estimate",
                "perf",
                "timings",
                "dta_cache",
                "prescreen",
            ],
            "{json}"
        );
        for key in [
            "\"lambda_samples\"",
            "\"dk_lambda\"",
            "\"dta_cache\":null",
            "\"prescreen\":null",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("\"sampling\""), "{json}");
        // Quotes in names are escaped.
        assert!(json.contains("demo \\\"quoted\\\""), "{json}");
        // Deterministic payloads render identically.
        assert_eq!(r.estimate.to_json(), r.estimate.clone().to_json());
    }

    #[test]
    fn json_f64_round_trips_and_handles_non_finite() {
        for v in [0.25, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0, 42.0] {
            let s = json_f64(v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s}");
        }
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(42.0), "42.0");
    }

    #[test]
    fn perf_summary_includes_cache_counters() {
        let e = estimate(1000.0, 0.05, 5e8);
        let r = Report {
            name: "demo".into(),
            estimate: e,
            timings: RunTimings::default(),
            static_instructions: 1,
            dynamic_instructions: 1.0,
            basic_blocks: 1,
            perf: TsPerformanceModel::paper_default(),
            dta_cache: Some(DtsCacheStats {
                hits: 30,
                misses: 10,
                evictions: 2,
                collisions: 1,
                entries: 8,
                capacity: 16,
                interned_vectors: 4,
                interner_hits: 12,
            }),
            prescreen: Some(PrescreenStats {
                pairs_total: 40,
                pairs_pruned: 10,
            }),
        };
        let summary = r.perf_summary();
        assert!(summary.contains("30 hits"));
        assert!(summary.contains("10 misses"));
        assert!(summary.contains("2 evictions"));
        assert!(summary.contains("1 collisions"));
        assert!(summary.contains("75.0% hit rate"));
        assert!(summary.contains("prescreen: 10/40 pairs pruned (25.0%)"));
    }

    #[test]
    fn count_formatting() {
        assert_eq!(format_count(1_487_629_739.0), "1.488G");
        assert_eq!(format_count(27_984.0), "28.0k");
        assert_eq!(format_count(12.0), "12");
    }
}
