//! Abstract interpretation over canonical slack random variables.
//!
//! The statistical engine (Clark max/min, the marginal solver, Eq. 14)
//! assumes every endpoint-slack RV is a *finite* canonical form over one
//! shared variable basis with non-degenerate variance. A single NaN mean
//! or ∞ sensitivity silently poisons every downstream moment; a zero
//! variance collapses the statistical min into a deterministic one and
//! degrades correlation handling; a basis-length mismatch panics deep in
//! the covariance kernels. This pass checks all of that up front and, as
//! a by-product of the interval abstraction, reports a static bound on
//! the stage DTS: the worst-case endpoint slack lies in
//! `[min_i (μ_i − kσ_i), min_i (μ_i + kσ_i)]`, an interval that brackets
//! Algorithm 1's per-cycle result for every activation set (activated
//! paths are a subset of the static paths).
//!
//! When the caller also has an *independently derived* interval for the
//! same quantity (the deterministic-STA certificate bound
//! `sd(slack) ≤ σ_rel · arrival` used by the DTA pre-screen), passing it
//! as [`SlackPassConfig::interval_bound`] tightens SL004 to the
//! intersection; the diagnostic's `data` records both inputs and which
//! bound was binding on each side. Disjoint inputs mean one of the two
//! abstractions is wrong and upgrade SL004 to a warning.
//!
//! Diagnostic codes:
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | SL001 | error    | non-finite canonical form (NaN/∞ mean, sensitivity, or residual) |
//! | SL002 | warning  | degenerate (zero-variance) slack RV where variation is enabled |
//! | SL003 | error    | sensitivity-basis length mismatch across the RV set |
//! | SL004 | info     | derived static DTS interval bound for the set |

use crate::{AnalysisReport, Severity};
use terse_netlist::Netlist;
use terse_sta::analysis::{Sta, StatisticalSta};
use terse_sta::{CanonicalRv, DelayLibrary, StaError, VariationConfig, VariationModel};

/// Configuration of the slack pass.
#[derive(Debug, Clone)]
pub struct SlackPassConfig {
    /// Required sensitivity-basis length. `None` takes the first RV's
    /// basis as the reference (every set must still be internally
    /// consistent).
    pub expected_var_count: Option<usize>,
    /// Whether zero-variance RVs are suspicious. Disable when variation
    /// is configured off (`VariationConfig::disabled()`), where every
    /// slack is legitimately deterministic.
    pub expect_variance: bool,
    /// Half-width multiplier `k` of the per-RV interval `μ ± kσ` used for
    /// the SL004 bound.
    pub sigma_bound: f64,
    /// An independently derived `[lo, hi]` interval for the same
    /// worst-slack quantity (e.g. from deterministic arrival times and
    /// the `sd ≤ σ_rel · arrival` certificate). SL004 reports the
    /// intersection and which bound was binding per side.
    pub interval_bound: Option<(f64, f64)>,
}

impl Default for SlackPassConfig {
    fn default() -> Self {
        SlackPassConfig {
            expected_var_count: None,
            expect_variance: true,
            sigma_bound: 3.0,
            interval_bound: None,
        }
    }
}

/// Runs the slack-RV pass over one set of canonical slacks (typically the
/// endpoint slacks of one pipeline stage at the working period),
/// appending findings to `report`. `entity_prefix` anchors diagnostics
/// (e.g. `"stage 2"` or `"slack set"`).
pub fn analyze_slacks(
    rvs: &[CanonicalRv],
    cfg: &SlackPassConfig,
    entity_prefix: &str,
    report: &mut AnalysisReport,
) {
    if rvs.is_empty() {
        return;
    }
    let reference = cfg.expected_var_count.unwrap_or_else(|| rvs[0].var_count());
    let mut all_finite = true;
    // Interval join of the min-reduction: the worst slack of the set lies
    // in [min lo_i, min hi_i].
    let (mut lo, mut hi) = (f64::INFINITY, f64::INFINITY);
    for (i, rv) in rvs.iter().enumerate() {
        let entity = format!("{entity_prefix} rv {i}");
        let mut finite = true;
        if !rv.mean().is_finite() {
            finite = false;
            report.push(
                "SL001",
                Severity::Error,
                entity.clone(),
                format!("slack mean is non-finite ({})", rv.mean()),
                "trace the delay/constraint inputs for NaN or infinity",
            );
        }
        if let Some(j) = rv.coeffs().iter().position(|c| !c.is_finite()) {
            finite = false;
            report.push(
                "SL001",
                Severity::Error,
                entity.clone(),
                format!(
                    "sensitivity coefficient {j} is non-finite ({})",
                    rv.coeffs()[j]
                ),
                "trace the variation model for NaN or infinity",
            );
        }
        if !rv.indep().is_finite() || rv.indep() < 0.0 {
            finite = false;
            report.push(
                "SL001",
                Severity::Error,
                entity.clone(),
                format!("independent residual is invalid ({})", rv.indep()),
                "the independent sensitivity must be finite and non-negative",
            );
        }
        if rv.var_count() != reference {
            report.push(
                "SL003",
                Severity::Error,
                entity.clone(),
                format!(
                    "sensitivity basis has {} variable(s), expected {reference}",
                    rv.var_count()
                ),
                "all slack RVs must share one variation-model basis",
            );
        }
        if finite && cfg.expect_variance && rv.variance() <= 0.0 {
            report.push(
                "SL002",
                Severity::Warning,
                entity,
                "slack RV has zero variance under an enabled variation model",
                "degenerate canonical form: check the sensitivity extraction",
            );
        }
        if finite {
            let sd = rv.variance().max(0.0).sqrt();
            lo = lo.min(rv.mean() - cfg.sigma_bound * sd);
            hi = hi.min(rv.mean() + cfg.sigma_bound * sd);
        } else {
            all_finite = false;
        }
    }
    if all_finite {
        let mut data = vec![
            ("sigma_lo".to_string(), format!("{lo}")),
            ("sigma_hi".to_string(), format!("{hi}")),
        ];
        let (mut binding_lo, mut binding_hi) = ("sigma", "sigma");
        let (mut tight_lo, mut tight_hi) = (lo, hi);
        if let Some((ilo, ihi)) = cfg.interval_bound {
            data.push(("interval_lo".to_string(), format!("{ilo}")));
            data.push(("interval_hi".to_string(), format!("{ihi}")));
            if ilo > tight_lo {
                tight_lo = ilo;
                binding_lo = "interval";
            }
            if ihi < tight_hi {
                tight_hi = ihi;
                binding_hi = "interval";
            }
        }
        data.push(("binding_lo".to_string(), binding_lo.to_string()));
        data.push(("binding_hi".to_string(), binding_hi.to_string()));
        if tight_lo > tight_hi {
            // Two sound abstractions of one quantity cannot be disjoint:
            // one of the inputs is wrong.
            report.push_with_data(
                "SL004",
                Severity::Warning,
                entity_prefix.to_string(),
                format!(
                    "static DTS cross-check failed: ±{}σ bound [{lo:.4}, {hi:.4}] is \
                     disjoint from interval bound {:?}",
                    cfg.sigma_bound, cfg.interval_bound,
                ),
                "the sensitivity extraction and the arrival-certificate bound disagree",
                data,
            );
        } else {
            report.push_with_data(
                "SL004",
                Severity::Info,
                entity_prefix.to_string(),
                format!(
                    "static DTS bound: worst slack of {} endpoint(s) in \
                     [{tight_lo:.4}, {tight_hi:.4}] (±{}σ{})",
                    rvs.len(),
                    cfg.sigma_bound,
                    if cfg.interval_bound.is_some() {
                        " ∩ certificate interval"
                    } else {
                        ""
                    },
                ),
                "informational interval abstraction; negative lo admits timing errors",
                data,
            );
        }
    }
}

/// Runs [`analyze_slacks`] over every pipeline stage's endpoint slacks at
/// clock period `t_clk`, anchored as `stage <s>`. Each stage is
/// cross-checked against its deterministic-arrival certificate interval
/// (`sd(slack) ≤ σ_rel · arrival`, the inequality the DTA pre-screen is
/// built on), which needs no SSTA sensitivities.
///
/// # Errors
///
/// Propagates variation-model and timing-engine failures (findings go
/// into `report`).
pub fn analyze_stage_slacks(
    netlist: &Netlist,
    lib: &DelayLibrary,
    variation: VariationConfig,
    t_clk: f64,
    report: &mut AnalysisReport,
) -> Result<(), StaError> {
    let model = VariationModel::new(netlist, lib, variation)?;
    let ssta = StatisticalSta::new(netlist, lib, &model);
    let sta = Sta::new(netlist, lib);
    let cfg = SlackPassConfig {
        expected_var_count: Some(model.var_count()),
        expect_variance: variation.sigma_rel > 0.0,
        ..Default::default()
    };
    for s in 0..netlist.stage_count() {
        // Every stage below `stage_count` has an endpoint list.
        let endpoints = netlist.endpoints(s).unwrap_or_default();
        let mut rvs = Vec::with_capacity(endpoints.len());
        let (mut ilo, mut ihi) = (f64::INFINITY, f64::INFINITY);
        for &e in endpoints {
            rvs.push(ssta.endpoint_slack(e, t_clk)?);
            let slack = sta.endpoint_slack(e, t_clk)?;
            let w = cfg.sigma_bound * variation.sigma_rel * sta.endpoint_arrival(e)?.max(0.0);
            ilo = ilo.min(slack - w);
            ihi = ihi.min(slack + w);
        }
        let stage_cfg = SlackPassConfig {
            interval_bound: ilo.is_finite().then_some((ilo, ihi)),
            ..cfg.clone()
        };
        analyze_slacks(&rvs, &stage_cfg, &format!("stage {s}"), report);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(mean: f64, coeffs: Vec<f64>, indep: f64) -> CanonicalRv {
        CanonicalRv::with_sensitivities(mean, coeffs, indep)
    }

    fn check(rvs: &[CanonicalRv], cfg: &SlackPassConfig) -> AnalysisReport {
        let mut r = AnalysisReport::new();
        analyze_slacks(rvs, cfg, "set", &mut r);
        r
    }

    #[test]
    fn valid_set_is_clean_with_info_bound() {
        let rvs = vec![rv(10.0, vec![0.5, 0.0], 0.1), rv(12.0, vec![0.0, 1.0], 0.2)];
        let r = check(&rvs, &SlackPassConfig::default());
        assert!(r.is_clean(), "{}", r.render_text());
        assert!(r.has_code("SL004"), "bound note expected");
    }

    #[test]
    fn interval_bound_is_the_min_join() {
        // Deterministic RVs: interval degenerates to [min μ, min μ].
        let rvs = vec![rv(5.0, vec![], 0.0), rv(3.0, vec![], 0.0)];
        let cfg = SlackPassConfig {
            expect_variance: false,
            ..Default::default()
        };
        let r = check(&rvs, &cfg);
        let note = r
            .diagnostics()
            .iter()
            .find(|d| d.code == "SL004")
            .expect("bound note");
        assert!(
            note.message.contains("[3.0000, 3.0000]"),
            "{}",
            note.message
        );
    }

    #[test]
    fn interval_cross_check_tightens_and_records_binding_side() {
        // σ bound: [10 − 3, 10 + 3] = [7, 13].
        let rvs = vec![rv(10.0, vec![1.0], 0.0)];
        let cfg = SlackPassConfig {
            interval_bound: Some((8.0, 20.0)),
            ..Default::default()
        };
        let r = check(&rvs, &cfg);
        let note = r
            .diagnostics()
            .iter()
            .find(|d| d.code == "SL004")
            .expect("bound note");
        assert_eq!(note.severity, Severity::Info);
        assert!(
            note.message.contains("[8.0000, 13.0000]"),
            "{}",
            note.message
        );
        let get = |k: &str| {
            note.data
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
                .unwrap_or_else(|| panic!("missing data key {k}"))
        };
        assert_eq!(get("binding_lo"), "interval");
        assert_eq!(get("binding_hi"), "sigma");
        assert_eq!(get("sigma_lo"), "7");
        assert_eq!(get("interval_hi"), "20");
    }

    #[test]
    fn disjoint_cross_check_is_a_warning() {
        let rvs = vec![rv(10.0, vec![1.0], 0.0)];
        let cfg = SlackPassConfig {
            interval_bound: Some((20.0, 30.0)),
            ..Default::default()
        };
        let r = check(&rvs, &cfg);
        let note = r
            .diagnostics()
            .iter()
            .find(|d| d.code == "SL004")
            .expect("cross-check finding");
        assert_eq!(note.severity, Severity::Warning);
        assert!(!r.is_clean());
    }

    #[test]
    fn nan_mean_is_an_error_and_suppresses_bound() {
        let rvs = vec![rv(f64::NAN, vec![0.1], 0.1), rv(10.0, vec![0.1], 0.1)];
        let r = check(&rvs, &SlackPassConfig::default());
        assert!(r.has_code("SL001"), "{}", r.render_text());
        assert!(r.has_errors());
        assert!(!r.has_code("SL004"), "no bound from a poisoned set");
    }

    #[test]
    fn infinite_coefficient_is_an_error() {
        let rvs = vec![rv(10.0, vec![f64::INFINITY, 0.2], 0.1)];
        let r = check(&rvs, &SlackPassConfig::default());
        assert!(r.has_code("SL001"), "{}", r.render_text());
    }

    #[test]
    fn degenerate_variance_is_a_warning_only_when_expected() {
        let rvs = vec![rv(10.0, vec![0.0, 0.0], 0.0)];
        let strict = check(&rvs, &SlackPassConfig::default());
        assert!(strict.has_code("SL002"), "{}", strict.render_text());
        assert!(!strict.has_errors());
        let relaxed = SlackPassConfig {
            expect_variance: false,
            ..Default::default()
        };
        let r = check(&rvs, &relaxed);
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn basis_mismatch_is_an_error() {
        let rvs = vec![rv(10.0, vec![0.1, 0.2], 0.1), rv(11.0, vec![0.1], 0.1)];
        let r = check(&rvs, &SlackPassConfig::default());
        assert!(r.has_code("SL003"), "{}", r.render_text());
    }
}
