//! Property tests for the static analyzer against the seeded generators:
//!
//! * **Soundness of silence** — valid artifacts (netlists, program CFGs,
//!   slack-RV sets) produce zero Warning-or-above
//!   diagnostics.
//! * **Defect detection** — every injected defect class produces at least
//!   one diagnostic of its expected code.
//! * **Typed refusal** — `Framework::preflight_netlist` turns a cyclic
//!   netlist into a typed error (never a panic).

use oracle::gen;
use proptest::prelude::*;
use terse::{Framework, TerseError};
use terse_analyze::{
    analyze_cfg, analyze_netlist, analyze_slacks, AnalysisReport, SlackPassConfig,
};
use terse_isa::Cfg;

fn netlist_report(n: &terse_netlist::Netlist) -> AnalysisReport {
    let mut r = AnalysisReport::new();
    analyze_netlist(n, &mut r);
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn valid_netlists_are_clean(seed in 0u64..1_000_000, gates in 1usize..24) {
        let n = gen::random_netlist(seed, gates);
        let r = netlist_report(&n);
        prop_assert!(r.is_clean(), "seed {seed}, gates {gates}:\n{}", r.render_text());
    }

    #[test]
    fn valid_cfgs_are_clean(seed in 0u64..1_000_000, body in 1usize..16, branches in 0usize..6) {
        let p = gen::random_program(seed, body, branches);
        let cfg = Cfg::from_program(&p);
        let mut r = AnalysisReport::new();
        analyze_cfg(&p, &cfg, &mut r);
        prop_assert!(r.is_clean(), "seed {seed}:\n{}", r.render_text());
    }

    #[test]
    fn valid_slack_sets_are_clean(seed in 0u64..1_000_000, n in 1usize..12, vars in 0usize..8) {
        let rvs = gen::random_slacks(seed, n, vars);
        let mut r = AnalysisReport::new();
        analyze_slacks(&rvs, &SlackPassConfig::default(), "set", &mut r);
        prop_assert!(r.is_clean(), "seed {seed}:\n{}", r.render_text());
    }

    #[test]
    fn netlist_defects_are_detected(seed in 0u64..1_000_000, gates in 1usize..24) {
        for defect in gen::NetlistDefect::ALL {
            let n = gen::random_netlist_with_defect(seed, gates, defect);
            let r = netlist_report(&n);
            prop_assert!(
                r.has_code(defect.expected_code()),
                "seed {seed}, {defect:?} must raise {}:\n{}",
                defect.expected_code(),
                r.render_text()
            );
        }
    }

    #[test]
    fn cfg_defects_are_detected(seed in 0u64..1_000_000, body in 2usize..16) {
        for defect in gen::CfgDefect::ALL {
            let (p, cfg) = gen::random_cfg_with_defect(seed, body, defect);
            let mut r = AnalysisReport::new();
            analyze_cfg(&p, &cfg, &mut r);
            prop_assert!(
                r.has_code(defect.expected_code()),
                "seed {seed}, {defect:?} must raise {}:\n{}",
                defect.expected_code(),
                r.render_text()
            );
        }
    }

    #[test]
    fn slack_defects_are_detected(seed in 0u64..1_000_000, n in 2usize..12, vars in 1usize..8) {
        for defect in gen::SlackDefect::ALL {
            let rvs = gen::random_slacks_with_defect(seed, n, vars, defect);
            let mut r = AnalysisReport::new();
            analyze_slacks(&rvs, &SlackPassConfig::default(), "set", &mut r);
            prop_assert!(
                r.has_code(defect.expected_code()),
                "seed {seed}, {defect:?} must raise {}:\n{}",
                defect.expected_code(),
                r.render_text()
            );
        }
    }

    #[test]
    fn strict_preflight_refuses_cyclic_netlists_with_typed_error(
        seed in 0u64..1_000_000,
        gates in 1usize..24,
    ) {
        let n = gen::random_netlist_with_defect(seed, gates, gen::NetlistDefect::CombinationalLoop);
        match Framework::preflight_netlist(&n) {
            Err(TerseError::Preflight(msg)) => prop_assert!(msg.contains("NL001"), "{msg}"),
            other => prop_assert!(false, "expected Preflight error, got {other:?}"),
        }
        prop_assert!(netlist_report(&n).has_code("NL001"));
    }
}
