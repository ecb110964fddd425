//! Fixture gate for the static analyzer: zero false positives on valid
//! generated artifacts, and every injected defect class detected with its
//! expected diagnostic code.
//!
//! ```text
//! cargo run --release -p terse-bench --bin analyze_fixtures [valid_count] [defect_seeds]
//! ```
//!
//! Three artifact families are generated from the oracle crate's seeded
//! generators: netlists, program CFGs and canonical slack-RV sets. For
//! each family, `valid_count` (default 256) valid artifacts must produce
//! **zero** Warning-or-above diagnostics, and each defect class must be
//! detected (≥ 1 diagnostic of its expected code) on every one of
//! `defect_seeds` (default 32) seeds. A JSON summary is written to
//! `results/ANALYZE_fixtures.json`; the exit status is nonzero on any
//! false positive or missed defect, which is what the CI `analyze` job
//! gates on.

use oracle::gen;
use terse_analyze::json::Value;
use terse_analyze::{
    analyze_cfg, analyze_netlist, analyze_slacks, AnalysisReport, SlackPassConfig,
};
use terse_isa::Cfg;

struct DefectOutcome {
    family: &'static str,
    kind: String,
    expected_code: &'static str,
    seeds: usize,
    detected: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let valid_count: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(256);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let defect_seeds: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(32);

    let slack_cfg = SlackPassConfig::default();
    let gates_for = |seed: u64| 4 + (seed % 12) as usize;

    // --- Valid artifacts: the zero-false-positive contract --------------
    let mut false_positives: Vec<String> = Vec::new();
    for seed in 0..valid_count as u64 {
        let n = gen::random_netlist(seed, gates_for(seed));
        let mut r = AnalysisReport::new();
        analyze_netlist(&n, &mut r);
        if !r.is_clean() {
            false_positives.push(format!("netlist seed {seed}:\n{}", r.render_text()));
        }

        let p = gen::random_program(seed, 6 + (seed % 10) as usize, (seed % 4) as usize);
        let cfg = Cfg::from_program(&p);
        let mut r = AnalysisReport::new();
        analyze_cfg(&p, &cfg, &mut r);
        if !r.is_clean() {
            false_positives.push(format!("cfg seed {seed}:\n{}", r.render_text()));
        }

        let rvs = gen::random_slacks(seed, 4 + (seed % 6) as usize, 1 + (seed % 5) as usize);
        let mut r = AnalysisReport::new();
        analyze_slacks(&rvs, &slack_cfg, "set", &mut r);
        if !r.is_clean() {
            false_positives.push(format!("slacks seed {seed}:\n{}", r.render_text()));
        }
    }

    // --- Defect artifacts: every class detected, every seed -------------
    let mut outcomes: Vec<DefectOutcome> = Vec::new();
    for defect in gen::NetlistDefect::ALL {
        let code = defect.expected_code();
        let mut detected = 0usize;
        for seed in 0..defect_seeds as u64 {
            let n = gen::random_netlist_with_defect(seed, gates_for(seed), defect);
            let mut r = AnalysisReport::new();
            analyze_netlist(&n, &mut r);
            if r.has_code(code) {
                detected += 1;
            }
        }
        outcomes.push(DefectOutcome {
            family: "netlist",
            kind: format!("{defect:?}"),
            expected_code: code,
            seeds: defect_seeds,
            detected,
        });
    }
    for defect in gen::CfgDefect::ALL {
        let code = defect.expected_code();
        let mut detected = 0usize;
        for seed in 0..defect_seeds as u64 {
            let (p, cfg) = gen::random_cfg_with_defect(seed, 4 + (seed % 8) as usize, defect);
            let mut r = AnalysisReport::new();
            analyze_cfg(&p, &cfg, &mut r);
            if r.has_code(code) {
                detected += 1;
            }
        }
        outcomes.push(DefectOutcome {
            family: "cfg",
            kind: format!("{defect:?}"),
            expected_code: code,
            seeds: defect_seeds,
            detected,
        });
    }
    for defect in gen::SlackDefect::ALL {
        let code = defect.expected_code();
        let mut detected = 0usize;
        for seed in 0..defect_seeds as u64 {
            let rvs = gen::random_slacks_with_defect(
                seed,
                4 + (seed % 6) as usize,
                1 + (seed % 5) as usize,
                defect,
            );
            let mut r = AnalysisReport::new();
            analyze_slacks(&rvs, &slack_cfg, "set", &mut r);
            if r.has_code(code) {
                detected += 1;
            }
        }
        outcomes.push(DefectOutcome {
            family: "slacks",
            kind: format!("{defect:?}"),
            expected_code: code,
            seeds: defect_seeds,
            detected,
        });
    }

    let missed: Vec<&DefectOutcome> = outcomes.iter().filter(|o| o.detected < o.seeds).collect();
    let pass = false_positives.is_empty() && missed.is_empty();

    // --- Report ---------------------------------------------------------
    let count = |n: usize| Value::Num(n as f64);
    let defects = outcomes
        .iter()
        .map(|o| {
            Value::Obj(vec![
                ("family".into(), Value::Str(o.family.into())),
                ("kind".into(), Value::Str(o.kind.clone())),
                ("expected_code".into(), Value::Str(o.expected_code.into())),
                ("seeds".into(), count(o.seeds)),
                ("detected".into(), count(o.detected)),
            ])
        })
        .collect();
    let json = Value::Obj(vec![
        ("host_threads".into(), count(host)),
        ("valid_count".into(), count(valid_count)),
        ("defect_seeds".into(), count(defect_seeds)),
        ("false_positives".into(), count(false_positives.len())),
        ("defects".into(), Value::Arr(defects)),
        ("pass".into(), Value::Bool(pass)),
    ]);
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/ANALYZE_fixtures.json", format!("{json}\n"))
        .expect("write fixture report");

    for fp in &false_positives {
        eprintln!("FALSE POSITIVE on valid artifact — {fp}");
    }
    for o in &missed {
        eprintln!(
            "MISSED DEFECT — {} {} expected {} on {} seed(s), detected on {}",
            o.family, o.kind, o.expected_code, o.seeds, o.detected
        );
    }
    println!(
        "analyze_fixtures: {} valid artifacts/family clean: {}; {}/{} defect classes fully detected",
        valid_count,
        false_positives.is_empty(),
        outcomes.len() - missed.len(),
        outcomes.len()
    );
    if !pass {
        std::process::exit(1);
    }
}
