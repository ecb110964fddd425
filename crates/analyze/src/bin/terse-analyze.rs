//! Command-line driver for the static analyzer.
//!
//! ```text
//! terse-analyze lint       [--deny] [--json] [ROOT]
//! terse-analyze pipeline   [--deny] [--json]
//! terse-analyze jobs       [--deny] [--json] [STORE]
//! terse-analyze scrub      [--deny] [--json] [STORE]
//! terse-analyze failpoints [ROOT]
//! ```
//!
//! * `lint` runs the codebase lints (AZ001–AZ005) over every workspace
//!   crate's `src/` tree under `ROOT` (default: current directory).
//! * `pipeline` builds the reference pipeline netlist and runs the
//!   netlist structural passes, the slack abstract-interpretation pass
//!   over each stage's endpoint slacks at the deterministic minimum
//!   period (cross-checked against the arrival-certificate interval),
//!   and the CFG passes over an embedded reference program.
//! * `jobs` runs the job-store layout passes (JS005–JS008) over a
//!   `terse-serve` store root (default: current directory).
//! * `scrub` runs the layout passes plus the artifact integrity passes
//!   (JS009–JS012): every checkpoint frame is CRC-verified, every report
//!   digest re-checked, quarantine bundles audited for completeness.
//! * `failpoints` lists every fail point registered in the workspace
//!   sources with its fault-injection-test reference count (the data
//!   behind the AZ004 coverage lint).
//!
//! Exit status: `0` clean, `1` findings at the gating severity
//! (errors by default; warnings too with `--deny`), `2` usage or
//! environment error. `--json` prints the structured report instead of
//! text.

use std::path::PathBuf;
use std::process::ExitCode;

use terse_analyze::{
    analyze_cfg, analyze_netlist, analyze_slacks, AnalysisReport, SlackPassConfig,
};
use terse_isa::{assemble, Cfg};
use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};
use terse_sta::analysis::{Sta, StatisticalSta};
use terse_sta::{DelayLibrary, VariationConfig, VariationModel};

const USAGE: &str = "\
usage: terse-analyze <command> [options]

commands:
  lint [--deny] [--json] [ROOT]    lint workspace Rust sources (AZ001-AZ005)
  pipeline [--deny] [--json]       analyze the reference pipeline IRs
  jobs [--deny] [--json] [STORE]   analyze a terse-serve job store (JS005-JS008)
  scrub [--deny] [--json] [STORE]  jobs passes + artifact integrity (JS009-JS012)
  failpoints [ROOT]                list registered fail points + test coverage

options:
  --deny   also fail on warnings (deny-by-default CI gate)
  --json   print the report as JSON
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let deny = args.iter().any(|a| a == "--deny");
    let json = args.iter().any(|a| a == "--json");
    let positional: Vec<&String> = args
        .iter()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();

    let mut report = AnalysisReport::new();
    let outcome = match command.as_str() {
        "lint" => run_lint(&positional, &mut report),
        "pipeline" => run_pipeline(&mut report),
        "jobs" => run_jobs(&positional, &mut report),
        "scrub" => run_scrub(&positional, &mut report),
        "failpoints" => return run_failpoints(&positional),
        _ => {
            eprint!("unknown command `{command}`\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(msg) = outcome {
        eprintln!("terse-analyze: {msg}");
        return ExitCode::from(2);
    }

    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    let gate = report.error_count() > 0 || (deny && report.warning_count() > 0);
    if gate {
        eprintln!(
            "terse-analyze: {} error(s), {} warning(s)",
            report.error_count(),
            report.warning_count()
        );
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn run_lint(positional: &[&String], report: &mut AnalysisReport) -> Result<(), String> {
    let root: PathBuf = positional
        .first()
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    if !root.join("crates").is_dir() {
        return Err(format!(
            "`{}` does not contain a crates/ directory (pass the workspace root)",
            root.display()
        ));
    }
    let scanned = terse_analyze::lint::lint_workspace(&root, report)
        .map_err(|e| format!("workspace scan failed: {e}"))?;
    eprintln!("terse-analyze: linted {scanned} file(s)");
    Ok(())
}

fn run_jobs(positional: &[&String], report: &mut AnalysisReport) -> Result<(), String> {
    let root: PathBuf = positional
        .first()
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let n = terse_analyze::analyze_job_store(&root, report)
        .map_err(|e| format!("store scan failed: {e}"))?;
    eprintln!("terse-analyze: inspected {n} job(s)");
    Ok(())
}

fn run_scrub(positional: &[&String], report: &mut AnalysisReport) -> Result<(), String> {
    let root: PathBuf = positional
        .first()
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let n = terse_analyze::scrub_job_store(&root, report)
        .map_err(|e| format!("store scrub failed: {e}"))?;
    eprintln!("terse-analyze: scrubbed {n} job(s)");
    Ok(())
}

/// Prints the fail-point inventory as a table and exits directly: unlike
/// the pass commands this is a listing, not a gate, so an uncovered
/// point is reported by `lint` (AZ004), not here.
fn run_failpoints(positional: &[&String]) -> ExitCode {
    let root: PathBuf = positional
        .first()
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    if !root.join("crates").is_dir() {
        eprintln!(
            "terse-analyze: `{}` does not contain a crates/ directory (pass the workspace root)",
            root.display()
        );
        return ExitCode::from(2);
    }
    match terse_analyze::fail_point_inventory(&root) {
        Ok(inventory) => {
            for (name, refs) in &inventory {
                println!("{name}\t{refs} test file(s)");
            }
            eprintln!("terse-analyze: {} fail point(s)", inventory.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("terse-analyze: fail-point scan failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_pipeline(report: &mut AnalysisReport) -> Result<(), String> {
    let p = PipelineNetlist::build(PipelineConfig::default())
        .map_err(|e| format!("pipeline build failed: {e}"))?;
    let netlist = p.netlist();
    analyze_netlist(netlist, report);

    let lib = DelayLibrary::normalized_45nm();
    let var_cfg = VariationConfig::default();
    let expect_variance = var_cfg.sigma_rel > 0.0;
    let model = VariationModel::new(netlist, &lib, var_cfg)
        .map_err(|e| format!("variation model failed: {e}"))?;
    let ssta = StatisticalSta::new(netlist, &lib, &model);
    let t_clk = Sta::new(netlist, &lib).min_period();
    let slack_cfg = SlackPassConfig {
        expected_var_count: Some(model.var_count()),
        expect_variance,
        ..Default::default()
    };
    let sta = Sta::new(netlist, &lib);
    for s in 0..netlist.stage_count() {
        let endpoints = netlist
            .endpoints(s)
            .map_err(|e| format!("stage {s} endpoints failed: {e}"))?;
        let mut rvs = Vec::with_capacity(endpoints.len());
        // Independent SL004 cross-check input: deterministic arrivals
        // plus the `sd ≤ σ_rel · arrival` certificate inequality.
        let (mut ilo, mut ihi) = (f64::INFINITY, f64::INFINITY);
        for &e in endpoints {
            let rv = ssta
                .endpoint_slack(e, t_clk)
                .map_err(|err| format!("slack of {e} failed: {err}"))?;
            rvs.push(rv);
            let slack = sta
                .endpoint_slack(e, t_clk)
                .map_err(|err| format!("det slack of {e} failed: {err}"))?;
            let arr = sta
                .endpoint_arrival(e)
                .map_err(|err| format!("arrival of {e} failed: {err}"))?;
            let w = slack_cfg.sigma_bound * VariationConfig::default().sigma_rel * arr.max(0.0);
            ilo = ilo.min(slack - w);
            ihi = ihi.min(slack + w);
        }
        let stage_cfg = SlackPassConfig {
            interval_bound: ilo.is_finite().then_some((ilo, ihi)),
            ..slack_cfg.clone()
        };
        analyze_slacks(&rvs, &stage_cfg, &format!("stage {s}"), report);
    }

    let prog = assemble(REFERENCE_PROGRAM).map_err(|e| format!("reference program: {e}"))?;
    let cfg = Cfg::from_program(&prog);
    analyze_cfg(&prog, &cfg, report);
    Ok(())
}

/// The reference program the `pipeline` command's CFG passes run over.
/// It has every CFG shape the passes distinguish: a loop, a
/// taken/fall-through branch, and a call/return pair whose `jr` block
/// reaches the `jal` return site.
const REFERENCE_PROGRAM: &str = "\
        addi r1, r0, 8
        addi r2, r0, 0
        jal  sum
        addi r4, r2, 1
        st   r4, r0, 0
        halt
sum:
        add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, sum
        jr   r31
";
