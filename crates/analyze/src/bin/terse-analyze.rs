//! Command-line driver for the static analyzer.
//!
//! ```text
//! terse-analyze lint       [--deny] [--json] [ROOT]
//! terse-analyze pipeline   [--deny] [--json]
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
//! * `failpoints` lists every fail point registered in the workspace
//!   sources with its fault-injection-test reference count (the data
//!   behind the AZ004 coverage lint).
//!
//! Job stores are audited by `terse verify` and `terse scrub`
//! (`terse-serve`), which run this crate's JS005–JS012 passes.
//!
//! Exit status: `0` clean, `1` findings at the gating severity
//! (errors by default; warnings too with `--deny`), `2` usage or
//! environment error. `--json` prints the structured report instead of
//! text.

use std::path::PathBuf;
use std::process::ExitCode;

use terse_analyze::{analyze_cfg, analyze_netlist, analyze_stage_slacks, AnalysisReport};
use terse_isa::{assemble, Cfg};
use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};
use terse_sta::{DelayLibrary, Sta, VariationConfig};

const USAGE: &str = "\
usage: terse-analyze <command> [options]

commands:
  lint [--deny] [--json] [ROOT]    lint workspace Rust sources (AZ001-AZ005)
  pipeline [--deny] [--json]       analyze the reference pipeline IRs
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
    let t_clk = Sta::new(netlist, &lib).min_period();
    analyze_stage_slacks(netlist, &lib, VariationConfig::default(), t_clk, report)
        .map_err(|e| format!("stage slack analysis failed: {e}"))?;

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
