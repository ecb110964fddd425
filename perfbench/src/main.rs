//! Runs one benchmark workload in this process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every flag is required (`run.py` holds the defaults). Run it from the
//! repository root: it reads the metric lists from `BENCHMARK.json`. Prints the run's notes, output checks and result digest, then, as the
//! last line, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. Exits 1 when an output check fails, 2 when the run could
//! not be made.

use perfbench::{procfs, run_workload, BenchSpec, Plan};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<(String, Plan), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed: bad number `{value}`"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds: bad value `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let plan = Plan {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke: false,
        work_dir: PathBuf::from("perfbench").join(".work"),
    };
    Ok((workload.ok_or("--workload is required")?, plan))
}

fn main() -> ExitCode {
    let parsed =
        parse_args().and_then(|(w, p)| Ok((w, p, BenchSpec::load("BENCHMARK.json".as_ref())?)));
    let (workload, plan, spec) = match parsed {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let trace_path = PathBuf::from("perfbench")
        .join("traces")
        .join(format!("{workload}-seed{}.jsonl", plan.seed));
    let out = match run_workload(&workload, &plan, &spec, Some(&trace_path)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload={} seed={} threads={} host_threads={} trace={}",
        out.workload,
        plan.seed,
        out.threads,
        procfs::host_threads(),
        u8::from(plan.trace)
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, ok) in &out.checks {
        println!("# check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    println!("# digest {:016x}", out.digest);
    if plan.trace {
        println!("# spans written to {}", trace_path.display());
    }
    for m in &out.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
