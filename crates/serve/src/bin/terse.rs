//! The `terse` job-server CLI.
//!
//! ```text
//! terse submit  --store DIR SPEC.json...    queue jobs (`-` reads stdin)
//! terse serve   --store DIR [--workers N] [--drain] [--poll-ms MS]
//! terse status  --store DIR [ID...] [--json]
//! terse cancel  --store DIR ID...
//! terse report  --store DIR ID              stream report.json to stdout
//! terse verify  --store DIR                 JS005-JS008 store audit
//! terse scrub   --store DIR                 verify + JS009-JS012 integrity audit
//! ```
//!
//! `serve` recovers the store (requeueing crashed `running` jobs), then
//! fans queued jobs across the worker pool; with `--drain` it exits once
//! the queue is empty, otherwise it polls forever (SIGKILL-safe: state is
//! on disk and every artifact write is atomic). `status` and `report`
//! surface `error.txt` and the transition history for `failed` and
//! `quarantined` jobs, so a post-mortem needs no store spelunking.
//! `scrub` runs the full artifact integrity audit (checkpoint CRC
//! frames, report digests, quarantine bundles) on top of `verify`'s
//! layout passes. Exit status: `0` success, `1` domain failure (failed
//! jobs in a drained run, findings in `verify`/`scrub`, missing report),
//! `2` usage or store error.

use std::io::Read as _;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

use terse_serve::json::Value;
use terse_serve::{deterministic_section, serve, ExecutorConfig, JobSpec, JobState, JobStore};

/// The usage text, with the [`ExecutorConfig`] defaults filled in.
fn usage() -> String {
    let defaults = ExecutorConfig::default();
    format!(
        "\
usage: terse <command> [options]

commands:
  submit --store DIR SPEC.json...   queue jobs (`-` reads a spec from stdin)
  serve  --store DIR [--workers N] [--drain] [--poll-ms MS]
  status --store DIR [ID...] [--json]
  cancel --store DIR ID...
  report --store DIR ID [--result-only]
  verify --store DIR
  scrub  --store DIR

options:
  --store DIR     store root (required)
  --workers N     worker threads (default {})
  --drain         exit once the queue is drained
  --poll-ms MS    longest idle sleep between scans (default {})
  --json          machine-readable status output
  --result-only   print only the deterministic report section
",
        defaults.workers, defaults.poll_ms
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let outcome = match command.as_str() {
        "submit" => cmd_submit(rest),
        "serve" => cmd_serve(rest),
        "status" => cmd_status(rest),
        "cancel" => cmd_cancel(rest),
        "report" => cmd_report(rest),
        "verify" => cmd_verify(rest),
        "scrub" => cmd_scrub(rest),
        _ => {
            eprint!("unknown command `{command}`\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("terse: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Pulls `--store DIR` out of the argument list; returns the opened store
/// and the remaining arguments.
fn parse_store(args: &[String]) -> Result<(JobStore, Vec<String>), String> {
    let mut root = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--store" {
            root = Some(
                it.next()
                    .ok_or_else(|| "--store needs a directory".to_owned())?
                    .clone(),
            );
        } else {
            rest.push(a.clone());
        }
    }
    let root = root.ok_or_else(|| "--store DIR is required".to_owned())?;
    let store = JobStore::open(&root).map_err(|e| e.to_string())?;
    Ok((store, rest))
}

fn flag_value(rest: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = rest.iter().position(|a| a == flag) {
        if pos + 1 >= rest.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = rest.remove(pos + 1);
        rest.remove(pos);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

fn flag(rest: &mut Vec<String>, name: &str) -> bool {
    if let Some(pos) = rest.iter().position(|a| a == name) {
        rest.remove(pos);
        true
    } else {
        false
    }
}

fn cmd_submit(args: &[String]) -> Result<ExitCode, String> {
    let (store, rest) = parse_store(args)?;
    if rest.is_empty() {
        return Err("submit needs at least one SPEC.json (or `-`)".into());
    }
    for path in &rest {
        let text = if path == "-" {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            buf
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("read `{path}`: {e}"))?
        };
        let spec = JobSpec::from_json(&text).map_err(|e| e.to_string())?;
        store.submit(&spec).map_err(|e| e.to_string())?;
        println!("{}", spec.id);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let (store, mut rest) = parse_store(args)?;
    let defaults = ExecutorConfig::default();
    let workers = flag_value(&mut rest, "--workers")?
        .map(|v| v.parse::<usize>().map_err(|_| "--workers: bad number"))
        .transpose()?
        .unwrap_or(defaults.workers);
    let poll_ms = flag_value(&mut rest, "--poll-ms")?
        .map(|v| v.parse::<u64>().map_err(|_| "--poll-ms: bad number"))
        .transpose()?
        .unwrap_or(defaults.poll_ms);
    let drain = flag(&mut rest, "--drain");
    if let Some(extra) = rest.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let cfg = ExecutorConfig {
        workers,
        drain,
        poll_ms,
        ..defaults
    };
    eprintln!(
        "terse serve: store `{}`, {workers} worker(s){}",
        store.root().display(),
        if drain { ", drain mode" } else { "" }
    );
    let stop = AtomicBool::new(false);
    let stats =
        serve(&store, &cfg, &stop, |e| eprintln!("terse serve: {e}")).map_err(|e| e.to_string())?;
    eprintln!(
        "terse serve: {} done, {} failed, {} cancelled, {} requeue(s), {} attempt(s)",
        stats.completed, stats.failed, stats.cancelled, stats.requeued, stats.attempts
    );
    Ok(if stats.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_status(args: &[String]) -> Result<ExitCode, String> {
    let (store, mut rest) = parse_store(args)?;
    let json = flag(&mut rest, "--json");
    let ids = if rest.is_empty() {
        store.list().map_err(|e| e.to_string())?
    } else {
        rest
    };
    let mut rows = Vec::new();
    for id in &ids {
        let state = store.state(id).map_err(|e| e.to_string())?;
        // Failed and quarantined jobs carry their diagnosis inline: the
        // first line of error.txt in the listing, so `terse status` alone
        // answers "what went wrong".
        let error = match state {
            JobState::Failed | JobState::Quarantined => store
                .read_error(id)
                .map(|e| e.lines().next().unwrap_or("").to_owned()),
            _ => None,
        };
        rows.push((id.clone(), state, error));
    }
    if json {
        let items: Vec<Value> = rows
            .iter()
            .map(|(id, s, error)| {
                let mut fields = vec![
                    ("id".to_owned(), Value::Str(id.clone())),
                    ("state".to_owned(), Value::Str(s.as_str().to_owned())),
                ];
                if let Some(e) = error {
                    fields.push(("error".to_owned(), Value::Str(e.clone())));
                }
                Value::Obj(fields)
            })
            .collect();
        println!("{}", Value::Arr(items).render());
    } else {
        for (id, state, error) in &rows {
            match error {
                Some(e) => println!("{id}\t{state}\t{e}"),
                None => println!("{id}\t{state}"),
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_cancel(args: &[String]) -> Result<ExitCode, String> {
    let (store, rest) = parse_store(args)?;
    if rest.is_empty() {
        return Err("cancel needs at least one job id".into());
    }
    for id in &rest {
        let state = store.cancel(id).map_err(|e| e.to_string())?;
        println!("{id}\t{state}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_report(args: &[String]) -> Result<ExitCode, String> {
    let (store, mut rest) = parse_store(args)?;
    let result_only = flag(&mut rest, "--result-only");
    let [id] = rest.as_slice() else {
        return Err("report needs exactly one job id".into());
    };
    match store.state(id).map_err(|e| e.to_string())? {
        JobState::Done => {}
        s => {
            eprintln!("terse report: job `{id}` is `{s}`, not done");
            if matches!(s, JobState::Failed | JobState::Quarantined) {
                if let Some(error) = store.read_error(id) {
                    eprintln!("error:");
                    for line in error.lines() {
                        eprintln!("  {line}");
                    }
                }
                if let Some(log) = store.read_transitions(id) {
                    eprintln!("transitions:");
                    for line in log.lines() {
                        eprintln!("  {line}");
                    }
                }
            }
            return Ok(ExitCode::from(1));
        }
    }
    let report = store.read_report(id).map_err(|e| e.to_string())?;
    if result_only {
        println!(
            "{}",
            deterministic_section(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!("{report}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify(args: &[String]) -> Result<ExitCode, String> {
    let (store, rest) = parse_store(args)?;
    if let Some(extra) = rest.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let mut report = terse_analyze::AnalysisReport::new();
    let n = terse_analyze::analyze_job_store(store.root(), &mut report)
        .map_err(|e| format!("store scan failed: {e}"))?;
    print!("{}", report.render_text());
    eprintln!("terse verify: inspected {n} job(s)");
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_scrub(args: &[String]) -> Result<ExitCode, String> {
    let (store, rest) = parse_store(args)?;
    if let Some(extra) = rest.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let mut report = terse_analyze::AnalysisReport::new();
    let n = terse_analyze::scrub_job_store(store.root(), &mut report)
        .map_err(|e| format!("store scrub failed: {e}"))?;
    print!("{}", report.render_text());
    eprintln!("terse scrub: scrubbed {n} job(s)");
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
