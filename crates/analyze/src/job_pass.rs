//! Structural verification of job-server specs and store directories.
//!
//! `terse-serve` (ROADMAP item 2) turns estimation runs into queued batch
//! jobs: a JSON spec per job, a directory-backed store
//! (`jobs/<id>/{spec.json,state,checkpoints/,report.json}`), and a strict
//! state machine (`queued → running → done/failed/cancelled/quarantined`,
//! plus the recovery edge `running → queued` for crashed, hung, or
//! time-sliced workers; `quarantined` is the terminal state for jobs that
//! exhausted their retry budget and carry a diagnostic bundle).
//! This pass is the single source of truth for what a *valid* spec and a
//! *valid* store look like; the serve crate delegates its own guards to
//! [`valid_transition`] and runs [`analyze_job_spec`] before admitting a
//! job, so the executor and the analyzer can never disagree.
//!
//! The pass operates on [`JobSpecView`] — a borrowed, crate-neutral
//! projection of the serve crate's `JobSpec` — because `terse-serve`
//! depends on `terse-analyze`, not the other way around.
//!
//! Diagnostic codes:
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | JS001 | error    | workload unresolved: unknown benchmark name, or neither/both of benchmark and inline asm given |
//! | JS002 | error    | invalid operating-point grid: empty, or a non-finite / non-positive overclock factor (duplicates are a warning) |
//! | JS003 | error    | invalid parameters: empty or unsafe job id, zero samples, zero threads, zero checkpoint interval |
//! | JS004 | error    | Monte Carlo population mismatch: exactly one of `chips` / `mc_inputs` is zero |
//! | JS013 | —        | retired with phase sampling; the `sampling` key is now rejected as unknown by the spec parser. Not to be reused |
//! | JS005 | error    | store layout violation: missing `spec.json` or `state`, or a non-directory under `jobs/` |
//! | JS006 | error    | invalid state file: contents are not one of the six states |
//! | JS007 | error    | transition-log violation: an edge outside the state machine, or a broken chain |
//! | JS008 | error    | state/artifact inconsistency: `done` without `report.json`, or `report.json` without `done` |
//!
//! The **scrub** family (JS009–JS012, [`scrub_job_store`]) goes one layer
//! deeper than the structural audit: it opens every durable artifact and
//! verifies its integrity envelope (see [`crate::integrity`]):
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | JS009 | error    | damaged checkpoint: a `TERSEFR1` frame that is torn, checksum-corrupt, or of an unknown version (legacy unframed checkpoints are a warning) |
//! | JS010 | error    | report digest mismatch: `report.json` does not match its `report.json.crc32` sidecar (missing sidecar on a legacy report is a warning) |
//! | JS011 | error    | damaged store file: a zero-length artifact (stray `*.tmp.*` writer leftovers and `.corrupt` evidence files are warnings) |
//! | JS012 | error    | incomplete quarantine: a `quarantined` job missing its diagnostic bundle (`quarantine/{spec.json,error.txt,transitions.log,attempts}`) or top-level `error.txt` |

use crate::integrity::{unframe, FrameError, BAK_SUFFIX, CORRUPT_SUFFIX, TMP_SUFFIX};
use crate::{AnalysisReport, Severity};
use std::path::Path;

/// The six job states, in canonical string form.
pub const JOB_STATES: [&str; 6] = [
    "queued",
    "running",
    "done",
    "failed",
    "cancelled",
    "quarantined",
];

/// Whether `state` is one of the four terminal states.
pub fn is_terminal_state(state: &str) -> bool {
    matches!(state, "done" | "failed" | "cancelled" | "quarantined")
}

/// The job state machine, as a pure edge predicate. This is the only
/// transition table in the workspace — `terse-serve` routes every state
/// write through it.
///
/// Edges:
///
/// * `queued → running` (a worker claims the job)
/// * `queued → cancelled` (cancel before any worker claims it)
/// * `running → done | failed | cancelled`
/// * `running → queued` (recovery: the worker died, hung, overran its
///   deadline, or the job was time-sliced at a checkpoint boundary; the
///   checkpoint makes the re-run bit-exact)
/// * `running → quarantined` (the retry budget is exhausted: the job is
///   parked terminally with a diagnostic bundle instead of retrying
///   forever)
///
/// Terminal states have no outgoing edges. Unknown state strings have no
/// edges at all.
pub fn valid_transition(from: &str, to: &str) -> bool {
    matches!(
        (from, to),
        ("queued", "running" | "cancelled")
            | (
                "running",
                "done" | "failed" | "cancelled" | "queued" | "quarantined"
            )
    )
}

/// A borrowed projection of a job spec, decoupled from the serve crate's
/// concrete `JobSpec` type.
#[derive(Debug, Clone, Copy)]
pub struct JobSpecView<'a> {
    /// Job identifier (directory name under `jobs/`).
    pub id: &'a str,
    /// Named benchmark workload, if the spec references one.
    pub benchmark: Option<&'a str>,
    /// Whether the spec carries an inline assembly workload.
    pub has_asm: bool,
    /// Estimation sample count (lambda replicas).
    pub samples: u64,
    /// Operating-point grid: overclock factors relative to the rated
    /// period.
    pub grid: &'a [f64],
    /// Monte Carlo chip population size (0 = Monte Carlo disabled).
    pub chips: usize,
    /// Monte Carlo inputs per chip (0 = Monte Carlo disabled).
    pub mc_inputs: usize,
    /// Worker-local rayon threads.
    pub threads: usize,
    /// Checkpoint flush interval (blocks / MC lane-group tasks).
    pub checkpoint_every: usize,
}

/// Whether `id` is safe to use verbatim as a store directory name.
pub fn safe_job_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        && !id.starts_with('.')
}

/// Runs every spec pass (JS001–JS004), appending findings to `report`.
///
/// `known_workloads` is the benchmark namespace to resolve against
/// (callers pass the `terse-workloads` registry). Emission order is
/// deterministic: checks run in code order.
pub fn analyze_job_spec(
    spec: &JobSpecView<'_>,
    known_workloads: &[&str],
    report: &mut AnalysisReport,
) {
    let entity = if spec.id.is_empty() { "<job>" } else { spec.id };
    // JS001 — the workload must resolve to exactly one source.
    match (spec.benchmark, spec.has_asm) {
        (None, false) => report.push(
            "JS001",
            Severity::Error,
            entity,
            "spec names no workload: neither `benchmark` nor `asm` is present",
            "set `workload.benchmark` to a known name or provide `workload.asm`",
        ),
        (Some(_), true) => report.push(
            "JS001",
            Severity::Error,
            entity,
            "spec names two workloads: both `benchmark` and `asm` are present",
            "keep exactly one of `workload.benchmark` and `workload.asm`",
        ),
        (Some(name), false) if !known_workloads.contains(&name) => report.push(
            "JS001",
            Severity::Error,
            entity,
            format!("unknown benchmark `{name}`"),
            format!("known benchmarks: {}", known_workloads.join(", ")),
        ),
        _ => {}
    }
    // JS002 — the operating-point grid must be non-empty, finite, positive.
    if spec.grid.is_empty() {
        report.push(
            "JS002",
            Severity::Error,
            entity,
            "operating-point grid is empty",
            "list at least one overclock factor in `grid`",
        );
    }
    for (i, &f) in spec.grid.iter().enumerate() {
        if !(f > 0.0) || !f.is_finite() {
            report.push(
                "JS002",
                Severity::Error,
                format!("{entity} grid[{i}]"),
                format!("overclock factor {f} is not a finite positive number"),
                "overclock factors scale the rated period and must be finite and > 0",
            );
        }
    }
    for (i, &f) in spec.grid.iter().enumerate() {
        if spec.grid[..i].iter().any(|&g| g.to_bits() == f.to_bits()) {
            report.push(
                "JS002",
                Severity::Warning,
                format!("{entity} grid[{i}]"),
                format!("duplicate overclock factor {f}"),
                "duplicate grid points repeat identical work",
            );
        }
    }
    // JS003 — scalar parameters must be usable as-is (no silent clamping).
    if !safe_job_id(spec.id) {
        report.push(
            "JS003",
            Severity::Error,
            entity,
            format!("job id `{}` is not a safe store directory name", spec.id),
            "ids are 1-64 chars of [A-Za-z0-9._-], not starting with `.`",
        );
    }
    for (value, what, hint) in [
        (spec.samples as usize, "samples", "lambda replicas"),
        (spec.threads, "threads", "worker-local rayon threads"),
        (
            spec.checkpoint_every,
            "checkpoint_every",
            "blocks or MC lane-group tasks per checkpoint flush",
        ),
    ] {
        if value == 0 {
            report.push(
                "JS003",
                Severity::Error,
                entity,
                format!("`{what}` is 0"),
                format!("`{what}` ({hint}) must be >= 1"),
            );
        }
    }
    // JS004 — the Monte Carlo grid is (chips × inputs): both or neither.
    if (spec.chips == 0) != (spec.mc_inputs == 0) {
        report.push(
            "JS004",
            Severity::Error,
            entity,
            format!(
                "Monte Carlo population mismatch: chips = {}, mc_inputs = {}",
                spec.chips, spec.mc_inputs
            ),
            "set both `chips` and `mc_inputs` to >= 1 (enable) or both to 0 (disable)",
        );
    }
}

/// Runs the store-layout passes (JS005–JS008) over every entry of a job
/// store root (the directory that contains `jobs/`), appending findings
/// to `report`. Returns the number of job directories inspected.
///
/// The pass is read-only and tolerant of live stores: a `running` job
/// with in-flight checkpoints is valid; only structural violations that
/// no crash window of the serve crate's atomic write protocol can
/// produce are diagnosed.
///
/// # Errors
///
/// Returns `Err` only if the store root itself is unreadable; per-job
/// read failures become JS005 diagnostics.
pub fn analyze_job_store(root: &Path, report: &mut AnalysisReport) -> std::io::Result<usize> {
    let jobs = root.join("jobs");
    if !jobs.is_dir() {
        report.push(
            "JS005",
            Severity::Error,
            root.display().to_string(),
            "store root has no jobs/ directory",
            "initialize the store with `terse serve --store <root>` or `terse submit`",
        );
        return Ok(0);
    }
    let mut ids: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&jobs)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type()?.is_dir() {
            ids.push(name);
        } else {
            report.push(
                "JS005",
                Severity::Error,
                format!("jobs/{name}"),
                "non-directory entry in jobs/",
                "only per-job directories may live under jobs/",
            );
        }
    }
    ids.sort();
    for id in &ids {
        analyze_job_dir(&jobs.join(id), id, report);
    }
    Ok(ids.len())
}

/// JS005–JS008 for a single `jobs/<id>/` directory.
fn analyze_job_dir(dir: &Path, id: &str, report: &mut AnalysisReport) {
    // JS005 — required artifacts.
    if !dir.join("spec.json").is_file() {
        report.push(
            "JS005",
            Severity::Error,
            id,
            "missing spec.json",
            "a job directory is created by writing spec.json first",
        );
    }
    let state = match std::fs::read_to_string(dir.join("state")) {
        Ok(s) => s.trim().to_string(),
        Err(_) => {
            report.push(
                "JS005",
                Severity::Error,
                id,
                "missing or unreadable state file",
                "the state file is written atomically at submit time",
            );
            return;
        }
    };
    // JS006 — the state must be one of the six canonical strings.
    if !JOB_STATES.contains(&state.as_str()) {
        report.push(
            "JS006",
            Severity::Error,
            id,
            format!("state file contains unknown state `{state}`"),
            format!("states: {}", JOB_STATES.join(", ")),
        );
        return;
    }
    // JS007 — the transition log must be a valid chain from `queued`
    // ending at the current state.
    if let Ok(log) = std::fs::read_to_string(dir.join("transitions.log")) {
        let mut prev = "queued".to_string();
        for (lineno, line) in log.lines().enumerate() {
            let Some((from, to)) = line.split_once(" -> ") else {
                report.push(
                    "JS007",
                    Severity::Error,
                    format!("{id} transitions.log:{}", lineno + 1),
                    format!("malformed log line `{line}`"),
                    "log lines are `<from> -> <to>`",
                );
                return;
            };
            if from != prev {
                report.push(
                    "JS007",
                    Severity::Error,
                    format!("{id} transitions.log:{}", lineno + 1),
                    format!("broken chain: transition starts at `{from}` but the job was `{prev}`"),
                    "each logged transition must start where the previous one ended",
                );
            }
            if !valid_transition(from, to) {
                report.push(
                    "JS007",
                    Severity::Error,
                    format!("{id} transitions.log:{}", lineno + 1),
                    format!("`{from} -> {to}` is not an edge of the job state machine"),
                    "see DESIGN.md §16 for the state machine",
                );
            }
            prev = to.to_string();
        }
        if prev != state {
            report.push(
                "JS007",
                Severity::Error,
                id,
                format!("transition log ends at `{prev}` but the state file says `{state}`"),
                "the state file and the log tail are written by the same transition",
            );
        }
    }
    // JS008 — terminal-state artifact consistency.
    let has_report = dir.join("report.json").is_file();
    if state == "done" && !has_report {
        report.push(
            "JS008",
            Severity::Error,
            id,
            "state is `done` but report.json is missing",
            "report.json is renamed into place before the done transition",
        );
    }
    if state != "done" && has_report {
        report.push(
            "JS008",
            Severity::Error,
            id,
            format!("report.json present but state is `{state}`"),
            "only the done transition may leave a report.json behind",
        );
    }
}

/// Walks a job store verifying **every durable artifact's integrity**
/// (JS009–JS012) on top of the structural JS005–JS008 audit. This is the
/// pass behind `terse scrub`. Returns the number of job directories
/// inspected.
///
/// Unlike the structural audit, the scrub opens file *contents*: every
/// `*.ckpt` / `*.ckpt.bak` image is unframed and checksum-verified
/// (JS009), every `report.json` is compared against its `.crc32` sidecar
/// digest (JS010), zero-length artifacts and writer leftovers are flagged
/// (JS011), and `quarantined` jobs must carry a complete diagnostic
/// bundle (JS012). The pass is read-only and safe on a live store: an
/// artifact mid-replacement is still either the old or the new complete
/// image (tmp+rename), never a torn hybrid.
///
/// # Errors
///
/// Returns `Err` only if the store root itself is unreadable; per-job
/// read failures become diagnostics.
pub fn scrub_job_store(root: &Path, report: &mut AnalysisReport) -> std::io::Result<usize> {
    let inspected = analyze_job_store(root, report)?;
    let jobs = root.join("jobs");
    if !jobs.is_dir() {
        return Ok(inspected);
    }
    let mut ids: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&jobs)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            ids.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    ids.sort();
    for id in &ids {
        scrub_job_dir(&jobs.join(id), id, report);
    }
    Ok(inspected)
}

/// Sorted file names directly under `dir` (empty if unreadable).
fn sorted_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect(),
        Err(_) => Vec::new(),
    };
    names.sort();
    names
}

/// JS009–JS012 for a single `jobs/<id>/` directory.
fn scrub_job_dir(dir: &Path, id: &str, report: &mut AnalysisReport) {
    let state = std::fs::read_to_string(dir.join("state"))
        .map(|s| s.trim().to_string())
        .unwrap_or_default();

    // JS011 over the job directory itself: zero-length core artifacts and
    // stray writer leftovers.
    for name in sorted_files(dir) {
        let path = dir.join(&name);
        let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(1);
        if name.contains(TMP_SUFFIX) {
            report.push(
                "JS011",
                Severity::Warning,
                format!("{id}/{name}"),
                "stray temp file from an interrupted writer",
                "tmp files are never read; delete after confirming no writer is live",
            );
        } else if len == 0 && name != "claim" && name != "cancel" && !name.starts_with('.') {
            // Dotfiles (the `.lock` transition lock) are coordination
            // primitives, legitimately empty — only artifacts are audited.
            report.push(
                "JS011",
                Severity::Error,
                format!("{id}/{name}"),
                "zero-length artifact",
                "store artifacts are written whole via tmp+rename; a zero-length file is damage",
            );
        }
    }

    // JS009 + JS011 over the checkpoint directory.
    let ckpts = dir.join("checkpoints");
    for name in sorted_files(&ckpts) {
        let path = ckpts.join(&name);
        if name.contains(TMP_SUFFIX) {
            report.push(
                "JS011",
                Severity::Warning,
                format!("{id}/checkpoints/{name}"),
                "stray temp file from an interrupted writer",
                "tmp files are never read; delete after confirming no worker is live",
            );
            continue;
        }
        if name.ends_with(CORRUPT_SUFFIX) {
            report.push(
                "JS011",
                Severity::Warning,
                format!("{id}/checkpoints/{name}"),
                "corruption evidence: a loader detected a damaged image and set it aside",
                "the job recomputed from the previous good image; delete after diagnosis",
            );
            continue;
        }
        let image = name.strip_suffix(BAK_SUFFIX).unwrap_or(&name);
        if !image.ends_with(".ckpt") {
            continue;
        }
        let Ok(bytes) = std::fs::read(&path) else {
            report.push(
                "JS011",
                Severity::Error,
                format!("{id}/checkpoints/{name}"),
                "unreadable checkpoint file",
                "check permissions and the underlying filesystem",
            );
            continue;
        };
        if bytes.is_empty() {
            report.push(
                "JS011",
                Severity::Error,
                format!("{id}/checkpoints/{name}"),
                "zero-length checkpoint",
                "loaders treat this as damage and fall back; safe to delete",
            );
            continue;
        }
        match unframe(&bytes) {
            Ok(_) => {}
            Err(FrameError::NotFramed) => report.push(
                "JS009",
                Severity::Warning,
                format!("{id}/checkpoints/{name}"),
                "legacy unframed checkpoint (no TERSEFR1 envelope)",
                "rewritten with an envelope on the next flush; corruption is undetectable until then",
            ),
            Err(e) => report.push(
                "JS009",
                Severity::Error,
                format!("{id}/checkpoints/{name}"),
                format!("damaged checkpoint: {e}"),
                "loaders fall back to the .bak image or a fresh start; delete after diagnosis",
            ),
        }
    }

    // JS010 — report.json digest sidecar.
    let report_path = dir.join("report.json");
    if let Ok(bytes) = std::fs::read(&report_path) {
        match std::fs::read_to_string(dir.join("report.json.crc32")) {
            Ok(sidecar) => {
                let computed = crate::integrity::crc32_hex(&bytes);
                if sidecar.trim() != computed {
                    report.push(
                        "JS010",
                        Severity::Error,
                        format!("{id}/report.json"),
                        format!(
                            "report digest mismatch: sidecar says {}, content is {computed}",
                            sidecar.trim()
                        ),
                        "the report was altered after it was stamped; re-run the job",
                    );
                }
            }
            Err(_) => report.push(
                "JS010",
                Severity::Warning,
                format!("{id}/report.json"),
                "report has no .crc32 digest sidecar",
                "legacy report (pre-digest); re-running the job stamps it",
            ),
        }
    }

    // JS012 — quarantine bundle completeness.
    let bundle = dir.join("quarantine");
    if state == "quarantined" {
        if !dir.join("error.txt").is_file() {
            report.push(
                "JS012",
                Severity::Error,
                id,
                "quarantined job has no error.txt",
                "the quarantine transition records the final error before parking the job",
            );
        }
        for piece in ["spec.json", "error.txt", "transitions.log", "attempts"] {
            if !bundle.join(piece).is_file() {
                report.push(
                    "JS012",
                    Severity::Error,
                    format!("{id}/quarantine/{piece}"),
                    "diagnostic bundle is incomplete",
                    "quarantine/ must capture spec.json, error.txt, transitions.log and attempts",
                );
            }
        }
    } else if bundle.is_dir() {
        report.push(
            "JS012",
            Severity::Warning,
            format!("{id}/quarantine"),
            format!("quarantine bundle present but state is `{state}`"),
            "only the quarantine transition creates this directory",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec<'a>(grid: &'a [f64]) -> JobSpecView<'a> {
        JobSpecView {
            id: "job-1",
            benchmark: Some("matmul"),
            has_asm: false,
            samples: 8,
            grid,
            chips: 4,
            mc_inputs: 2,
            threads: 1,
            checkpoint_every: 4,
        }
    }

    const KNOWN: [&str; 2] = ["matmul", "fir"];

    #[test]
    fn clean_spec_produces_no_diagnostics() {
        let mut r = AnalysisReport::new();
        analyze_job_spec(&spec(&[1.0, 1.15]), &KNOWN, &mut r);
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn unknown_benchmark_is_js001() {
        let mut r = AnalysisReport::new();
        let mut s = spec(&[1.0]);
        s.benchmark = Some("nope");
        analyze_job_spec(&s, &KNOWN, &mut r);
        assert!(r.has_code("JS001"));
    }

    #[test]
    fn zero_and_double_workloads_are_js001() {
        for (benchmark, has_asm) in [(None, false), (Some("matmul"), true)] {
            let mut r = AnalysisReport::new();
            let mut s = spec(&[1.0]);
            s.benchmark = benchmark;
            s.has_asm = has_asm;
            analyze_job_spec(&s, &KNOWN, &mut r);
            assert!(r.has_code("JS001"), "{benchmark:?} asm={has_asm}");
        }
    }

    #[test]
    fn bad_grids_are_js002() {
        for grid in [&[][..], &[0.0][..], &[-1.0][..], &[f64::NAN][..]] {
            let mut r = AnalysisReport::new();
            analyze_job_spec(&spec(grid), &KNOWN, &mut r);
            assert!(r.has_code("JS002"), "grid {grid:?}");
            assert!(r.has_errors());
        }
        // Duplicates warn but do not error.
        let mut r = AnalysisReport::new();
        analyze_job_spec(&spec(&[1.15, 1.15]), &KNOWN, &mut r);
        assert!(r.has_code("JS002"));
        assert!(!r.has_errors());
    }

    #[test]
    fn zero_params_and_unsafe_ids_are_js003() {
        for mutate in [
            (|s: &mut JobSpecView| s.samples = 0) as fn(&mut JobSpecView),
            |s| s.threads = 0,
            |s| s.checkpoint_every = 0,
            |s| s.id = "",
            |s| s.id = "../escape",
            |s| s.id = ".hidden",
        ] {
            let mut r = AnalysisReport::new();
            let grid = [1.0];
            let mut s = spec(&grid);
            mutate(&mut s);
            analyze_job_spec(&s, &KNOWN, &mut r);
            assert!(r.has_code("JS003"));
        }
    }

    #[test]
    fn mc_population_mismatch_is_js004() {
        for (chips, inputs, bad) in [(0, 2, true), (4, 0, true), (0, 0, false), (4, 2, false)] {
            let mut r = AnalysisReport::new();
            let grid = [1.0];
            let mut s = spec(&grid);
            s.chips = chips;
            s.mc_inputs = inputs;
            analyze_job_spec(&s, &KNOWN, &mut r);
            assert_eq!(r.has_code("JS004"), bad, "chips={chips} inputs={inputs}");
        }
    }

    #[test]
    fn transition_table_matches_the_design() {
        // Positive edges.
        for (from, to) in [
            ("queued", "running"),
            ("queued", "cancelled"),
            ("running", "done"),
            ("running", "failed"),
            ("running", "cancelled"),
            ("running", "queued"),
            ("running", "quarantined"),
        ] {
            assert!(valid_transition(from, to), "{from} -> {to}");
        }
        // Everything else is invalid, including self-loops and edges out
        // of terminal states.
        for from in JOB_STATES {
            for to in JOB_STATES {
                let expected = matches!(
                    (from, to),
                    ("queued", "running" | "cancelled")
                        | (
                            "running",
                            "done" | "failed" | "cancelled" | "queued" | "quarantined"
                        )
                );
                assert_eq!(valid_transition(from, to), expected, "{from} -> {to}");
            }
        }
        assert!(!valid_transition("queued", "bogus"));
        assert!(!valid_transition("bogus", "running"));
        // Terminal states are exactly the states with no outgoing edges.
        for s in JOB_STATES {
            let has_exit = JOB_STATES.iter().any(|t| valid_transition(s, t));
            assert_eq!(is_terminal_state(s), !has_exit, "{s}");
        }
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("terse_jobpass_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(p.join("jobs")).unwrap();
        p
    }

    fn write_job(root: &Path, id: &str, state: &str, log: &str, with_report: bool) {
        let dir = root.join("jobs").join(id);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("spec.json"), "{}").unwrap();
        std::fs::write(dir.join("state"), state).unwrap();
        if !log.is_empty() {
            std::fs::write(dir.join("transitions.log"), log).unwrap();
        }
        if with_report {
            std::fs::write(dir.join("report.json"), "{}").unwrap();
        }
    }

    #[test]
    fn clean_store_passes_and_counts_jobs() {
        let root = temp_store("clean");
        write_job(&root, "a", "queued", "", false);
        write_job(
            &root,
            "b",
            "done",
            "queued -> running\nrunning -> done\n",
            true,
        );
        let mut r = AnalysisReport::new();
        let n = analyze_job_store(&root, &mut r).unwrap();
        assert_eq!(n, 2);
        assert!(r.is_clean(), "{}", r.render_text());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn store_violations_get_their_codes() {
        let root = temp_store("dirty");
        // JS005: missing state file.
        let dir = root.join("jobs").join("nostate");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("spec.json"), "{}").unwrap();
        // JS006: unknown state.
        write_job(&root, "badstate", "paused", "", false);
        // JS007: invalid edge and broken chain.
        write_job(
            &root,
            "badlog",
            "done",
            "queued -> done\nrunning -> done\n",
            true,
        );
        // JS008: done without a report, and a report without done.
        write_job(&root, "noreport", "done", "", false);
        write_job(&root, "earlyreport", "running", "", true);
        let mut r = AnalysisReport::new();
        analyze_job_store(&root, &mut r).unwrap();
        for code in ["JS005", "JS006", "JS007", "JS008"] {
            assert!(r.has_code(code), "{code} missing:\n{}", r.render_text());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn log_tail_must_match_state_file() {
        let root = temp_store("tail");
        write_job(&root, "stale", "queued", "queued -> running\n", false);
        let mut r = AnalysisReport::new();
        analyze_job_store(&root, &mut r).unwrap();
        assert!(r.has_code("JS007"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn quarantined_is_a_valid_terminal_state_for_the_audit() {
        let root = temp_store("quar");
        write_job(
            &root,
            "q",
            "quarantined",
            "queued -> running\nrunning -> quarantined\n",
            false,
        );
        let mut r = AnalysisReport::new();
        analyze_job_store(&root, &mut r).unwrap();
        assert!(r.is_clean(), "{}", r.render_text());
        std::fs::remove_dir_all(&root).unwrap();
    }

    fn write_quarantine_bundle(root: &Path, id: &str) {
        let dir = root.join("jobs").join(id);
        std::fs::write(dir.join("error.txt"), "boom").unwrap();
        let bundle = dir.join("quarantine");
        std::fs::create_dir_all(&bundle).unwrap();
        for (name, body) in [
            ("spec.json", "{}"),
            ("error.txt", "boom"),
            ("transitions.log", "queued -> running\n"),
            ("attempts", "3"),
        ] {
            std::fs::write(bundle.join(name), body).unwrap();
        }
    }

    #[test]
    fn scrub_is_clean_on_a_healthy_store() {
        let root = temp_store("scrub_clean");
        write_job(&root, "a", "queued", "", false);
        write_job(
            &root,
            "q",
            "quarantined",
            "queued -> running\nrunning -> quarantined\n",
            false,
        );
        write_quarantine_bundle(&root, "q");
        // A framed checkpoint and a digest-stamped report survive the scrub.
        let dir = root.join("jobs").join("done1");
        std::fs::create_dir_all(dir.join("checkpoints")).unwrap();
        std::fs::write(dir.join("spec.json"), "{}").unwrap();
        std::fs::write(dir.join("state"), "done").unwrap();
        std::fs::write(
            dir.join("transitions.log"),
            "queued -> running\nrunning -> done\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("checkpoints").join("est-0.ckpt"),
            crate::integrity::frame(b"TERSECP1 payload"),
        )
        .unwrap();
        let report_body = b"{\"points\":[]}";
        std::fs::write(dir.join("report.json"), report_body).unwrap();
        std::fs::write(
            dir.join("report.json.crc32"),
            crate::integrity::crc32_hex(report_body),
        )
        .unwrap();
        let mut r = AnalysisReport::new();
        let n = scrub_job_store(&root, &mut r).unwrap();
        assert_eq!(n, 3);
        assert!(r.is_clean(), "{}", r.render_text());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scrub_violations_get_their_codes() {
        let root = temp_store("scrub_dirty");
        let dir = root.join("jobs").join("sick");
        std::fs::create_dir_all(dir.join("checkpoints")).unwrap();
        std::fs::write(dir.join("spec.json"), "{}").unwrap();
        std::fs::write(dir.join("state"), "done").unwrap();
        std::fs::write(
            dir.join("transitions.log"),
            "queued -> running\nrunning -> done\n",
        )
        .unwrap();
        // JS009: a checksum-corrupt frame.
        let mut image = crate::integrity::frame(b"TERSECP1 payload");
        let last = image.len() - 1;
        image[last] ^= 0x40;
        std::fs::write(dir.join("checkpoints").join("est-0.ckpt"), image).unwrap();
        // JS010: sidecar does not match the report bytes.
        std::fs::write(dir.join("report.json"), "{\"points\":[]}").unwrap();
        std::fs::write(dir.join("report.json.crc32"), "00000000").unwrap();
        // JS011: a zero-length checkpoint and a stray tmp file.
        std::fs::write(dir.join("checkpoints").join("mc-0.ckpt"), b"").unwrap();
        std::fs::write(dir.join("checkpoints").join("est-1.ckpt.tmp.42"), b"x").unwrap();
        // JS012: quarantined job with no bundle at all.
        write_job(
            &root,
            "qbad",
            "quarantined",
            "queued -> running\nrunning -> quarantined\n",
            false,
        );
        let mut r = AnalysisReport::new();
        scrub_job_store(&root, &mut r).unwrap();
        for code in ["JS009", "JS010", "JS011", "JS012"] {
            assert!(r.has_code(code), "{code} missing:\n{}", r.render_text());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scrub_flags_legacy_artifacts_as_warnings_not_errors() {
        let root = temp_store("scrub_legacy");
        let dir = root.join("jobs").join("old");
        std::fs::create_dir_all(dir.join("checkpoints")).unwrap();
        std::fs::write(dir.join("spec.json"), "{}").unwrap();
        std::fs::write(dir.join("state"), "done").unwrap();
        std::fs::write(
            dir.join("transitions.log"),
            "queued -> running\nrunning -> done\n",
        )
        .unwrap();
        // Pre-framing checkpoint, pre-digest report: warnings only.
        std::fs::write(dir.join("checkpoints").join("est-0.ckpt"), b"TERSECP1 old").unwrap();
        std::fs::write(dir.join("report.json"), "{\"points\":[]}").unwrap();
        let mut r = AnalysisReport::new();
        scrub_job_store(&root, &mut r).unwrap();
        assert!(r.has_code("JS009") && r.has_code("JS010"));
        assert!(!r.has_errors(), "{}", r.render_text());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
