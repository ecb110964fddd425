//! # terse-analyze
//!
//! Static analysis for the TERSE workspace, in two layers:
//!
//! * **Domain-IR passes** — structural verification of the three
//!   intermediate representations the estimator consumes before a long
//!   Monte Carlo / estimation run is allowed to start:
//!   [`netlist_pass`] (combinational loops, undriven/floating nets,
//!   multi-driver conflicts, stage-cone consistency, unreachable
//!   endpoints), [`cfg_pass`] (unreachable blocks, edge/leader mismatches,
//!   fall-through consistency, missing terminators), [`slack_pass`]
//!   (interval + NaN/∞ abstract interpretation over `sta::canonical`
//!   slack RVs, bounding stage DTS and flagging degenerate forms).
//! * **Codebase lints** — [`lint`], an offline scanner over the
//!   workspace's own Rust sources (no registry dependencies, consistent
//!   with the vendored-shim policy): panicking APIs in library crates,
//!   nondeterministic `HashMap`/`HashSet` iteration on paths feeding the
//!   index-ordered parallel merges, and wall-clock / entropy-seeded RNG in
//!   library code.
//!
//! Every pass appends structured [`Diagnostic`]s (severity, stable code,
//! entity, message, fix hint) to an [`AnalysisReport`], renderable as human
//! text or JSON. [`json`] is the workspace's one JSON model: every report,
//! job spec and bench artifact is built as a [`json::Value`] and rendered
//! once. The analyzer's contract, relied on by `Framework::
//! preflight` and the differential fixtures: a **valid** artifact produces
//! *no diagnostics of severity `Warning` or above*; `Info` entries carry
//! derived facts (e.g. static stage-DTS interval bounds) and never gate.
//!
//! Diagnostic codes are stable identifiers (`NL0xx` netlist, `CF0xx` CFG,
//! `SL0xx` slack RVs, `AZ0xx` codebase lints, `JS0xx` job specs and job-store
//! layouts); see DESIGN.md §14 and §19 for the full table.

// Numeric-kernel idioms used intentionally throughout this crate:
// `!(x >= 0.0)` rejects NaN along with negatives, and index loops run over
// several parallel arrays at once.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod cfg_pass;
pub mod integrity;
pub mod job_pass;
pub mod json;
pub mod lint;
pub mod netlist_pass;
pub mod slack_pass;

pub use cfg_pass::analyze_cfg;
pub use integrity::{crc32, crc32_hex, frame, unframe, FrameError};
pub use job_pass::{
    analyze_job_spec, analyze_job_store, is_terminal_state, scrub_job_store, valid_transition,
    JobSpecView, JOB_STATES,
};
pub use lint::{fail_point_inventory, lint_fail_point_coverage, lint_workspace};
pub use netlist_pass::analyze_netlist;
pub use slack_pass::{analyze_slacks, analyze_stage_slacks, SlackPassConfig};

use json::Value;
use std::fmt;

/// Severity of a diagnostic.
///
/// Ordering is semantic: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A derived fact worth reporting (e.g. a static DTS bound). Never
    /// gates a run and never fails the CLI.
    Info,
    /// A suspicious construct that does not invalidate the analysis
    /// (e.g. a floating net — dead logic). Fails the CLI under `--deny`.
    Warning,
    /// A structural defect that invalidates downstream analyses (e.g. a
    /// combinational cycle). Always fails the CLI, and `Framework::run`
    /// refuses to start.
    Error,
}

impl Severity {
    /// Lower-case label used in text and JSON renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured finding from a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`NL001`, `CF002`, `SL001`, `AZ003`, …).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// The entity the finding is anchored to — a gate (`g12 (AN2, stage
    /// 3)`), a basic block (`B4`), a stage (`stage 2`), or a source
    /// location (`crates/core/src/framework.rs:775`).
    pub entity: String,
    /// Human-readable statement of the defect.
    pub message: String,
    /// Actionable fix hint.
    pub hint: String,
    /// Machine-readable key/value facts backing the finding (e.g. which
    /// of two cross-checked bounds was binding). Rendered as a `data`
    /// object in JSON; empty for most diagnostics.
    pub data: Vec<(String, String)>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {} (hint: {})",
            self.severity, self.code, self.entity, self.message, self.hint
        )
    }
}

/// An append-only collection of diagnostics produced by one or more passes.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// An empty report.
    pub fn new() -> Self {
        AnalysisReport::default()
    }

    /// Appends a diagnostic.
    pub fn push(
        &mut self,
        code: &'static str,
        severity: Severity,
        entity: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            entity: entity.into(),
            message: message.into(),
            hint: hint.into(),
            data: Vec::new(),
        });
    }

    /// Appends a diagnostic carrying machine-readable key/value facts
    /// (surfaced as a `data` object in the JSON rendering).
    pub fn push_with_data(
        &mut self,
        code: &'static str,
        severity: Severity,
        entity: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
        data: Vec<(String, String)>,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            entity: entity.into(),
            message: message.into(),
            hint: hint.into(),
            data,
        });
    }

    /// All diagnostics, in emission order (passes emit deterministically,
    /// in entity index order).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Diagnostics of severity `Warning` or above — the findings that can
    /// gate a run. `Info` entries are derived facts, not problems.
    pub fn problems(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity >= Severity::Warning)
    }

    /// Number of `Error`-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of `Warning`-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether the report contains any `Error`-severity diagnostic.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the report is free of `Warning`-and-above diagnostics —
    /// the validity contract for oracle-generated artifacts.
    pub fn is_clean(&self) -> bool {
        self.problems().next().is_none()
    }

    /// Whether a diagnostic with the given code is present.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Merges another report's diagnostics into this one.
    pub fn absorb(&mut self, other: AnalysisReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Human-readable rendering, one line per diagnostic plus a summary
    /// tail line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} diagnostic(s) total\n",
            self.error_count(),
            self.warning_count(),
            self.diagnostics.len()
        ));
        out
    }

    /// JSON rendering: an object with a `diagnostics` array and summary
    /// counts.
    pub fn render_json(&self) -> String {
        let s = |v: &str| Value::Str(v.to_owned());
        let diagnostics = self
            .diagnostics
            .iter()
            .map(|d| {
                let mut fields = vec![
                    ("code".into(), s(d.code)),
                    ("severity".into(), s(d.severity.label())),
                    ("entity".into(), s(&d.entity)),
                    ("message".into(), s(&d.message)),
                    ("hint".into(), s(&d.hint)),
                ];
                if !d.data.is_empty() {
                    let data = d.data.iter().map(|(k, v)| (k.clone(), s(v)));
                    fields.push(("data".into(), Value::Obj(data.collect())));
                }
                Value::Obj(fields)
            })
            .collect();
        let count = |n: usize| Value::Num(n as f64);
        Value::Obj(vec![
            ("diagnostics".into(), Value::Arr(diagnostics)),
            ("errors".into(), count(self.error_count())),
            ("warnings".into(), count(self.warning_count())),
            ("total".into(), count(self.diagnostics.len())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_counts_and_predicates() {
        let mut r = AnalysisReport::new();
        assert!(r.is_clean() && !r.has_errors());
        r.push("SL004", Severity::Info, "stage 0", "bound", "none");
        assert!(r.is_clean(), "info entries never dirty a report");
        r.push("NL004", Severity::Warning, "g3", "floating", "remove it");
        assert!(!r.is_clean() && !r.has_errors());
        r.push("NL001", Severity::Error, "g1", "cycle", "break it");
        assert!(r.has_errors());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.problems().count(), 2);
        assert!(r.has_code("NL001") && !r.has_code("NL002"));
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let mut r = AnalysisReport::new();
        r.push("NL001", Severity::Error, "g1", "combinational cycle", "fix");
        let j = r.render_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"code\":\"NL001\""));
        assert!(j.contains("\"errors\":1"));
        let text = r.render_text();
        assert!(text.contains("error [NL001] g1"));
        // Escapes and a `data` map survive a parse of the rendering.
        r.push_with_data(
            "SL004",
            Severity::Info,
            "stage \"0\"\\\n\u{1}",
            "bound",
            "none",
            vec![
                ("lo".into(), "-1.5".into()),
                ("binding".into(), "ssta".into()),
            ],
        );
        let v = Value::parse(&r.render_json()).unwrap();
        let d = &v.get("diagnostics").and_then(Value::as_arr).unwrap()[1];
        assert_eq!(
            d.get("entity").and_then(Value::as_str),
            Some("stage \"0\"\\\n\u{1}")
        );
        let data = d.get("data").unwrap();
        assert_eq!(data.get("lo").and_then(Value::as_str), Some("-1.5"));
        assert_eq!(data.get("binding").and_then(Value::as_str), Some("ssta"));
        assert_eq!(v.get("total").and_then(Value::as_usize), Some(2));
        assert!(r.render_json().contains("\\u0001"));
    }
}
