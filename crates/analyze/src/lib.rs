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
//! text or JSON. The analyzer's contract, relied on by `Framework::
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
pub use slack_pass::{analyze_slacks, SlackPassConfig};

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
    /// combinational cycle). Always fails the CLI; `Framework::preflight`
    /// refuses to run under `DegradationPolicy::Strict`.
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

    /// JSON rendering (hand-rolled — the workspace is offline and carries
    /// no serde): an object with a `diagnostics` array and summary counts.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":{},\"severity\":{},\"entity\":{},\"message\":{},\"hint\":{}",
                json_str(d.code),
                json_str(d.severity.label()),
                json_str(&d.entity),
                json_str(&d.message),
                json_str(&d.hint)
            ));
            if !d.data.is_empty() {
                out.push_str(",\"data\":{");
                for (j, (k, v)) in d.data.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{}:{}", json_str(k), json_str(v)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str(&format!(
            "],\"errors\":{},\"warnings\":{},\"total\":{}}}",
            self.error_count(),
            self.warning_count(),
            self.diagnostics.len()
        ));
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
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
    }
}
