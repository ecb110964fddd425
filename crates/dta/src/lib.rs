//! # terse-dta
//!
//! Dynamic timing analysis — the paper's core analysis machinery:
//!
//! * [`engine`] — **Algorithm 1** (dynamic timing slack of a pipeline stage
//!   at a clock cycle, as the statistical minimum of the slacks of the most
//!   critical *activated* paths) and **Algorithm 2** (instruction DTS as
//!   the minimum over the stages the instruction traverses). One search
//!   runs: a best-first enumeration restricted to the activated subgraph,
//!   which yields the path the paper's literal path-peeling loop finds
//!   first and keeps [`engine::CANDIDATES`] of the most critical activated
//!   paths per endpoint for the percentile re-ranking.
//! * [`control`] — **control-network DTS characterization**: per basic
//!   block and per incoming CFG edge, the control-endpoint DTS of every
//!   instruction, computed once at training time (Section 4's key
//!   efficiency idea — the control network does the same work every time a
//!   block executes).
//! * [`datapath`] — the **trained datapath timing model** (\[2]-style):
//!   trained by running directed instruction sequences that selectively
//!   activate specific timing paths (carry chains, shift layers,
//!   multiplier rows) through gate-level DTA, then evaluated at
//!   architecture level from per-instruction features.
//! * [`instmodel`] — the assembled **instruction error model**: an
//!   instruction's DTS is the statistical min of its control and datapath
//!   slacks; its error probability is `Pr(DTS < 0)` (Section 4.1), with
//!   chip-conditional evaluation for the Monte Carlo baseline.
//! * [`cache`] — **activation-signature memoization** of stage DTS: an
//!   exact (bit-verified) bounded LRU keyed on the per-stage masked toggle
//!   set, exploiting the tight-loop repetition of real programs.
//! * [`prescreen`] — **static error-immunity pre-screening**: abstract
//!   interpretation over the netlist, plus a program-counter bound pinned
//!   when the program keeps the call/return discipline, proves
//!   `(instruction, stage)` pairs that can never violate the clock, so
//!   Algorithm 2 skips them. Training always attaches a plan; the
//!   unpruned answer and the certificate check are test-only references
//!   in the `oracle` crate.

// Numeric-kernel idioms used intentionally throughout this crate:
// `!(x >= 0.0)` rejects NaN along with negatives, and index loops run over
// several parallel arrays at once.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]
#![warn(missing_docs)]
pub mod cache;
pub mod control;
pub mod datapath;
pub mod engine;
pub mod instmodel;
pub mod prescreen;

pub use cache::{DtsCache, DtsCacheStats};
pub use control::{characterize_control, characterize_control_with, ControlDtsTable, OperandHint};
pub use datapath::{DatapathModel, FuncUnit};
pub use engine::{DtsEngine, EndpointFilter};
pub use instmodel::InstructionErrorModel;
pub use prescreen::{build_plan, PrescreenStats, PrunePlan};

use std::fmt;

/// Errors from dynamic timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum DtaError {
    /// Propagated timing-analysis error.
    Sta(terse_sta::StaError),
    /// Propagated simulation error.
    Sim(String),
    /// A characterization table lookup failed and no fallback existed.
    MissingCharacterization {
        /// Human-readable key description.
        key: String,
    },
    /// A parameter was out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for DtaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtaError::Sta(e) => write!(f, "timing analysis failed: {e}"),
            DtaError::Sim(m) => write!(f, "simulation failed: {m}"),
            DtaError::MissingCharacterization { key } => {
                write!(f, "missing characterization for {key}")
            }
            DtaError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter `{name}` = {value}")
            }
        }
    }
}

impl std::error::Error for DtaError {}

impl From<terse_sta::StaError> for DtaError {
    fn from(e: terse_sta::StaError) -> Self {
        DtaError::Sta(e)
    }
}

impl From<terse_sim::SimError> for DtaError {
    fn from(e: terse_sim::SimError) -> Self {
        DtaError::Sim(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T, E = DtaError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    #[test]
    fn error_traits() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::DtaError>();
    }
}
