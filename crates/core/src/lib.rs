//! # terse
//!
//! **T**iming-**E**rror **R**ate **S**tatistical **E**stimator — a
//! from-scratch Rust reproduction of
//!
//! > Omid Assare and Rajesh Gupta. *Accurate Estimation of Program Error
//! > Rate for Timing-Speculative Processors.* DAC 2019.
//!
//! Timing-speculative (TS) processors overclock past the static-timing
//! sign-off and correct the resulting timing errors at a per-error penalty;
//! their performance therefore depends on each *program's* error rate. This
//! crate estimates that error rate analytically: a dynamic-timing-analysis
//! pipeline characterizes per-instruction error probabilities (value-,
//! sequence-, variation- and correction-scheme-aware), and statistical limit
//! theorems (Poisson + CLT) with Stein/Chen–Stein error bounds turn them
//! into a program-level error-rate distribution with certified lower/upper
//! envelopes.
//!
//! The heavy lifting lives in the substrate crates —
//! [`terse_netlist`] (the gate-level 6-stage pipeline), [`terse_sta`]
//! (STA/SSTA), [`terse_isa`] + [`terse_sim`] (the TERSE-32 ISA, simulator
//! and co-simulation), [`terse_dta`] (Algorithms 1–2 and the trained
//! models), [`terse_errmodel`] (marginal probabilities), and
//! [`terse_stats`] (distributions, bounds, Eq. 14) — while this crate
//! provides the user-facing [`Framework`]:
//!
//! ```no_run
//! use terse::{Framework, Workload};
//!
//! # fn main() -> Result<(), terse::TerseError> {
//! let framework = Framework::builder().samples(4).build()?;
//! let workload = Workload::from_asm(
//!     "demo",
//!     "addi r1, r0, 10\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
//! )?;
//! let report = framework.run(&workload)?;
//! println!(
//!     "error rate: {:.3}% ± {:.3}%",
//!     report.estimate.mean_error_rate_percent(),
//!     report.estimate.sd_error_rate_percent(),
//! );
//! # Ok(())
//! # }
//! ```

// Numeric-kernel idioms used intentionally throughout this crate:
// `!(x >= 0.0)` rejects NaN along with negatives, and index loops run over
// several parallel arrays at once.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]
#![warn(missing_docs)]
pub mod checkpoint;
pub mod framework;
pub mod operating;
pub mod perf;
pub mod report;

pub use framework::{Framework, FrameworkBuilder, Workload};
pub use operating::{OperatingConfig, OperatingPoint};
pub use perf::TsPerformanceModel;
pub use report::{BitParallelStats, ErrorRateEstimate, RateCdfPoint, Report, RunTimings};

// Re-export the substrate types a downstream user needs for configuration.
pub use terse_netlist::pipeline::PipelineConfig;
pub use terse_sim::correction::CorrectionScheme;
pub use terse_sim::sweep::Checkpoint;
pub use terse_sta::variation::VariationConfig;
pub use terse_stats::DegradationPolicy;
// Re-export the static-analysis report so `Framework::preflight` callers
// can inspect diagnostics without naming the analyzer crate.
pub use terse_analyze::{AnalysisReport, Diagnostic, Severity};

use std::fmt;

/// Top-level error type of the framework.
#[derive(Debug)]
pub enum TerseError {
    /// ISA / assembly failure.
    Isa(terse_isa::IsaError),
    /// Simulation failure.
    Sim(terse_sim::SimError),
    /// Netlist failure.
    Netlist(terse_netlist::NetlistError),
    /// Timing-analysis failure.
    Sta(terse_sta::StaError),
    /// DTA failure.
    Dta(terse_dta::DtaError),
    /// Marginal-probability failure.
    ErrModel(terse_errmodel::ErrModelError),
    /// Statistics failure.
    Stats(terse_stats::StatsError),
    /// A configuration problem detected by the builder.
    Config(String),
    /// A derived operating point violated the timing-speculative ordering
    /// (positive periods with `working_period < signoff_period`).
    InvalidOperatingPoint(String),
    /// An estimate checkpoint could not be read, written, or did not match
    /// the run it was resumed into.
    Checkpoint(String),
    /// Static analysis found errors in an input IR and the degradation
    /// policy is [`DegradationPolicy::Strict`], so the run was refused
    /// before any phase started.
    Preflight(String),
    /// An estimate sweep ran out of its configured unit budget; the
    /// checkpoint (if any) holds the completed blocks and a re-run resumes
    /// from it.
    Interrupted {
        /// Per-block units already completed (and checkpointed).
        completed: usize,
        /// Total units in the sweep.
        total: usize,
    },
}

impl fmt::Display for TerseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TerseError::Isa(e) => write!(f, "isa: {e}"),
            TerseError::Sim(e) => write!(f, "simulation: {e}"),
            TerseError::Netlist(e) => write!(f, "netlist: {e}"),
            TerseError::Sta(e) => write!(f, "timing analysis: {e}"),
            TerseError::Dta(e) => write!(f, "dynamic timing analysis: {e}"),
            TerseError::ErrModel(e) => write!(f, "error model: {e}"),
            TerseError::Stats(e) => write!(f, "statistics: {e}"),
            TerseError::Config(m) => write!(f, "configuration: {m}"),
            TerseError::InvalidOperatingPoint(m) => {
                write!(f, "invalid operating point: {m}")
            }
            TerseError::Checkpoint(m) => write!(f, "estimate checkpoint failed: {m}"),
            TerseError::Preflight(m) => write!(f, "preflight static analysis failed: {m}"),
            TerseError::Interrupted { completed, total } => write!(
                f,
                "estimation interrupted after {completed}/{total} blocks \
                 (checkpointed; re-run to resume)"
            ),
        }
    }
}

impl std::error::Error for TerseError {}

macro_rules! from_error {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for TerseError {
            fn from(e: $ty) -> Self {
                TerseError::$variant(e)
            }
        }
    };
}
from_error!(Isa, terse_isa::IsaError);
from_error!(Sim, terse_sim::SimError);
from_error!(Netlist, terse_netlist::NetlistError);
from_error!(Sta, terse_sta::StaError);
from_error!(Dta, terse_dta::DtaError);
from_error!(ErrModel, terse_errmodel::ErrModelError);
from_error!(Stats, terse_stats::StatsError);

impl From<terse_sim::sweep::SweepError> for TerseError {
    fn from(e: terse_sim::sweep::SweepError) -> Self {
        match e {
            terse_sim::sweep::SweepError::Checkpoint(m) => TerseError::Checkpoint(m),
            terse_sim::sweep::SweepError::Interrupted { completed, total } => {
                TerseError::Interrupted { completed, total }
            }
        }
    }
}

/// Crate-wide result alias.
pub type Result<T, E = TerseError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    #[test]
    fn error_traits() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::TerseError>();
    }
}
