//! # terse-errmodel
//!
//! Marginal error probabilities from conditional ones — the paper's
//! Section 4.2.
//!
//! Profiling and DTA produce, for each static instruction, *conditional*
//! error probabilities: `p^c` (previous instruction executed correctly) and
//! `p^e` (previous instruction erred, so the correction mechanism reset the
//! datapath state). What the Section 5 estimator needs are the *marginal*
//! probabilities `p_{i_k}`. Within a basic block these follow the recurrence
//! (Eq. 1)
//!
//! ```text
//! p_{i_k} = p^e_{i_k} · p_{i_{k−1}} + p^c_{i_k} · (1 − p_{i_{k−1}})
//! ```
//!
//! and across blocks the *input error probability* mixes predecessors'
//! output probabilities by edge activation probabilities (Eq. 2). Cycles in
//! the CFG couple these equations; the paper identifies strongly connected
//! components with Tarjan's algorithm, orders them topologically, and solves
//! a linear system per component — [`tarjan`] and [`marginal`] implement
//! exactly that, per data-variation sample (probabilities are random
//! variables over program inputs and are carried as [`terse_stats::SampleRv`]
//! vectors).

// Numeric-kernel idioms used intentionally throughout this crate:
// `!(x >= 0.0)` rejects NaN along with negatives, and index loops run over
// several parallel arrays at once.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]
#![warn(missing_docs)]
pub mod marginal;
pub mod tarjan;

pub use marginal::{solve_marginals, MarginalProblem, MarginalSolution};
pub use tarjan::{condensation_order, strongly_connected_components};

use std::fmt;

/// Errors from the marginal-probability solver.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrModelError {
    /// Inconsistent problem dimensions.
    DimensionMismatch {
        /// What was mismatched.
        context: &'static str,
        /// Expected size.
        expected: usize,
        /// Found size.
        got: usize,
    },
    /// A probability left `[0, 1]` beyond numerical tolerance.
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// The per-SCC linear system was singular.
    SingularSystem {
        /// Which component failed (smallest block index inside it).
        component: usize,
    },
    /// A NaN or ±∞ entered the solver inputs.
    NonFinite {
        /// Where the non-finite value was observed.
        context: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Propagated linear-algebra error.
    Stats(String),
}

impl fmt::Display for ErrModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrModelError::DimensionMismatch {
                context,
                expected,
                got,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {got}"
            ),
            ErrModelError::InvalidProbability { value } => {
                write!(f, "probability {value} outside [0, 1]")
            }
            ErrModelError::SingularSystem { component } => {
                write!(
                    f,
                    "singular linear system in SCC containing block {component}"
                )
            }
            ErrModelError::NonFinite { context, value } => {
                write!(f, "non-finite value {value} in {context}")
            }
            ErrModelError::Stats(m) => write!(f, "statistics substrate failed: {m}"),
        }
    }
}

impl std::error::Error for ErrModelError {}

impl From<terse_stats::StatsError> for ErrModelError {
    fn from(e: terse_stats::StatsError) -> Self {
        ErrModelError::Stats(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T, E = ErrModelError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    #[test]
    fn error_traits() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::ErrModelError>();
    }
}
