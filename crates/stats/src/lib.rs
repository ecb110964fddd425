//! # terse-stats
//!
//! Statistical substrate for the TERSE framework — a from-scratch
//! reproduction of *Accurate Estimation of Program Error Rate for
//! Timing-Speculative Processors* (Assare & Gupta, DAC 2019).
//!
//! The paper's program-error-rate estimator (its Section 5) is built on a
//! small set of applied-statistics tools that have no offline-ecosystem
//! equivalent, so this crate implements them from first principles:
//!
//! * [`special`] — special functions: `erf`/`erfc`, the normal CDF and
//!   quantile, `ln Γ`, and the regularized incomplete gamma functions used to
//!   evaluate Poisson CDFs with very large means.
//! * [`normal`], [`poisson`], [`pbd`] — the Normal, Poisson and
//!   Poisson-binomial distributions. The Poisson-binomial distribution is the
//!   *exact* law of a program's error count (a sum of non-identical Bernoulli
//!   indicators) and serves as ground truth in tests and ablations.
//! * [`discrete`] — discrete random variables with exact moment computation,
//!   used to represent data-variation distributions of error probabilities.
//! * [`samples`] — fixed-length sample-vector random variables: the
//!   data-variation propagation format used throughout the pipeline
//!   (Section 4.2 of the paper manipulates probabilities that are themselves
//!   random variables over program inputs).
//! * [`stein`] — Stein's method bound for the normal approximation of a sum
//!   of locally dependent variables (the paper's Theorem 5.2, Eqs. 11–13) and
//!   the Chen–Stein bound for the Poisson approximation (Theorem 5.1,
//!   Eqs. 3–9).
//! * [`mixture`] — the Eq. 14 estimator: the CDF of a Poisson whose mean is
//!   itself normally distributed, with Kolmogorov-shifted lower/upper bound
//!   variants.
//! * [`metrics`] — Kolmogorov and total-variation distances.
//! * [`linalg`] — dense LU/Cholesky linear algebra for the per-SCC marginal
//!   probability systems of Section 4.2.
//! * [`quadrature`] — Gauss–Hermite and Gauss–Legendre rules for the Eq. 14
//!   integrals.
//! * [`rng`] — a small deterministic RNG (SplitMix64 / xoshiro256**) so every
//!   experiment in the repository is reproducible without external crates.
//!
//! # Example
//!
//! Approximate a Poisson-binomial error count with a Poisson distribution and
//! bound the approximation error exactly as the paper does:
//!
//! ```
//! use terse_stats::pbd::PoissonBinomial;
//! use terse_stats::poisson::Poisson;
//! use terse_stats::metrics::kolmogorov_distance_fns;
//!
//! # fn main() -> Result<(), terse_stats::StatsError> {
//! let probs = vec![0.01, 0.02, 0.005, 0.03, 0.015];
//! let exact = PoissonBinomial::new(probs.clone())?;
//! let approx = Poisson::new(probs.iter().sum())?;
//! let dk = kolmogorov_distance_fns(0..=5, |k| exact.cdf(k as u64), |k| {
//!     approx.cdf(k as f64)
//! });
//! assert!(dk < 0.01);
//! # Ok(())
//! # }
//! ```

// Numeric-kernel idioms used intentionally throughout this crate:
// `!(x >= 0.0)` rejects NaN along with negatives, and index loops run over
// several parallel arrays at once.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]
#![warn(missing_docs)]
pub mod discrete;
pub mod kahan;
pub mod linalg;
pub mod metrics;
pub mod mixture;
pub mod normal;
pub mod pbd;
pub mod poisson;
pub mod quadrature;
pub mod rng;
pub mod samples;
pub mod special;
pub mod stein;

pub use discrete::DiscreteRv;
pub use linalg::Matrix;
pub use mixture::PoissonNormalMixture;
pub use normal::Normal;
pub use pbd::PoissonBinomial;
pub use poisson::Poisson;
pub use samples::SampleRv;

use std::fmt;

/// Error type for every fallible constructor and operation in this crate.
///
/// The `Display` form is a lowercase description without trailing
/// punctuation, per the Rust API guidelines.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A parameter was outside its mathematical domain (e.g. a negative
    /// variance or a probability outside `[0, 1]`).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The value that was rejected.
        value: f64,
        /// What the parameter must satisfy.
        requirement: &'static str,
    },
    /// Two operands had mismatched dimensions (sample counts, matrix sizes).
    DimensionMismatch {
        /// Human-readable description of the operation.
        context: &'static str,
        /// Left-hand dimension.
        left: usize,
        /// Right-hand dimension.
        right: usize,
    },
    /// An iterative numerical routine failed to converge.
    NoConvergence {
        /// Which routine failed.
        routine: &'static str,
    },
    /// A matrix was singular (or numerically singular) during factorization.
    SingularMatrix,
    /// An empty collection was supplied where at least one element is needed.
    Empty {
        /// What was empty.
        what: &'static str,
    },
    /// A value that must be finite was NaN or ±∞.
    NonFinite {
        /// Where the non-finite value was observed.
        context: &'static str,
        /// The offending value (NaN or ±∞).
        value: f64,
    },
    /// A symmetric matrix expected to be positive definite was not (Cholesky
    /// found a non-positive pivot).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidParameter {
                name,
                value,
                requirement,
            } => write!(f, "parameter `{name}` = {value} must satisfy {requirement}"),
            StatsError::DimensionMismatch {
                context,
                left,
                right,
            } => write!(f, "dimension mismatch in {context}: {left} vs {right}"),
            StatsError::NoConvergence { routine } => {
                write!(f, "numerical routine `{routine}` failed to converge")
            }
            StatsError::SingularMatrix => write!(f, "matrix is singular to working precision"),
            StatsError::Empty { what } => write!(f, "{what} must not be empty"),
            StatsError::NonFinite { context, value } => {
                write!(f, "non-finite value {value} in {context}")
            }
            StatsError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T, E = StatsError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_lowercase_without_period() {
        let e = StatsError::SingularMatrix;
        let s = e.to_string();
        assert!(s.starts_with(|c: char| c.is_lowercase()));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }
}
