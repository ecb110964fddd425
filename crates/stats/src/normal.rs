//! The Normal (Gaussian) distribution.
//!
//! Used for the central-limit-theorem approximation of the Poisson parameter
//! λ (the paper's `λ̄`, Section 5) and throughout the SSTA machinery where
//! dynamic timing slack is Gaussian under the canonical first-order model.

use crate::special::{std_normal_cdf, std_normal_quantile};
use crate::{Result, StatsError};

/// A normal distribution `N(μ, σ²)`.
///
/// # Example
/// ```
/// use terse_stats::Normal;
/// # fn main() -> Result<(), terse_stats::StatsError> {
/// let n = Normal::new(10.0, 2.0)?;
/// assert!((n.cdf(10.0) - 0.5).abs() < 1e-15);
/// assert!((n.quantile(n.cdf(12.3))? - 12.3).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates `N(mean, sd²)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `sd < 0` or either
    /// argument is non-finite. A zero standard deviation is allowed and
    /// represents a point mass (its CDF is a step function).
    pub fn new(mean: f64, sd: f64) -> Result<Self> {
        if !mean.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
                requirement: "finite",
            });
        }
        if !(sd >= 0.0) || !sd.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "sd",
                value: sd,
                requirement: "finite and >= 0",
            });
        }
        Ok(Normal { mean, sd })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal { mean: 0.0, sd: 1.0 }
    }

    /// The mean μ.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation σ.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// The variance σ².
    pub fn variance(&self) -> f64 {
        self.sd * self.sd
    }

    /// Cumulative distribution function `Pr(X ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sd == 0.0 {
            return if x >= self.mean { 1.0 } else { 0.0 };
        }
        std_normal_cdf((x - self.mean) / self.sd)
    }

    /// Survival function `Pr(X > x)`, computed without cancellation in the
    /// upper tail.
    pub fn sf(&self, x: f64) -> f64 {
        if self.sd == 0.0 {
            return if x >= self.mean { 0.0 } else { 1.0 };
        }
        std_normal_cdf((self.mean - x) / self.sd)
    }

    /// Quantile (inverse CDF).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `0 < p < 1`.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        Ok(self.mean + self.sd * std_normal_quantile(p)?)
    }

    /// Probability that this variable is negative, `Pr(X < 0)`.
    ///
    /// This is the *instruction error probability* primitive of the paper's
    /// Section 4.1: an instruction whose DTS ~ `N(μ, σ²)` fails with
    /// probability `Φ(−μ/σ)`.
    pub fn prob_negative(&self) -> f64 {
        self.cdf(0.0)
    }

    /// Draws one sample using the given uniform variate `u ∈ (0, 1)`.
    ///
    /// Inverse-CDF sampling keeps the crate decoupled from any RNG trait;
    /// callers supply uniforms from [`crate::rng::Xoshiro256`].
    pub fn sample_with(&self, u: f64) -> f64 {
        if self.sd == 0.0 {
            return self.mean;
        }
        self.mean + self.sd * crate::special::std_normal_quantile_clamped(u)
    }
}

impl Default for Normal {
    fn default() -> Self {
        Normal::standard()
    }
}

impl std::fmt::Display for Normal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N({}, {}²)", self.mean, self.sd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_negative_sd() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn point_mass_semantics() {
        let n = Normal::new(3.0, 0.0).unwrap();
        assert_eq!(n.cdf(2.999), 0.0);
        assert_eq!(n.cdf(3.0), 1.0);
        assert_eq!(n.sf(3.0), 0.0);
        assert_eq!(n.sample_with(0.77), 3.0);
    }

    #[test]
    fn cdf_sf_complementarity() {
        let n = Normal::new(1.0, 2.5).unwrap();
        for i in -10..=10 {
            let x = i as f64;
            assert!((n.cdf(x) + n.sf(x) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn prob_negative_matches_phi() {
        let n = Normal::new(1.0, 1.0).unwrap();
        // Pr(N(1,1) < 0) = Φ(-1)
        assert!((n.prob_negative() - 0.15865525393145707).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let n = Normal::new(-4.0, 0.37).unwrap();
        for i in 1..100 {
            let p = i as f64 / 100.0;
            let x = n.quantile(p).unwrap();
            assert!((n.cdf(x) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn display_nonempty() {
        assert!(!Normal::standard().to_string().is_empty());
    }

    #[test]
    fn standard_and_default_agree() {
        assert_eq!(Normal::standard(), Normal::default());
    }
}
