//! The exact law of a program's error count — the reference the paper's
//! Poisson and Normal approximations are checked against.
//!
//! The paper (Section 5) notes that the program error count is exactly
//! Poisson-binomial when indicators are independent, but that computing it
//! "becomes prohibitively complex when there are more than a few indicators"
//! \[17] — which is why it approximates with Poisson/Normal limits instead.
//! [`PoissonBinomial`] implements the exact distribution anyway (the direct
//! O(n²) convolution DP of Hong \[17]) so tests can validate the
//! approximations and the Chen–Stein/Stein bounds against ground truth on
//! affordable sizes; [`kolmogorov_distance_fns`] measures the distance those
//! bounds claim to cap.

use terse_stats::kahan::KahanSum;
use terse_stats::{Poisson, Result, StatsError};

/// The exact distribution of `Σᵢ Xᵢ` for independent `Xᵢ ~ Bernoulli(pᵢ)`.
///
/// Construction is `O(n²)`; intended for n up to a few thousand (tests,
/// ablations), not for full program runs — that is the entire point of the
/// paper's limit-theorem approximations.
///
/// # Example
/// ```
/// use oracle::exact::PoissonBinomial;
/// # fn main() -> Result<(), terse_stats::StatsError> {
/// let d = PoissonBinomial::new(vec![0.5, 0.5])?;
/// assert!((d.pmf(1) - 0.5).abs() < 1e-15);
/// assert!((d.mean() - 1.0).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonBinomial {
    probs: Vec<f64>,
    /// pmf[k] = Pr(S = k), k = 0..=n
    pmf: Vec<f64>,
}

impl PoissonBinomial {
    /// Builds the exact distribution from the success probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] for an empty probability list and
    /// [`StatsError::InvalidParameter`] if any probability is outside
    /// `[0, 1]`.
    pub fn new(probs: Vec<f64>) -> Result<Self> {
        if probs.is_empty() {
            return Err(StatsError::Empty { what: "probs" });
        }
        for &p in &probs {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(StatsError::InvalidParameter {
                    name: "p",
                    value: p,
                    requirement: "0 <= p <= 1",
                });
            }
        }
        // Direct convolution DP: after processing i indicators, pmf holds the
        // distribution of their partial sum.
        let n = probs.len();
        let mut pmf = vec![0.0f64; n + 1];
        pmf[0] = 1.0;
        for (i, &p) in probs.iter().enumerate() {
            // Update in reverse so pmf[k] still refers to the previous stage.
            for k in (0..=i + 1).rev() {
                let stay = if k <= i { pmf[k] * (1.0 - p) } else { 0.0 };
                let come = if k > 0 { pmf[k - 1] * p } else { 0.0 };
                pmf[k] = stay + come;
            }
        }
        Ok(PoissonBinomial { probs, pmf })
    }

    /// Number of indicators n.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the indicator list is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The underlying success probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// `Pr(S = k)`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.pmf.get(k as usize).copied().unwrap_or(0.0)
    }

    /// `Pr(S ≤ k)`.
    pub fn cdf(&self, k: u64) -> f64 {
        let end = (k as usize + 1).min(self.pmf.len());
        let mut s = KahanSum::new();
        for &v in &self.pmf[..end] {
            s.add(v);
        }
        s.value().min(1.0)
    }

    /// Mean `Σ pᵢ`.
    pub fn mean(&self) -> f64 {
        let mut s = KahanSum::new();
        for &p in &self.probs {
            s.add(p);
        }
        s.value()
    }

    /// Variance `Σ pᵢ(1 − pᵢ)`.
    pub fn variance(&self) -> f64 {
        let mut s = KahanSum::new();
        for &p in &self.probs {
            s.add(p * (1.0 - p));
        }
        s.value()
    }

    /// The full probability-mass vector `[Pr(S = 0), …, Pr(S = n)]`.
    pub fn pmf_vec(&self) -> &[f64] {
        &self.pmf
    }

    /// Total-variation distance to a Poisson with the same mean — the
    /// quantity the Chen–Stein theorem bounds (Theorem 5.1, Eq. 5).
    ///
    /// # Panics
    ///
    /// Panics if the internal Poisson construction fails, which cannot
    /// happen since the mean of a Poisson binomial is finite and
    /// non-negative.
    // Invariant: the mean of a Poisson binomial is finite and
    // non-negative, so the Poisson constructor cannot fail.
    #[allow(clippy::expect_used)]
    pub fn tv_distance_to_poisson(&self) -> f64 {
        let lam = self.mean();
        let poi = Poisson::new(lam).expect("mean is finite and non-negative");
        let mut acc = 0.0;
        // TV distance for integer-valued distributions: ½ Σ |p(k) − q(k)|.
        // The Poisson tail beyond n contributes its survival mass.
        for (k, &p) in self.pmf.iter().enumerate() {
            acc += (p - poi.pmf(k as u64)).abs();
        }
        acc += poi.sf(self.pmf.len() as f64 - 1.0);
        0.5 * acc
    }
}

/// Kolmogorov distance evaluated on a grid of probe points:
/// `max_k |F(k) − G(k)|` for `k` drawn from `probes`.
///
/// For integer-valued distributions, probing every integer in the combined
/// support is exact; for continuous ones this is a lower estimate that
/// converges as the grid refines.
///
/// # Example
/// ```
/// use oracle::exact::kolmogorov_distance_fns;
/// let d = kolmogorov_distance_fns(0..=10, |k| (k as f64 / 10.0), |_| 0.5);
/// assert!((d - 0.5).abs() < 1e-12);
/// ```
pub fn kolmogorov_distance_fns<I, F, G>(probes: I, f: F, g: G) -> f64
where
    I: IntoIterator<Item = i64>,
    F: Fn(i64) -> f64,
    G: Fn(i64) -> f64,
{
    let mut d = 0.0f64;
    for k in probes {
        d = d.max((f(k) - g(k)).abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_binomial_when_iid() {
        // n = 6, p = 0.3: compare with binomial coefficients.
        let d = PoissonBinomial::new(vec![0.3; 6]).unwrap();
        let choose = [1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0];
        for k in 0..=6u64 {
            let want = choose[k as usize] * 0.3f64.powi(k as i32) * 0.7f64.powi(6 - k as i32);
            assert!(
                (d.pmf(k) - want).abs() < 1e-14,
                "k={k} got {} want {want}",
                d.pmf(k)
            );
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let d = PoissonBinomial::new(vec![0.1, 0.9, 0.5, 0.33, 0.77]).unwrap();
        let s: f64 = d.pmf_vec().iter().sum();
        assert!((s - 1.0).abs() < 1e-13);
    }

    #[test]
    fn mean_variance_formulas() {
        let ps = vec![0.2, 0.4, 0.9];
        let d = PoissonBinomial::new(ps.clone()).unwrap();
        let mean: f64 = ps.iter().sum();
        let var: f64 = ps.iter().map(|p| p * (1.0 - p)).sum();
        assert!((d.mean() - mean).abs() < 1e-15);
        assert!((d.variance() - var).abs() < 1e-15);
        // Cross-check against the pmf moments.
        let m1: f64 = d
            .pmf_vec()
            .iter()
            .enumerate()
            .map(|(k, p)| k as f64 * p)
            .sum();
        assert!((m1 - mean).abs() < 1e-13);
    }

    #[test]
    fn degenerate_probabilities() {
        let d = PoissonBinomial::new(vec![0.0, 1.0, 0.0, 1.0]).unwrap();
        assert!((d.pmf(2) - 1.0).abs() < 1e-15);
        assert_eq!(d.cdf(1), 0.0);
        assert!((d.cdf(2) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn cdf_monotone_and_saturates() {
        let d = PoissonBinomial::new(vec![0.25; 10]).unwrap();
        let mut prev = 0.0;
        for k in 0..=12u64 {
            let c = d.cdf(k);
            assert!(c >= prev - 1e-15);
            prev = c;
        }
        assert!((d.cdf(10) - 1.0).abs() < 1e-13);
        assert!((d.cdf(999) - 1.0).abs() < 1e-13);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(PoissonBinomial::new(vec![]).is_err());
        assert!(PoissonBinomial::new(vec![1.5]).is_err());
        assert!(PoissonBinomial::new(vec![-0.1]).is_err());
        assert!(PoissonBinomial::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn tv_distance_small_for_rare_events() {
        // Le Cam: TV ≤ Σ pᵢ². With 200 indicators at p = 0.005, bound 0.005.
        let d = PoissonBinomial::new(vec![0.005; 200]).unwrap();
        let tv = d.tv_distance_to_poisson();
        assert!(tv <= 0.005 + 1e-9, "tv = {tv}");
        assert!(tv > 0.0);
    }

    #[test]
    fn tv_distance_large_for_non_rare() {
        // A single fair coin is badly approximated by Poisson(0.5).
        let d = PoissonBinomial::new(vec![0.5]).unwrap();
        assert!(d.tv_distance_to_poisson() > 0.1);
    }
}
