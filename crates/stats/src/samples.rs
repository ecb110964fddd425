//! Sample-vector random variables — the data-variation propagation format.
//!
//! The paper's probabilities are random variables over *program inputs*
//! ("data variation", Section 4.1): each dynamic execution with a different
//! input dataset yields a different error probability for a static
//! instruction. TERSE carries that uncertainty as a fixed-length vector of
//! correlated samples (one slot per input draw). All arithmetic is
//! elementwise, so dependence between quantities derived from the same input
//! is preserved exactly — this is what lets Eq. 1/Eq. 2 and the per-SCC
//! linear systems be solved *per sample* and re-aggregated afterwards.

use crate::kahan::KahanSum;
use crate::{Result, StatsError};
use std::ops::{Add, Div, Mul, Sub};

/// A random variable represented by `n` equally weighted, jointly indexed
/// samples.
///
/// Two `SampleRv`s built over the same index (the same input-dataset draws)
/// may be combined elementwise; their statistical dependence is carried by
/// construction.
///
/// # Example
/// ```
/// use terse_stats::SampleRv;
/// # fn main() -> Result<(), terse_stats::StatsError> {
/// let a = SampleRv::new(vec![0.1, 0.2, 0.3])?;
/// let b = SampleRv::constant(0.5, 3);
/// let c = (&a * &b)?;
/// assert!((c.mean() - 0.1).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SampleRv {
    samples: Vec<f64>,
}

impl SampleRv {
    /// Wraps a sample vector.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] for an empty vector and
    /// [`StatsError::InvalidParameter`] if any sample is non-finite.
    pub fn new(samples: Vec<f64>) -> Result<Self> {
        if samples.is_empty() {
            return Err(StatsError::Empty { what: "samples" });
        }
        for &s in &samples {
            if !s.is_finite() {
                return Err(StatsError::InvalidParameter {
                    name: "sample",
                    value: s,
                    requirement: "finite",
                });
            }
        }
        Ok(SampleRv { samples })
    }

    /// A degenerate (constant) variable broadcast over `n` slots.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn constant(value: f64, n: usize) -> Self {
        assert!(n > 0, "sample count must be positive");
        SampleRv {
            samples: vec![value; n],
        }
    }

    /// Generates samples by calling `f(slot_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> f64) -> Self {
        assert!(n > 0, "sample count must be positive");
        SampleRv {
            samples: (0..n).map(f).collect(),
        }
    }

    /// Number of sample slots.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether there are no slots (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Borrow the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Elementwise map (e.g. clamping probabilities to `[0, 1]`).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> SampleRv {
        SampleRv {
            samples: self.samples.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two jointly indexed variables elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if lengths differ.
    pub fn zip_with(&self, other: &SampleRv, f: impl Fn(f64, f64) -> f64) -> Result<SampleRv> {
        if self.len() != other.len() {
            return Err(StatsError::DimensionMismatch {
                context: "SampleRv::zip_with",
                left: self.len(),
                right: other.len(),
            });
        }
        Ok(SampleRv {
            samples: self
                .samples
                .iter()
                .zip(&other.samples)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        let s: KahanSum = self.samples.iter().copied().collect();
        s.value() / self.len() as f64
    }

    /// Population variance (divides by `n`, the convention for an exhaustive
    /// set of equally likely scenarios).
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        let s: KahanSum = self.samples.iter().map(|&x| (x - m) * (x - m)).collect();
        s.value() / self.len() as f64
    }

    /// Population standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Central moment `E[(X − μ)^k]`.
    pub fn central_moment(&self, k: u32) -> f64 {
        let m = self.mean();
        let s: KahanSum = self
            .samples
            .iter()
            .map(|&x| (x - m).powi(k as i32))
            .collect();
        s.value() / self.len() as f64
    }

    /// Absolute central moment `E[|X − μ|^k]` — the third such moment feeds
    /// the Stein bound (Eq. 11).
    pub fn abs_central_moment(&self, k: u32) -> f64 {
        let m = self.mean();
        let s: KahanSum = self
            .samples
            .iter()
            .map(|&x| (x - m).abs().powi(k as i32))
            .collect();
        s.value() / self.len() as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Empirical quantile (linear interpolation between order statistics).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile level must be in [0,1]");
        let mut xs = self.samples.clone();
        xs.sort_by(f64::total_cmp);
        if xs.len() == 1 {
            return xs[0];
        }
        let pos = p * (xs.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        xs[lo] * (1.0 - frac) + xs[hi] * frac
    }

    /// The paper's "worst-case value" convention for bound variables:
    /// mean + `k`·SD (Section 5 uses `k = 6` for b₁ and b₂).
    pub fn worst_case(&self, k_sigma: f64) -> f64 {
        self.mean() + k_sigma * self.sd()
    }

    /// Jointly indexed sum of many variables: `Σᵢ wᵢ·Xᵢ`.
    ///
    /// Uses compensated accumulation per slot — this is the workhorse for
    /// Eq. 10's λ, which sums millions of weighted probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] if `terms` is empty and
    /// [`StatsError::DimensionMismatch`] if lengths differ.
    pub fn weighted_sum<'a, I>(terms: I) -> Result<SampleRv>
    where
        I: IntoIterator<Item = (f64, &'a SampleRv)>,
    {
        let mut acc: Option<Vec<KahanSum>> = None;
        for (w, rv) in terms {
            let acc = acc.get_or_insert_with(|| vec![KahanSum::new(); rv.len()]);
            if acc.len() != rv.len() {
                return Err(StatsError::DimensionMismatch {
                    context: "SampleRv::weighted_sum",
                    left: acc.len(),
                    right: rv.len(),
                });
            }
            for (a, &x) in acc.iter_mut().zip(&rv.samples) {
                a.add(w * x);
            }
        }
        match acc {
            Some(acc) => Ok(SampleRv {
                samples: acc.iter().map(KahanSum::value).collect(),
            }),
            None => Err(StatsError::Empty { what: "terms" }),
        }
    }
}

impl Add for &SampleRv {
    type Output = Result<SampleRv>;
    fn add(self, rhs: &SampleRv) -> Self::Output {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl Sub for &SampleRv {
    type Output = Result<SampleRv>;
    fn sub(self, rhs: &SampleRv) -> Self::Output {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl Mul for &SampleRv {
    type Output = Result<SampleRv>;
    fn mul(self, rhs: &SampleRv) -> Self::Output {
        self.zip_with(rhs, |a, b| a * b)
    }
}

impl Div for &SampleRv {
    type Output = Result<SampleRv>;
    fn div(self, rhs: &SampleRv) -> Self::Output {
        self.zip_with(rhs, |a, b| a / b)
    }
}

impl Mul<f64> for &SampleRv {
    type Output = SampleRv;
    fn mul(self, rhs: f64) -> SampleRv {
        self.map(|x| x * rhs)
    }
}

impl Add<f64> for &SampleRv {
    type Output = SampleRv;
    fn add(self, rhs: f64) -> SampleRv {
        self.map(|x| x + rhs)
    }
}

impl FromIterator<f64> for SampleRv {
    /// Collects samples; an empty iterator yields an empty (invalid) RV, so
    /// prefer [`SampleRv::new`] in fallible contexts.
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        SampleRv {
            samples: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(xs: &[f64]) -> SampleRv {
        SampleRv::new(xs.to_vec()).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(SampleRv::new(vec![]).is_err());
        assert!(SampleRv::new(vec![f64::NAN]).is_err());
        assert!(SampleRv::new(vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn mean_variance_known_values() {
        let a = rv(&[1.0, 2.0, 3.0, 4.0]);
        assert!((a.mean() - 2.5).abs() < 1e-15);
        assert!((a.variance() - 1.25).abs() < 1e-15);
        assert!((a.sd() - 1.25f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn nan_sample_gives_nan_variance_and_sd() {
        // `from_fn` admits NaN; the spread must say so, not read as 0.
        let a = SampleRv::from_fn(3, |i| [1.5, f64::NAN, 42.0][i]);
        assert!(a.variance().is_nan());
        assert!(a.sd().is_nan());
    }

    #[test]
    fn elementwise_dependence_preserved() {
        // X - X must be exactly zero with sample semantics — the whole point
        // of joint indexing versus independent distributions.
        let a = rv(&[0.3, 0.9, 0.1]);
        let d = (&a - &a).unwrap();
        assert_eq!(d.samples(), &[0.0, 0.0, 0.0]);
        assert_eq!(d.variance(), 0.0);
    }

    #[test]
    fn ops_require_matching_lengths() {
        let a = rv(&[1.0, 2.0]);
        let b = rv(&[1.0, 2.0, 3.0]);
        assert!((&a + &b).is_err());
        assert!((&a * &b).is_err());
    }

    #[test]
    fn moments_match_definitions() {
        let a = rv(&[-1.0, 0.0, 1.0, 2.0]);
        let m = a.mean();
        let want3: f64 = a.samples().iter().map(|x| (x - m).powi(3)).sum::<f64>() / 4.0;
        assert!((a.central_moment(3) - want3).abs() < 1e-15);
        let want_abs3: f64 = a
            .samples()
            .iter()
            .map(|x| (x - m).abs().powi(3))
            .sum::<f64>()
            / 4.0;
        assert!((a.abs_central_moment(3) - want_abs3).abs() < 1e-15);
    }

    #[test]
    fn quantile_interpolates() {
        let a = rv(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(a.quantile(0.0), 10.0);
        assert_eq!(a.quantile(1.0), 50.0);
        assert_eq!(a.quantile(0.5), 30.0);
        assert!((a.quantile(0.25) - 20.0).abs() < 1e-12);
        assert!((a.quantile(0.1) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn worst_case_six_sigma() {
        let a = rv(&[1.0, 3.0]);
        // mean 2, sd 1 → mean + 6sd = 8.
        assert!((a.worst_case(6.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_sum_linear() {
        let a = rv(&[1.0, 2.0]);
        let b = rv(&[10.0, 20.0]);
        let s = SampleRv::weighted_sum([(2.0, &a), (0.5, &b)]).unwrap();
        assert_eq!(s.samples(), &[7.0, 14.0]);
        assert!(SampleRv::weighted_sum(std::iter::empty()).is_err());
    }

    #[test]
    fn scalar_ops() {
        let a = rv(&[1.0, 2.0]);
        assert_eq!((&a * 3.0).samples(), &[3.0, 6.0]);
        assert_eq!((&a + 1.0).samples(), &[2.0, 3.0]);
    }

    #[test]
    fn constant_has_zero_variance() {
        let c = SampleRv::constant(0.7, 64);
        assert_eq!(c.variance(), 0.0);
        assert_eq!(c.mean(), 0.7);
        assert_eq!(c.len(), 64);
    }

    #[test]
    fn min_max() {
        let a = rv(&[3.0, -1.0, 2.0]);
        assert_eq!(a.min(), -1.0);
        assert_eq!(a.max(), 3.0);
    }
}
