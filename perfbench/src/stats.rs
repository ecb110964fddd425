//! Order statistics for the benchmark's timings.

use std::fmt;

/// Fewest samples from which a p90 is reported: ten of them must lie
/// beyond it.
pub const MIN_P90_SAMPLES: usize = 100;

/// A percentile the sample cannot support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    /// The percentile asked for, in percent.
    pub percent: u32,
    /// Samples available.
    pub have: usize,
    /// Samples required.
    pub need: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs at least {} samples, have {}",
            self.percent, self.need, self.have
        )
    }
}

impl std::error::Error for TooFewSamples {}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count), or
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// The nearest-rank percentile `percent` (1..=100) of `xs`, refused when
/// fewer than `min_samples` samples back it.
///
/// # Errors
///
/// [`TooFewSamples`] when `xs` holds fewer than `min_samples` values (or
/// none at all).
pub fn percentile(xs: &[f64], percent: u32, min_samples: usize) -> Result<f64, TooFewSamples> {
    let need = min_samples.max(1);
    if xs.len() < need {
        return Err(TooFewSamples {
            percent,
            have: xs.len(),
            need,
        });
    }
    let v = sorted(xs);
    let rank = (f64::from(percent.clamp(1, 100)) / 100.0 * v.len() as f64).ceil() as usize;
    Ok(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        let err = percentile(&xs, 90, MIN_P90_SAMPLES).unwrap_err();
        assert_eq!((err.have, err.need), (99, MIN_P90_SAMPLES));
        assert!(percentile(&[], 90, MIN_P90_SAMPLES).is_err());
    }

    #[test]
    fn p90_leaves_ten_samples_beyond_it() {
        // 1..=100: the 90th value is 90 and ten values exceed it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let v = percentile(&xs, 90, MIN_P90_SAMPLES).unwrap();
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn nearest_rank_endpoints() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 100, 1).unwrap(), 5.0);
        assert_eq!(percentile(&xs, 1, 1).unwrap(), 1.0);
        assert_eq!(percentile(&xs, 50, 1).unwrap(), 3.0);
    }
}
