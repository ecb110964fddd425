//! Special functions: `erfc`, normal CDF/quantile, `ln Γ`, and the
//! regularized incomplete gamma functions.
//!
//! The Eq. 14 estimator needs Poisson CDFs at means up to ~10⁷ (a billion
//! instructions at a 1 % error rate), which are evaluated through the
//! regularized upper incomplete gamma function `Q(k + 1, λ)`. The series and
//! continued-fraction evaluations below converge in `O(√a)` iterations near
//! the transition `x ≈ a`, which keeps even λ ~ 10⁷ affordable.

use crate::{Result, StatsError};

/// `1/√(2π)`, the normalization constant of the standard normal density.
pub const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Uses the W. J. Cody-style rational expansion in three ranges; relative
/// error below ~1e-15 for `x ≥ 0`, and the reflection `erfc(−x) = 2 − erfc(x)`
/// otherwise.
///
/// # Example
/// ```
/// assert!((terse_stats::special::erfc(0.0) - 1.0).abs() < 1e-15);
/// assert!(terse_stats::special::erfc(30.0) < 1e-300);
/// ```
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 0.5 {
        // Series for erf in the small-argument range: relative accuracy and
        // no cancellation since erf(x) ≈ x there.
        return 1.0 - erf_series(x);
    }
    // Continued-fraction/Laplace style evaluation via the scaled function
    // erfcx(x) = e^{x²} erfc(x), computed with a Chebyshev-like rational fit
    // (Numerical-Recipes erfc_cheb coefficients, accurate to ~1.2e-16
    // fractional error for all x ≥ 0).
    let z = x;
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.419_697_923_564_902e-1,
        1.9476473204185836e-2,
        -9.561_514_786_808_63e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let mut d = 0.0_f64;
    let mut dd = 0.0_f64;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp()
}

/// Maclaurin series for `erf` on `[0, 0.5]` (converges in < 12 terms there).
fn erf_series(x: f64) -> f64 {
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    let mut n = 0u32;
    loop {
        n += 1;
        term *= -x2 / n as f64;
        let add = term / (2 * n + 1) as f64;
        sum += add;
        if add.abs() < sum.abs() * 1e-17 || n > 40 {
            break;
        }
    }
    std::f64::consts::FRAC_2_SQRT_PI * sum
}

/// The standard normal cumulative distribution function
/// `Φ(x) = ½ erfc(−x/√2)`.
///
/// # Example
/// ```
/// use terse_stats::special::std_normal_cdf;
/// assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((std_normal_cdf(1.959963984540054) - 0.975).abs() < 1e-12);
/// ```
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// The standard normal probability density function `φ(x)`.
pub fn std_normal_pdf(x: f64) -> f64 {
    FRAC_1_SQRT_2PI * (-0.5 * x * x).exp()
}

/// The standard normal quantile function `Φ⁻¹(p)`.
///
/// Acklam's rational approximation refined with one Halley step against
/// [`std_normal_cdf`], giving roughly full `f64` accuracy on `(0, 1)`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] unless `0 < p < 1`
/// (the endpoints map to ±∞ which is almost never what a caller wants;
/// use [`std_normal_quantile_clamped`] for saturating behaviour).
///
/// # Example
/// ```
/// use terse_stats::special::{std_normal_cdf, std_normal_quantile};
/// # fn main() -> Result<(), terse_stats::StatsError> {
/// let z = std_normal_quantile(0.975)?;
/// assert!((std_normal_cdf(z) - 0.975).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
pub fn std_normal_quantile(p: f64) -> Result<f64> {
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::InvalidParameter {
            name: "p",
            value: p,
            requirement: "0 < p < 1",
        });
    }
    Ok(std_normal_quantile_unchecked(p))
}

/// Like [`std_normal_quantile`] but saturating: `p ≤ 0` yields `-∞` and
/// `p ≥ 1` yields `+∞` instead of an error.
pub fn std_normal_quantile_clamped(p: f64) -> f64 {
    if p <= 0.0 {
        f64::NEG_INFINITY
    } else if p >= 1.0 {
        f64::INFINITY
    } else {
        std_normal_quantile_unchecked(p)
    }
}

fn std_normal_quantile_unchecked(p: f64) -> f64 {
    // Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        138.357_751_867_269,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Natural logarithm of the gamma function, `ln Γ(x)` for `x > 0`.
///
/// Lanczos approximation (g = 7, 9 coefficients), accurate to ~1e-13
/// relative over `x > 0`.
///
/// # Panics
///
/// Panics in debug builds if `x ≤ 0` (non-positive arguments are outside
/// every use in this crate).
///
/// # Example
/// ```
/// use terse_stats::special::ln_gamma;
/// assert!((ln_gamma(1.0)).abs() < 1e-13);           // Γ(1) = 1
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12); // Γ(5) = 24
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885,
        -1_259.139_216_722_400_8,
        771.323_428_777_653,
        -176.615_029_162_141,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy for small x.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + G + 0.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function
/// `P(a, x) = γ(a, x) / Γ(a)` for `a > 0`, `x ≥ 0`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for `a ≤ 0` or `x < 0`, and
/// [`StatsError::NoConvergence`] if the series/continued fraction fails to
/// converge (practically unreachable for finite inputs).
///
/// # Example
/// ```
/// use terse_stats::special::reg_gamma_p;
/// # fn main() -> Result<(), terse_stats::StatsError> {
/// // P(1, x) = 1 - e^{-x}
/// let p = reg_gamma_p(1.0, 2.0)?;
/// assert!((p - (1.0 - (-2.0f64).exp())).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
pub fn reg_gamma_p(a: f64, x: f64) -> Result<f64> {
    check_gamma_args(a, x)?;
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        Ok(1.0 - gamma_cf(a, x)?)
    }
}

/// Regularized upper incomplete gamma function
/// `Q(a, x) = 1 − P(a, x)`.
///
/// The Poisson CDF is `Pr(X ≤ k) = Q(k + 1, λ)`, which is how
/// [`crate::poisson::Poisson::cdf`] evaluates it.
///
/// # Errors
///
/// Same as [`reg_gamma_p`].
pub fn reg_gamma_q(a: f64, x: f64) -> Result<f64> {
    check_gamma_args(a, x)?;
    if x == 0.0 {
        return Ok(1.0);
    }
    if x < a + 1.0 {
        Ok(1.0 - gamma_series(a, x)?)
    } else {
        gamma_cf(a, x)
    }
}

fn check_gamma_args(a: f64, x: f64) -> Result<()> {
    if !(a > 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "a",
            value: a,
            requirement: "a > 0",
        });
    }
    if !(x >= 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: x,
            requirement: "x >= 0",
        });
    }
    Ok(())
}

/// Maximum iterations for the incomplete-gamma routines, scaled so the
/// `x ≈ a` transition region (which needs `O(√a)` terms) always converges.
fn gamma_itmax(a: f64) -> usize {
    2_000 + (20.0 * a.sqrt()) as usize
}

/// Series representation of `P(a, x)`; converges fast for `x < a + 1`.
fn gamma_series(a: f64, x: f64) -> Result<f64> {
    let itmax = gamma_itmax(a);
    let gln = ln_gamma(a);
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..itmax {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            let logv = -x + a * x.ln() - gln;
            return Ok((sum * logv.exp()).clamp(0.0, 1.0));
        }
    }
    Err(StatsError::NoConvergence {
        routine: "gamma_series",
    })
}

/// Continued-fraction representation of `Q(a, x)` (modified Lentz);
/// converges fast for `x ≥ a + 1`.
fn gamma_cf(a: f64, x: f64) -> Result<f64> {
    const FPMIN: f64 = f64::MIN_POSITIVE / f64::EPSILON;
    let itmax = gamma_itmax(a);
    let gln = ln_gamma(a);
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=itmax {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            let logv = -x + a * x.ln() - gln;
            return Ok((h * logv.exp()).clamp(0.0, 1.0));
        }
    }
    Err(StatsError::NoConvergence {
        routine: "gamma_cf",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values of `erf` from standard tables (Abramowitz & Stegun /
    /// mpmath), checked through `erf(x) = 1 − erfc(x)`.
    #[test]
    fn erf_reference_values() {
        let cases = [
            (0.0, 0.0),
            (0.1, 0.1124629160182849),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
            (-1.0, -0.8427007929497149),
        ];
        for (x, want) in cases {
            let erf = 1.0 - erfc(x);
            assert!((erf - want).abs() < 1e-13, "erf({x}) = {erf} want {want}");
        }
    }

    #[test]
    fn erfc_reference_values() {
        let cases = [
            (0.5, 0.4795001221869535),
            (1.0, 0.1572992070502851),
            (2.0, 0.004677734981063127),
            (4.0, 1.541725790028002e-8),
            (6.0, 2.1519736712498913e-17),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(
                ((got - want) / want).abs() < 1e-10,
                "erfc({x}) = {got} want {want}"
            );
        }
    }

    #[test]
    fn erfc_symmetry() {
        for i in 0..100 {
            let x = -3.0 + 0.06 * i as f64;
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-13);
        }
    }

    #[test]
    fn normal_cdf_tail_values() {
        // Φ(-6) from tables.
        let want = 9.865876450376946e-10;
        let got = std_normal_cdf(-6.0);
        assert!(((got - want) / want).abs() < 1e-10, "got {got}");
    }

    #[test]
    fn normal_quantile_roundtrip() {
        for i in 1..200 {
            let p = i as f64 / 200.0;
            let z = std_normal_quantile(p).unwrap();
            assert!(
                (std_normal_cdf(z) - p).abs() < 1e-13,
                "p = {p}, z = {z}, cdf = {}",
                std_normal_cdf(z)
            );
        }
    }

    #[test]
    fn normal_quantile_extreme_tails() {
        let z = std_normal_quantile(1e-12).unwrap();
        assert!((std_normal_cdf(z) / 1e-12 - 1.0).abs() < 1e-6);
        assert!(std_normal_quantile(0.0).is_err());
        assert!(std_normal_quantile(1.0).is_err());
        assert_eq!(std_normal_quantile_clamped(0.0), f64::NEG_INFINITY);
        assert_eq!(std_normal_quantile_clamped(1.0), f64::INFINITY);
    }

    #[test]
    fn ln_gamma_integer_factorials() {
        let mut fact = 1.0f64;
        for n in 1..20u32 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            let got = ln_gamma(n as f64);
            assert!(
                (got - fact.ln()).abs() < 1e-11 * fact.ln().abs().max(1.0),
                "lnΓ({n}) = {got} want {}",
                fact.ln()
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        let want = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - want).abs() < 1e-12);
        // Γ(3/2) = √π/2
        let want = (std::f64::consts::PI.sqrt() / 2.0).ln();
        assert!((ln_gamma(1.5) - want).abs() < 1e-12);
    }

    #[test]
    fn incomplete_gamma_exponential_special_case() {
        // P(1, x) = 1 - e^{-x}
        for x in [0.0f64, 0.1, 1.0, 5.0, 20.0] {
            let want = 1.0 - (-x).exp();
            let got = reg_gamma_p(1.0, x).unwrap();
            assert!((got - want).abs() < 1e-13, "P(1,{x}) = {got} want {want}");
        }
    }

    #[test]
    fn incomplete_gamma_complementarity() {
        for a in [0.5, 1.0, 3.7, 10.0, 100.0] {
            for x in [0.01, 0.5, 1.0, 3.0, 9.9, 100.0, 150.0] {
                let p = reg_gamma_p(a, x).unwrap();
                let q = reg_gamma_q(a, x).unwrap();
                assert!((p + q - 1.0).abs() < 1e-12, "a={a} x={x} p+q={}", p + q);
            }
        }
    }

    #[test]
    fn incomplete_gamma_median_large_a() {
        // For large a, P(a, a) → 1/2 (median of Gamma(a) ≈ a - 1/3).
        for a in [1e3, 1e5, 1e7] {
            let p = reg_gamma_p(a, a).unwrap();
            assert!(
                (p - 0.5).abs() < 0.2 / a.sqrt().min(100.0),
                "P({a},{a}) = {p}"
            );
            // Tighter: P(a, a - 1/3) ≈ 1/2 within O(1/a).
            let pm = reg_gamma_p(a, a - 1.0 / 3.0).unwrap();
            assert!((pm - 0.5).abs() < 1e-2, "P(a, a-1/3) = {pm}");
        }
    }

    #[test]
    fn incomplete_gamma_rejects_bad_args() {
        assert!(reg_gamma_p(0.0, 1.0).is_err());
        assert!(reg_gamma_p(-1.0, 1.0).is_err());
        assert!(reg_gamma_p(1.0, -0.5).is_err());
    }

    #[test]
    fn std_normal_pdf_peak() {
        assert!((std_normal_pdf(0.0) - FRAC_1_SQRT_2PI).abs() < 1e-16);
    }
}
