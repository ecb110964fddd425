//! Stein's method and the Chen–Stein method — the paper's approximation-error
//! bounds (Section 5, Theorems 5.1 and 5.2).
//!
//! * [`chen_stein_bound`] is the generic Theorem 5.1: a total-variation bound
//!   for the Poisson approximation of a sum of dependent Bernoulli
//!   indicators, given dependency neighborhoods.
//! * [`chen_stein_program_bound`] is the paper's specialization (Eqs. 6–9):
//!   indicators are dynamic instructions, each instruction's neighborhood is
//!   itself and the previous instruction, block executions `e_i` replicate
//!   indicators, and `p_{αβ} = E[X_α X_β] = p_{k−1} · p^e_k` follows from the
//!   Markov error-correction model.
//! * [`stein_normal_bound`] is Theorem 5.2: a Kolmogorov bound for the normal
//!   approximation of a sum of locally dependent variables with finite fourth
//!   moments — applied to λ (Eq. 10) with `D = 2`.

use crate::kahan::KahanSum;
use crate::{Result, StatsError};

/// Result of a Chen–Stein computation: the two intermediate sums and the
/// final distance bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChenSteinBound {
    /// `b₁ = Σ_α Σ_{β ∈ B_α} p_α p_β` (Eq. 3 / Eq. 7).
    pub b1: f64,
    /// `b₂ = Σ_α Σ_{α ≠ β ∈ B_α} p_{αβ}` (Eq. 4 / Eq. 8).
    pub b2: f64,
    /// The Poisson mean `λ = Σ_α p_α`.
    pub lambda: f64,
    /// `d_TV(W, Z) ≤ min(1, 1/λ)(b₁ + b₂)` (Eq. 5); also a bound on the
    /// Kolmogorov metric since `d_K ≤ d_TV`.
    pub tv_bound: f64,
}

/// Generic Chen–Stein bound (Theorem 5.1) for indicators `p[α]` with
/// dependency neighborhoods `neighbors(α)` (which must contain `α` itself)
/// and pairwise joint success probabilities `joint(α, β) = E[X_α X_β]`.
///
/// # Errors
///
/// Returns [`StatsError::Empty`] for an empty index set and
/// [`StatsError::InvalidParameter`] if any probability is outside `[0, 1]`.
///
/// # Example
/// ```
/// use terse_stats::stein::chen_stein_bound;
/// # fn main() -> Result<(), terse_stats::StatsError> {
/// // Independent indicators: B_α = {α}, joint never queried off-diagonal.
/// let p = vec![0.01_f64; 100];
/// let b = chen_stein_bound(&p, |a| vec![a], |_, _| 0.0)?;
/// // Le Cam-style: b1 = Σ p², b2 = 0.
/// assert!((b.b1 - 0.01).abs() < 1e-12);
/// assert_eq!(b.b2, 0.0);
/// assert!(b.tv_bound <= 0.011);
/// # Ok(())
/// # }
/// ```
pub fn chen_stein_bound(
    p: &[f64],
    neighbors: impl Fn(usize) -> Vec<usize>,
    joint: impl Fn(usize, usize) -> f64,
) -> Result<ChenSteinBound> {
    if p.is_empty() {
        return Err(StatsError::Empty { what: "indicators" });
    }
    for &pi in p {
        if !(0.0..=1.0).contains(&pi) {
            return Err(StatsError::InvalidParameter {
                name: "p",
                value: pi,
                requirement: "0 <= p <= 1",
            });
        }
    }
    let mut b1 = KahanSum::new();
    let mut b2 = KahanSum::new();
    let mut lambda = KahanSum::new();
    for (alpha, &pa) in p.iter().enumerate() {
        lambda.add(pa);
        for beta in neighbors(alpha) {
            b1.add(pa * p[beta]);
            if beta != alpha {
                b2.add(joint(alpha, beta));
            }
        }
    }
    let lambda = lambda.value();
    let b1 = b1.value();
    let b2 = b2.value();
    let factor = if lambda > 1.0 { 1.0 / lambda } else { 1.0 };
    Ok(ChenSteinBound {
        b1,
        b2,
        lambda,
        tv_bound: factor * (b1 + b2),
    })
}

/// One basic block's probability chain, in one data-variation scenario —
/// the inputs to Eqs. 7, 8 and 10.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockChain {
    /// Number of executions `e_i` of this block (the replication count in
    /// Eq. 6). May carry the scaling to paper-sized instruction counts.
    pub executions: f64,
    /// Input error probability `p_i^in` (error probability of the
    /// instruction executed just before entering the block).
    pub p_in: f64,
    /// Marginal error probabilities `p_{i_k}`, k = 1..n_i.
    pub marginal: Vec<f64>,
    /// Conditional-on-error probabilities `p^e_{i_k}`, k = 1..n_i.
    pub cond_error: Vec<f64>,
}

/// The paper's program-level Chen–Stein bound (Eqs. 7–9): dependency
/// neighborhoods are adjacent instructions, `p_{αβ} = p_{k−1} p^e_k`, blocks
/// are replicated `e_i` times, and the final Kolmogorov bound is
/// `d_K(N_E, N̄_E) ≤ (b₁ + b₂)/λ` (Eq. 9, valid for λ > 1).
///
/// # Errors
///
/// Returns [`StatsError::Empty`] if no block is supplied,
/// [`StatsError::DimensionMismatch`] if a block's `marginal` and
/// `cond_error` lengths differ, and [`StatsError::InvalidParameter`] on
/// out-of-range probabilities or negative execution counts.
pub fn chen_stein_program_bound(blocks: &[BlockChain]) -> Result<ChenSteinBound> {
    if blocks.is_empty() {
        return Err(StatsError::Empty { what: "blocks" });
    }
    let mut b1 = KahanSum::new();
    let mut b2 = KahanSum::new();
    let mut lambda = KahanSum::new();
    for blk in blocks {
        if blk.marginal.len() != blk.cond_error.len() {
            return Err(StatsError::DimensionMismatch {
                context: "BlockChain probabilities",
                left: blk.marginal.len(),
                right: blk.cond_error.len(),
            });
        }
        if !(blk.executions >= 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "executions",
                value: blk.executions,
                requirement: ">= 0",
            });
        }
        for &q in blk
            .marginal
            .iter()
            .chain(blk.cond_error.iter())
            .chain(std::iter::once(&blk.p_in))
        {
            if !(0.0..=1.0).contains(&q) {
                return Err(StatsError::InvalidParameter {
                    name: "probability",
                    value: q,
                    requirement: "0 <= p <= 1",
                });
            }
        }
        if blk.marginal.is_empty() {
            continue;
        }
        let e = blk.executions;
        // Eq. 7 inner sum: p_in·p_1 + Σ_{k≥2} p_{k−1} p_k, plus the diagonal
        // terms p_k² (each neighborhood B_α contains α itself, and both the
        // (k−1,k) and (k,k−1) ordered pairs appear in Σ_α Σ_{β∈B_α}).
        let mut inner1 = blk.p_in * blk.marginal[0];
        let mut inner2 = blk.p_in * blk.cond_error[0];
        for k in 0..blk.marginal.len() {
            // Diagonal term of Eq. 3 specialized: α ∈ B_α.
            inner1 += blk.marginal[k] * blk.marginal[k];
            lambda.add(e * blk.marginal[k]);
            if k > 0 {
                // Both ordered adjacent pairs contribute to b1; the paper's
                // Eq. 7 writes the chain once — we follow Eq. 7 literally
                // for the cross terms to reproduce its numbers.
                inner1 += blk.marginal[k - 1] * blk.marginal[k];
                // Eq. 8: p_{αβ} = Pr(prev errs) · Pr(cur errs | prev errs).
                inner2 += blk.marginal[k - 1] * blk.cond_error[k];
            }
        }
        b1.add(e * inner1);
        b2.add(e * inner2);
    }
    let lambda = lambda.value();
    let b1 = b1.value();
    let b2 = b2.value();
    let factor = if lambda > 1.0 { 1.0 / lambda } else { 1.0 };
    Ok(ChenSteinBound {
        b1,
        b2,
        lambda,
        tv_bound: factor * (b1 + b2),
    })
}

/// Per-variable moment inputs to [`stein_normal_bound`]: central moments of
/// each summand `X_i` (the paper computes them from discrete data-variation
/// distributions; see Section 5, after Theorem 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CentralMoments {
    /// Variance `E[(X − μ)²]`.
    pub var: f64,
    /// Absolute third central moment `E[|X − μ|³]`.
    pub abs3: f64,
    /// Fourth central moment `E[(X − μ)⁴]`.
    pub m4: f64,
}

/// Result of the Stein normal-approximation bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteinBound {
    /// `b₁ = D²/σ³ Σ E|X_i|³` (Eq. 11).
    pub b1: f64,
    /// `b₂ = √28 D^{3/2}/(√π σ²) √(Σ E[X_i⁴])` (Eq. 12).
    pub b2: f64,
    /// Standard deviation σ of the sum used in the bound.
    pub sigma: f64,
    /// The paper's Eq. 13 bound: `d_K ≤ (2/π)^{1/4} (b₁ + b₂)`
    /// (the paper prints `(z/π)^{1/4}`; `z = 2` recovers the constant of
    /// Ross's survey of Stein's method).
    pub kolmogorov: f64,
    /// The conservative Wasserstein-route variant
    /// `d_K ≤ (2/π)^{1/4} √(b₁ + b₂)`, useful when `b₁ + b₂ < 1` makes the
    /// square root the *larger* (safer) reading of the theorem.
    pub kolmogorov_sqrt: f64,
}

/// Stein's-method bound (Theorem 5.2) for the normal approximation of
/// `W = Σ X_i` with dependency-neighborhood size at most `d` and the given
/// per-variable central moments. `sigma` is the standard deviation of `W`
/// (which, unlike the per-variable moments, must account for covariances
/// inside neighborhoods — the caller computes it; for λ this is
/// [`crate::SampleRv::sd`] of the sampled sum).
///
/// # Errors
///
/// Returns [`StatsError::Empty`] with no variables,
/// [`StatsError::InvalidParameter`] if `sigma ≤ 0`, `d == 0`, or any moment
/// is negative.
pub fn stein_normal_bound(moments: &[CentralMoments], sigma: f64, d: usize) -> Result<SteinBound> {
    if moments.is_empty() {
        return Err(StatsError::Empty { what: "moments" });
    }
    if !(sigma > 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "sigma",
            value: sigma,
            requirement: "> 0",
        });
    }
    if d == 0 {
        return Err(StatsError::InvalidParameter {
            name: "d",
            value: 0.0,
            requirement: ">= 1",
        });
    }
    let mut sum3 = KahanSum::new();
    let mut sum4 = KahanSum::new();
    for m in moments {
        if m.abs3 < 0.0 || m.m4 < 0.0 || m.var < 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "moment",
                value: m.abs3.min(m.m4).min(m.var),
                requirement: ">= 0",
            });
        }
        sum3.add(m.abs3);
        sum4.add(m.m4);
    }
    let df = d as f64;
    let b1 = df * df / (sigma * sigma * sigma) * sum3.value();
    let b2 = 28f64.sqrt() * df.powf(1.5) / (std::f64::consts::PI.sqrt() * sigma * sigma)
        * sum4.value().sqrt();
    let c = (2.0 / std::f64::consts::PI).powf(0.25);
    Ok(SteinBound {
        b1,
        b2,
        sigma,
        kolmogorov: (c * (b1 + b2)).min(1.0),
        kolmogorov_sqrt: (c * (b1 + b2).sqrt()).min(1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_bound_single_block_matches_generic() {
        // One block, executed once, independent-ish chain with p^e = p (no
        // correction effect) reduces to the generic computation on a path
        // neighborhood.
        let marg = vec![0.01, 0.02, 0.03];
        let ce = vec![0.01, 0.02, 0.03];
        let blocks = [BlockChain {
            executions: 1.0,
            p_in: 0.0,
            marginal: marg.clone(),
            cond_error: ce,
        }];
        let b = chen_stein_program_bound(&blocks).unwrap();
        // λ = Σ p
        assert!((b.lambda - 0.06).abs() < 1e-15);
        // b1 = Σ p_k² + Σ_{k≥2} p_{k−1} p_k = (1e-4+4e-4+9e-4) + (2e-4+6e-4)
        assert!((b.b1 - (14e-4 + 8e-4)).abs() < 1e-12, "b1={}", b.b1);
        // b2 = Σ_{k≥2} p_{k−1} p^e_k = 2e-4 + 6e-4
        assert!((b.b2 - 8e-4).abs() < 1e-12, "b2={}", b.b2);
        // λ < 1 so the factor is 1.
        assert!((b.tv_bound - (b.b1 + b.b2)).abs() < 1e-15);
    }

    #[test]
    fn program_bound_scales_with_executions() {
        let mk = |e: f64| {
            chen_stein_program_bound(&[BlockChain {
                executions: e,
                p_in: 0.001,
                marginal: vec![0.001, 0.002],
                cond_error: vec![0.01, 0.02],
            }])
            .unwrap()
        };
        let b1x = mk(1.0);
        let b10x = mk(10.0);
        assert!((b10x.lambda - 10.0 * b1x.lambda).abs() < 1e-12);
        assert!((b10x.b1 - 10.0 * b1x.b1).abs() < 1e-12);
        assert!((b10x.b2 - 10.0 * b1x.b2).abs() < 1e-12);
    }

    #[test]
    fn program_bound_eq9_divides_by_lambda_when_large() {
        // Push λ above 1: the factor must switch to 1/λ.
        let b = chen_stein_program_bound(&[BlockChain {
            executions: 1e6,
            p_in: 0.0,
            marginal: vec![1e-4, 1e-4],
            cond_error: vec![1e-3, 1e-3],
        }])
        .unwrap();
        assert!(b.lambda > 1.0);
        assert!((b.tv_bound - (b.b1 + b.b2) / b.lambda).abs() < 1e-15);
    }

    #[test]
    fn program_bound_validation() {
        assert!(chen_stein_program_bound(&[]).is_err());
        assert!(chen_stein_program_bound(&[BlockChain {
            executions: 1.0,
            p_in: 0.0,
            marginal: vec![0.1],
            cond_error: vec![0.1, 0.2],
        }])
        .is_err());
        assert!(chen_stein_program_bound(&[BlockChain {
            executions: -1.0,
            p_in: 0.0,
            marginal: vec![0.1],
            cond_error: vec![0.1],
        }])
        .is_err());
        assert!(chen_stein_program_bound(&[BlockChain {
            executions: 1.0,
            p_in: 1.5,
            marginal: vec![0.1],
            cond_error: vec![0.1],
        }])
        .is_err());
    }

    #[test]
    fn stein_bound_decreases_with_n() {
        let m = CentralMoments {
            var: 0.25,
            abs3: 0.125,
            m4: 0.0625,
        };
        let b_small = stein_normal_bound(&vec![m; 100], (100f64 * 0.25).sqrt(), 2).unwrap();
        let b_large = stein_normal_bound(&vec![m; 10_000], (10_000f64 * 0.25).sqrt(), 2).unwrap();
        assert!(b_large.kolmogorov < b_small.kolmogorov);
    }

    #[test]
    fn stein_bound_validation() {
        let m = CentralMoments::default();
        assert!(stein_normal_bound(&[], 1.0, 2).is_err());
        assert!(stein_normal_bound(&[m], 0.0, 2).is_err());
        assert!(stein_normal_bound(&[m], 1.0, 0).is_err());
        let bad = CentralMoments {
            var: 1.0,
            abs3: -1.0,
            m4: 1.0,
        };
        assert!(stein_normal_bound(&[bad], 1.0, 2).is_err());
    }

    #[test]
    fn stein_bound_saturates_at_one() {
        // Pathologically bad inputs must clamp to the trivial bound 1.
        let m = CentralMoments {
            var: 1.0,
            abs3: 100.0,
            m4: 100.0,
        };
        let b = stein_normal_bound(&[m], 0.1, 2).unwrap();
        assert_eq!(b.kolmogorov, 1.0);
    }
}
