//! The incremental greedy statistical min against the rescan reference.
//!
//! `terse_sta::statmin::statistical_min` builds the pairwise
//! correlation matrix once and, per merge, computes only the merged
//! operand's row and mirrors the pool's `swap_remove`s on the matrix.
//! `oracle::statmin::max_correlation_first` recomputes every pair on every
//! round. The two must pick the same pair on every round — ties included —
//! so their results agree bit for bit: the mean, every sensitivity and the
//! independent residual.
//!
//! The operand sets stress the pair choice: repeated operands (correlation
//! exactly 1, tied across many pairs), a small palette of shared
//! sensitivity vectors (many exactly tied correlations), and zero-variance
//! operands (correlation 0 by definition). Sets larger than 64 operands
//! take the ascending-mean fold on both sides.

use oracle::gen;
use oracle::statmin::{max_correlation_first, monte_carlo_min};
use proptest::prelude::*;
use terse_sta::statmin::statistical_min;
use terse_sta::CanonicalRv;
use terse_stats::rng::Xoshiro256;

/// How an operand set is shaped around the plain random draw.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `gen::random_slacks` as drawn.
    Plain,
    /// About a third of the operands are copies of earlier ones.
    Repeated,
    /// Sensitivities and residuals come from a palette of three, so many
    /// pairs share exactly the same correlation.
    Tied,
    /// About a quarter of the operands are deterministic (zero variance).
    ZeroVariance,
}

const SHAPES: [Shape; 4] = [
    Shape::Plain,
    Shape::Repeated,
    Shape::Tied,
    Shape::ZeroVariance,
];

fn operands(seed: u64, n: usize, var_count: usize, shape: Shape) -> Vec<CanonicalRv> {
    let mut slacks = gen::random_slacks(seed, n, var_count);
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5EED_0F7E_7135);
    match shape {
        Shape::Plain => {}
        Shape::Repeated => {
            for i in 1..n {
                if rng.next_below(3) == 0 {
                    let j = rng.next_below(i as u64) as usize;
                    slacks[i] = slacks[j].clone();
                }
            }
        }
        Shape::Tied => {
            let palette: Vec<(Vec<f64>, f64)> = slacks
                .iter()
                .take(3)
                .map(|s| (s.coeffs().to_vec(), s.indep()))
                .collect();
            for s in &mut slacks {
                let (coeffs, indep) = &palette[rng.next_below(palette.len() as u64) as usize];
                *s = CanonicalRv::with_sensitivities(s.mean(), coeffs.clone(), *indep);
            }
        }
        Shape::ZeroVariance => {
            for s in &mut slacks {
                if rng.next_below(4) == 0 {
                    *s = CanonicalRv::with_sensitivities(s.mean(), vec![0.0; var_count], 0.0);
                }
            }
        }
    }
    slacks
}

fn assert_bitwise_equal(got: &CanonicalRv, want: &CanonicalRv) {
    assert_eq!(got.mean().to_bits(), want.mean().to_bits(), "mean");
    assert_eq!(got.coeffs().len(), want.coeffs().len(), "coefficient count");
    for (k, (a, b)) in got.coeffs().iter().zip(want.coeffs()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "coefficient {k}");
    }
    assert_eq!(got.indep().to_bits(), want.indep().to_bits(), "indep");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_greedy_matches_rescan_reference(
        seed in 0u64..1_000_000,
        n in 2usize..=64,
        var_count in 1usize..=8,
        shape in 0usize..4,
    ) {
        let slacks = operands(seed, n, var_count, SHAPES[shape]);
        let got = statistical_min(&slacks).unwrap();
        let want = max_correlation_first(&slacks).unwrap();
        assert_bitwise_equal(&got, &want);
    }

    #[test]
    fn large_sets_take_the_same_ascending_mean_fold(
        seed in 0u64..1_000_000,
        n in 65usize..=100,
        shape in 0usize..4,
    ) {
        let slacks = operands(seed, n, 4, SHAPES[shape]);
        let got = statistical_min(&slacks).unwrap();
        let want = max_correlation_first(&slacks).unwrap();
        assert_bitwise_equal(&got, &want);
        let mut by_mean: Vec<&CanonicalRv> = slacks.iter().collect();
        by_mean.sort_by(|a, b| a.mean().total_cmp(&b.mean()));
        let sorted = by_mean[1..]
            .iter()
            .fold(by_mean[0].clone(), |acc, s| acc.stat_min(s).0);
        assert_bitwise_equal(&got, &sorted);
    }
}

/// Every operand identical: every pair ties at correlation 1, so the first
/// pair of the scan wins every round on both sides.
#[test]
fn all_equal_operands_match() {
    let s = CanonicalRv::with_sensitivities(10.0, vec![0.5, -0.25, 1.0], 0.3);
    for n in [2, 3, 17, 64] {
        let slacks = vec![s.clone(); n];
        let got = statistical_min(&slacks).unwrap();
        let want = max_correlation_first(&slacks).unwrap();
        assert_eq!(got, want, "n = {n}");
    }
}

/// The reference keeps the production function's contract on edge inputs.
#[test]
fn reference_edge_inputs() {
    assert!(max_correlation_first(&[]).is_err());
    assert!(monte_carlo_min(&[], 10, 0).is_err());
    let one = gen::random_slacks(3, 1, 4);
    assert_eq!(max_correlation_first(&one).unwrap(), one[0]);
}
