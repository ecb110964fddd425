//! Property-based tests for the statistical substrate.

use proptest::prelude::*;
use terse_stats::rng::{bernoulli_threshold, std_normal_cdf_threshold};
use terse_stats::special::{reg_gamma_p, reg_gamma_q, std_normal_cdf};
use terse_stats::{Matrix, Normal, Poisson, SampleRv};

proptest! {
    #[test]
    fn normal_cdf_monotone(a in -30.0f64..30.0, b in -30.0f64..30.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(std_normal_cdf(lo) <= std_normal_cdf(hi) + 1e-15);
    }

    #[test]
    fn normal_cdf_threshold_is_the_exact_path(x in -60.0f64..60.0, bits in any::<u64>()) {
        for x in [x, f64::from_bits(bits)] {
            prop_assert_eq!(std_normal_cdf_threshold(x), bernoulli_threshold(std_normal_cdf(x)));
        }
    }

    #[test]
    fn normal_quantile_roundtrip(p in 1e-9f64..=0.999_999_999) {
        let n = Normal::new(3.0, 2.0).unwrap();
        let x = n.quantile(p).unwrap();
        prop_assert!((n.cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn incomplete_gamma_complement(a in 0.1f64..500.0, x in 0.0f64..1000.0) {
        let p = reg_gamma_p(a, x).unwrap();
        let q = reg_gamma_q(a, x).unwrap();
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((p + q - 1.0).abs() < 1e-10);
    }

    #[test]
    fn incomplete_gamma_monotone_in_x(a in 0.1f64..100.0, x in 0.0f64..200.0, dx in 0.0f64..10.0) {
        let p1 = reg_gamma_p(a, x).unwrap();
        let p2 = reg_gamma_p(a, x + dx).unwrap();
        prop_assert!(p2 >= p1 - 1e-12);
    }

    #[test]
    fn poisson_cdf_monotone(lambda in 0.0f64..1e4, k in 0u64..20_000) {
        let p = Poisson::new(lambda).unwrap();
        prop_assert!(p.cdf(k as f64) <= p.cdf(k as f64 + 1.0) + 1e-12);
    }

    #[test]
    fn sample_rv_linearity(
        xs in prop::collection::vec(-100.0f64..100.0, 2..40),
        a in -5.0f64..5.0,
        b in -5.0f64..5.0,
    ) {
        let x = SampleRv::new(xs).unwrap();
        let y = &(&x * a) + b;
        prop_assert!((y.mean() - (a * x.mean() + b)).abs() < 1e-7);
        prop_assert!((y.variance() - a * a * x.variance()).abs() < 1e-6 * (1.0 + x.variance()));
    }

    #[test]
    fn lu_solves_diagonally_dominant(seed in 0u64..5000, n in 1usize..12) {
        let mut rng = terse_stats::rng::Xoshiro256::seed_from_u64(seed);
        let mut m = Matrix::zeros(n, n).unwrap();
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = rng.next_range(-1.0, 1.0);
            }
            m[(i, i)] += 2.0 * n as f64;
        }
        let b: Vec<f64> = (0..n).map(|_| rng.next_range(-5.0, 5.0)).collect();
        let x = m.solve(&b).unwrap();
        let ax = m.mul_vec(&x).unwrap();
        for (axi, bi) in ax.iter().zip(&b) {
            prop_assert!((axi - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn mixture_cdf_in_unit_interval(mu in 0.5f64..500.0, sd_frac in 0.0f64..0.5, k in 0.0f64..1000.0) {
        let mix = terse_stats::PoissonNormalMixture::new(
            Normal::new(mu, mu * sd_frac).unwrap(),
        ).unwrap();
        let c = mix.cdf(k).unwrap();
        prop_assert!((0.0..=1.0).contains(&c));
    }
}
