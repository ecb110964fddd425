//! Property-based tests for the statistical substrate.

use proptest::prelude::*;
use terse_stats::metrics::{kolmogorov_distance_discrete, tv_distance_discrete};
use terse_stats::rng::{bernoulli_threshold, std_normal_cdf_threshold};
use terse_stats::special::{reg_gamma_p, reg_gamma_q, std_normal_cdf};
use terse_stats::{DiscreteRv, Matrix, Normal, Poisson, PoissonBinomial, SampleRv};

fn prob_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..=1.0, 1..max_len)
}

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
    fn pbd_mean_equals_sum(ps in prob_vec(40)) {
        let d = PoissonBinomial::new(ps.clone()).unwrap();
        let want: f64 = ps.iter().sum();
        prop_assert!((d.mean() - want).abs() < 1e-9);
        // pmf sums to one.
        let total: f64 = d.pmf_vec().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pbd_le_cam_bound(ps in prop::collection::vec(0.0f64..=0.2, 1..60)) {
        // Le Cam's theorem: d_TV(PBD, Poisson(Σp)) ≤ Σ p².
        let d = PoissonBinomial::new(ps.clone()).unwrap();
        let lecam: f64 = ps.iter().map(|p| p * p).sum();
        prop_assert!(d.tv_distance_to_poisson() <= lecam + 1e-9);
    }

    #[test]
    fn discrete_rv_moments_consistent(xs in prop::collection::vec(-10.0f64..10.0, 1..30)) {
        let d = DiscreteRv::from_samples(&xs).unwrap();
        // Var = E[X²] − E[X]².
        let var_via_raw = d.raw_moment(2) - d.mean() * d.mean();
        prop_assert!((d.variance() - var_via_raw).abs() < 1e-9);
        // |E[(X−μ)³]| ≤ E[|X−μ|³].
        prop_assert!(d.central_moment(3).abs() <= d.abs_central_moment(3) + 1e-12);
    }

    #[test]
    fn discrete_cdf_monotone(xs in prop::collection::vec(-5.0f64..5.0, 1..20), probe in -6.0f64..6.0) {
        let d = DiscreteRv::from_samples(&xs).unwrap();
        prop_assert!(d.cdf(probe) <= d.cdf(probe + 0.5) + 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d.cdf(probe)));
    }

    #[test]
    fn metric_properties(
        xs in prop::collection::vec(0.0f64..4.0, 1..10),
        ys in prop::collection::vec(0.0f64..4.0, 1..10),
    ) {
        let a = DiscreteRv::from_samples(&xs).unwrap();
        let b = DiscreteRv::from_samples(&ys).unwrap();
        let dk = kolmogorov_distance_discrete(&a, &b);
        let tv = tv_distance_discrete(&a, &b);
        // Symmetry, identity, domination d_K ≤ d_TV, range.
        prop_assert!((dk - kolmogorov_distance_discrete(&b, &a)).abs() < 1e-12);
        prop_assert!(kolmogorov_distance_discrete(&a, &a) == 0.0);
        prop_assert!(dk <= tv + 1e-9);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&tv));
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
