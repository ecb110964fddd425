//! The paper's approximation bounds against the exact error-count law.
//!
//! `terse_stats::stein` computes the Chen–Stein (Theorem 5.1) and Stein
//! (Theorem 5.2) bounds; `oracle::exact` computes the exact
//! Poisson-binomial law they approximate. On independent indicators each
//! bound must dominate the measured distance.

use oracle::exact::{kolmogorov_distance_fns, PoissonBinomial};
use proptest::prelude::*;
use terse_stats::stein::{chen_stein_bound, stein_normal_bound, CentralMoments};
use terse_stats::{Normal, Poisson};

fn prob_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..=1.0, 1..max_len)
}

#[test]
fn chen_stein_validates_poisson_approx_on_independent_case() {
    // Ground truth: exact Poisson binomial vs Poisson; the bound must
    // dominate the true distance.
    let probs = vec![0.02_f64; 300];
    let exact = PoissonBinomial::new(probs.clone()).unwrap();
    let bound = chen_stein_bound(&probs, |a| vec![a], |_, _| 0.0).unwrap();
    let true_tv = exact.tv_distance_to_poisson();
    assert!(
        true_tv <= bound.tv_bound + 1e-12,
        "true {true_tv} bound {}",
        bound.tv_bound
    );
    // And the bound is not trivial (b1 = Σp² = 0.12, λ = 6 → 0.02).
    assert!(bound.tv_bound <= 0.02 + 1e-12);
}

#[test]
fn chen_stein_kolmogorov_dominates_true_dk() {
    let probs = vec![0.01_f64; 500];
    let exact = PoissonBinomial::new(probs.clone()).unwrap();
    let lambda: f64 = probs.iter().sum();
    let poi = Poisson::new(lambda).unwrap();
    let dk = kolmogorov_distance_fns(0..30, |k| exact.cdf(k as u64), |k| poi.cdf(k as f64));
    let bound = chen_stein_bound(&probs, |a| vec![a], |_, _| 0.0).unwrap();
    assert!(dk <= bound.tv_bound, "dk={dk} bound={}", bound.tv_bound);
}

#[test]
fn stein_bound_dominates_true_error_iid_bernoulli_sum() {
    // W = Σ of n iid Bernoulli(p), standardized; compare the bound with
    // the true Kolmogorov distance to the fitted normal.
    let n = 2000usize;
    let p = 0.3f64;
    let probs = vec![p; n];
    let exact = PoissonBinomial::new(probs).unwrap();
    let mu = exact.mean();
    let sigma = exact.variance().sqrt();
    let norm = Normal::new(mu, sigma).unwrap();
    // True d_K over the integer lattice (+½ continuity probe).
    let mut dk = 0.0f64;
    for k in 0..=n as u64 {
        dk = dk.max((exact.cdf(k) - norm.cdf(k as f64 + 0.5)).abs());
        dk = dk.max((exact.cdf(k) - norm.cdf(k as f64)).abs());
    }
    let var = p * (1.0 - p);
    let m = CentralMoments {
        var,
        // E|X−p|³ for Bernoulli: p(1−p)[(1−p)²+p²] is E[(X−p)^4]? No:
        // |0−p|³(1−p) + |1−p|³ p = p³(1−p) + (1−p)³ p.
        abs3: p.powi(3) * (1.0 - p) + (1.0 - p).powi(3) * p,
        m4: p.powi(4) * (1.0 - p) + (1.0 - p).powi(4) * p,
    };
    let bound = stein_normal_bound(&vec![m; n], sigma, 1).unwrap();
    assert!(
        dk <= bound.kolmogorov + 1e-12,
        "true dk {dk} vs bound {}",
        bound.kolmogorov
    );
    // Bound should shrink like n^{-1/4}-ish but at least be < 0.3 here.
    assert!(bound.kolmogorov < 0.3, "bound = {}", bound.kolmogorov);
}

proptest! {
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
}
