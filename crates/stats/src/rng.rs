//! Deterministic pseudo-random number generation.
//!
//! Every experiment in the repository must be exactly reproducible, so the
//! workspace uses a small, fully specified generator (xoshiro256** seeded via
//! SplitMix64) rather than an OS entropy source. The API is deliberately
//! minimal: uniforms, ranges and Gaussians.

use crate::special::std_normal_cdf;

/// SplitMix64 step — used to expand a single `u64` seed into a full
/// xoshiro256** state, as recommended by the xoshiro authors.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The xoshiro256** generator: fast, 256-bit state, passes BigCrush.
///
/// # Example
/// ```
/// use terse_stats::rng::Xoshiro256;
/// let mut a = Xoshiro256::seed_from_u64(42);
/// let mut b = Xoshiro256::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Xoshiro256 {
    s: [u64; 4],
    /// Cached second Gaussian from the Box–Muller pair.
    gauss_spare: Option<f64>,
}

impl Xoshiro256 {
    /// Seeds the generator deterministically from a single `u64`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256 {
            s,
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in the open interval `(0, 1)` — safe for inverse-CDF sampling.
    pub fn next_open01(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Unbiased via rejection.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let m = (r as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range");
        lo + (hi - lo) * self.next_f64()
    }

    /// A standard Gaussian variate (Box–Muller with caching).
    pub fn next_gaussian(&mut self) -> f64 {
        if let Some(g) = self.gauss_spare.take() {
            return g;
        }
        let u1 = self.next_open01();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Counter-based stream derivation: an independent generator for
    /// sub-stream `stream` of master seed `seed`.
    ///
    /// The result depends only on `(seed, stream)` — not on how many draws
    /// any other stream has made —
    /// which is what makes parallel fan-out deterministic: worker `(i, j)`
    /// seeds `seed_stream(seed, encode(i, j))` and gets the same variates no
    /// matter how many threads run or in which order cells are scheduled.
    /// The stream index is whitened through SplitMix64 before being mixed
    /// into the master seed, so numerically adjacent streams are
    /// uncorrelated.
    pub fn seed_stream(seed: u64, stream: u64) -> Xoshiro256 {
        let mut sm = stream;
        let h = splitmix64(&mut sm);
        Xoshiro256::seed_from_u64(seed ^ h)
    }
}

/// The integer form of the Bernoulli draw `next_f64() < p`: with
/// `T = bernoulli_threshold(p)`, `next_u64() >> 11 < T` holds for exactly
/// the outputs for which `next_f64() < p` does.
///
/// `T = ⌈p · 2^53⌉`, clamped to `[0, 2^53]`. Why this is exact: for
/// `u = next_u64() >> 11 < 2^53`, `next_f64()` is `u · 2^-53`, and both
/// the conversion of `u` and the scaling are exact, so the draw compares
/// the real numbers `u · 2^-53 < p`, that is `u < p · 2^53`. Scaling `p` by
/// `2^53` is exact too (a power-of-two scale of a finite `p ≤ 1` neither
/// overflows nor rounds, subnormals included), and for an integer `u`,
/// `u < q ⇔ u < ⌈q⌉`. The edges agree as well: `p ≤ 0` (`−0.0` included)
/// gives 0, as nothing is below it; `p ≥ 1` gives `2^53`, as every `u`
/// is; and NaN gives 0, matching `x < NaN` being false.
pub fn bernoulli_threshold(p: f64) -> u64 {
    const ALL: u64 = 1 << 53;
    let q = (p * ALL as f64).ceil();
    if q >= ALL as f64 {
        ALL
    } else {
        // A saturating cast: NaN and negatives become 0.
        q as u64
    }
}

/// `bernoulli_threshold(std_normal_cdf(x))` for every `f64` `x`, without
/// the `erfc` wherever the Normal tail alone fixes the threshold.
///
/// [`std_normal_cdf`] returns `p = 0.5 · erfc(w)` with `w = −x · (1/√2)`,
/// and `w` below is that same `f64` product. Finite `w` in three bands gets
/// a constant; everything else (`−6 < w < 6`, `27 < w < 27.5`, NaN, ±∞)
/// takes the exact path.
///
/// The proofs read [`crate::special::erfc`]'s branch for arguments
/// `z ≥ 0.5`: `erfc(z) = t · exp(A)` with `t = 2/(2 + z)` and
/// `A = −z·z + C`, where `C = ½c₀ + Σₖ cₖ·Tₖ(y)` is a Chebyshev series in
/// `y = 2t − 1`. For `z ≥ 6`, `y ∈ [−1, −½]`; there the first three
/// terms lie in `[−1.2739, −0.9820]` and the other 25 have `Σ|cₖ| < 0.011`,
/// so `−1.285 ≤ C ≤ −0.971`. Its 27 Clenshaw steps round by less than
/// `10^-14`, which no margin below comes near. Rounding is monotone, so
/// `z ≥ 6` gives `t ≤ ¼` and `z·z ≥ 36`, and likewise at the other edges.
///
/// - `w ≥ 27.5` gives 0. Here `A ≤ −756.25 − 0.971 < −757`, more than 11
///   below `ln 2^-1075 = −745.13`. So `exp(A)` is below half the smallest
///   subnormal and underflows to 0. Then `erfc(w) = t · 0 = 0`, `p = 0`
///   and the threshold is 0.
/// - `6 ≤ w ≤ 27` gives 1, because `0 < p ≤ 2^-53`:
///   - From above, `erfc(w) ≤ ¼ · e^(−36 − 0.971) < 2.2·10^-17`. So
///     `p < 1.1·10^-17`, a tenth of `2^-53`.
///   - From below, `t ≥ 2/29` and `A ≥ −729 − 1.285`. So
///     `p ≥ ½ · (2/29) · e^(−730.285) > 2.3·10^-319`. That is more than
///     40,000 times the smallest subnormal, so no rounding step reaches 0.
///
///   The scaling `p · 2^53` is exact, subnormal `p` included. It lies in
///   `(0, 1]`, so its ceiling is 1.
/// - `w ≤ −6` gives `2^53`. [`crate::special::erfc`] returns
///   `2 − erfc(−w)` there, and `erfc(−w) < 2.2·10^-17` by the bound above.
///   That is below `2^-53`, half the spacing of the doubles just under 2,
///   so the difference rounds to 2. Then `p = 1`.
///
/// A band edge may move only with a new proof. `rng::tests` checks the
/// edges, their neighbours and a dense sweep against the exact path.
pub fn std_normal_cdf_threshold(x: f64) -> u64 {
    let w = -x * std::f64::consts::FRAC_1_SQRT_2;
    if w.is_finite() {
        if w >= 27.5 {
            return 0;
        } else if (6.0..=27.0).contains(&w) {
            return 1;
        } else if w <= -6.0 {
            return 1 << 53;
        }
    }
    bernoulli_threshold(std_normal_cdf(x))
}

/// [`Xoshiro256x64::LANES`] xoshiro256** generators stepped together, their
/// states kept in structure-of-arrays form so one step over every lane is a
/// straight-line loop the compiler can vectorise.
///
/// Lane `l` yields exactly the `next_u64` sequence of the generator it was
/// built from.
#[derive(Debug, Clone, PartialEq)]
pub struct Xoshiro256x64 {
    s: [[u64; Xoshiro256x64::LANES]; 4],
}

impl Xoshiro256x64 {
    /// Lanes per generator.
    pub const LANES: usize = 64;

    /// Lane `l` continues the stream of `lane(l)`. A `None` lane is parked at
    /// the all-zero state, which xoshiro256** never leaves: it outputs 0
    /// forever and costs no seeding.
    pub fn from_lanes(mut lane: impl FnMut(usize) -> Option<Xoshiro256>) -> Self {
        let mut s = [[0u64; Self::LANES]; 4];
        for l in 0..Self::LANES {
            if let Some(g) = lane(l) {
                for (word, v) in s.iter_mut().zip(g.s) {
                    word[l] = v;
                }
            }
        }
        Xoshiro256x64 { s }
    }

    /// Advances every lane once and hands lane `l`'s output to `f(l, u)`, in
    /// lane order. With `f` inlined, the step and the caller's use of the
    /// outputs are one straight-line loop over the lanes. Always inlined,
    /// so a caller compiled with wider target features steps the lanes at
    /// that width.
    #[inline(always)]
    pub fn step(&mut self, mut f: impl FnMut(usize, u64)) {
        let [s0, s1, s2, s3] = &mut self.s;
        for l in 0..Self::LANES {
            f(l, s1[l].wrapping_mul(5).rotate_left(7).wrapping_mul(9));
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256::seed_from_u64(7);
        let mut b = Xoshiro256::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Xoshiro256::seed_from_u64(99);
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        let mut mean = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
            min = min.min(u);
            max = max.max(u);
            mean += u;
        }
        mean /= n as f64;
        assert!((mean - 0.5).abs() < 0.01);
        assert!(min < 0.001 && max > 0.999);
    }

    #[test]
    fn next_below_unbiased_small_bound() {
        let mut r = Xoshiro256::seed_from_u64(3);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[r.next_below(5) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.2).abs() < 0.01, "frac = {frac}");
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Xoshiro256::seed_from_u64(11);
        let n = 200_000;
        let (mut m1, mut m2) = (0.0, 0.0);
        for _ in 0..n {
            let g = r.next_gaussian();
            m1 += g;
            m2 += g * g;
        }
        m1 /= n as f64;
        m2 /= n as f64;
        assert!(m1.abs() < 0.01, "mean = {m1}");
        assert!((m2 - 1.0).abs() < 0.02, "var = {m2}");
    }

    #[test]
    fn seed_stream_depends_only_on_seed_and_stream() {
        let mut a = Xoshiro256::seed_stream(42, 7);
        let mut b = Xoshiro256::seed_stream(42, 7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seed_stream(42, 8);
        let mut d = Xoshiro256::seed_stream(43, 7);
        let mut a = Xoshiro256::seed_stream(42, 7);
        let same_c = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        let mut a = Xoshiro256::seed_stream(42, 7);
        let same_d = (0..64).filter(|_| a.next_u64() == d.next_u64()).count();
        assert_eq!(same_c + same_d, 0);
    }

    /// `u < bernoulli_threshold(p)` ⇔ `u · 2^-53 < p`, the comparison
    /// `next_f64() < p` makes, for `u` on both sides of every boundary.
    #[test]
    fn bernoulli_threshold_matches_the_f64_draw() {
        const ALL: u64 = 1 << 53;
        let ps = [
            0.0,
            -0.0,
            f64::from_bits(1), // the smallest subnormal
            1.0 / ALL as f64,
            0.5,
            1.0 - 1.0 / ALL as f64,
            1.0,
            f64::NAN,
            -1.0,
            2.0,
            f64::INFINITY,
            0.1,
            1e-300,
        ];
        let as_f64 = |u: u64| u as f64 * (1.0 / ALL as f64);
        for p in ps {
            let t = bernoulli_threshold(p);
            assert!(t <= ALL, "p = {p:e}: T = {t}");
            let around_t = (t.saturating_sub(2)..=t + 2).filter(|&u| u < ALL);
            for u in around_t.chain([0, 1, ALL / 2 - 1, ALL / 2, ALL / 2 + 1, ALL - 1]) {
                assert_eq!(u < t, as_f64(u) < p, "p = {p:e}, u = {u}, T = {t}");
            }
        }
        assert_eq!(bernoulli_threshold(f64::NAN), 0);
        assert_eq!(bernoulli_threshold(-0.0), 0);
        assert_eq!(bernoulli_threshold(f64::from_bits(1)), 1);
        assert_eq!(bernoulli_threshold(0.5), ALL / 2);
        assert_eq!(bernoulli_threshold(1.0), ALL);
        // On random draws and random probabilities the two forms agree too.
        let mut r = Xoshiro256::seed_from_u64(0x7E57);
        for _ in 0..100_000 {
            let p = r.next_f64();
            let mut a = r.clone();
            let t = bernoulli_threshold(p);
            assert_eq!(a.next_u64() >> 11 < t, r.next_f64() < p);
        }
    }

    /// `std_normal_cdf_threshold(x)` against the exact path it stands in
    /// for.
    fn check_normal_cdf_threshold(x: f64) {
        assert_eq!(
            std_normal_cdf_threshold(x),
            bernoulli_threshold(std_normal_cdf(x)),
            "x = {x:e} ({:#018x})",
            x.to_bits()
        );
    }

    /// The `w = −x/√2` that `std_normal_cdf` hands to `erfc`.
    fn erfc_arg(x: f64) -> f64 {
        -x * std::f64::consts::FRAC_1_SQRT_2
    }

    /// At each band edge, every `x` whose `w` lies within a few ulps of
    /// the edge: `x ↦ w` is monotone, so a window of `x` whose `w` runs
    /// past both neighbours of the edge holds all of them.
    #[test]
    fn normal_cdf_threshold_is_exact_at_the_band_edges() {
        for edge in [-6.0f64, 6.0, 27.0, 27.5] {
            let mut x = -edge * std::f64::consts::SQRT_2;
            for _ in 0..16 {
                x = x.next_down();
            }
            let (mut w_min, mut w_max) = (f64::INFINITY, f64::NEG_INFINITY);
            for _ in 0..=32 {
                check_normal_cdf_threshold(x);
                w_min = w_min.min(erfc_arg(x));
                w_max = w_max.max(erfc_arg(x));
                x = x.next_up();
            }
            assert!(
                w_min < edge.next_down() && w_max > edge.next_up(),
                "edge {edge}: w in [{w_min}, {w_max}]"
            );
        }
    }

    /// Signed zeros, infinities, NaN, subnormals and the extremes.
    #[test]
    fn normal_cdf_threshold_is_exact_at_special_values() {
        let specials = [
            0.0,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1.0,
            f64::MAX,
        ];
        for x in specials {
            check_normal_cdf_threshold(x);
            check_normal_cdf_threshold(-x);
        }
        assert_eq!(std_normal_cdf_threshold(f64::NEG_INFINITY), 0);
        assert_eq!(std_normal_cdf_threshold(f64::INFINITY), 1 << 53);
        assert_eq!(std_normal_cdf_threshold(f64::NAN), 0);
        assert_eq!(std_normal_cdf_threshold(-0.0), 1 << 52);
    }

    /// 10^7 + 1 evenly spaced `w` over `[−40, 40]`, which crosses every
    /// band and every gap between them.
    #[test]
    fn normal_cdf_threshold_is_exact_on_a_dense_sweep() {
        const N: u32 = 10_000_000;
        let mut bands = [0usize; 3];
        for i in 0..=N {
            let w = -40.0 + 80.0 * f64::from(i) / f64::from(N);
            let x = -w * std::f64::consts::SQRT_2;
            check_normal_cdf_threshold(x);
            match std_normal_cdf_threshold(x) {
                0 => bands[0] += 1,
                1 => bands[1] += 1,
                t if t == 1 << 53 => bands[2] += 1,
                _ => {}
            }
        }
        assert!(bands.iter().all(|&n| n > N as usize / 10), "{bands:?}");
    }

    #[test]
    fn lanes_reproduce_their_scalar_generators() {
        let scalar = |l: usize| Xoshiro256::seed_stream(9, l as u64);
        let mut lanes = Xoshiro256x64::from_lanes(|l| (l % 3 != 1).then(|| scalar(l)));
        let mut refs: Vec<Xoshiro256> = (0..Xoshiro256x64::LANES).map(scalar).collect();
        for _ in 0..200 {
            let mut seen = 0;
            lanes.step(|l, got| {
                let want = if l % 3 == 1 { 0 } else { refs[l].next_u64() };
                assert_eq!((l, got), (seen, want), "lane {l}");
                seen += 1;
            });
            assert_eq!(seen, Xoshiro256x64::LANES);
        }
    }
}
