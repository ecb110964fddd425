//! The rescan-every-round greedy statistical minimum.
//!
//! `terse_sta::statmin::statistical_min` keeps the pairwise
//! correlations in a matrix built once and updated per merge.
//! [`max_correlation_first`] keeps nothing: every round recomputes the
//! correlation of every remaining pair — O(n³) correlations — and merges
//! the first most correlated pair of the row-major scan. The two agree bit
//! for bit exactly when the incremental matrix holds the values the rescan
//! would compute and is scanned in the same order.
//!
//! [`monte_carlo_min`] samples the minimum directly, with no Clark
//! moment matching at all: the measure of the fold's approximation error.

use terse_sta::{CanonicalRv, StaError};

/// The greedy most-correlated-pair-first statistical min, naively: the same
/// contract as `terse_sta::statmin::statistical_min(slacks)`,
/// including the ascending-mean fold for more than 64 operands.
///
/// # Errors
///
/// Returns [`StaError::MalformedPath`] for an empty input.
pub fn max_correlation_first(slacks: &[CanonicalRv]) -> Result<CanonicalRv, StaError> {
    if slacks.is_empty() {
        return Err(StaError::MalformedPath {
            reason: "statistical min of an empty slack set",
        });
    }
    if slacks.len() > 64 {
        let mut sorted: Vec<&CanonicalRv> = slacks.iter().collect();
        sorted.sort_by(|a, b| a.mean().total_cmp(&b.mean()));
        let mut acc = sorted[0].clone();
        for s in &sorted[1..] {
            acc = acc.stat_min(s).0;
        }
        return Ok(acc);
    }
    let mut pool: Vec<CanonicalRv> = slacks.to_vec();
    while pool.len() > 1 {
        // Each round scans every pair: strict `>` keeps the first best `j`
        // of a row, and the fold over rows keeps the first best row.
        let (mut bi, mut bj, mut best) = (0usize, 1usize, f64::NEG_INFINITY);
        for i in 0..pool.len() - 1 {
            let (mut row_best, mut row_j) = (f64::NEG_INFINITY, i + 1);
            for j in i + 1..pool.len() {
                let c = pool[i].corr(&pool[j]);
                if c > row_best {
                    row_best = c;
                    row_j = j;
                }
            }
            if row_best > best {
                best = row_best;
                bi = i;
                bj = row_j;
            }
        }
        let b = pool.swap_remove(bj);
        let a = pool.swap_remove(bi);
        pool.push(a.stat_min(&b).0);
    }
    pool.pop().ok_or(StaError::MalformedPath {
        reason: "statistical min pool emptied",
    })
}

/// Monte Carlo reference for the minimum of canonical forms (shared draw per
/// scenario, independent residual per operand) — used by tests to measure
/// the fold's approximation error. Returns the sample mean and variance.
///
/// # Errors
///
/// Returns [`StaError::MalformedPath`] for an empty input.
pub fn monte_carlo_min(
    slacks: &[CanonicalRv],
    samples: usize,
    seed: u64,
) -> Result<(f64, f64), StaError> {
    if slacks.is_empty() {
        return Err(StaError::MalformedPath {
            reason: "monte carlo min of an empty slack set",
        });
    }
    let k = slacks[0].var_count();
    let mut rng = terse_stats::rng::Xoshiro256::seed_from_u64(seed);
    let mut sum = 0.0;
    let mut sum2 = 0.0;
    for _ in 0..samples {
        let draw: Vec<f64> = (0..k).map(|_| rng.next_gaussian()).collect();
        let m = slacks
            .iter()
            .map(|s| s.sample_at(&draw, rng.next_gaussian()))
            .fold(f64::INFINITY, f64::min);
        sum += m;
        sum2 += m * m;
    }
    let mean = sum / samples as f64;
    Ok((mean, sum2 / samples as f64 - mean * mean))
}
