//! Greedy pairwise statistical minimum over a set of slack RVs.
//!
//! Algorithm 1's last line returns "the statistical minimum of timing slacks
//! of all paths in AP using a greedy algorithm [Sinha et al., 21] that
//! performs a sequence of pairwise minimum operations in an order that would
//! minimize the approximation error". Clark's pairwise min is exact for
//! jointly Gaussian pairs only in its first two moments, and the error of a
//! *sequence* of mins depends on the order — Sinha et al. showed that
//! merging highly correlated (or clearly ordered) operands first reduces the
//! accumulated moment-matching error. [`statistical_min`] is that one fold:
//! most-correlated pair first, with an ascending-mean fold for large sets.

use crate::canonical::CanonicalRv;
use crate::{Result, StaError};

/// Statistical minimum of a non-empty set of canonical slacks: merge the
/// most correlated pair first (greedy, O(n²) correlations over an
/// incrementally maintained matrix) for up to 64 operands; above that, sort
/// by ascending mean and fold (quadratic pair scans would dominate the
/// whole analysis).
///
/// # Errors
///
/// Returns [`StaError::MalformedPath`] for an empty input.
///
/// # Example
/// ```
/// use terse_sta::CanonicalRv;
/// use terse_sta::statmin::statistical_min;
///
/// # fn main() -> Result<(), terse_sta::StaError> {
/// let slacks = vec![
///     CanonicalRv::with_sensitivities(10.0, vec![1.0], 0.2),
///     CanonicalRv::with_sensitivities(12.0, vec![0.8], 0.3),
///     CanonicalRv::with_sensitivities(9.5, vec![1.1], 0.1),
/// ];
/// let min = statistical_min(&slacks)?;
/// // The min's mean is below every operand's mean.
/// assert!(min.mean() <= 9.5);
/// # Ok(())
/// # }
/// ```
pub fn statistical_min(slacks: &[CanonicalRv]) -> Result<CanonicalRv> {
    failpoints::fail_point!("sta::statmin", |_| Err(StaError::MalformedPath {
        reason: "injected statistical-min fault",
    }));
    if slacks.is_empty() {
        return Err(StaError::MalformedPath {
            reason: "statistical min of an empty slack set",
        });
    }
    if slacks.len() == 1 {
        return Ok(slacks[0].clone());
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
    greedy_max_correlation(slacks)
}

/// The greedy most-correlated-pair-first fold over `2 ≤ n ≤ 64` operands,
/// in O(n²) correlations instead of O(n³).
///
/// The pairwise correlations live in an `n × n` matrix built once (upper
/// triangle, mirrored: `corr` is bitwise symmetric — IEEE `*` commutes and
/// the dot product's summation order is fixed). A merge computes only the
/// merged operand's row, and every `swap_remove` on the pool is mirrored
/// on the matrix, so row `i` always describes `pool[i]`. The scan is the
/// serial double loop of the naive algorithm — strict `>` within a row,
/// then a fold over rows in ascending order — so it picks exactly the pair
/// the O(n³) rescan would, ties and NaNs included.
fn greedy_max_correlation(slacks: &[CanonicalRv]) -> Result<CanonicalRv> {
    let n = slacks.len();
    let mut pool: Vec<CanonicalRv> = slacks.to_vec();
    let mut corr = vec![0.0f64; n * n];
    for i in 0..n {
        for j in i + 1..n {
            let c = pool[i].corr(&pool[j]);
            corr[i * n + j] = c;
            corr[j * n + i] = c;
        }
    }
    // Moves row and column `from` onto `to` — the matrix image of
    // `pool.swap_remove(to)` when `from` is the pool's last index.
    let relocate = |corr: &mut [f64], from: usize, to: usize| {
        for k in 0..from {
            let c = corr[from * n + k];
            corr[to * n + k] = c;
            corr[k * n + to] = c;
        }
    };
    while pool.len() > 1 {
        let len = pool.len();
        let (mut bi, mut bj, mut best) = (0usize, 1usize, f64::NEG_INFINITY);
        for i in 0..len - 1 {
            let (mut row_best, mut row_j) = (f64::NEG_INFINITY, i + 1);
            for j in i + 1..len {
                let c = corr[i * n + j];
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
        // `bi < bj`, so the first removal leaves `pool[bi]` in place.
        let b = pool.swap_remove(bj);
        relocate(&mut corr, len - 1, bj);
        let a = pool.swap_remove(bi);
        relocate(&mut corr, len - 2, bi);
        let merged = a.stat_min(&b).0;
        let m = pool.len();
        for k in 0..m {
            let c = pool[k].corr(&merged);
            corr[k * n + m] = c;
            corr[m * n + k] = c;
        }
        pool.push(merged);
    }
    // The loop above maintains `pool.len() ≥ 1` (each round removes two
    // and pushes one, and only runs while len > 1).
    pool.pop().ok_or(StaError::MalformedPath {
        reason: "statistical min pool emptied",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slack_set() -> Vec<CanonicalRv> {
        vec![
            CanonicalRv::with_sensitivities(10.0, vec![1.0, 0.3], 0.4),
            CanonicalRv::with_sensitivities(10.5, vec![0.9, 0.4], 0.5),
            CanonicalRv::with_sensitivities(11.0, vec![0.1, 1.2], 0.3),
            CanonicalRv::with_sensitivities(12.0, vec![0.2, 1.0], 0.6),
            CanonicalRv::with_sensitivities(10.2, vec![1.1, 0.2], 0.2),
        ]
    }

    #[test]
    fn min_below_every_operand_mean() {
        let slacks = slack_set();
        let m = statistical_min(&slacks).unwrap();
        for s in &slacks {
            assert!(m.mean() <= s.mean() + 1e-9);
        }
    }

    #[test]
    fn single_operand_is_identity() {
        let s = slack_set();
        let m = statistical_min(&s[..1]).unwrap();
        assert_eq!(&m, &s[0]);
    }

    #[test]
    fn empty_set_rejected() {
        assert!(statistical_min(&[]).is_err());
    }

    #[test]
    fn large_set_falls_back_gracefully() {
        let slacks: Vec<CanonicalRv> = (0..100)
            .map(|i| CanonicalRv::with_sensitivities(10.0 + i as f64 * 0.01, vec![1.0, 0.5], 0.2))
            .collect();
        let m = statistical_min(&slacks).unwrap();
        assert!(m.mean() <= 10.0 + 1e-9);
        assert!(m.sd() > 0.0);
    }
}
