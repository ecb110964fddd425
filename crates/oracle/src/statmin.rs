//! The rescan-every-round greedy statistical minimum.
//!
//! `terse_sta::statmin::statistical_min` keeps the pairwise
//! correlations in a matrix built once and updated per merge.
//! [`max_correlation_first`] keeps nothing: every round recomputes the
//! correlation of every remaining pair — O(n³) correlations — and merges
//! the first most correlated pair of the row-major scan. The two agree bit
//! for bit exactly when the incremental matrix holds the values the rescan
//! would compute and is scanned in the same order.

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
