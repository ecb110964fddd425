//! Shared activation-signature helpers.
//!
//! The stage-DTS memo cache in `terse_dta` keys its entries on cone-masked
//! toggle sets (`VCD(t) ∧ cone(s)`). The engine and the cache must agree on
//! what a "signature" is, so the definitions live here, next to
//! [`BitSet::fingerprint`] — the content hash they are built from.
//!
//! All helpers are pure functions of set *content*: insertion order, thread
//! count and platform do not affect them, which is what lets signatures
//! participate in bitwise-deterministic caches.

use crate::bitset::{mix, BitSet};

/// The full 64-bit signature of a toggle set — [`BitSet::fingerprint`] under
/// its public name.
pub fn toggle_signature(toggles: &BitSet) -> u64 {
    toggles.fingerprint()
}

/// The signature of `toggles ∧ cone` without materializing the intersection
/// — the quantity the DTS memo cache and the window fingerprints share: a
/// stage (or stage proxy) only observes the toggles inside its fan-in cone,
/// so two cycles that differ only outside the cone must signature equal.
///
/// # Panics
///
/// Panics if capacities differ.
pub fn masked_toggle_signature(toggles: &BitSet, cone: &BitSet) -> u64 {
    toggles.masked_fingerprint(cone)
}

/// Truncates a signature to `sig_mask` — the collision-pressure test hook
/// used by the DTS cache (`sig_mask == u64::MAX` in production).
pub fn truncated(sig: u64, sig_mask: u64) -> u64 {
    sig & sig_mask
}

/// Order-insensitively folds one per-cycle signature into a window-level
/// accumulator: windows are *multisets* of cycle signatures, and the
/// accumulator must not depend on how work was sharded, so the combination
/// is a commutative sum of mixed terms (the position argument `i` keeps a
/// window of `n` identical cycles distinct from one of `n` different cycles
/// that happen to collide additively).
pub fn combine(acc: u64, sig: u64) -> u64 {
    acc.wrapping_add(mix(sig))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(capacity: usize, bits: &[usize]) -> BitSet {
        let mut s = BitSet::new(capacity);
        for &b in bits {
            s.insert(b);
        }
        s
    }

    #[test]
    fn full_mask_is_identity() {
        let s = set_of(128, &[0, 3, 64, 127]);
        let full = {
            let mut m = BitSet::new(128);
            for i in 0..128 {
                m.insert(i);
            }
            m
        };
        assert_eq!(masked_toggle_signature(&s, &full), toggle_signature(&s));
        assert_eq!(
            truncated(toggle_signature(&s), u64::MAX),
            toggle_signature(&s)
        );
    }

    #[test]
    fn empty_cone_collapses_everything() {
        // An empty cone observes nothing: every toggle set signatures like
        // the empty set — the degenerate case a stage with no fan-in hits.
        let empty_cone = BitSet::new(128);
        let empty = BitSet::new(128);
        for bits in [&[0usize][..], &[5, 9], &[64], &[0, 127]] {
            let s = set_of(128, bits);
            assert_eq!(
                masked_toggle_signature(&s, &empty_cone),
                toggle_signature(&empty),
                "bits {bits:?}"
            );
        }
    }

    #[test]
    fn single_toggle_windows_are_distinct() {
        // Every 1-bit toggle set inside the cone gets its own signature —
        // the smallest non-trivial activations must not alias each other or
        // the quiet set.
        let cone = {
            let mut m = BitSet::new(128);
            for i in 0..128 {
                m.insert(i);
            }
            m
        };
        let mut seen = std::collections::HashSet::new();
        seen.insert(toggle_signature(&BitSet::new(128)));
        for i in 0..128 {
            let s = set_of(128, &[i]);
            assert!(
                seen.insert(masked_toggle_signature(&s, &cone)),
                "single-toggle signature collision at bit {i}"
            );
        }
    }

    #[test]
    fn masking_ignores_out_of_cone_toggles() {
        let cone = set_of(128, &[0, 1, 2, 3]);
        let a = set_of(128, &[1, 90]);
        let b = set_of(128, &[1, 64, 127]);
        let c = set_of(128, &[2]);
        assert_eq!(
            masked_toggle_signature(&a, &cone),
            masked_toggle_signature(&b, &cone)
        );
        assert_ne!(
            masked_toggle_signature(&a, &cone),
            masked_toggle_signature(&c, &cone)
        );
    }

    #[test]
    fn from_words_matches_insertion() {
        let mut by_insert = BitSet::new(100);
        for i in [0usize, 7, 63, 64, 99] {
            by_insert.insert(i);
        }
        let words = [1 | 1 << 7 | 1 << 63, 1 | 1 << 35];
        let by_words = BitSet::from_words(&words, 100);
        assert_eq!(by_insert, by_words);
        assert_eq!(toggle_signature(&by_insert), toggle_signature(&by_words));
        // Bits past the capacity are cleared, not kept as hidden state.
        let ragged = BitSet::from_words(&[u64::MAX, u64::MAX], 70);
        assert_eq!(ragged.count(), 70);
    }

    #[test]
    fn combine_is_order_insensitive() {
        let sigs = [3u64, 99, 3, 0xDEAD];
        let fwd = sigs.iter().fold(0u64, |a, &s| combine(a, s));
        let rev = sigs.iter().rev().fold(0u64, |a, &s| combine(a, s));
        assert_eq!(fwd, rev);
        // ... but multiplicity matters.
        let twice = combine(combine(0, 3), 3);
        let once = combine(0, 3);
        assert_ne!(twice, once);
    }
}
