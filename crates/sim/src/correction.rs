//! Error detection/correction schemes and their dynamic effects.
//!
//! Section 4.1 of the paper: when a timing error is detected, the processor
//! corrects it (replay, flush, or bubbles; only replay, the scheme the
//! paper evaluates, is modelled here), and the *next* instruction then
//! transitions the datapath from the corrected state instead of from the
//! errant instruction's state — which activates different timing paths and
//! makes the post-error conditional probability `p^e` differ from `p^c`.
//! The paper emulates this by instrumenting a `nop` before each instruction;
//! we emulate it by extracting features against the flushed bus state
//! ([`crate::features::BusState::flushed`]).

use crate::features::BusState;

/// An error-correction mechanism of a timing-speculative processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionScheme {
    /// Instruction replay at half frequency (the paper's evaluation scheme,
    /// after the 45 nm resilient Intel core \[4]): on error the frequency is
    /// halved, the pipeline flushed, and the errant instruction reissued —
    /// a 24-cycle penalty for the 6-stage pipeline.
    ReplayAtHalfFrequency {
        /// Total penalty cycles per error (24 in the paper's setup).
        penalty: u32,
    },
}

impl CorrectionScheme {
    /// The paper's evaluation configuration: replay at half frequency with
    /// a 24-cycle penalty on a 6-stage pipeline.
    pub fn paper_default() -> Self {
        CorrectionScheme::ReplayAtHalfFrequency { penalty: 24 }
    }

    /// Penalty cycles paid per timing error.
    pub fn penalty_cycles(&self) -> u32 {
        match *self {
            CorrectionScheme::ReplayAtHalfFrequency { penalty } => penalty,
        }
    }

    /// The datapath bus state the correction mechanism leaves behind: the
    /// operand buses parked at the `nop` values (zeros) before the
    /// replayed instruction issues.
    pub fn post_error_bus_state(&self) -> BusState {
        BusState::flushed()
    }
}

impl Default for CorrectionScheme {
    fn default() -> Self {
        CorrectionScheme::paper_default()
    }
}

impl std::fmt::Display for CorrectionScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CorrectionScheme::ReplayAtHalfFrequency { penalty } => {
                write!(f, "replay-at-half-frequency ({penalty} cycles)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let s = CorrectionScheme::paper_default();
        assert_eq!(s.penalty_cycles(), 24);
        assert_eq!(s, CorrectionScheme::default());
    }

    #[test]
    fn post_error_state_is_flushed() {
        let s = CorrectionScheme::paper_default();
        assert_eq!(s.post_error_bus_state(), BusState::flushed());
    }

    #[test]
    fn display_nonempty() {
        assert!(!CorrectionScheme::paper_default().to_string().is_empty());
    }

    /// The scheme reports exactly its configured penalty — the accounting
    /// `TsPerformanceModel` builds on (`1 + penalty · rate` cycles per
    /// instruction).
    #[test]
    fn penalty_accounting_per_scheme() {
        let s = CorrectionScheme::ReplayAtHalfFrequency { penalty: 24 };
        let per_error = s.penalty_cycles() as u64;
        // Accounting over a synthetic run: `n` instructions, `e` errors,
        // one issue cycle each plus the correction penalty per error.
        for (n, e) in [(100u64, 0u64), (100, 7), (1, 1), (1_000_000, 999)] {
            let total = n + e * per_error;
            assert_eq!(total, n + e * 24, "{s}");
            assert!(total >= n, "{s}: penalties cannot reduce cycles");
        }
    }

    /// A degenerate zero-penalty configuration is representable (an ideal
    /// correction mechanism) and costs nothing per error.
    #[test]
    fn zero_penalty_schemes_are_free() {
        let s = CorrectionScheme::ReplayAtHalfFrequency { penalty: 0 };
        assert_eq!(s.penalty_cycles(), 0);
        // Even a free correction still leaves the flushed bus state — the
        // p^e/p^c distinction is about state, not cycles.
        assert_eq!(s.post_error_bus_state(), BusState::flushed());
    }

    /// Display names the mechanism and its cycle count.
    #[test]
    fn display_reports_cycle_count_per_variant() {
        let text = CorrectionScheme::ReplayAtHalfFrequency { penalty: 24 }.to_string();
        assert!(text.contains("replay-at-half-frequency"), "{text}");
        assert!(text.contains("24"), "{text}");
    }
}
