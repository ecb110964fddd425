//! Activity traces — the in-memory substitute for a VCD file.
//!
//! The paper's Algorithm 1 consumes `VCD(t)`, the set of gates activated at
//! clock cycle `t` (Figure 1 generates it by gate-level simulation).
//! [`ActivityTrace`] stores exactly that: one activation [`BitSet`] per
//! simulated cycle.

use crate::bitset::BitSet;

/// A sequence of per-cycle gate activation sets.
///
/// # Example
/// ```
/// use terse_netlist::{ActivityTrace, BitSet};
/// let mut t = ActivityTrace::new(8);
/// let mut c0 = BitSet::new(8);
/// c0.insert(3);
/// t.push(c0);
/// assert_eq!(t.len(), 1);
/// assert!(t.cycle(0).contains(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ActivityTrace {
    gate_count: usize,
    cycles: Vec<BitSet>,
}

impl ActivityTrace {
    /// Creates an empty trace for a netlist with `gate_count` gates.
    pub fn new(gate_count: usize) -> Self {
        ActivityTrace {
            gate_count,
            cycles: Vec::new(),
        }
    }

    /// Number of gates per cycle set.
    pub fn gate_count(&self) -> usize {
        self.gate_count
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether no cycles have been recorded.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Appends one cycle's activation set.
    ///
    /// # Panics
    ///
    /// Panics if the set's capacity does not match the gate count.
    pub fn push(&mut self, activated: BitSet) {
        assert_eq!(
            activated.capacity(),
            self.gate_count,
            "activation set capacity must equal the gate count"
        );
        self.cycles.push(activated);
    }

    /// The activation set of cycle `t` — the paper's `VCD(t)`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn cycle(&self, t: usize) -> &BitSet {
        &self.cycles[t]
    }

    /// Iterates over the cycle sets in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, BitSet> {
        self.cycles.iter()
    }
}

impl<'a> IntoIterator for &'a ActivityTrace {
    type Item = &'a BitSet;
    type IntoIter = std::slice::Iter<'a, BitSet>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(cap: usize, elems: &[usize]) -> BitSet {
        let mut s = BitSet::new(cap);
        for &e in elems {
            s.insert(e);
        }
        s
    }

    #[test]
    fn push_and_query() {
        let mut t = ActivityTrace::new(10);
        t.push(set(10, &[1, 2]));
        t.push(set(10, &[2, 3]));
        assert_eq!(t.len(), 2);
        assert!(t.cycle(0).contains(1));
        assert!(t.cycle(1).contains(3));
        assert!(!t.cycle(1).contains(1));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn mismatched_capacity_panics() {
        let mut t = ActivityTrace::new(10);
        t.push(BitSet::new(5));
    }

    #[test]
    fn empty_trace() {
        let t = ActivityTrace::new(4);
        assert!(t.is_empty());
    }
}
