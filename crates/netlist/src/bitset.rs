//! A compact, fixed-capacity bit set.
//!
//! Activation sets (`VCD(t)` in the paper's Algorithm 1) contain one bit per
//! gate and are produced for every simulated cycle, so they must be cheap to
//! allocate, test and clear.

/// A fixed-capacity bit set over `u64` words.
///
/// # Example
/// ```
/// use terse_netlist::BitSet;
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(64);
/// assert!(s.contains(3) && s.contains(64) && !s.contains(4));
/// assert_eq!(s.count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

/// `splitmix64` finalizer — the word mixer behind [`BitSet::fingerprint`].
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl BitSet {
    /// Creates an empty set with room for `capacity` elements `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity (exclusive upper bound on element values).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Creates a set from raw little-endian words: word `i` holds elements
    /// `64·i .. 64·i+63`. Missing trailing words are zero; bits at or above
    /// `capacity` are cleared. This is the cheap bulk constructor for
    /// word-shaped data (e.g. per-instruction operand toggle masks), exactly
    /// equivalent to inserting each set bit individually.
    pub fn from_words(words: &[u64], capacity: usize) -> Self {
        let n = capacity.div_ceil(64);
        let mut out = vec![0u64; n];
        for (dst, &src) in out.iter_mut().zip(words) {
            *dst = src;
        }
        if !capacity.is_multiple_of(64) {
            if let Some(last) = out.last_mut() {
                *last &= (1u64 << (capacity % 64)) - 1;
            }
        }
        BitSet {
            words: out,
            capacity,
        }
    }

    /// Inserts `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.capacity, "bitset index {i} out of capacity");
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Removes `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.capacity, "bitset index {i} out of capacity");
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Membership test. Out-of-range indices are simply absent.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }

    /// Number of elements present.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements (retains capacity).
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Returns `self ∧ mask` as a new set.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn masked(&self, mask: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.intersect_with(mask);
        s
    }

    /// A 64-bit activation signature: a content hash of the set, stable
    /// across runs and platforms. Equal sets always hash equal; unequal sets
    /// collide only with ~2⁻⁶⁴ probability, so callers that need *proof* of
    /// equality (the DTA memo cache does) must still compare the stored set
    /// bit-for-bit.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(self.capacity as u64 ^ 0x9e37_79b9_7f4a_7c15);
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                h ^= mix(w ^ mix(i as u64));
            }
        }
        h
    }

    /// [`BitSet::fingerprint`] of `self ∧ mask`, without allocating the
    /// intersection.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn masked_fingerprint(&self, mask: &BitSet) -> u64 {
        assert_eq!(self.capacity, mask.capacity, "bitset capacity mismatch");
        let mut h = mix(self.capacity as u64 ^ 0x9e37_79b9_7f4a_7c15);
        for (i, (&a, &b)) in self.words.iter().zip(&mask.words).enumerate() {
            let w = a & b;
            if w != 0 {
                h ^= mix(w ^ mix(i as u64));
            }
        }
        h
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over set elements; see [`BitSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some((self.word_idx << 6) | bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a set sized to the maximum element + 1.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |&m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            s.insert(i);
            assert!(s.contains(i));
        }
        assert_eq!(s.count(), 8);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 7);
    }

    #[test]
    fn iteration_in_order() {
        let mut s = BitSet::new(200);
        let elems = [5usize, 17, 63, 64, 100, 199];
        for &e in &elems {
            s.insert(e);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, elems);
    }

    #[test]
    fn intersection_keeps_common_members() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        a.insert(65);
        b.insert(65);
        b.insert(2);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![65]);
    }

    #[test]
    fn clear_and_empty() {
        let mut s = BitSet::new(10);
        assert!(s.is_empty());
        s.insert(9);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 10);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(4);
        assert!(!s.contains(100));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_insert_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }

    #[test]
    fn fingerprint_tracks_content_not_history() {
        let mut a = BitSet::new(300);
        let mut b = BitSet::new(300);
        for i in [7usize, 64, 130, 299] {
            a.insert(i);
        }
        for i in [299usize, 130, 64, 7] {
            b.insert(i); // different insertion order
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.remove(64);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Capacity participates: an empty 10-set and empty 11-set differ.
        assert_ne!(BitSet::new(10).fingerprint(), BitSet::new(11).fingerprint());
    }

    #[test]
    fn masked_fingerprint_matches_materialized_intersection() {
        let mut s = BitSet::new(200);
        let mut m = BitSet::new(200);
        for i in (0..200).step_by(3) {
            s.insert(i);
        }
        for i in (0..200).step_by(5) {
            m.insert(i);
        }
        assert_eq!(s.masked_fingerprint(&m), s.masked(&m).fingerprint());
        assert_eq!(s.masked(&m).iter().count(), (0..200).step_by(15).count());
    }

    #[test]
    fn from_iterator() {
        let s: BitSet = [3usize, 9, 6].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 6, 9]);
    }
}
