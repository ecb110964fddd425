//! Activation-signature memoization of stage DTS.
//!
//! Algorithm 1 is a pure function of `(stage, filter, VCD(t) ∧ cone(stage),
//! T_clk)` — the engine runs one path search and one statistical-min fold,
//! so neither is part of the key. Every path it can enumerate for a stage
//! consists of gates inside that stage's fan-in cone (see
//! [`Netlist::stage_cones`](terse_netlist::Netlist::stage_cones)), so two
//! cycles whose toggle sets agree on the cone produce bit-identical stage
//! DTS. Real programs execute tight loops whose per-stage toggle patterns
//! repeat for thousands of cycles, which makes this mapping extremely
//! cacheable.
//!
//! [`DtsCache`] is a bounded LRU over that mapping. Keys carry a 64-bit
//! [`BitSet::fingerprint`]-based signature of the masked toggle set, but a
//! hit additionally requires bit-for-bit equality of the stored toggle set —
//! a hash collision is counted and treated as a miss (the colliding entry is
//! replaced), so cached results are *provably* identical to recomputation,
//! never merely probably. Cached candidate sets and minima are interned
//! through a shared [`SensitivityInterner`] that lives as long as the cache,
//! so the thousands of retained canonical forms share their sensitivity
//! vector allocations across cycles.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::engine::EndpointFilter;
use terse_netlist::BitSet;
use terse_sta::{CanonicalRv, SensitivityInterner};

/// The exact inputs a stage-DTS computation depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub stage: usize,
    pub filter: EndpointFilter,
    /// `f64::to_bits` of the clock period (the engine's operating point can
    /// be swept; each period gets its own entries).
    pub t_clk_bits: u64,
    /// Masked activation signature (`fingerprint(vcd ∧ cone) & sig_mask`).
    pub signature: u64,
}

/// Sentinel for absent neighbors in the intrusive LRU list.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot {
    key: CacheKey,
    /// The exact masked toggle set — compared bit-for-bit on lookup so a
    /// signature collision can never return a wrong result.
    toggles: BitSet,
    /// The cached candidate set `AP` (interned storage).
    ap: Vec<CanonicalRv>,
    /// The cached statistical minimum (interned storage).
    dts: Option<CanonicalRv>,
    prev: usize,
    next: usize,
}

/// Slab-backed intrusive-list LRU: O(1) lookup, touch, insert and evict.
#[derive(Debug, Default)]
struct Lru {
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot (eviction victim).
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    collisions: u64,
}

impl Lru {
    fn new() -> Self {
        Lru {
            head: NIL,
            tail: NIL,
            ..Lru::default()
        }
    }

    /// Unlinks `idx` from the recency list (it must be linked).
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    /// Links `idx` at the most-recently-used end.
    fn link_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slots[h].prev = idx,
        }
        self.head = idx;
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.link_front(idx);
        }
    }
}

/// Point-in-time snapshot of the cache counters, surfaced in the perf
/// report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DtsCacheStats {
    /// Lookups that returned a stored result (signature *and* exact toggle
    /// set matched).
    pub hits: u64,
    /// Lookups that found nothing under the key.
    pub misses: u64,
    /// Entries displaced by the LRU capacity bound.
    pub evictions: u64,
    /// Lookups whose signature matched but whose stored toggle set differed
    /// bit-wise — counted as misses and replaced on store.
    pub collisions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Capacity bound.
    pub capacity: usize,
    /// Distinct sensitivity vectors held by the shared interner.
    pub interned_vectors: usize,
    /// Interner lookups that found an existing vector.
    pub interner_hits: u64,
}

impl DtsCacheStats {
    /// Hit rate over all lookups (0 when no lookup happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Bounded, exact LRU memo cache for stage-DTS results. Shareable across
/// engines (and threads) behind an `Arc`; see the module docs for the
/// correctness argument.
#[derive(Debug)]
pub struct DtsCache {
    inner: Mutex<Lru>,
    interner: SensitivityInterner,
    capacity: usize,
    /// Mask applied to signatures before keying. `!0` in production; tests
    /// truncate it to force collisions through the exact-match path.
    sig_mask: u64,
}

impl DtsCache {
    /// Creates a cache bounded to `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self::with_signature_mask(capacity, u64::MAX)
    }

    /// Test hook: a truncated signature mask (e.g. `0x3`) forces distinct
    /// toggle sets onto the same key, exercising the collision path.
    #[doc(hidden)]
    pub fn with_signature_mask(capacity: usize, sig_mask: u64) -> Self {
        DtsCache {
            inner: Mutex::new(Lru::new()),
            interner: SensitivityInterner::new(),
            capacity: capacity.max(1),
            sig_mask,
        }
    }

    /// The entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shared sensitivity-vector interner (kept alive across cycles).
    pub fn interner(&self) -> &SensitivityInterner {
        &self.interner
    }

    /// Computes the masked signature of a toggle set — the shared
    /// [`terse_netlist::signature`] definition, truncated by the cache's
    /// collision-test mask. (The engine computes the same value through
    /// [`terse_netlist::signature::masked_toggle_signature`] +
    /// [`DtsCache::truncate`] without materializing the intersection.)
    #[cfg(test)]
    pub(crate) fn signature(&self, toggles: &BitSet) -> u64 {
        self.truncate(terse_netlist::signature::toggle_signature(toggles))
    }

    /// Applies the collision-test mask to an already-computed signature
    /// (e.g. one produced by
    /// [`terse_netlist::signature::masked_toggle_signature`] without
    /// materializing the intersection).
    pub(crate) fn truncate(&self, sig: u64) -> u64 {
        terse_netlist::signature::truncated(sig, self.sig_mask)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru> {
        // Poisoning only signals a panic elsewhere; the LRU structure is
        // updated atomically under the lock, so recovery is safe.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up a stage-DTS result. `Some(dts)` is returned only if the key
    /// matches *and* the stored toggle set equals `toggles` bit-for-bit.
    pub(crate) fn lookup(&self, key: &CacheKey, toggles: &BitSet) -> Option<Option<CanonicalRv>> {
        let mut lru = self.lock();
        match lru.map.get(key).copied() {
            Some(idx) if lru.slots[idx].toggles == *toggles => {
                lru.hits += 1;
                let dts = lru.slots[idx].dts.clone();
                lru.touch(idx);
                Some(dts)
            }
            Some(_) => {
                lru.collisions += 1;
                lru.misses += 1;
                None
            }
            None => {
                lru.misses += 1;
                None
            }
        }
    }

    /// Stores a computed result, interning its canonical forms. Replaces a
    /// colliding entry under the same key; evicts the LRU entry at capacity.
    pub(crate) fn store(
        &self,
        key: CacheKey,
        toggles: BitSet,
        ap: &[CanonicalRv],
        dts: Option<CanonicalRv>,
    ) {
        let ap: Vec<CanonicalRv> = ap.iter().map(|rv| self.interner.intern_rv(rv)).collect();
        let dts = dts.map(|rv| self.interner.intern_rv(&rv));
        let mut lru = self.lock();
        if let Some(idx) = lru.map.get(&key).copied() {
            // Same key, different toggle set (collision replacement) or a
            // racing recomputation of an identical entry: latest wins.
            lru.slots[idx].toggles = toggles;
            lru.slots[idx].ap = ap;
            lru.slots[idx].dts = dts;
            lru.touch(idx);
            return;
        }
        let idx = if lru.slots.len() < self.capacity {
            lru.slots.push(Slot {
                key: key.clone(),
                toggles,
                ap,
                dts,
                prev: NIL,
                next: NIL,
            });
            lru.slots.len() - 1
        } else {
            // Evict the least recently used entry and reuse its slot.
            let victim = lru.tail;
            if victim == NIL {
                return; // capacity 0 is clamped away; defensive only
            }
            lru.unlink(victim);
            let old_key = lru.slots[victim].key.clone();
            lru.map.remove(&old_key);
            lru.evictions += 1;
            lru.slots[victim].key = key.clone();
            lru.slots[victim].toggles = toggles;
            lru.slots[victim].ap = ap;
            lru.slots[victim].dts = dts;
            victim
        };
        lru.map.insert(key, idx);
        lru.link_front(idx);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DtsCacheStats {
        let lru = self.lock();
        DtsCacheStats {
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
            collisions: lru.collisions,
            entries: lru.map.len(),
            capacity: self.capacity,
            interned_vectors: self.interner.len(),
            interner_hits: self.interner.hits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sig: u64, stage: usize) -> CacheKey {
        CacheKey {
            stage,
            filter: EndpointFilter::All,
            t_clk_bits: 1.0_f64.to_bits(),
            signature: sig,
        }
    }

    fn toggles(bits: &[usize]) -> BitSet {
        let mut s = BitSet::new(64);
        for &b in bits {
            s.insert(b);
        }
        s
    }

    fn rv(mean: f64) -> CanonicalRv {
        CanonicalRv::with_sensitivities(mean, vec![0.125, -0.25], 0.5)
    }

    #[test]
    fn hit_requires_exact_toggle_match() {
        let c = DtsCache::new(8);
        let t = toggles(&[1, 5]);
        let k = key(c.signature(&t), 0);
        assert!(c.lookup(&k, &t).is_none());
        c.store(k.clone(), t.clone(), &[rv(1.0)], Some(rv(1.0)));
        assert_eq!(c.lookup(&k, &t), Some(Some(rv(1.0))));
        // Same key struct but a different toggle set: collision, not a hit.
        let other = toggles(&[1, 6]);
        assert!(c.lookup(&k, &other).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.collisions), (1, 2, 1));
    }

    #[test]
    fn collision_replacement_latest_wins() {
        // Mask 0 puts every toggle set under the same signature.
        let c = DtsCache::with_signature_mask(4, 0);
        let t1 = toggles(&[1]);
        let t2 = toggles(&[2]);
        let k1 = key(c.signature(&t1), 0);
        let k2 = key(c.signature(&t2), 0);
        assert_eq!(k1, k2, "mask 0 must collapse signatures");
        c.store(k1.clone(), t1.clone(), &[], Some(rv(1.0)));
        c.store(k2.clone(), t2.clone(), &[], Some(rv(2.0)));
        // t2 displaced t1 under the shared key; t1 must miss, not corrupt.
        assert!(c.lookup(&k1, &t1).is_none());
        assert_eq!(c.lookup(&k2, &t2), Some(Some(rv(2.0))));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let c = DtsCache::new(2);
        let (ta, tb, tc) = (toggles(&[1]), toggles(&[2]), toggles(&[3]));
        let (ka, kb, kc) = (
            key(c.signature(&ta), 0),
            key(c.signature(&tb), 1),
            key(c.signature(&tc), 2),
        );
        c.store(ka.clone(), ta.clone(), &[], Some(rv(1.0)));
        c.store(kb.clone(), tb.clone(), &[], Some(rv(2.0)));
        // Touch A so B becomes the LRU victim.
        assert!(c.lookup(&ka, &ta).is_some());
        c.store(kc.clone(), tc.clone(), &[], Some(rv(3.0)));
        assert!(c.lookup(&kb, &tb).is_none(), "B should have been evicted");
        assert!(c.lookup(&ka, &ta).is_some());
        assert!(c.lookup(&kc, &tc).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.capacity, 2);
    }

    #[test]
    fn capacity_one_thrashes_correctly() {
        let c = DtsCache::new(1);
        let (ta, tb) = (toggles(&[1]), toggles(&[2]));
        let (ka, kb) = (key(c.signature(&ta), 0), key(c.signature(&tb), 0));
        for round in 0..4 {
            c.store(ka.clone(), ta.clone(), &[], Some(rv(1.0)));
            assert_eq!(c.lookup(&ka, &ta), Some(Some(rv(1.0))), "round {round}");
            c.store(kb.clone(), tb.clone(), &[], Some(rv(2.0)));
            assert_eq!(c.lookup(&kb, &tb), Some(Some(rv(2.0))), "round {round}");
            assert!(c.lookup(&ka, &ta).is_none(), "round {round}");
        }
        assert_eq!(c.stats().evictions, 7);
    }

    #[test]
    fn stored_forms_share_interned_storage() {
        let c = DtsCache::new(8);
        let t1 = toggles(&[1]);
        let t2 = toggles(&[2]);
        // Two entries with identical sensitivity vectors.
        c.store(
            key(c.signature(&t1), 0),
            t1,
            &[rv(1.0), rv(5.0)],
            Some(rv(1.0)),
        );
        c.store(key(c.signature(&t2), 1), t2, &[rv(2.0)], Some(rv(2.0)));
        let s = c.stats();
        assert_eq!(s.interned_vectors, 1, "all rvs share one coeff vector");
        assert!(s.interner_hits >= 4);
    }

    #[test]
    fn hit_rate_reporting() {
        let c = DtsCache::new(4);
        assert_eq!(c.stats().hit_rate(), 0.0);
        let t = toggles(&[7]);
        let k = key(c.signature(&t), 0);
        c.store(k.clone(), t.clone(), &[], None);
        assert_eq!(c.lookup(&k, &t), Some(None));
        assert!((c.stats().hit_rate() - 1.0).abs() < 1e-12);
    }
}
