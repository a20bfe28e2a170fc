//! Duplicate-message suppression (paper §4.1: "each node keeps a list of
//! recent messages" so a query received through a second path is
//! discarded).
//!
//! Semantically this is a bounded FIFO set: O(1) membership + insertion,
//! oldest entries forgotten first. The bound matters — an unbounded set
//! grows with every query in the run, and real Gnutella clients keep a
//! bounded table; the capacity-sensitivity suite of `ddr run ablations`
//! measures how small the bound can go before duplicate floods reappear.
//!
//! # Representation
//!
//! The cache is one open-addressing table of `(id, insertion index)`
//! pairs with linear probing. FIFO eviction is *implicit*: an entry is
//! live iff its insertion index lies within the last `capacity`
//! successful insertions, so the membership probe and the insert are a
//! single table walk — no companion FIFO ring and no second hash lookup
//! to delete the evicted id. This halves the random memory traffic per
//! query on the simulator hot path (each node owns a multi-KiB table, so
//! with hundreds of nodes every probe is effectively a cache miss; see
//! EXPERIMENTS.md "Performance trajectory", where PR 2's time went).
//!
//! Stale (logically evicted) entries are left in place and reclaimed by
//! an amortised compaction pass that rebuilds the table from its live
//! entries whenever the occupied-slot count crosses a threshold, keeping
//! probe chains short and guaranteeing empty slots exist so unsuccessful
//! probes terminate. [`DupCache::clear`] is O(1): it raises a watermark
//! below which every entry counts as stale.
//!
//! The behaviour is bit-for-bit identical to the straightforward
//! hash-set-plus-ring formulation; `model_differential` below checks the
//! two against each other over randomized operation streams.

use ddr_sim::QueryId;

/// Sentinel insertion index marking a never-used slot. Real indices are
/// assigned from a counter starting at zero, so `u64::MAX` is
/// unreachable in any conceivable run.
const EMPTY_K: u64 = u64::MAX;

/// One table slot: a remembered id plus the (global, monotone) insertion
/// index it was last successfully inserted at.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: QueryId,
    k: u64,
}

const EMPTY_SLOT: Slot = Slot {
    id: QueryId(0),
    k: EMPTY_K,
};

/// Power-of-two table length for `live` current entries under a FIFO
/// bound of `capacity`: at least 4× the live count (load factor ≤ 1/4
/// right after a rebuild, so linear-probe chains stay short), capped at
/// the most the bound can ever need (`2 * capacity`, load factor 1/2).
fn table_len_for(live: usize, capacity: usize) -> usize {
    let full = (capacity * 2).next_power_of_two().max(8);
    (live * 4).next_power_of_two().clamp(8, full)
}

/// Compaction threshold for a table of `len` slots: 3/4 occupancy, and
/// always strictly below `len` so empty slots exist and unsuccessful
/// probes terminate.
fn max_occupied_for(len: usize) -> usize {
    len - (len / 4).max(1)
}

/// A bounded set of recently seen query ids.
///
/// ```
/// use ddr_core::DupCache;
/// use ddr_sim::QueryId;
///
/// let mut seen = DupCache::new(128);
/// assert!(seen.first_sighting(QueryId(7)), "first copy: process it");
/// assert!(!seen.first_sighting(QueryId(7)), "second copy: discard");
/// ```
#[derive(Debug, Clone)]
pub struct DupCache {
    slots: Box<[Slot]>,
    /// `slots.len() - 1` (the length is a power of two).
    mask: u64,
    /// Multiply-shift hash: take the top `log2(len)` bits.
    shift: u32,
    /// Semantic FIFO bound.
    capacity: u64,
    /// Total successful insertions ever (the next insertion index).
    inserts: u64,
    /// Entries with `k < floor` are stale regardless of age; raised by
    /// [`DupCache::clear`] so clearing is O(1).
    floor: u64,
    /// Non-empty slots (live + stale); compaction trigger.
    occupied: usize,
    /// Compaction threshold; always `< slots.len()` so at least one
    /// empty slot exists and unsuccessful probes terminate.
    max_occupied: usize,
}

impl DupCache {
    /// A cache remembering up to `capacity` recent ids.
    ///
    /// The table starts small and grows with the node's *actual* working
    /// set, not the configured bound: real workloads configure a generous
    /// capacity (thousands) while most nodes see only hundreds of
    /// distinct queries per session, and sizing every node's table for
    /// the worst case multiplies the simulator's cache-hostile footprint
    /// for nothing. Growth happens inside `DupCache::compact` when the
    /// live count crosses half the table.
    ///
    /// # Panics
    /// Panics when `capacity == 0` — a zero-size cache silently degrades
    /// to "forward every duplicate", which is never intended.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "DupCache capacity must be positive");
        // Small initial table, but never beyond what the bound needs:
        // live entries can't exceed `capacity`, so `2 * capacity` slots
        // (load factor 1/2) is the largest table ever required.
        let len = table_len_for(capacity.min(8), capacity);
        DupCache {
            slots: vec![EMPTY_SLOT; len].into_boxed_slice(),
            mask: (len - 1) as u64,
            shift: 64 - len.trailing_zeros(),
            capacity: capacity as u64,
            inserts: 0,
            floor: 0,
            occupied: 0,
            max_occupied: max_occupied_for(len),
        }
    }

    /// Home slot for an id. Ids are assigned sequentially by the query
    /// workload, so a multiply-shift (Fibonacci) hash — which spreads
    /// consecutive integers maximally — beats masking low bits directly.
    #[inline]
    fn home(&self, id: QueryId) -> u64 {
        id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift
    }

    /// Smallest insertion index still considered live.
    #[inline]
    fn live_min(&self) -> u64 {
        self.inserts.saturating_sub(self.capacity).max(self.floor)
    }

    /// Record `id`; returns `true` if it was **new** (process the message)
    /// and `false` if it is a duplicate (discard).
    pub fn first_sighting(&mut self, id: QueryId) -> bool {
        let live_min = self.live_min();
        let mut j = self.home(id);
        loop {
            let s = self.slots[j as usize];
            if s.k == EMPTY_K {
                // Absent: claim the first free slot on the chain.
                self.slots[j as usize] = Slot {
                    id,
                    k: self.inserts,
                };
                self.inserts += 1;
                self.occupied += 1;
                if self.occupied >= self.max_occupied {
                    self.compact();
                }
                return true;
            }
            if s.id == id {
                if s.k >= live_min {
                    return false; // still remembered: duplicate
                }
                // Evicted long ago; re-insert in place (the id occurs at
                // most once in the table, so updating the index here
                // preserves the single-slot-per-id invariant).
                self.slots[j as usize].k = self.inserts;
                self.inserts += 1;
                return true;
            }
            j = j.wrapping_add(1) & self.mask;
        }
    }

    /// Rebuild the table from its live entries, dropping stale ones and
    /// growing the table when the live set genuinely needs more room
    /// (never beyond the `2 * capacity` the FIFO bound can fill). Runs
    /// every Θ(len) insertions at worst, and the rebuild is two
    /// sequential sweeps — amortised O(1) per insertion and far cheaper
    /// per element than the random probes it prevents.
    #[cold]
    fn compact(&mut self) {
        let live_min = self.live_min();
        let live = self
            .slots
            .iter()
            .filter(|s| s.k != EMPTY_K && s.k >= live_min)
            .count();
        let len = table_len_for(live, self.capacity as usize).max(self.slots.len());
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; len].into_boxed_slice());
        self.mask = (len - 1) as u64;
        self.shift = 64 - len.trailing_zeros();
        self.max_occupied = max_occupied_for(len);
        self.occupied = 0;
        for s in old.iter() {
            if s.k == EMPTY_K || s.k < live_min {
                continue;
            }
            let mut j = self.home(s.id);
            while self.slots[j as usize].k != EMPTY_K {
                j = j.wrapping_add(1) & self.mask;
            }
            self.slots[j as usize] = *s;
            self.occupied += 1;
        }
        debug_assert!(self.occupied < self.max_occupied);
    }

    /// Address of the table slot a probe for `id` starts at, for
    /// software prefetching by event-loop drivers (the slot is a pure
    /// hash of the id, known as soon as the message is, well before the
    /// membership check runs).
    #[inline]
    pub fn probe_addr(&self, id: QueryId) -> *const u8 {
        let j = self.home(id);
        std::ptr::addr_of!(self.slots[j as usize]) as *const u8
    }

    /// Whether `id` is currently remembered (no mutation).
    pub fn contains(&self, id: QueryId) -> bool {
        let live_min = self.live_min();
        let mut j = self.home(id);
        loop {
            let s = self.slots[j as usize];
            if s.k == EMPTY_K {
                return false;
            }
            if s.id == id {
                return s.k >= live_min;
            }
            j = j.wrapping_add(1) & self.mask;
        }
    }

    /// Number of remembered ids.
    ///
    /// Every live insertion index belongs to exactly one slot (ids are
    /// unique per slot and re-insertions only overwrite stale indices),
    /// so the live count is just the window width.
    pub fn len(&self) -> usize {
        (self.inserts - self.floor).min(self.capacity) as usize
    }

    /// Whether nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget everything (log-off/log-in cycles start fresh). O(1): the
    /// table is not touched, entries below the watermark are simply
    /// treated as stale and reclaimed by the next compaction.
    pub fn clear(&mut self) {
        self.floor = self.inserts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddr_sim::FastHashSet;
    use std::collections::VecDeque;

    /// The straightforward formulation the open-addressing cache must
    /// match bit-for-bit: a hash set plus a FIFO ring of remembered ids.
    struct ModelCache {
        seen: FastHashSet<QueryId>,
        order: VecDeque<QueryId>,
        capacity: usize,
    }

    impl ModelCache {
        fn new(capacity: usize) -> Self {
            ModelCache {
                seen: ddr_sim::hash::fast_set(),
                order: VecDeque::new(),
                capacity,
            }
        }

        fn first_sighting(&mut self, id: QueryId) -> bool {
            if !self.seen.insert(id) {
                return false;
            }
            if self.order.len() == self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.seen.remove(&old);
                }
            }
            self.order.push_back(id);
            true
        }

        fn contains(&self, id: QueryId) -> bool {
            self.seen.contains(&id)
        }

        fn clear(&mut self) {
            self.seen.clear();
            self.order.clear();
        }
    }

    #[test]
    fn first_then_duplicate() {
        let mut c = DupCache::new(8);
        assert!(c.first_sighting(QueryId(1)));
        assert!(!c.first_sighting(QueryId(1)));
        assert!(c.contains(QueryId(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_oldest_at_capacity() {
        let mut c = DupCache::new(3);
        for i in 1..=3 {
            assert!(c.first_sighting(QueryId(i)));
        }
        assert!(c.first_sighting(QueryId(4))); // evicts 1
        assert!(!c.contains(QueryId(1)));
        assert!(c.contains(QueryId(2)));
        assert!(c.first_sighting(QueryId(1)), "forgotten id is new again");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn duplicates_do_not_consume_capacity() {
        let mut c = DupCache::new(2);
        c.first_sighting(QueryId(1));
        for _ in 0..10 {
            assert!(!c.first_sighting(QueryId(1)));
        }
        c.first_sighting(QueryId(2));
        // 1 must still be remembered: duplicates didn't push it out
        assert!(c.contains(QueryId(1)));
    }

    #[test]
    fn clear_forgets_all() {
        let mut c = DupCache::new(4);
        c.first_sighting(QueryId(1));
        c.clear();
        assert!(c.is_empty());
        assert!(c.first_sighting(QueryId(1)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = DupCache::new(0);
    }

    #[test]
    fn capacity_one_works() {
        let mut c = DupCache::new(1);
        for i in 0..100 {
            assert!(c.first_sighting(QueryId(i)));
            assert!(!c.first_sighting(QueryId(i)));
            assert_eq!(c.len(), 1);
            if i > 0 {
                assert!(!c.contains(QueryId(i - 1)));
            }
        }
    }

    #[test]
    fn compaction_preserves_live_entries() {
        // Capacity 4 → 8 slots, compaction threshold 6. Streaming far
        // more distinct ids than slots forces many rebuilds; the last
        // `capacity` ids must always be remembered, everything older
        // forgotten.
        let mut c = DupCache::new(4);
        for i in 0..10_000u64 {
            assert!(c.first_sighting(QueryId(i)), "id {i} seen twice");
            for j in i.saturating_sub(3)..=i {
                assert!(c.contains(QueryId(j)), "live id {j} lost at {i}");
            }
            if i >= 4 {
                assert!(!c.contains(QueryId(i - 4)), "stale id kept at {i}");
            }
        }
    }

    /// Randomized differential test against the hash-set-plus-ring
    /// model: mixed first_sighting / contains / clear streams with ids
    /// drawn from a small universe (high collision + revival pressure).
    #[test]
    fn model_differential() {
        // SplitMix64: tiny deterministic generator for the op stream.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for capacity in [1usize, 2, 3, 7, 16, 61] {
            let mut fast = DupCache::new(capacity);
            let mut model = ModelCache::new(capacity);
            let universe = (capacity as u64) * 3 + 5;
            for step in 0..50_000u32 {
                let r = next();
                let id = QueryId(r % universe);
                match (r >> 40) % 16 {
                    0..=11 => {
                        assert_eq!(
                            fast.first_sighting(id),
                            model.first_sighting(id),
                            "first_sighting({id:?}) diverged at step {step} (capacity {capacity})"
                        );
                    }
                    12..=14 => {
                        assert_eq!(
                            fast.contains(id),
                            model.contains(id),
                            "contains({id:?}) diverged at step {step} (capacity {capacity})"
                        );
                    }
                    _ => {
                        fast.clear();
                        model.clear();
                        assert!(fast.is_empty());
                    }
                }
                assert_eq!(fast.len(), model.order.len(), "len diverged at step {step}");
            }
        }
    }
}
