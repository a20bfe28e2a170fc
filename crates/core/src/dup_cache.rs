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
//! # Two forgetting bounds
//!
//! An id is *live* (a new copy of it is a duplicate) while both hold:
//!
//! 1. **FIFO bound.** It is among the last `capacity` insertions. This is
//!    the semantics every caller sees, and the only bound of
//!    [`DupCache::first_sighting`].
//! 2. **Flood horizon `H`.** It was inserted after the older of two
//!    generation checkpoints. [`DupCache::sighting`] takes the sighting's
//!    time and `H`; when `now` is more than `H` past the newer checkpoint,
//!    the newer one becomes the older and a new one is taken at `now`
//!    (with the insertion count then). So two checkpoints are always more
//!    than `H` apart, and a rebuild sizes the table to what arrived in two
//!    windows of at most `H` each, not to the whole session.
//!
//! **Why the horizon changes no answer.** Suppose every copy of a query
//! reaches a node within `H` of the query's issue — for a TTL-bounded
//! flood, `H` = largest TTL × largest one-hop delay. Take an id first
//! sighted at `t` (no earlier than its issue). The horizon forgets it
//! only once the checkpoint it precedes is the older one, which happens
//! at a sighting more than `H` after that checkpoint, so after `t + H`;
//! every copy has arrived by then, so no lookup ever asks about it again.
//! Conversely, an answer the horizon changes is always to a copy that
//! arrived more than `H` after its query's issue, so a caller checks the
//! premise by the copy's issue time (the Gnutella world counts such
//! copies, and `check_invariants` requires none).
//!
//! # Representation
//!
//! The cache is one open-addressing table of `(id, insertion index)`
//! pairs with linear probing. Eviction is *implicit*: an entry is live iff
//! its insertion index is at least `live_min` — the
//! larger of `inserts - capacity` (FIFO) and the index recorded at the
//! older checkpoint (horizon) — so the membership probe and the insert
//! are a single table walk, with no companion FIFO ring and no second
//! hash lookup to delete the evicted id. This halves the random memory
//! traffic per query on the simulator hot path (each node owns a
//! multi-KiB table, so with hundreds of nodes every probe is effectively
//! a cache miss; see EXPERIMENTS.md "Performance trajectory", where PR 2's
//! time went).
//!
//! A slot is 12 bytes: the 8-byte id and a `u32` insertion index,
//! packed to 4-byte alignment. Indices count the insertions of the
//! current session only ([`DupCache::clear`] restarts them at zero), so
//! they stay far below `u32::MAX`; the 2³²-th insertion of one session
//! panics rather than wrap. The header (table pointer, hash parameters,
//! counters and the two checkpoints) fits one 64-byte cache line; a
//! `const` assert pins it.
//!
//! The table holds what it remembers. A cache that has remembered
//! nothing this session holds no table at all: [`DupCache::new`] and
//! [`DupCache::clear`] allocate nothing, and the session's first
//! insertion allocates the initial table of 32 slots (fewer for a bound
//! of 8 or less), so a node that sees no query (an offline one, say)
//! costs only its header. Stale (logically evicted) entries are left in
//! place and reclaimed by an amortised compaction pass that rebuilds the
//! table from its live entries whenever the occupied-slot count crosses
//! 3/4 of the table; the rebuilt table is sized from the live count
//! alone (4×, capped at what the FIFO bound can fill), keeping probe
//! chains short and guaranteeing empty slots exist so unsuccessful
//! probes terminate. Under the horizon the live count follows the recent
//! query rate, so rebuilds shrink the table as readily as they grow it;
//! [`DupCache::clear`] drops the table.
//!
//! The behaviour is bit-for-bit identical to the straightforward
//! hash-set-plus-ring formulation (under the horizon, on every stream
//! that keeps its premise); `model_differential`,
//! `long_model_differential` and `horizon_model_differential` below check
//! the two against each other over randomized operation streams.

use ddr_sim::{QueryId, SimDuration, SimTime};

/// Sentinel insertion index marking a never-used slot. The insertion
/// counter panics before it would hand this value out.
const EMPTY_K: u32 = u32::MAX;

/// Bytes of one slot: the span [`DupCache::probe_addr`] points at.
const SLOT_BYTES: usize = 12;

/// One table slot: a remembered id plus the insertion index (counted
/// within the current session) it was last successfully inserted at.
/// Packed to 4-byte alignment, so the `u64` id and the `u32` index take
/// 12 bytes, not 16.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Slot {
    id: QueryId,
    k: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == SLOT_BYTES);

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

/// Initial table length under a FIFO bound of `capacity`: 32 slots, or
/// the `2 * capacity` a bound of 8 or less can fill.
fn initial_len(capacity: usize) -> usize {
    table_len_for(capacity.min(8), capacity)
}

/// Compaction threshold for a table of `len` slots: 3/4 occupancy, and
/// always strictly below `len` so empty slots exist and unsuccessful
/// probes terminate. Saturates at `u32::MAX`, which the occupied count
/// never reaches: every occupied slot holds a distinct index below it.
fn max_occupied_for(len: usize) -> u32 {
    u32::try_from(len - (len / 4).max(1)).unwrap_or(u32::MAX)
}

/// A bounded set of recently seen query ids.
///
/// One open-addressing table of 12-byte slots, allocated at a session's
/// first insertion, sized from the live count at each rebuild and dropped
/// on [`clear`](Self::clear) (the module docs have the layout and the two
/// forgetting bounds).
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
    /// The table; empty (no allocation) until the session's first
    /// insertion.
    slots: Box<[Slot]>,
    /// `slots.len() - 1` (the length is a power of two); 0 with no table.
    mask: u64,
    /// Time of the newer generation checkpoint.
    gen_at: SimTime,
    /// Multiply-shift hash: take the top `log2(len)` bits. With no table
    /// it is 63, so [`probe_addr`](Self::probe_addr) hands out an address
    /// (never dereferenced) at most one slot past the empty table.
    shift: u32,
    /// Semantic FIFO bound.
    capacity: u32,
    /// Successful insertions this session (the next insertion index).
    inserts: u32,
    /// Non-empty slots (live + stale); compaction trigger.
    occupied: u32,
    /// Compaction threshold; always `< slots.len()` so at least one
    /// empty slot exists and unsuccessful probes terminate (0 with no
    /// table).
    max_occupied: u32,
    /// Insertion count at the older checkpoint: the horizon forgets
    /// every index below it.
    gen_min: u32,
    /// Insertion count at the newer checkpoint.
    gen_k: u32,
}

const _: () = assert!(std::mem::size_of::<DupCache>() <= 64);

impl DupCache {
    /// The largest bound: every insertion index of a session fits a
    /// `u32`, so no larger bound could ever forget less.
    pub const MAX_CAPACITY: usize = u32::MAX as usize;

    /// A cache remembering up to `capacity` recent ids. It holds no
    /// table until its first insertion.
    ///
    /// The table starts small and grows with the node's *actual* working
    /// set, not the configured bound: real workloads configure a generous
    /// capacity (thousands) while most nodes see only hundreds of
    /// distinct queries per session, and sizing every node's table for
    /// the worst case multiplies the simulator's cache-hostile footprint
    /// for nothing. Growth happens inside `DupCache::compact` when the
    /// occupied count crosses 3/4 of the table.
    ///
    /// # Panics
    /// Panics when `capacity == 0` — a zero-size cache silently degrades
    /// to "forward every duplicate", which is never intended — or when it
    /// exceeds [`DupCache::MAX_CAPACITY`].
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "DupCache capacity must be positive");
        assert!(
            capacity <= Self::MAX_CAPACITY,
            "DupCache capacity {capacity} exceeds the u32 index range"
        );
        DupCache {
            slots: Box::default(),
            mask: 0,
            gen_at: SimTime::ZERO,
            shift: 63,
            capacity: capacity as u32,
            inserts: 0,
            occupied: 0,
            max_occupied: 0,
            gen_min: 0,
            gen_k: 0,
        }
    }

    /// Install an empty table of `len` slots (a power of two) and return
    /// the one it replaces.
    fn install(&mut self, len: usize) -> Box<[Slot]> {
        self.mask = (len - 1) as u64;
        self.shift = 64 - len.trailing_zeros();
        self.max_occupied = max_occupied_for(len);
        self.occupied = 0;
        std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; len].into_boxed_slice())
    }

    /// The session's first insertion is due: allocate the initial table
    /// (small, but never beyond what the bound needs: live entries can't
    /// exceed `capacity`, so `2 * capacity` slots, load factor 1/2, is
    /// the largest table ever required).
    #[cold]
    fn allocate(&mut self) {
        self.install(initial_len(self.capacity as usize));
    }

    /// Home slot for an id. Ids are assigned sequentially by the query
    /// workload, so a multiply-shift (Fibonacci) hash — which spreads
    /// consecutive integers maximally — beats masking low bits directly.
    #[inline]
    fn home(&self, id: QueryId) -> u64 {
        id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift
    }

    /// Smallest insertion index still live under both bounds: the FIFO
    /// bound's `inserts - capacity` and the horizon's older checkpoint.
    #[inline]
    fn live_min(&self) -> u32 {
        self.inserts.saturating_sub(self.capacity).max(self.gen_min)
    }

    /// Hand out the next insertion index.
    ///
    /// # Panics
    /// Panics on the 2³²-th insertion of one session, whose index would
    /// be the empty-slot sentinel.
    #[inline]
    fn next_index(&mut self) -> u32 {
        let k = self.inserts;
        assert!(
            k != EMPTY_K,
            "DupCache insertion index overflow: more than 2^32 - 1 insertions in one session"
        );
        self.inserts = k + 1;
        k
    }

    /// Record `id` under the FIFO bound alone; returns `true` if it was
    /// **new** (process the message) and `false` if it is a duplicate
    /// (discard).
    pub fn first_sighting(&mut self, id: QueryId) -> bool {
        self.sighting(id, SimTime::ZERO, None)
    }

    /// Record `id`, sighted at `now`, under the FIFO bound and — when a
    /// `horizon` is given — the flood horizon (module docs): every copy
    /// of a message reaches this node within `horizon` of its first
    /// sighting here. `now` must not decrease between calls of one
    /// session. Returns `true` if `id` was **new**, as
    /// [`first_sighting`](Self::first_sighting) does.
    #[inline]
    pub fn sighting(&mut self, id: QueryId, now: SimTime, horizon: Option<SimDuration>) -> bool {
        if horizon.is_some_and(|h| now.saturating_since(self.gen_at) > h) {
            // The older checkpoint's ids are more than `h` old: forget
            // them, and checkpoint here.
            self.gen_min = self.gen_k;
            self.gen_k = self.inserts;
            self.gen_at = now;
        }
        if self.slots.is_empty() {
            // Nothing remembered, so `id` is new: its insertion is due.
            self.allocate();
        }
        let live_min = self.live_min();
        let mut j = self.home(id);
        loop {
            let Slot { id: held, k } = self.slots[j as usize];
            if k == EMPTY_K {
                // Absent: claim the first free slot on the chain.
                self.slots[j as usize] = Slot {
                    id,
                    k: self.next_index(),
                };
                self.occupied += 1;
                if self.occupied >= self.max_occupied {
                    self.compact();
                }
                return true;
            }
            if held == id {
                if k >= live_min {
                    return false; // still remembered: duplicate
                }
                // Forgotten; re-insert in place (the id occurs at most
                // once in the table, so updating the index here
                // preserves the single-slot-per-id invariant).
                self.slots[j as usize].k = self.next_index();
                return true;
            }
            j = j.wrapping_add(1) & self.mask;
        }
    }

    /// Rebuild the table from its live entries, dropping stale ones, at
    /// the length [`table_len_for`] gives the live count (never beyond
    /// the `2 * capacity` the FIFO bound can fill). Runs every Θ(len)
    /// insertions at worst, and the rebuild is one sequential sweep —
    /// amortised O(1) per insertion and far cheaper per element than the
    /// random probes it prevents.
    #[cold]
    fn compact(&mut self) {
        let live_min = self.live_min();
        let old = self.install(table_len_for(self.len(), self.capacity as usize));
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
        debug_assert_eq!(self.occupied as usize, self.len());
        debug_assert!(self.occupied < self.max_occupied);
    }

    /// Address of the table slot a probe for `id` starts at, for
    /// software prefetching by event-loop drivers (the slot is a pure
    /// hash of the id, known as soon as the message is, well before the
    /// membership check runs). A 12-byte slot can straddle two cache
    /// lines, so the pointee is the whole slot. With no table the address
    /// lies at most one slot past the empty one: a prefetch hint only,
    /// never dereferenced.
    #[inline]
    pub fn probe_addr(&self, id: QueryId) -> *const [u8; SLOT_BYTES] {
        let j = self.home(id) as usize;
        self.slots.as_ptr().wrapping_add(j).cast()
    }

    /// Whether `id` is currently remembered (no mutation).
    pub fn contains(&self, id: QueryId) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let live_min = self.live_min();
        let mut j = self.home(id);
        loop {
            let Slot { id: held, k } = self.slots[j as usize];
            if k == EMPTY_K {
                return false;
            }
            if held == id {
                return k >= live_min;
            }
            j = j.wrapping_add(1) & self.mask;
        }
    }

    /// Number of remembered ids: those live under both bounds as of the
    /// last sighting.
    ///
    /// Every live insertion index belongs to exactly one slot (ids are
    /// unique per slot and re-insertions only overwrite stale indices),
    /// so the live count is just the width of the live index range.
    pub fn len(&self) -> usize {
        (self.inserts - self.live_min()) as usize
    }

    /// Whether nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the slot table (the header is not counted).
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots)
    }

    /// Forget everything (log-off/log-in cycles start fresh): drop the
    /// table, with the counters and the checkpoints at zero, so the cache
    /// holds no table until its next insertion. O(1) in the table's
    /// length; a cache that has inserted nothing is already fresh and is
    /// left as it is.
    pub fn clear(&mut self) {
        if self.inserts > 0 {
            *self = DupCache::new(self.capacity as usize);
        }
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
    fn clear_returns_an_outgrown_table_to_the_initial_length() {
        let mut c = DupCache::new(4_096);
        let initial = initial_len(4_096);
        assert_eq!(initial, 32);
        c.first_sighting(QueryId(0));
        assert_eq!(c.slots.len(), initial, "the first table");
        for i in 1..1_000 {
            c.first_sighting(QueryId(i));
        }
        assert!(c.slots.len() > initial, "1,000 live ids grew the table");
        c.clear();
        assert_eq!(c.slots.len(), 0, "clear kept a table");
        assert_eq!((c.inserts, c.occupied), (0, 0));
        assert!(c.first_sighting(QueryId(7)), "the fresh table forgot id 7");
        assert_eq!(c.slots.len(), initial);
    }

    /// A fresh cache and a cleared one hold no table: nothing is
    /// remembered, `probe_addr` still answers, and the first sighting
    /// allocates the initial table.
    #[test]
    fn no_table_before_the_first_sighting() {
        let mut c = DupCache::new(4_096);
        for round in 0..2 {
            assert_eq!(c.table_bytes(), 0, "round {round}");
            assert!(!c.contains(QueryId(7)) && c.is_empty());
            let _ = c.probe_addr(QueryId(7));
            assert!(c.sighting(QueryId(7), SimTime::ZERO, None));
            assert_eq!(c.table_bytes(), 32 * SLOT_BYTES, "the initial 32 slots");
            assert!(c.contains(QueryId(7)) && !c.first_sighting(QueryId(7)));
            c.clear();
        }
        let mut small = DupCache::new(3);
        assert!(small.first_sighting(QueryId(1)));
        assert_eq!(small.slots.len(), initial_len(3));
        assert_eq!(initial_len(3), 8);
    }

    #[test]
    #[should_panic(expected = "insertion index overflow")]
    fn index_overflow_panics_with_its_name() {
        let mut c = DupCache::new(4);
        c.inserts = EMPTY_K - 2;
        assert!(c.first_sighting(QueryId(1)));
        assert!(c.first_sighting(QueryId(2))); // index u32::MAX - 1, the last
        c.first_sighting(QueryId(3));
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

    /// SplitMix64: a tiny deterministic generator for op streams.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Randomized differential test against the hash-set-plus-ring
    /// model: mixed first_sighting / contains / clear streams with ids
    /// drawn from a small universe (high collision + revival pressure).
    #[test]
    fn model_differential() {
        let mut next = splitmix(0x1234_5678_9abc_def0);
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

    /// The fast cache against the model over a long stream at the
    /// simulator's bound: capacity 4,096, ids from a universe wider than
    /// the bound (evictions and revivals), and a `clear` about once per
    /// 16,000 operations. A session's first insertion must allocate the
    /// initial table, every rebuild must size the table from the live
    /// count alone, every `clear` must leave no table, and at no point
    /// may the table exceed what its live count needs.
    #[test]
    fn long_model_differential() {
        const CAPACITY: usize = 4_096;
        let mut next = splitmix(0x0DDC_0FFE_E15B_AD5E);
        let mut fast = DupCache::new(CAPACITY);
        let mut model = ModelCache::new(CAPACITY);
        let initial = initial_len(CAPACITY);
        let (mut growths, mut evicting_rebuilds, mut outgrown_clears) = (0, 0, 0);
        for step in 0..400_000u32 {
            let r = next();
            let id = QueryId(r % (CAPACITY as u64 * 4));
            let (table, len_before) = (fast.slots.as_ptr(), fast.slots.len());
            if r >> 48 < 4 {
                outgrown_clears += usize::from(len_before > initial);
                fast.clear();
                model.clear();
                assert_eq!(fast.slots.len(), 0, "clear kept a table");
                assert_eq!((fast.inserts, fast.occupied), (0, 0));
            } else if (r >> 40).is_multiple_of(8) {
                assert_eq!(fast.contains(id), model.contains(id), "contains at {step}");
            } else {
                let before = fast.occupied;
                let new = fast.first_sighting(id);
                assert_eq!(new, model.first_sighting(id), "first_sighting at {step}");
                if len_before == 0 {
                    // The session's first insertion: the initial table.
                    assert_eq!(fast.slots.len(), initial, "first table at {step}");
                } else if fast.slots.as_ptr() != table {
                    // A rebuild: sized from what it remembers, nothing more.
                    assert_eq!(fast.slots.len(), table_len_for(fast.len(), CAPACITY));
                    growths += usize::from(fast.slots.len() > len_before);
                    evicting_rebuilds += usize::from(fast.occupied <= before);
                }
            }
            assert_eq!(fast.len(), model.order.len(), "len diverged at {step}");
            assert!(
                fast.slots.len() <= table_len_for(fast.len(), CAPACITY).max(initial),
                "table of {} slots for {} live ids at {step}",
                fast.slots.len(),
                fast.len()
            );
        }
        // The stream grew tables, dropped stale entries in rebuilds and
        // cleared outgrown tables.
        assert!(growths > 0 && evicting_rebuilds > 0 && outgrown_clears > 0);
    }

    #[test]
    fn the_horizon_forgets_at_the_second_checkpoint() {
        const H: SimDuration = SimDuration::from_millis(100);
        let at = SimTime::from_millis;
        let mut c = DupCache::new(64);
        assert!(c.sighting(QueryId(1), at(0), Some(H)));
        assert!(
            !c.sighting(QueryId(1), at(100), Some(H)),
            "within H: a duplicate"
        );
        // 101 ms: the first checkpoint, id 1 still after the older one.
        assert!(c.sighting(QueryId(2), at(101), Some(H)));
        assert!(c.contains(QueryId(1)));
        // 202 ms: the second checkpoint forgets what preceded the first.
        assert!(c.sighting(QueryId(3), at(202), Some(H)));
        assert!(!c.contains(QueryId(1)) && c.contains(QueryId(2)));
        assert_eq!(c.len(), 2);
        // The FIFO bound alone still held id 1: a copy this late reads
        // new, the answer the premise rules out.
        assert!(c.sighting(QueryId(1), at(203), Some(H)));
        assert!(!c.sighting(QueryId(1), at(203), Some(H)));
        // No horizon: nothing is forgotten by time.
        let mut fifo = DupCache::new(64);
        assert!(fifo.sighting(QueryId(1), at(0), None));
        assert!(!fifo.sighting(QueryId(1), at(1_000_000), None));
    }

    /// The cache with and without a flood horizon against the FIFO model,
    /// over streams that keep the horizon's premise: time advances in
    /// steps of at most `STEP`, and an id is sighted again only within
    /// `H` of the sighting that (re)inserted it. Every answer of both
    /// caches must be the model's, a `clear` must leave no table, a
    /// session's first insertion must allocate the initial one, and after
    /// every rebuild the horizon's table is no longer than [`table_len_for`] of the ids
    /// inserted within `2H + STEP` (a checkpoint advances at the first
    /// sighting more than `H` past the last one, so the two are at most
    /// `H + STEP` apart).
    #[test]
    fn horizon_model_differential() {
        const H: u64 = 720;
        const STEP: u64 = 40;
        let mut next = splitmix(0x005E_ED0F_F100_D00D);
        for capacity in [4usize, 64, 4_096] {
            let mut with = DupCache::new(capacity);
            let mut without = DupCache::new(capacity);
            let mut model = ModelCache::new(capacity);
            // Each id's latest (re)insertion time, oldest first.
            let mut inserted: VecDeque<(QueryId, u64)> = VecDeque::new();
            let mut last_insert: std::collections::HashMap<QueryId, u64> = Default::default();
            let (mut now, mut fresh) = (0u64, 0u64);
            let (mut shrinks, mut forgotten) = (0, 0);
            for step in 0..200_000u32 {
                let r = next();
                now += r % (STEP + 1);
                while inserted.front().is_some_and(|&(_, t)| t + H < now) {
                    inserted.pop_front();
                }
                if r >> 56 == 0 {
                    for c in [&mut with, &mut without] {
                        c.clear();
                        assert_eq!(c.slots.len(), 0, "clear kept a table, {step}");
                    }
                    model.clear();
                    inserted.clear();
                    last_insert.clear();
                    continue;
                }
                // A fresh id, or a copy of one inserted within H.
                let id = if (r >> 32).is_multiple_of(3) || inserted.is_empty() {
                    fresh += 1;
                    QueryId(fresh)
                } else {
                    inserted[(r >> 40) as usize % inserted.len()].0
                };
                let t = SimTime::from_millis(now);
                let table = with.slots.as_ptr();
                let len_before = with.slots.len();
                let want = model.first_sighting(id);
                let got = with.sighting(id, t, Some(SimDuration::from_millis(H)));
                assert_eq!(got, want, "horizon, step {step} (capacity {capacity})");
                assert_eq!(without.sighting(id, t, None), want, "fifo, step {step}");
                if want {
                    last_insert.insert(id, now);
                    inserted.retain(|&(held, _)| held != id);
                    inserted.push_back((id, now));
                }
                if len_before == 0 {
                    assert_eq!(
                        with.slots.len(),
                        initial_len(capacity),
                        "first table, {step}"
                    );
                } else if with.slots.as_ptr() != table {
                    let recent = last_insert
                        .values()
                        .filter(|&&at| at + 2 * H + STEP >= now)
                        .count();
                    assert!(
                        with.slots.len() <= table_len_for(recent, capacity),
                        "{} slots for {recent} recent ids at step {step}",
                        with.slots.len()
                    );
                    shrinks += usize::from(with.slots.len() < len_before);
                }
                forgotten += usize::from(with.len() < without.len());
                let probe = inserted[(r >> 20) as usize % inserted.len()].0;
                assert_eq!(
                    with.contains(probe),
                    model.contains(probe),
                    "contains, {step}"
                );
                assert_eq!(without.len(), model.order.len(), "len diverged at {step}");
            }
            // Past the smallest bound (which forgets first) the horizon
            // forgot what the FIFO bound held, and at the simulator's
            // bound its rebuilds shrank tables.
            assert!(
                capacity == 4 || forgotten > 0,
                "capacity {capacity}: the horizon never forgot"
            );
            assert!(capacity < 4_096 || shrinks > 0, "no rebuild shrank a table");
        }
    }
}
