//! Future-event list with deterministic tie-breaking.
//!
//! A classic discrete-event simulator keeps pending events in a priority
//! queue ordered by timestamp. The kernel's contract is stronger than
//! "ordered": events scheduled for the same instant must fire in FIFO
//! order, so a run is reproducible under code motion, not just under a
//! fixed seed. Every implementation here therefore orders by
//! `(time, insertion seq)`.
//!
//! Two implementations share that contract:
//!
//! * [`EventQueue`] — the production kernel: a two-level **calendar
//!   queue** (a wheel of 1 ms buckets over the near future, min-heap
//!   overflow for far-future events). Scheduling into the wheel is an
//!   O(1) bucket append, popping is an O(1) `pop_front` plus an
//!   amortised-O(1) cursor walk, and the next-event timestamp is cached
//!   so the driver's peek/pop pair costs one scan. A bucket stores bare
//!   payloads: its slot is the timestamp and its FIFO order the seq.
//! * [`ReferenceEventQueue`] — the original `BinaryHeap` future-event
//!   list, kept as the executable specification (`event/reference.rs`).
//!   Differential tests in `tests/prop_kernel.rs` drive both with random
//!   interleavings and assert identical pop sequences.

mod reference;

pub use reference::ReferenceEventQueue;
use reference::Scheduled;

use crate::probe::QueueSample;
use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::collections::{BinaryHeap, VecDeque};

/// A pre-sizing hint for [`EventQueue::with_capacity`], derived from the
/// scenario scale: each of `nodes` nodes keeps a handful of periodic
/// events in flight (session churn, query timers) and a query in flight
/// fans out roughly with the hop limit. The hint only affects initial
/// allocation, never behaviour.
pub fn event_capacity_hint(nodes: usize, max_hops: u8) -> usize {
    let per_node = 4 + max_hops as usize;
    (nodes.saturating_mul(per_node)).next_power_of_two().max(64)
}

/// Default number of wheel buckets (power of two). A slot is one
/// millisecond, the clock's resolution, so the wheel horizon is
/// `DEFAULT_WHEEL_BUCKETS` ms = 2.048 s beyond the cursor —
/// enough for every network delay and collection window at paper scale;
/// hour-scale churn timers go to the overflow heap.
pub const DEFAULT_WHEEL_BUCKETS: usize = 2048;
/// Smallest admissible wheel (one occupancy-bitmap word). Mostly useful
/// for tests that want to hammer cursor rollover.
pub const MIN_WHEEL_BUCKETS: usize = 64;
/// Largest wheel [`wheel_buckets_for`] will pick (131 072 slots ≈ 131 s
/// of horizon). Beyond this the bucket array itself stops being
/// cache-resident and the occupancy scan dominates.
pub const MAX_WHEEL_BUCKETS: usize = 1 << 17;

/// Wheel size (bucket count) for a given pending-event capacity hint.
///
/// A million-node world keeps on the order of one timer per node alive;
/// with the paper-scale 2 048-slot wheel nearly all of them sit in the
/// overflow heap and every cursor lap migrates a huge population through
/// `O(log n)` heap pops. Growing the wheel with the expected pending
/// population keeps the near-future working set in O(1) buckets. The
/// divisor is a measured compromise: most pending events are hour-scale
/// churn timers that belong in overflow no matter the wheel size, so the
/// wheel only needs to cover the near-future fraction.
pub fn wheel_buckets_for(cap: usize) -> usize {
    (cap / 4)
        .next_power_of_two()
        .clamp(DEFAULT_WHEEL_BUCKETS, MAX_WHEEL_BUCKETS)
}

/// The production future-event list: a two-level calendar queue.
///
/// Level 1 is a circular array of 1 ms buckets (a power-of-two count
/// fixed at construction; see [`wheel_buckets_for`]), each a `VecDeque`
/// of bare payloads in FIFO order; the bucket for absolute slot `s` is
/// `wheel[s % nbuckets]`, and the **single-lap invariant** says a bucket
/// only ever holds entries of one absolute slot: those within
/// `[cursor, cursor + nbuckets)`. Level 2 is a min-heap of `Scheduled`
/// `(time, seq, event)` entries holding everything at or beyond the wheel
/// horizon; entries migrate into the wheel as the cursor advances past
/// their lap boundary.
///
/// A bucket stores neither `time` nor `seq`. A slot is one millisecond,
/// the clock's resolution, so every entry of a bucket has the bucket's
/// timestamp, which `front()` derives from the cursor. The seq
/// tie-break is the bucket's FIFO order, because every entry is
/// appended and appending is always in seq order:
///
/// * an entry for slot `s` goes to overflow only while
///   `s >= cursor + nbuckets`, so no direct push can have reached `s`
///   before it (the cursor only advances);
/// * `advance_cursor` migrates every overflow entry of a slot
///   below the new horizon, in `(time, seq)` order, before any direct
///   push can target that slot — into a bucket that is still empty;
/// * so migrated entries land ahead of every direct entry of their slot,
///   and direct entries arrive with increasing seq.
///
/// The migration loop pins the empty-bucket step with a `debug_assert!`.
///
/// Memory: a bucket holds a buffer only while it is non-empty. A drained
/// bucket hands its `VecDeque` to a spare stack and the next bucket to
/// fill takes it back, so queue memory is O(peak pending) rather than
/// the sum of every slot's own high-water mark (see
/// [`EventQueue::retained_slots`]) — for traffic that leaves most
/// buckets empty most of the time, as every simulated world's does. It
/// is not true of traffic that occupies every bucket at once: each then
/// keeps a buffer grown to its own peak, which is why `ddr-serve`'s bus
/// (≈510 deliveries per millisecond, 70–2,000 ms ahead) has its own
/// timer wheel. There are two queues because the two loads want opposite
/// layouts: a kernel pop reads a bucket buffer contiguously (the bus's
/// slab-threaded lists, measured as this queue, halved `relay_kernel`'s
/// events per second), while the bus needs memory bounded by peak
/// pending (EXPERIMENTS.md "The bus's timing wheel" and
/// EXPERIMENTS.md "Bare-event wheel buckets").
///
/// Determinism: identical `(time, seq)` order as the reference heap —
/// FIFO among equal timestamps — verified by differential tests.
///
/// Generic over the event payload `E` so each simulation defines its own
/// event enum; the kernel never inspects payloads.
///
/// ```
/// use ddr_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime::from_millis(20), "later");
/// q.schedule_at(SimTime::from_millis(10), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "sooner")));
/// assert_eq!(q.now(), SimTime::from_millis(10));
/// ```
pub struct EventQueue<E> {
    /// Circular bucket array; `wheel[s & slot_mask]` holds slot `s`. The
    /// length is a power of two fixed at construction (see
    /// [`EventQueue::with_geometry`]).
    wheel: Vec<VecDeque<E>>,
    /// Buffers of drained buckets, reused LIFO (the most recently drained
    /// one is the most likely to still be in cache). Empty buckets own
    /// no allocation.
    spare: Vec<VecDeque<E>>,
    /// `wheel.len() - 1`, cached for the hot physical-index computation.
    slot_mask: u64,
    /// Entries currently stored in the wheel (not counting overflow).
    wheel_len: usize,
    /// Absolute slot index of the earliest possibly-occupied bucket.
    /// Only ever advances; all buckets for slots `< cursor` are empty.
    cursor: u64,
    /// Far-future entries (absolute slot `>= cursor + wheel.len()`).
    overflow: BinaryHeap<Scheduled<E>>,
    /// One bit per physical bucket: set iff the bucket is non-empty.
    /// Lets [`Self::front`] skip empty buckets a word at a time
    /// (a handful of `trailing_zeros` scans instead of walking up to
    /// `wheel.len()` empty `VecDeque`s).
    occupied: Box<[u64]>,
    /// Cached timestamp of the earliest pending entry. `None` means
    /// "unknown" (dirty), not "empty" — emptiness is `len() == 0`.
    /// Interior mutability lets `peek_time(&self)` fill it so the
    /// driver's peek/pop pair performs a single bucket scan.
    next_at: Cell<Option<SimTime>>,
    seq: u64,
    now: SimTime,
    peak: usize,
    /// Entries migrated from the overflow heap into the wheel over the
    /// queue's lifetime (profiling: how often the far-future population
    /// is touched).
    migrations: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at t = 0, with the default paper-scale
    /// wheel geometry.
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_WHEEL_BUCKETS)
    }

    /// An empty queue with an explicit wheel size. Geometry never affects
    /// pop order — the `(time, seq)` contract is identical for every
    /// wheel size (events beyond the horizon simply detour through the
    /// overflow heap) — only the migration/scan cost profile.
    ///
    /// # Panics
    /// Panics unless `nbuckets` is a power of two and at least
    /// [`MIN_WHEEL_BUCKETS`] (the occupancy bitmap needs whole words).
    pub fn with_geometry(nbuckets: usize) -> Self {
        assert!(
            nbuckets.is_power_of_two() && nbuckets >= MIN_WHEEL_BUCKETS,
            "wheel size must be a power of two >= {MIN_WHEEL_BUCKETS}, got {nbuckets}"
        );
        let mut wheel = Vec::with_capacity(nbuckets);
        wheel.resize_with(nbuckets, VecDeque::new);
        EventQueue {
            wheel,
            spare: Vec::new(),
            slot_mask: (nbuckets as u64) - 1,
            wheel_len: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
            occupied: vec![0u64; nbuckets / 64].into_boxed_slice(),
            next_at: Cell::new(None),
            seq: 0,
            now: SimTime::ZERO,
            peak: 0,
            migrations: 0,
        }
    }

    /// An empty queue sized for `cap` pending events (figure-scale runs
    /// keep thousands of in-flight events; see [`event_capacity_hint`]):
    /// the overflow heap (which holds the hour-scale timer population) is
    /// pre-reserved and the wheel geometry adapts to the hint (see
    /// [`wheel_buckets_for`]) so million-node worlds don't thrash the
    /// overflow heap. Buckets are not pre-reserved: they share recycled
    /// buffers, and a private head start per bucket would defeat that.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::with_geometry(wheel_buckets_for(cap));
        // Cap the up-front reservation: at million-node scale the hint
        // runs into the millions and faithful pre-allocation would cost
        // hundreds of MB before the first event fires.
        q.overflow.reserve((cap / 2).min(1 << 20));
        q
    }

    /// Number of wheel buckets (the configured geometry).
    #[inline]
    pub fn wheel_buckets(&self) -> usize {
        self.wheel.len()
    }

    /// Current virtual time: the timestamp of the most recently popped
    /// event (0 before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before the last popped timestamp):
    /// causality violations are programming errors and must fail loudly.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "attempted to schedule an event in the past: at={at}, now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let slot = at.as_millis();
        debug_assert!(slot >= self.cursor, "cursor passed the current time");
        if slot - self.cursor < self.wheel.len() as u64 {
            self.push_in_wheel(slot, event);
        } else {
            self.overflow.push(Scheduled {
                time: at,
                seq,
                event,
            });
        }
        if let Some(next) = self.next_at.get() {
            if at < next {
                self.next_at.set(Some(at));
            }
        }
        // (If the cache is dirty it stays dirty; peek recomputes.)
        let len = self.len();
        if len > self.peak {
            self.peak = len;
        }
    }

    /// High-water mark of pending events over the queue's lifetime
    /// (perf instrumentation: `benchmark/` reports it as `sim.peak_pending`).
    pub fn peak_pending(&self) -> usize {
        self.peak
    }

    /// Schedule `event` at `now + delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(t) = self.next_at.get() {
            return Some(t);
        }
        let computed = self.front().map(|(t, _)| t);
        if computed.is_some() {
            self.next_at.set(computed);
        }
        computed
    }

    /// The earliest pending event's payload without popping it (its
    /// timestamp is [`EventQueue::peek_time`]). Used by the driver loop
    /// to hand the *next* event to [`crate::World::prefetch`] while the
    /// current one is being handled. Also warms the peek cache, so a
    /// following `peek_time` costs no scan.
    pub fn peek_event(&self) -> Option<&E> {
        let (t, event) = self.front()?;
        self.next_at.set(Some(t));
        Some(event)
    }

    /// The earliest pending entry and its timestamp. Wheel entries always
    /// precede overflow entries (their slots are strictly smaller), so the
    /// head of the first non-empty bucket at or after the cursor is the
    /// minimum, and its timestamp is that bucket's absolute slot; with an
    /// empty wheel it is the overflow top.
    fn front(&self) -> Option<(SimTime, &E)> {
        if self.wheel_len > 0 {
            let b = self
                .next_occupied((self.cursor & self.slot_mask) as usize)
                .expect("wheel_len > 0 but occupancy bitmap empty");
            let slot = self.cursor + ((b as u64).wrapping_sub(self.cursor) & self.slot_mask);
            let event = self.wheel[b]
                .front()
                .expect("occupancy bit set on empty bucket");
            return Some((SimTime::from_millis(slot), event));
        }
        self.overflow.peek().map(|s| (s.time, &s.event))
    }

    /// Append `event` to the bucket of `slot`, which lies inside the
    /// current wheel window. Always an append: see the struct docs for
    /// why FIFO order is `(time, seq)` order.
    #[inline]
    fn push_in_wheel(&mut self, slot: u64, event: E) {
        let b = (slot & self.slot_mask) as usize;
        let bucket = &mut self.wheel[b];
        if bucket.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *bucket = buf;
            }
        }
        bucket.push_back(event);
        self.occupied[b >> 6] |= 1 << (b & 63);
        self.wheel_len += 1;
    }

    /// First occupied physical bucket index in circular order starting at
    /// `start` (inclusive). The single-lap invariant makes physical order
    /// from the cursor equal to absolute-slot order, so this is the
    /// bucket holding the wheel minimum.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let occ_words = self.occupied.len();
        let sw = start >> 6;
        // Word containing `start`, with bits below `start` masked off.
        let w = self.occupied[sw] & (!0u64 << (start & 63));
        if w != 0 {
            return Some((sw << 6) + w.trailing_zeros() as usize);
        }
        for i in 1..=occ_words {
            let idx = (sw + i) & (occ_words - 1);
            // After a full wrap, re-inspect the start word's low bits.
            let w = if i == occ_words {
                self.occupied[sw] & !(!0u64 << (start & 63))
            } else {
                self.occupied[idx]
            };
            if w != 0 {
                return Some((idx << 6) + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Advance the cursor to `slot`, pulling overflow entries whose lap
    /// has arrived into the wheel. Callers guarantee every bucket for a
    /// slot in `[cursor, slot)` is empty, so the buckets being re-keyed
    /// for the new window are free.
    fn advance_cursor(&mut self, slot: u64) {
        debug_assert!(slot >= self.cursor);
        self.cursor = slot;
        let horizon = self.cursor + self.wheel.len() as u64;
        let mut last = None;
        while let Some(top) = self.overflow.peek() {
            let s = top.time.as_millis();
            if s >= horizon {
                break;
            }
            // A slot's first migrant finds its bucket empty: no direct
            // push can have reached a slot that was past the horizon.
            debug_assert!(
                last == Some(s) || self.wheel[(s & self.slot_mask) as usize].is_empty(),
                "migration into slot {s} would land behind a direct push"
            );
            last = Some(s);
            let entry = self.overflow.pop().expect("peeked entry vanished");
            self.push_in_wheel(s, entry.event);
            self.migrations += 1;
        }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let t = self.peek_time()?;
        let slot = t.as_millis();
        if slot > self.cursor {
            // Either a later in-window slot (all earlier buckets empty —
            // the minimum lives at `slot`), or, when the wheel is empty,
            // an overflow lap boundary; both advance the cursor and
            // migrate newly in-window overflow entries.
            debug_assert!(
                slot - self.cursor < self.wheel.len() as u64 || self.wheel_len == 0,
                "cursor jump past a populated wheel window"
            );
            self.advance_cursor(slot);
        }
        let b = (slot & self.slot_mask) as usize;
        let bucket = &mut self.wheel[b];
        let event = bucket.pop_front().expect("cached minimum not in bucket");
        debug_assert!(t >= self.now, "event popped out of order");
        if bucket.is_empty() {
            self.spare.push(std::mem::take(bucket));
            self.occupied[b >> 6] &= !(1 << (b & 63));
        }
        self.wheel_len -= 1;
        self.now = t;
        self.next_at.set(None);
        Some((t, event))
    }

    /// Total number of events ever scheduled (the tie-break counter).
    pub fn scheduled_count(&self) -> u64 {
        self.seq
    }

    /// Events currently parked in the far-future overflow heap.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Number of non-empty wheel buckets (a popcount over the occupancy
    /// bitmap — cheap enough to sample every few thousand dispatches).
    pub fn occupied_buckets(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Entry slots the queue currently holds allocated: every bucket's
    /// capacity, the spare buffers' and the overflow heap's. Compare with
    /// [`Self::peak_pending`]: the recycling invariant keeps this within
    /// a small factor of it. A zero-sized payload allocates no bucket
    /// buffer (`VecDeque` then reports `usize::MAX` capacity), so its
    /// buckets count 0. An O(buckets) walk — for profiling and tests,
    /// not for the hot loop.
    pub fn retained_slots(&self) -> usize {
        let buckets = if std::mem::size_of::<E>() == 0 {
            0
        } else {
            let buffers = self.wheel.iter().chain(&self.spare);
            buffers.map(VecDeque::capacity).sum()
        };
        buckets + self.overflow.capacity()
    }

    /// Entries migrated overflow → wheel over the queue's lifetime.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The snapshot [`crate::Simulation::run_probed`] hands its probe.
    pub(crate) fn sample(&self) -> QueueSample {
        QueueSample {
            pending: self.len(),
            overflow: self.overflow_len(),
            occupied_buckets: self.occupied_buckets(),
            migrations: self.migrations(),
            retained_slots: self.retained_slots(),
        }
    }
}

/// A scheduling façade handed to [`crate::World::handle`] so world code can
/// enqueue follow-up events but cannot pop or rewind the clock.
pub struct Scheduler<'a, E> {
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    pub(crate) fn new(queue: &'a mut EventQueue<E>) -> Self {
        Scheduler { queue }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedule after a relative delay.
    #[inline]
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule_in(delay, event);
    }
}

#[cfg(test)]
mod tests;
