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
//!   queue** (bucketed time wheel over near-future slots, min-heap
//!   overflow for far-future events). Scheduling into the wheel is an
//!   O(1) bucket append in the common monotone case, popping is an O(1)
//!   `pop_front` plus an amortised-O(1) cursor walk, and the next-event
//!   timestamp is cached so the driver's peek/pop pair costs one scan.
//! * [`ReferenceEventQueue`] — the original `BinaryHeap` future-event
//!   list, kept as the executable specification. Differential tests in
//!   `tests/prop_kernel.rs` drive both with random interleavings
//!   and assert identical pop sequences.

use crate::probe::QueueSample;
use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::cmp::Ordering;
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

/// A scheduled entry. Ordered so the *earliest* (time, seq) pops first from
/// a max-heap, i.e. the comparison is reversed.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smaller (time, seq) is "greater" for BinaryHeap.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

// ------------------------------------------------------------------------
// Calendar-queue kernel
// ------------------------------------------------------------------------

/// log2 of the wheel slot width in milliseconds. One-millisecond slots
/// exploit the clock's integer-ms resolution: every entry in a bucket
/// carries the *same* timestamp, so the sorted insert degenerates to an
/// O(1) `push_back` (the new entry always holds the largest seq). Wider
/// slots were measured slower: network delays cluster at 70/150/300 ms
/// ± 60 ms, so 64 ms slots concentrated hundreds of entries per bucket
/// and the mid-bucket sorted inserts turned into memmoves.
const SLOT_SHIFT: u32 = 0;
/// Default number of wheel buckets (power of two). Wheel horizon =
/// `DEFAULT_WHEEL_BUCKETS << SLOT_SHIFT` = 2.048 s beyond the cursor —
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

#[inline]
fn slot_of(t: SimTime) -> u64 {
    t.as_millis() >> SLOT_SHIFT
}

/// The production future-event list: a two-level calendar queue.
///
/// Level 1 is a circular array of buckets (a power-of-two count fixed at
/// construction; see [`wheel_buckets_for`]), each a `VecDeque` kept
/// sorted ascending by `(time, seq)`; the bucket for absolute slot `s`
/// is `wheel[s % nbuckets]`, and the **single-lap invariant** says a
/// bucket only ever holds entries of one absolute slot: those within
/// `[cursor, cursor + nbuckets)`. Level 2 is a min-heap holding
/// everything at or beyond the wheel horizon; entries migrate into the
/// wheel as the cursor advances past their lap boundary.
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
/// timer wheel (EXPERIMENTS.md, "The bus's timer queue").
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
    wheel: Vec<VecDeque<Scheduled<E>>>,
    /// Buffers of drained buckets, reused LIFO (the most recently drained
    /// one is the most likely to still be in cache). Empty buckets own
    /// no allocation.
    spare: Vec<VecDeque<Scheduled<E>>>,
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
        let entry = Scheduled {
            time: at,
            seq,
            event,
        };
        let slot = slot_of(at);
        debug_assert!(slot >= self.cursor, "cursor passed the current time");
        if slot - self.cursor < self.wheel.len() as u64 {
            self.insert_in_wheel(entry);
        } else {
            self.overflow.push(entry);
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
        let computed = self.front().map(|s| s.time);
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
        let front = self.front()?;
        self.next_at.set(Some(front.time));
        Some(&front.event)
    }

    /// The earliest pending entry. Wheel entries always precede overflow
    /// entries (their slots are strictly smaller, and slot order implies
    /// time order across distinct slots), so the head of the first
    /// non-empty bucket at or after the cursor is the minimum; with an
    /// empty wheel it is the overflow top.
    fn front(&self) -> Option<&Scheduled<E>> {
        if self.wheel_len > 0 {
            let b = self
                .next_occupied((self.cursor & self.slot_mask) as usize)
                .expect("wheel_len > 0 but occupancy bitmap empty");
            return Some(
                self.wheel[b]
                    .front()
                    .expect("occupancy bit set on empty bucket"),
            );
        }
        self.overflow.peek()
    }

    /// Put `entry` (whose slot lies inside the current wheel window) into
    /// its bucket, keeping the bucket sorted ascending by `(time, seq)`.
    /// A fresh `schedule_at` entry carries the largest seq so far and
    /// overflow drains in `(time, seq)` order, and with 1 ms slots every
    /// co-bucketed entry shares one timestamp, so this is almost always
    /// an O(1) append; the sorted branch only fires when overflow
    /// migration meets a bucket that already holds later in-window
    /// entries (and keeps the slot width safely retunable).
    #[inline]
    fn insert_in_wheel(&mut self, entry: Scheduled<E>) {
        let b = (slot_of(entry.time) & self.slot_mask) as usize;
        let bucket = &mut self.wheel[b];
        if bucket.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *bucket = buf;
            }
        }
        let key = (entry.time, entry.seq);
        match bucket.back() {
            Some(last) if (last.time, last.seq) > key => {
                let pos = bucket.partition_point(|e| (e.time, e.seq) <= key);
                bucket.insert(pos, entry);
            }
            _ => bucket.push_back(entry),
        }
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
        while let Some(top) = self.overflow.peek() {
            if slot_of(top.time) >= horizon {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry vanished");
            self.insert_in_wheel(entry);
            self.migrations += 1;
        }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let t = self.peek_time()?;
        let slot = slot_of(t);
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
        let entry = bucket.pop_front().expect("cached minimum not in bucket");
        debug_assert_eq!(entry.time, t, "bucket front disagrees with cache");
        debug_assert!(entry.time >= self.now, "event popped out of order");
        if bucket.is_empty() {
            self.spare.push(std::mem::take(bucket));
            self.occupied[b >> 6] &= !(1 << (b & 63));
        }
        self.wheel_len -= 1;
        self.now = entry.time;
        self.next_at.set(None);
        Some((entry.time, entry.event))
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
    /// a small factor of it. An O(buckets) walk — for profiling and
    /// tests, not for the hot loop.
    pub fn retained_slots(&self) -> usize {
        let buffers = self.wheel.iter().chain(&self.spare);
        buffers.map(VecDeque::capacity).sum::<usize>() + self.overflow.capacity()
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

    /// A [`Scheduler`] façade over this queue, for priming worlds before a
    /// run (the same façade the driver hands to [`crate::World::handle`]).
    pub fn scheduler(&mut self) -> Scheduler<'_, E> {
        Scheduler::new(self)
    }
}

// ------------------------------------------------------------------------
// Reference kernel (executable specification)
// ------------------------------------------------------------------------

/// The original binary-heap future-event list, kept as the executable
/// specification of the kernel's ordering contract. Same API surface as
/// [`EventQueue`]; used by differential tests, never by the simulation
/// driver.
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: SimTime,
    peak: usize,
}

impl<E> Default for ReferenceEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceEventQueue<E> {
    /// An empty queue positioned at t = 0.
    pub fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            peak: 0,
        }
    }

    /// An empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
            now: SimTime::ZERO,
            peak: 0,
        }
    }

    /// Current virtual time (timestamp of the most recent pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`; panics if `at < now()`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "attempted to schedule an event in the past: at={at}, now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
        if self.heap.len() > self.peak {
            self.peak = self.heap.len();
        }
    }

    /// High-water mark of pending events.
    pub fn peak_pending(&self) -> usize {
        self.peak
    }

    /// Schedule `event` at `now + delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now, "heap returned an event out of order");
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// The earliest pending event's payload without popping it (API
    /// parity with [`EventQueue::peek_event`]).
    pub fn peek_event(&self) -> Option<&E> {
        self.heap.peek().map(|s| &s.event)
    }

    /// Total number of events ever scheduled (the tie-break counter).
    pub fn scheduled_count(&self) -> u64 {
        self.seq
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

    /// Schedule at an absolute instant (must not be in the past).
    #[inline]
    pub fn at(&mut self, at: SimTime, event: E) {
        self.queue.schedule_at(at, event);
    }

    /// Schedule after a relative delay.
    #[inline]
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule_in(delay, event);
    }

    /// Number of pending events (diagnostics).
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_millis(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(7));
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(5), ());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), 0);
        q.pop();
        q.schedule_in(SimDuration::from_millis(5), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(e, 1);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(42), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(42)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), 10u64);
        q.schedule_at(SimTime::from_millis(30), 30);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.as_millis(), 10);
        // Schedule between now and the remaining event.
        q.schedule_at(SimTime::from_millis(20), 20);
        let seq: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(seq, vec![20, 30]);
    }

    /// Events beyond the initial wheel horizon (cursor + NBUCKETS slots)
    /// start in the overflow heap and must migrate into the wheel — in
    /// order, FIFO-stable — as the cursor rolls past lap boundaries.
    #[test]
    fn bucket_rollover_beyond_initial_horizon() {
        let wheel_span_ms = (DEFAULT_WHEEL_BUCKETS as u64) << SLOT_SHIFT;
        let mut q = EventQueue::new();
        // One event per "lap" across 5 laps, scheduled out of order, plus
        // a same-timestamp burst in lap 3 to check FIFO survives
        // migration.
        let mut expect = Vec::new();
        for lap in (0..5u64).rev() {
            let t = SimTime::from_millis(lap * wheel_span_ms + 17);
            q.schedule_at(t, (lap, 0u64));
        }
        for lap in 0..5u64 {
            expect.push((lap, 0u64));
        }
        let burst_t = SimTime::from_millis(3 * wheel_span_ms + 17);
        for i in 1..=10u64 {
            q.schedule_at(burst_t, (3, i));
        }
        expect.splice(4..4, (1..=10u64).map(|i| (3, i)));
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, expect);
        assert_eq!(q.now(), SimTime::from_millis(4 * wheel_span_ms + 17));
    }

    /// Far-future outlier sitting in overflow while near events churn:
    /// the overflow entry must surface exactly in order.
    #[test]
    fn overflow_outlier_pops_after_wheel_drains() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_hours(5), "far");
        for i in 0..50u64 {
            q.schedule_at(SimTime::from_millis(i * 100), "near");
        }
        let mut names = Vec::new();
        while let Some((_, e)) = q.pop() {
            names.push(e);
        }
        assert_eq!(names.len(), 51);
        assert_eq!(*names.last().unwrap(), "far");
        assert!(names[..50].iter().all(|&n| n == "near"));
    }

    /// The len/peek/now surface must agree between the production and
    /// reference queues under the same operation sequence.
    #[test]
    fn reference_queue_matches_calendar_on_smoke_sequence() {
        let mut cal = EventQueue::new();
        let mut refq = ReferenceEventQueue::new();
        let times = [5u64, 5, 70_000, 3, 200, 5, 999_999, 70_000, 0];
        for (i, &t) in times.iter().enumerate() {
            cal.schedule_at(SimTime::from_millis(t), i);
            refq.schedule_at(SimTime::from_millis(t), i);
        }
        assert_eq!(cal.len(), refq.len());
        assert_eq!(cal.peek_time(), refq.peek_time());
        loop {
            let a = cal.pop();
            let b = refq.pop();
            assert_eq!(a, b);
            assert_eq!(cal.now(), refq.now());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule_at(SimTime::from_millis(i), ());
        }
        for _ in 0..5 {
            q.pop();
        }
        q.schedule_in(SimDuration::from_millis(1), ());
        assert_eq!(q.peak_pending(), 10);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn queue_stats_expose_overflow_and_migrations() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1), ());
        q.schedule_at(SimTime::from_hours(2), ());
        assert_eq!(q.overflow_len(), 1, "hour-scale timer belongs in overflow");
        assert_eq!(q.occupied_buckets(), 1);
        assert_eq!(q.migrations(), 0);
        q.pop();
        q.pop();
        assert_eq!(q.migrations(), 1, "far event must migrate into the wheel");
        assert_eq!(q.overflow_len(), 0);
        assert_eq!(q.occupied_buckets(), 0);
    }

    #[test]
    fn capacity_hint_is_monotone_and_positive() {
        assert!(event_capacity_hint(0, 0) >= 64);
        let small = event_capacity_hint(100, 2);
        let large = event_capacity_hint(2_000, 4);
        assert!(large >= small);
        assert!(small.is_power_of_two());
    }

    #[test]
    fn wheel_geometry_adapts_to_capacity_hint() {
        // Small hints keep the paper-scale default …
        assert_eq!(wheel_buckets_for(0), DEFAULT_WHEEL_BUCKETS);
        assert_eq!(
            EventQueue::<()>::with_capacity(1_000).wheel_buckets(),
            DEFAULT_WHEEL_BUCKETS
        );
        // … big hints grow the wheel, up to the cap.
        let big = wheel_buckets_for(event_capacity_hint(1_000_000, 4));
        assert!(big > DEFAULT_WHEEL_BUCKETS);
        assert!(big <= MAX_WHEEL_BUCKETS);
        assert_eq!(wheel_buckets_for(usize::MAX / 2), MAX_WHEEL_BUCKETS);
        assert_eq!(
            EventQueue::<()>::with_geometry(MIN_WHEEL_BUCKETS).wheel_buckets(),
            MIN_WHEEL_BUCKETS
        );
    }

    /// Geometry never changes pop order: a deliberately tiny wheel (which
    /// forces constant overflow detours and cursor laps) must agree with
    /// the reference heap event for event.
    #[test]
    fn tiny_wheel_matches_reference_heap() {
        let mut cal: EventQueue<u64> = EventQueue::with_geometry(MIN_WHEEL_BUCKETS);
        let mut refq: ReferenceEventQueue<u64> = ReferenceEventQueue::new();
        // A deterministic scramble of near, far, and equal timestamps.
        let mut t: u64 = 0;
        for i in 0..2_000u64 {
            t = t.wrapping_mul(6364136223846793005).wrapping_add(i) % 10_000;
            let at = SimTime::from_millis(t);
            if at >= cal.now() {
                cal.schedule_at(at, i);
                refq.schedule_at(at, i);
            }
            if i % 3 == 0 {
                assert_eq!(cal.pop(), refq.pop());
            }
        }
        loop {
            let (a, b) = (cal.pop(), refq.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_geometry_panics() {
        let _ = EventQueue::<()>::with_geometry(1000);
    }
}
