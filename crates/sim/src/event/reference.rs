//! The `(time, seq)`-keyed entry and the binary-heap future-event list
//! built on it: the executable specification of the kernel's ordering
//! contract. [`super::EventQueue`] keys only its overflow heap this way;
//! its wheel buckets hold bare payloads whose order is implied.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry. Ordered so the *earliest* (time, seq) pops first from
/// a max-heap, i.e. the comparison is reversed.
pub(super) struct Scheduled<E> {
    pub(super) time: SimTime,
    pub(super) seq: u64,
    pub(super) event: E,
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

/// The original binary-heap future-event list, kept as the executable
/// specification of the kernel's ordering contract. Same API surface as
/// [`super::EventQueue`]; used by differential tests, never by the
/// simulation driver.
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
        Self::with_capacity(0)
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
    /// parity with [`super::EventQueue::peek_event`]).
    pub fn peek_event(&self) -> Option<&E> {
        self.heap.peek().map(|s| &s.event)
    }

    /// Total number of events ever scheduled (the tie-break counter).
    pub fn scheduled_count(&self) -> u64 {
        self.seq
    }
}
