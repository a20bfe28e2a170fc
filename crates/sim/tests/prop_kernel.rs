//! Property-based tests for the simulation kernel invariants.

use ddr_sim::{EventQueue, ReferenceEventQueue, RngFactory, SimDuration, SimTime};
use proptest::prelude::*;

/// One step of the differential driver below. Delays are biased so that the
/// generated schedules exercise every regime of the calendar queue:
/// same-timestamp bursts (FIFO tie-break), nearby slots (wheel hits),
/// wheel-width boundary crossings (cursor rollover), and far-future
/// outliers that must detour through the overflow heap and later migrate
/// back onto the wheel. `Burst` and `Drain` fill and empty whole buckets,
/// so bucket buffers grown by one slot are recycled into another: across
/// laps, with a wrapped ring (`head != 0`), and under overflow → wheel
/// migration.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule at `now + delay_ms`.
    In(u64),
    /// Schedule at an absolute offset from the current time floor (still
    /// `>= now`, as the kernel requires).
    At(u64),
    /// Schedule `count` events at the one timestamp `now + delay_ms`.
    Burst(u64, u32),
    /// Pop one event (no-op on empty).
    Pop,
    /// Pop up to `count` events.
    Drain(u32),
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    // The vendored proptest `prop_oneof!` is unweighted; arms are
    // duplicated instead to bias towards pops and near-term events.
    prop_oneof![
        // Same-timestamp bursts: many zero delays in a row.
        Just(QueueOp::In(0)),
        // Near-term wheel hits (within a slot or two).
        (0u64..8).prop_map(QueueOp::In),
        (0u64..8).prop_map(QueueOp::In),
        // Mid-range, still inside the 2048-slot wheel span.
        (8u64..1_500).prop_map(QueueOp::In),
        // Boundary stress: right at / around the wheel width.
        (1_900u64..2_300).prop_map(QueueOp::In),
        // Far-future outliers: forced onto the overflow heap, must
        // migrate back when the cursor advances far enough.
        (5_000u64..200_000).prop_map(QueueOp::In),
        (0u64..3_000).prop_map(QueueOp::At),
        // Dense slots, near (wheel) and far (overflow, then migration).
        (0u64..3_000, 50u32..500).prop_map(|(ms, n)| QueueOp::Burst(ms, n)),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
        (50u32..500).prop_map(QueueOp::Drain),
    ]
}

/// Pop one event from each queue (no-op on empty); peeked time and popped
/// `(time, payload)` must agree.
fn pop_both(
    cal: &mut EventQueue<u32>,
    reference: &mut ReferenceEventQueue<u32>,
) -> Option<(SimTime, u32)> {
    assert_eq!(cal.peek_time(), reference.peek_time());
    let popped = cal.pop();
    assert_eq!(popped, reference.pop());
    popped
}

/// Feed `cal` and a fresh reference binary heap the identical operation
/// sequence; they must agree on every observable — pop order (time *and*
/// payload, which encodes insertion order), peeked times, lengths, and
/// the final drain.
fn assert_matches_reference(mut cal: EventQueue<u32>, ops: &[QueueOp]) {
    let mut reference: ReferenceEventQueue<u32> = ReferenceEventQueue::new();
    let mut seq: u32 = 0;
    for op in ops {
        match *op {
            QueueOp::In(ms) => {
                cal.schedule_in(SimDuration::from_millis(ms), seq);
                reference.schedule_in(SimDuration::from_millis(ms), seq);
                seq += 1;
            }
            QueueOp::At(ms) => {
                // Anchor at the calendar queue's clock; assert the
                // clocks agree first so both see the same timestamp.
                assert_eq!(cal.now(), reference.now());
                let at = cal.now() + SimDuration::from_millis(ms);
                cal.schedule_at(at, seq);
                reference.schedule_at(at, seq);
                seq += 1;
            }
            QueueOp::Burst(ms, count) => {
                for _ in 0..count {
                    cal.schedule_in(SimDuration::from_millis(ms), seq);
                    reference.schedule_in(SimDuration::from_millis(ms), seq);
                    seq += 1;
                }
            }
            QueueOp::Pop => {
                pop_both(&mut cal, &mut reference);
            }
            QueueOp::Drain(count) => {
                for _ in 0..count {
                    pop_both(&mut cal, &mut reference);
                }
            }
        }
        assert_eq!(cal.len(), reference.len());
    }
    // Drain both completely; every remaining event must match.
    while pop_both(&mut cal, &mut reference).is_some() {}
    assert!(cal.is_empty() && reference.is_empty());
    assert_eq!(cal.scheduled_count(), reference.scheduled_count());
}

proptest! {
    /// Differential test against the reference heap, over the default
    /// wheel, a one-word wheel (every burst beyond 64 ms detours through
    /// overflow and the cursor laps constantly) and a capacity-hinted
    /// queue: geometry and buffer recycling never change pop order.
    #[test]
    fn calendar_matches_reference_heap(ops in proptest::collection::vec(queue_op(), 1..400)) {
        assert_matches_reference(EventQueue::new(), &ops);
        assert_matches_reference(EventQueue::with_geometry(64), &ops);
        assert_matches_reference(EventQueue::with_capacity(4096), &ops);
    }
}

/// Queue memory is O(peak pending), not O(slots visited): a sliding window
/// of 10,000 pending events walks 20,000 distinct 1 ms buckets (no wrap on
/// a 65,536-slot wheel), each filled to a few hundred entries and drained
/// once. Drained buckets hand their buffers on, so retained capacity stays
/// within a small factor of the pending population; a queue whose buckets
/// keep their own buffers retains ~10 M slots here.
fn assert_sliding_window_retains_at_most_8x_peak<E: Copy>(payload: E) {
    const PENDING: u64 = 10_000;
    let mut q: EventQueue<E> = EventQueue::with_geometry(65_536);
    // 10–33 ms ahead, scrambled by a multiplicative hash of a counter.
    let mut i: u64 = 0;
    let mut schedule = |q: &mut EventQueue<E>| {
        i += 1;
        let ahead = 10 + i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 24;
        q.schedule_in(SimDuration::from_millis(ahead), payload);
    };
    for _ in 0..PENDING {
        schedule(&mut q);
    }
    while q.now() < SimTime::from_millis(20_000) {
        q.pop().expect("window never empties");
        schedule(&mut q);
    }
    assert_eq!(q.peak_pending() as u64, PENDING);
    assert!(
        q.retained_slots() <= 8 * q.peak_pending(),
        "retained {} slots for a peak of {} pending",
        q.retained_slots(),
        q.peak_pending()
    );
}

/// Zero-sized payloads: buckets allocate nothing, and `retained_slots`
/// must not sum `VecDeque`'s `usize::MAX` capacity over them.
#[test]
fn sliding_window_memory_is_bounded_by_peak_pending() {
    assert_sliding_window_retains_at_most_8x_peak(());
}

/// The same bound on a payload with a size, where bucket buffers are real.
#[test]
fn sliding_window_memory_is_bounded_by_peak_pending_u64() {
    assert_sliding_window_retains_at_most_8x_peak(0u64);
}

/// Buckets hold bare payloads, so FIFO order inside a bucket must be
/// `(time, seq)` order. On a 64-slot wheel: bursts one and two laps out
/// wait in overflow, the cursor advances until their slots come inside
/// the horizon (migrating them), then direct pushes hit the same slots.
/// Migrants must pop ahead of the direct entries, each group in
/// insertion order.
#[test]
fn migrated_entries_pop_before_later_direct_pushes_of_their_slot() {
    const N: u64 = 64;
    let mut cal: EventQueue<u32> = EventQueue::with_geometry(N as usize);
    let mut reference: ReferenceEventQueue<u32> = ReferenceEventQueue::new();
    let mut seq = 0u32;
    let mut schedule = |cal: &mut EventQueue<u32>, r: &mut ReferenceEventQueue<u32>, ms: u64| {
        cal.schedule_at(SimTime::from_millis(ms), seq);
        r.schedule_at(SimTime::from_millis(ms), seq);
        seq += 1;
    };
    let far = [N + 5, N + 40, 2 * N + 5, 2 * N + 7];
    for &ms in &far {
        for _ in 0..3 {
            schedule(&mut cal, &mut reference, ms);
        }
    }
    // Step the cursor forward one event at a time; each step pushes into
    // every far slot that is now inside the horizon.
    for step in [10, 30, 50, 70, 100, 120, 140] {
        schedule(&mut cal, &mut reference, step);
        assert_eq!(cal.pop(), reference.pop());
        let now = cal.now().as_millis();
        for &ms in far.iter().filter(|&&ms| ms >= now && ms < now + N) {
            schedule(&mut cal, &mut reference, ms);
        }
    }
    assert!(cal.migrations() > 0, "the far bursts must migrate");
    loop {
        let popped = cal.pop();
        assert_eq!(popped, reference.pop());
        if popped.is_none() {
            break;
        }
    }
}

proptest! {
    /// Events always pop in non-decreasing time order, regardless of the
    /// insertion order, and FIFO among equal timestamps.
    #[test]
    fn heap_pops_sorted_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_millis(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated for equal timestamps");
                }
            }
            prop_assert_eq!(SimTime::from_millis(times[idx]), t);
            last = Some((t, idx));
        }
        prop_assert!(q.is_empty());
    }

    /// Interleaved schedule/pop sequences never violate causality: after a
    /// pop at time t, everything remaining pops at >= t.
    #[test]
    fn interleaving_preserves_causality(
        ops in proptest::collection::vec((0u64..500, any::<bool>()), 1..100)
    ) {
        let mut q = EventQueue::new();
        for (delay, do_pop) in ops {
            // schedule relative to current clock so it's never in the past
            let at = q.now() + ddr_sim::SimDuration::from_millis(delay);
            q.schedule_at(at, ());
            if do_pop {
                let before = q.now();
                let (t, _) = q.pop().unwrap();
                prop_assert!(t >= before);
            }
        }
        let mut last = q.now();
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// RNG streams are pure functions of (root, label, index).
    #[test]
    fn rng_streams_deterministic(root in any::<u64>(), idx in any::<u64>()) {
        let f1 = RngFactory::new(root);
        let f2 = RngFactory::new(root);
        prop_assert_eq!(f1.sub_seed("lbl", idx), f2.sub_seed("lbl", idx));
        // and sensitive to each component
        prop_assert_ne!(f1.sub_seed("lbl", idx), f1.sub_seed("lbl2", idx));
        prop_assert_ne!(f1.sub_seed("lbl", idx), f1.sub_seed("lbl", idx.wrapping_add(1)));
    }
}
