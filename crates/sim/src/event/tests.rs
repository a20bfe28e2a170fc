//! Unit tests of the calendar queue; the differential and memory-bound
//! tests live in `tests/prop_kernel.rs`.

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
    let wheel_span_ms = DEFAULT_WHEEL_BUCKETS as u64;
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
