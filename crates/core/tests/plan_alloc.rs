//! `UpdatePlan::replan` plans in place: once its buffers have grown, a
//! re-plan allocates nothing. A counting global allocator makes that a
//! test (this file is its own binary, so the allocator counts only here,
//! and only on the thread that opts in).

use ddr_core::stats_store::ReplyObservation;
use ddr_core::{StatsStore, UpdatePlan};
use ddr_sim::{NodeId, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made by this thread while counting; `None` when off.
    static ALLOCS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note_alloc() {
    ALLOCS.with(|a| a.set(a.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    ALLOCS.with(|a| a.set(Some(0)));
    f();
    ALLOCS.with(|a| a.replace(None)).expect("counting was on")
}

#[test]
fn replanning_after_a_warm_up_allocates_nothing() {
    // A Gnutella-shaped node: degree 4, a dozen known peers (one
    // poisoned), two neighbors without statistics, one ineligible.
    let mut stats = StatsStore::new();
    for n in 1..=12u32 {
        stats.record_reply(ReplyObservation {
            from: NodeId(n),
            bandwidth: None,
            score: if n == 5 { f64::NAN } else { f64::from(n % 4) },
            latency_ms: 10.0,
            at: SimTime::ZERO,
        });
    }
    let current = [NodeId(3), NodeId(20), NodeId(21), NodeId(9)];
    let eligible = |n: NodeId| n != NodeId(0) && n != NodeId(9);
    let mut plan = UpdatePlan::default();
    plan.replan(&current, &stats, |s| s.benefit, 4, 1, eligible);
    let warm = plan.clone();

    let count = allocations(|| {
        for _ in 0..1_000 {
            plan.replan(&current, &stats, |s| s.benefit, 4, 1, eligible);
        }
    });
    assert_eq!(count, 0, "1,000 re-plans allocated {count} times");
    assert_eq!(
        (&plan.add, &plan.evict, &plan.keep),
        (&warm.add, &warm.evict, &warm.keep)
    );
    assert!(!plan.add.is_empty() && !plan.evict.is_empty(), "{plan:?}");
}
