//! `UpdatePlan::replan` plans in place, and the link handshake's steps
//! edit a borrowed book: once their buffers have grown, neither allocates.
//! A counting global allocator makes that a test (this file is its own
//! binary, so the allocator counts only here, and only on the thread that
//! opts in).

use ddr_core::runtime::link::{Effect, LinkBook, Message};
use ddr_core::stats_store::ReplyObservation;
use ddr_core::{StatsStore, UpdatePlan};
use ddr_overlay::NeighborList;
use ddr_sim::{FastHashSet, NodeId, SimTime};
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

/// One round of link steps on a degree-2 book, back to its start state:
/// the fill path a churning node runs (a request admitted, an answer
/// mirrored, one it cannot hold, a refusal, the drops) and an invitation
/// answer that swaps an incumbent out and remembers it.
fn link_round(view: &mut NeighborList, reserved: &mut u32, refused: &mut FastHashSet<NodeId>) {
    let (a, b, c, d) = (NodeId(1), NodeId(2), NodeId(3), NodeId(4));
    let mut book = LinkBook::new(view, reserved, refused);
    let none = |_: &[NodeId]| None;
    for _ in 0..4 {
        book.open();
    }
    let linked = Effect::Linked { evicted: None };
    assert_eq!(book.step(Message::Request { from: a }, true, none), linked);
    assert_eq!((book.free(2), book.free(6)), (0, 1));
    let answer = |from, accepted| Message::Answer { from, accepted };
    assert_eq!(book.step(answer(b, true), true, none), linked);
    assert_eq!(book.step(answer(c, true), true, none), Effect::Unlink);
    assert_eq!(book.step(answer(c, false), true, none), Effect::Refused);
    let swapped = Effect::Linked { evicted: Some(a) };
    assert_eq!(book.step(answer(d, true), true, |_| Some(a)), swapped);
    assert_eq!(
        book.step(Message::Request { from: a }, true, none),
        Effect::Refused
    );
    assert!(!book.may_dial(a) && !book.may_dial(b) && book.may_dial(c));
    assert!(book.evict(b, false) && book.evict(d, false));
    refused.remove(&a);
}

#[test]
fn link_steps_after_a_warm_up_allocate_nothing() {
    let mut view = NeighborList::with_capacity(2);
    let (mut reserved, mut refused) = (0, FastHashSet::default());
    link_round(&mut view, &mut reserved, &mut refused);
    let count = allocations(|| {
        for _ in 0..1_000 {
            link_round(&mut view, &mut reserved, &mut refused);
        }
    });
    assert_eq!(
        count, 0,
        "1,000 rounds of link steps allocated {count} times"
    );
    assert!(view.is_empty() && reserved == 0 && refused.is_empty());
}
