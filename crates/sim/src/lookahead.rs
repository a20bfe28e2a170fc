//! Latency-hiding dispatch, once for every engine: the lookahead ring and
//! the prefetch primitive its hints are made of.
//!
//! A loop that dispatches items one at a time from an ordered source —
//! the sharded kernel's `process_window` (events of one window), the
//! serve bus's `deliver_due` (envelopes due by now) — can pop a few items
//! ahead of their dispatch without changing what any handler observes,
//! provided nothing the handlers create can come out of the source ahead
//! of an item already popped. Each user states why that holds for it.
//! What the ring buys is warning: with the next `LOOKAHEAD_RING` (8) items
//! in hand, a world whose state is far larger than the cache can request
//! the lines their handlers will miss on while earlier items still run,
//! in two stages ([`HintStage`]). DESIGN.md §11, "Latency-hiding
//! dispatch".

use std::collections::VecDeque;

/// How many items a [`Lookahead`] holds popped ahead of dispatch. A
/// constant, not the whole source: a sharded window can hold 10^5 events
/// (draining it into a buffer grows the resident set with it), while the
/// memory system tracks only a dozen outstanding misses, so a deeper ring
/// buys nothing — 4/2, 16/8 and 32/16 measure the same as 8/4 on both
/// users.
const LOOKAHEAD_RING: usize = 8;

/// Ring position (0 is dispatched next) at which an item receives its
/// second-stage hint: half the ring for the first-stage lines to arrive,
/// half for the lines behind them.
const DEPENDENT_AT: usize = 4;

/// Which of an item's lines a hint asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintStage {
    /// Lines whose address is a pure function of the item, requested as
    /// it enters the ring.
    Direct,
    /// Lines whose address is read out of a `Direct` line, requested
    /// `DEPENDENT_AT` (4) dispatches later, once that line has had time to
    /// arrive.
    Dependent,
}

/// Up to `LOOKAHEAD_RING` (8) items popped ahead of their dispatch, and how
/// many of them have had their second-stage hint.
#[derive(Debug)]
pub struct Lookahead<T> {
    ring: VecDeque<T>,
    /// Ring entries in front of this position have had their second
    /// stage.
    hinted: usize,
}

impl<T> Default for Lookahead<T> {
    fn default() -> Self {
        Lookahead {
            ring: VecDeque::with_capacity(LOOKAHEAD_RING),
            hinted: 0,
        }
    }
}

impl<T> Lookahead<T> {
    /// Whether no item is held popped ahead.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The next item to dispatch, in `source` order. Refills the ring
    /// from `source` (until it is full or `source` gives `None`), calling
    /// `first` on each item as it enters; calls `second` on each item
    /// within `DEPENDENT_AT` (4) of the front that has not had it — one call
    /// per dispatch in a long run; at the start (and in runs shorter than
    /// the ring) the front items catch up here, after the whole fill's
    /// first-stage requests. `None` once the ring is empty and `source`
    /// is exhausted. Every item handed out has had exactly one `first`,
    /// then exactly one `second`.
    #[inline]
    pub fn next(
        &mut self,
        mut source: impl FnMut() -> Option<T>,
        mut first: impl FnMut(&T),
        mut second: impl FnMut(&T),
    ) -> Option<T> {
        while self.ring.len() < LOOKAHEAD_RING {
            let Some(item) = source() else { break };
            first(&item);
            self.ring.push_back(item);
        }
        while self.hinted < self.ring.len().min(DEPENDENT_AT + 1) {
            second(&self.ring[self.hinted]);
            self.hinted += 1;
        }
        let item = self.ring.pop_front()?;
        self.hinted -= 1;
        Some(item)
    }
}

/// Ask the memory system for the cache line holding `p`. Purely a hint:
/// no result may depend on it, and non-x86 builds compile it away.
#[inline(always)]
pub fn prefetch_line(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch has no architectural effect — it cannot
        // fault and changes no program-visible state — so it is sound
        // for any address.
        unsafe { _mm_prefetch(p.cast::<i8>(), _MM_HINT_T0) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// [`prefetch_line`] for the first and the last byte of the object at
/// `p`: columns packed at strides that are not multiples of 64 bytes put
/// half their objects across two lines.
#[inline(always)]
pub fn prefetch_object<O>(p: *const O) {
    prefetch_line(p.cast());
    prefetch_line(p.cast::<u8>().wrapping_add(std::mem::size_of::<O>() - 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::splitmix64;
    use std::cell::RefCell;

    /// Where one item is in its life: hinted once, then twice, then out.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Seen {
        First,
        Second,
        Out,
    }

    /// The ring against a plain FIFO the test grows between calls, as a
    /// handler's delay-0 send would: items come out in source order; each
    /// gets exactly one `first`, then exactly one `second` within
    /// `DEPENDENT_AT` of the front, then is handed out; never more than
    /// the ring is outstanding; an exhausted source gives `None` and
    /// leaves the ring empty.
    #[test]
    fn ring_keeps_source_order_and_the_hint_contract() {
        for seed in 0..32 {
            let mut rng = seed;
            let mut source = VecDeque::new();
            let mut ring = Lookahead::default();
            // Per item, by id (= source order): its stage so far.
            let log: RefCell<Vec<Seen>> = RefCell::default();
            let (mut pushed, mut out, mut nones) = (0u32, 0u32, 0);
            while out < 2_000 {
                // Just under one item per call on average, in bursts
                // longer than the ring: the source both outruns the
                // ring and runs dry.
                let burst = match splitmix64(&mut rng) % 16 {
                    0 => 12,
                    1..=3 => 1,
                    _ => 0,
                };
                for _ in 0..burst {
                    source.push_back(pushed);
                    pushed += 1;
                }
                let got = ring.next(
                    || source.pop_front(),
                    |&id| {
                        let mut log = log.borrow_mut();
                        assert_eq!(id as usize, log.len(), "first out of source order");
                        log.push(Seen::First);
                        let outstanding = log.len() - out as usize;
                        assert!(outstanding <= LOOKAHEAD_RING, "{outstanding} outstanding");
                    },
                    |&id| {
                        let mut log = log.borrow_mut();
                        assert_eq!(log[id as usize], Seen::First, "second for item {id}");
                        let ahead = id - out;
                        assert!(
                            ahead as usize <= DEPENDENT_AT,
                            "second {ahead} from the front"
                        );
                        log[id as usize] = Seen::Second;
                    },
                );
                let Some(id) = got else {
                    assert!(source.is_empty() && ring.is_empty(), "None with items left");
                    assert_eq!(out, pushed, "None before every item came out");
                    nones += 1;
                    continue;
                };
                assert_eq!(id, out, "handed out of source order");
                let mut log = log.borrow_mut();
                assert_eq!(log[id as usize], Seen::Second, "item {id} handed out");
                log[id as usize] = Seen::Out;
                out += 1;
            }
            assert!(nones > 10, "seed {seed}: the source rarely ran dry");
        }
    }
}
