//! A hashed timing wheel for a shard's pending deliveries: one FIFO list
//! per wall-clock millisecond, all threaded by `u32` links through one
//! `Vec` of cells with a LIFO free list. `push` and `pop_due` are O(1),
//! steady state allocates nothing, memory is peak pending × one cell.
//!
//! Entries come out by deadline, FIFO among equal deadlines. A deadline
//! behind the cursor is clamped to it: the generator stamps an
//! `OfferQuery` with its send time and the shard files it a millisecond
//! later. One [`SLOTS`] ms or more ahead waits in `far`: it is `≥ cursor
//! at push + SLOTS ≥` the cursor's next wrap, so it cannot fall due
//! before that wrap, which re-files `far` — at the *head* of each list,
//! as whatever is already filed under the same deadline was pushed later.
//!
//! A list's cells are wherever the free list put them, so walking one
//! misses on every cell: `pop_due` asks for the next cell of the list it
//! pops from as it hands out the head (`ddr_sim::prefetch_object`), so
//! that cell is on its way for one delivery's time before the next pop
//! reads it.

use ddr_sim::prefetch_object;

/// Wheel span, ms (16.4 s): the default 10 s collection window plus every
/// modelled network delay, so the bus itself never uses `far`.
const SLOTS: u64 = 1 << 14;
const NIL: u32 = u32::MAX;

/// One filed entry; `bus.rs` pins its size for the bus's payload.
pub(crate) struct Cell<T> {
    next: u32,
    item: T,
}

/// Pending `T`s keyed by a millisecond deadline; see the module docs.
pub(crate) struct TimerWheel<T> {
    /// At `at % SLOTS`: deadline `at`'s first cell and, under one, its last.
    heads: Box<[u32]>,
    tails: Box<[u32]>,
    cells: Vec<Cell<T>>,
    /// Head of the free list, threaded through `Cell::next`.
    free: u32,
    far: Vec<(u64, T)>,
    /// Every list behind the cursor is empty; every filed deadline lies
    /// in `[cursor, cursor + SLOTS)`.
    cursor: u64,
    len: usize,
}

impl<T: Copy> TimerWheel<T> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            heads: vec![NIL; SLOTS as usize].into(),
            tails: vec![NIL; SLOTS as usize].into(),
            cells: Vec::new(),
            free: NIL,
            far: Vec::new(),
            cursor: 0,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// File `item` for delivery at `at` (ms), or at once if that has passed.
    pub(crate) fn push(&mut self, at: u64, item: T) {
        let at = at.max(self.cursor);
        self.len += 1;
        if at - self.cursor >= SLOTS {
            return self.far.push((at, item));
        }
        let (cell, slot) = (self.alloc(item), (at % SLOTS) as usize);
        match self.heads[slot] {
            NIL => self.heads[slot] = cell,
            _ => self.cells[self.tails[slot] as usize].next = cell,
        }
        self.tails[slot] = cell;
    }

    /// The next entry due at or before `now` (ms); walks the cursor up to
    /// `now` once nothing earlier is left.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<T> {
        loop {
            let slot = (self.cursor % SLOTS) as usize;
            let head = self.heads[slot];
            if head != NIL && self.cursor <= now {
                let cell = &mut self.cells[head as usize];
                let next = std::mem::replace(&mut cell.next, self.free);
                let item = cell.item;
                (self.heads[slot], self.free) = (next, head);
                self.len -= 1;
                if next != NIL {
                    prefetch_object(self.cells.as_ptr().wrapping_add(next as usize));
                }
                return Some(item);
            }
            if self.cursor >= now {
                return None;
            }
            self.cursor += 1;
            if self.cursor.is_multiple_of(SLOTS) {
                self.refile_far();
            }
        }
    }

    /// An unlinked cell holding `item`: off the free list, else a new one.
    fn alloc(&mut self, item: T) -> u32 {
        let (cell, fresh) = (self.free, Cell { next: NIL, item });
        if cell == NIL {
            self.cells.push(fresh);
            return u32::try_from(self.cells.len() - 1).expect("under 2^32 cells");
        }
        self.free = std::mem::replace(&mut self.cells[cell as usize], fresh).next;
        cell
    }

    /// The cursor just wrapped: move each `far` entry of the new lap to
    /// the head of its list — last pushed first, so push order survives.
    fn refile_far(&mut self) {
        let horizon = self.cursor + SLOTS;
        let far = std::mem::take(&mut self.far);
        for &(at, item) in far.iter().rev().filter(|e| e.0 < horizon) {
            let (cell, slot) = (self.alloc(item), (at % SLOTS) as usize);
            if self.heads[slot] == NIL {
                self.tails[slot] = cell;
            }
            self.cells[cell as usize].next = std::mem::replace(&mut self.heads[slot], cell);
        }
        self.far = far.into_iter().filter(|e| e.0 >= horizon).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddr_sim::rng::splitmix64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The order the wheel must reproduce: a binary heap keyed
    /// `(max(at, cursor at push), push order)`, with the cursor it implies.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        cursor: u64,
        pushed: u64,
    }

    impl Model {
        fn push(&mut self, at: u64) -> u64 {
            self.pushed += 1;
            self.heap.push(Reverse((at.max(self.cursor), self.pushed)));
            self.pushed
        }

        fn pop_due(&mut self, now: u64) -> Option<u64> {
            match self.heap.peek() {
                Some(&Reverse((at, id))) if at <= now => {
                    self.heap.pop();
                    self.cursor = self.cursor.max(at);
                    Some(id)
                }
                _ => {
                    self.cursor = self.cursor.max(now);
                    None
                }
            }
        }
    }

    /// Wheel and model side by side; ids are the model's push order.
    struct Pair {
        wheel: TimerWheel<u64>,
        model: Model,
        rng: u64,
        peak: usize,
        far_wraps: u32,
    }

    impl Pair {
        fn below(&mut self, n: u64) -> u64 {
            splitmix64(&mut self.rng) % n
        }

        /// Same `len()`; and note the most cells ever linked at once, which
        /// after a pop was one more than are linked now.
        fn check_len(&mut self, popped: bool) {
            assert_eq!(self.wheel.len(), self.model.heap.len(), "len()");
            let linked = self.wheel.len() - self.wheel.far.len() + popped as usize;
            self.peak = self.peak.max(linked);
        }

        /// Push one entry somewhere around the cursor: behind it, on it,
        /// within the bus's delays, at the wheel's edge, one or two laps out.
        fn push(&mut self) {
            let c = self.model.cursor;
            let at = match self.below(10) {
                0 => c.saturating_sub(1 + self.below(50)),
                1 => c,
                2 => c + SLOTS - 1 + self.below(2),
                3 => c + SLOTS + self.below(SLOTS),
                4 => c + 2 * SLOTS + self.below(SLOTS),
                _ => c + self.below(2_000),
            };
            let id = self.model.push(at);
            self.wheel.push(at, id);
            self.check_len(false);
        }

        /// Advance the clock to `now` and drain; with `sends`, push now and
        /// then in mid-drain, as a handler's sends do.
        fn drain(&mut self, now: u64, sends: bool) {
            let next_wrap = (self.wheel.cursor / SLOTS + 1) * SLOTS;
            self.far_wraps += (!self.wheel.far.is_empty() && now >= next_wrap) as u32;
            loop {
                let (got, want) = (self.wheel.pop_due(now), self.model.pop_due(now));
                assert_eq!(got, want, "delivery at now={now}");
                self.check_len(got.is_some());
                if got.is_none() {
                    break;
                }
                if sends && self.below(4) == 0 {
                    self.push();
                }
            }
            assert_eq!(self.wheel.cursor, self.model.cursor, "cursor after drain");
        }
    }

    #[test]
    fn wheel_delivers_in_reference_heap_order() {
        let mut far_wraps = 0;
        for seed in 0..48 {
            let mut p = Pair {
                wheel: TimerWheel::new(),
                model: Model::default(),
                rng: seed,
                peak: 0,
                far_wraps: 0,
            };
            for _ in 0..400 {
                for _ in 0..p.below(12) {
                    p.push();
                }
                // Mostly the bus's 0–2 ms turns; sometimes a stall or an
                // idle gap of up to a lap and a half.
                let gap = match p.below(16) {
                    0 => p.below(3 * SLOTS / 2),
                    1 => p.below(3_000),
                    _ => p.below(3),
                };
                p.drain(p.model.cursor + gap, true);
            }
            p.drain(p.model.cursor + 4 * SLOTS, false);
            assert_eq!(p.wheel.len(), 0, "seed {seed}: entries left behind");
            // Popped cells are reused: the slab never outgrew peak filed.
            assert!(p.wheel.cells.len() <= p.peak, "seed {seed}: slab grew");
            far_wraps += p.far_wraps;
        }
        assert!(far_wraps > 48, "cursor rarely wrapped with `far` non-empty");
    }

    /// The `far` argument of the module docs, on a synthetic clock: an
    /// entry a lap ahead is not due before the wrap that re-files it, and
    /// comes out ahead of a later push filed directly under its deadline.
    #[test]
    fn far_entries_are_refiled_at_the_wrap_in_push_order() {
        let mut w = TimerWheel::new();
        w.push(SLOTS + 5, 'a');
        assert_eq!(w.pop_due(10), None);
        w.push(SLOTS + 5, 'b');
        w.push(2 * SLOTS + 5, 'c');
        assert_eq!((w.far.len(), w.len()), (2, 3));
        assert_eq!(w.pop_due(SLOTS + 4), None);
        assert_eq!(w.far.len(), 1, "first wrap re-files only the next lap");
        assert_eq!(w.pop_due(SLOTS + 5), Some('a'));
        assert_eq!(w.pop_due(SLOTS + 5), Some('b'));
        assert_eq!(w.pop_due(2 * SLOTS + 4), None);
        assert_eq!(w.pop_due(2 * SLOTS + 5), Some('c'));
        assert_eq!((w.far.len(), w.len(), w.cells.len()), (0, 0, 2));
    }

    /// Hold model at the bus's depth and delay mix (`serve_open_30k`: per
    /// millisecond 30 Finalize timers held 2 s and 480 messages held
    /// 70–600 ms, 250 k pending): each millisecond pops what is due and
    /// pushes as many again. Prints ns per pop + push for a heap of 72-byte
    /// entries (the old `Due`) and for the wheel's 64-byte cells;
    /// EXPERIMENTS.md quotes it. Run with
    /// `cargo test --release -p ddr-serve hold_model -- --ignored --nocapture`.
    #[test]
    #[ignore = "a timing, not a check"]
    fn hold_model_heap_vs_wheel() {
        type Payload = [u64; 7]; // an `Envelope`'s 56 bytes
        fn delay(rng: &mut u64) -> u64 {
            match splitmix64(rng) % 17 {
                0 => 2_000,
                _ => 70 + splitmix64(rng) % 530,
            }
        }
        fn run(mut push: impl FnMut(u64, Payload), mut pop: impl FnMut(u64) -> bool) -> f64 {
            let mut rng = 23;
            for _ in 0..250_000 {
                push(delay(&mut rng), [0; 7]);
            }
            let (mut ops, mut started) = (0u64, None);
            for now in 0..8_000 {
                let mut due = 0;
                while pop(now) {
                    due += 1;
                }
                for _ in 0..due {
                    push(now + delay(&mut rng), [now; 7]);
                }
                if now >= 3_000 {
                    started.get_or_insert_with(std::time::Instant::now);
                    ops += due;
                }
            }
            started.expect("timed phase ran").elapsed().as_nanos() as f64 / ops as f64
        }
        let heap = std::cell::RefCell::new(BinaryHeap::new());
        let mut seq = 0u64;
        let heap_ns = run(
            |at, item| {
                seq += 1;
                heap.borrow_mut().push(Reverse((at, seq, item)));
            },
            |now| {
                let mut heap = heap.borrow_mut();
                let due = matches!(heap.peek(), Some(Reverse((at, ..))) if *at <= now);
                due && std::hint::black_box(heap.pop()).is_some()
            },
        );
        let wheel = std::cell::RefCell::new(TimerWheel::new());
        let wheel_ns = run(
            |at, item| wheel.borrow_mut().push(at, item),
            |now| std::hint::black_box(wheel.borrow_mut().pop_due(now)).is_some(),
        );
        let pending = (heap.borrow().len(), wheel.borrow().len());
        println!("hold model, pending {pending:?}: heap {heap_ns:.0} ns, wheel {wheel_ns:.0} ns");
    }
}
