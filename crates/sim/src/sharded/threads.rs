//! The threaded executor: one persistent worker per shard, two barriers
//! per window, the coordinator on the calling thread.

use super::contract::ShardWorld;
use super::profile::ns_since;
use super::ring::Shard;
use super::ShardedSimulation;
use crate::engine::RunOutcome;
use crate::time::{SimDuration, SimTime};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Sentinel window end broadcast to workers to shut them down.
const WINDOW_DONE: u64 = u64::MAX;

/// What the coordinator and the workers share besides the shards.
struct WindowSync {
    /// The current window end (ms), or [`WINDOW_DONE`].
    w_end: AtomicU64,
    start: Barrier,
    end: Barrier,
}

/// Each worker locks only its own shard, during the compute phase
/// (uncontended); the coordinator locks all of them between barriers.
type Cell<'a, W> = Mutex<&'a mut Shard<W>>;

/// Run `f` over all shards. Only the coordinator calls this, and only
/// between an end barrier and the next start barrier, when no worker
/// holds its lock.
fn with_shards<W: ShardWorld, R>(
    cells: &[Cell<'_, W>],
    f: impl FnOnce(&mut [&mut Shard<W>]) -> R,
) -> R {
    let mut guards: Vec<_> = cells
        .iter()
        .map(|c| c.lock().expect("shard mutex poisoned"))
        .collect();
    let mut shards: Vec<&mut Shard<W>> = guards.iter_mut().map(|g| &mut ***g).collect();
    f(&mut shards)
}

/// One worker: dispatch this shard's part of every window the
/// coordinator broadcasts. The clocks only bracket the two waits.
fn worker<W: ShardWorld>(
    cell: &Cell<'_, W>,
    sync: &WindowSync,
    lookahead: SimDuration,
    profiling: bool,
) {
    let (mut stall_ns, mut barrier_ns) = (0, 0);
    loop {
        let parked = profiling.then(Instant::now);
        sync.start.wait();
        stall_ns += ns_since(parked);
        let w_end = sync.w_end.load(Ordering::Acquire);
        if w_end == WINDOW_DONE {
            break;
        }
        let mut shard = cell.lock().expect("shard mutex poisoned");
        shard.process_window(SimTime::from_millis(w_end), lookahead, profiling);
        drop(shard);
        let parked = profiling.then(Instant::now);
        sync.end.wait();
        barrier_ns += ns_since(parked);
    }
    let mut shard = cell.lock().expect("shard mutex poisoned");
    shard.lane.stall_ns += stall_ns;
    shard.lane.barrier_ns += barrier_ns;
}

impl<W: ShardWorld> ShardedSimulation<W> {
    /// Advance all shards to `horizon` with one worker thread per shard
    /// (persistent across windows; two barriers per window). `threads`
    /// is a gate, not a pool size: `<= 1` falls back to [`run`](Self::run)
    /// — with more shards than cores the OS time-slices the workers,
    /// which preserves correctness (and, on this kernel, the exact
    /// output: the merge step is single-threaded and the per-shard phase
    /// is order-free).
    pub fn run_parallel(&mut self, horizon: SimTime, threads: usize) -> RunOutcome
    where
        W: Send,
        W::Event: Send,
    {
        let nshards = self.shards.len();
        if threads <= 1 || nshards == 1 {
            return self.run(horizon);
        }
        assert!(
            horizon < SimTime::MAX,
            "run_parallel needs a finite horizon"
        );
        let Self { shards, coord } = self;
        let (lookahead, profiling) = (coord.lookahead, coord.profiling);
        let sync = WindowSync {
            w_end: AtomicU64::new(0),
            start: Barrier::new(nshards + 1),
            end: Barrier::new(nshards + 1),
        };
        let cells: Vec<Cell<'_, W>> = shards.iter_mut().map(Mutex::new).collect();
        std::thread::scope(|scope| {
            for cell in &cells {
                let sync = &sync;
                scope.spawn(move || worker(cell, sync, lookahead, profiling));
            }
            let outcome = loop {
                let w_end = match with_shards(&cells, |s| coord.next_window(s, horizon)) {
                    ControlFlow::Continue(w_end) => w_end,
                    ControlFlow::Break(outcome) => break outcome,
                };
                sync.w_end.store(w_end.as_millis(), Ordering::Release);
                sync.start.wait();
                // Workers dispatch their windows …
                sync.end.wait();
                // … and park again.
                with_shards(&cells, |s| coord.merge(s));
            };
            sync.w_end.store(WINDOW_DONE, Ordering::Release);
            sync.start.wait();
            outcome
        })
    }
}
