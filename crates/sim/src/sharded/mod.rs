//! Conservative parallel sharded simulation kernel.
//!
//! The serial kernel ([`crate::Simulation`]) dispatches one global
//! `(time, seq)`-ordered event stream; past ~5M ev/s the next order of
//! magnitude has to come from parallelism. This module partitions the
//! node space across **shards**, each owning its own calendar queue
//! ([`crate::EventQueue`]) and its own slice of world state, and advances
//! all shards in lock-step **windows** bounded by the *lookahead*: the
//! minimum delay any event can be scheduled with. In this codebase the
//! lookahead is a physical quantity — the network model's one-way delays
//! are truncated Gaussians whose floor (`LatencyParams::lo()` in
//! `ddr-net`, 10 ms for the LAN class) every message must respect — so
//! a conservative scheme needs no null messages: within a window
//! `[T, T + lookahead)` no shard can produce an event another shard
//! would have to handle *inside the same window*.
//!
//! One coordinator, two executors, a file per seam: `contract` (what a
//! world agrees to), `ring` (one shard and its `process_window`, which
//! dispatches through the crate's one [`crate::Lookahead`] ring),
//! `window` (the coordinator: where the next window ends, or why the run
//! stops), `merge` (staged outbox, barrier merge, why the result is
//! bit-identical to a serial run), `threads` (`run_parallel`; `run` is
//! the dozen lines that close this file), `profile`.

mod contract;
mod merge;
mod profile;
mod ring;
mod threads;
mod window;

pub use contract::{Partition, ShardCtx, ShardWorld};
pub use profile::{ShardLane, ShardProfile};

use crate::engine::RunOutcome;
use crate::event::EventQueue;
use crate::id::NodeId;
use crate::lookahead::Lookahead;
use crate::time::{SimDuration, SimTime};
use ring::Shard;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use window::Coordinator;

/// The sharded kernel. Construct with one [`ShardWorld`] per shard and a
/// [`Partition`], prime via [`ShardedSimulation::schedule_at`], then
/// advance with [`run`](ShardedSimulation::run) (single-threaded, the
/// reference) or [`run_parallel`](ShardedSimulation::run_parallel) (one
/// worker per shard) — both produce bit-identical worlds.
pub struct ShardedSimulation<W: ShardWorld> {
    shards: Vec<Shard<W>>,
    coord: Coordinator,
}

impl<W: ShardWorld> ShardedSimulation<W> {
    /// Assemble a kernel from per-shard worlds (one per
    /// `partition.shards()`, in shard order) and the lookahead bound.
    ///
    /// # Panics
    /// Panics if the world count disagrees with the partition or the
    /// lookahead is zero (a zero lookahead admits zero-delay event
    /// chains, which windows cannot order across shards).
    pub fn new(worlds: Vec<W>, partition: Partition, lookahead: SimDuration) -> Self {
        assert_eq!(
            worlds.len(),
            partition.shards(),
            "need exactly one world per shard"
        );
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative synchronization requires a positive lookahead"
        );
        // Size each shard's wheel for its slice of the node space. The
        // overflow heap grows on demand instead of being pre-reserved as
        // `EventQueue::with_capacity` does: a reservation that no event
        // writes, once freed into the allocator's heap, hands later
        // allocations pages nothing had touched, so a process that builds
        // kernel after kernel peaks at a different RSS each time
        // (EXPERIMENTS.md, "Sort-free window merge").
        let per_shard_hint =
            crate::event::event_capacity_hint(partition.nodes() / partition.shards() + 1, 4);
        let wheel_buckets = crate::event::wheel_buckets_for(per_shard_hint);
        let shards = worlds
            .into_iter()
            .enumerate()
            .map(|(shard, world)| Shard {
                world,
                queue: EventQueue::with_geometry(wheel_buckets),
                ring: Lookahead::default(),
                staged: VecDeque::new(),
                lane: ShardLane {
                    shard,
                    ..ShardLane::default()
                },
            })
            .collect();
        let coord = Coordinator {
            partition,
            lookahead,
            event_budget: u64::MAX,
            next_gseq: 0,
            profiling: false,
            profile: ShardProfile::default(),
        };
        ShardedSimulation { shards, coord }
    }

    /// Record per-shard work/barrier/merge timings during subsequent
    /// runs. Profiling only reads wall clocks around existing phases —
    /// it never changes window boundaries or event order, so a profiled
    /// run stays bit-identical to an unprofiled one. Only the clocks and
    /// the merge tallies (`merged_events`, `cross_shard_events`) start
    /// here: `windows` and each lane's `events` / `max_window_events`
    /// are counted on every run, so after a late call they cover the
    /// kernel's whole life while the clocks cover the profiled runs.
    pub fn enable_profiling(&mut self) {
        self.coord.profiling = true;
    }

    /// Snapshot of the accumulated [`ShardProfile`]; `None` unless
    /// [`enable_profiling`](Self::enable_profiling) was called.
    pub fn profile(&self) -> Option<ShardProfile> {
        self.coord.profiling.then(|| ShardProfile {
            lanes: self.shards.iter().map(|s| s.lane).collect(),
            ..self.coord.profile.clone()
        })
    }

    /// Stop dispatching once this many events have been processed,
    /// checked at window granularity (the parallel run has no cheap
    /// deterministic way to stop mid-window, so the serial run doesn't
    /// either — both overshoot to the same window boundary).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.coord.event_budget = budget;
    }

    /// Prime an event before (or between) runs. Global sequence numbers
    /// are assigned in call order, exactly like priming a serial queue.
    pub fn schedule_at(&mut self, at: SimTime, dest: NodeId, event: W::Event) {
        let gseq = self.coord.next_gseq;
        self.coord.next_gseq += 1;
        let shard = self.coord.partition.shard_of(dest);
        self.shards[shard].queue.schedule_at(at, (gseq, event));
    }

    /// The node partition.
    pub fn partition(&self) -> &Partition {
        &self.coord.partition
    }

    /// Events dispatched so far, across all shards.
    pub fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.lane.events).sum()
    }

    /// Synchronization windows executed so far.
    pub fn windows(&self) -> u64 {
        self.coord.profile.windows
    }

    /// Pending events across all shard queues.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Pending events in one shard's queue (the per-shard event-queue
    /// depth gauge the metrics timeline samples).
    pub fn shard_pending(&self, shard: usize) -> usize {
        self.shards[shard].queue.len()
    }

    /// Shard `i`'s world, for report extraction.
    pub fn world(&self, shard: usize) -> &W {
        &self.shards[shard].world
    }

    /// All shard worlds in shard order.
    pub fn worlds(&self) -> impl Iterator<Item = &W> {
        self.shards.iter().map(|s| &s.world)
    }

    /// Consume the kernel, returning the shard worlds in shard order.
    pub fn into_worlds(self) -> Vec<W> {
        self.shards.into_iter().map(|s| s.world).collect()
    }

    /// Advance all shards to `horizon` on the calling thread. This is
    /// the executable specification for
    /// [`run_parallel`](Self::run_parallel): the same coordinator with
    /// the simplest executor between its two steps.
    pub fn run(&mut self, horizon: SimTime) -> RunOutcome {
        let Self { shards, coord } = self;
        let mut shards: Vec<&mut Shard<W>> = shards.iter_mut().collect();
        loop {
            let w_end = match coord.next_window(&shards, horizon) {
                ControlFlow::Continue(w_end) => w_end,
                ControlFlow::Break(outcome) => return outcome,
            };
            for shard in shards.iter_mut() {
                shard.process_window(w_end, coord.lookahead, coord.profiling);
            }
            coord.merge(&mut shards);
        }
    }
}

#[cfg(test)]
mod tests;
