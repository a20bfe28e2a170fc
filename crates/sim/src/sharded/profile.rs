//! Where a sharded run's time went. The kernel counts straight into
//! these types on every run; the wall clocks and the merge tallies wait
//! for `enable_profiling`, each clock behind `profiling.then(Instant::now)`
//! around a phase that runs either way — a profiled run executes the
//! unprofiled run's code.

use std::time::Instant;

/// One shard's row in a [`ShardProfile`]: where this worker's wall-clock
/// time went across the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLane {
    /// Shard index (also the worker-thread index under `run_parallel`).
    pub shard: usize,
    /// Events this shard dispatched.
    pub events: u64,
    /// Time spent inside `process_window` (useful work).
    pub work_ns: u64,
    /// Time parked at the end-of-window barrier waiting for slower
    /// sibling shards (load imbalance). Zero on the serial path.
    pub barrier_ns: u64,
    /// Time parked at the start-of-window barrier waiting for the
    /// coordinator (merge + window scheduling). Zero on the serial path.
    pub stall_ns: u64,
    /// Largest single-window event count this shard saw — like `events`,
    /// since the kernel was built, not since `enable_profiling`.
    pub max_window_events: u64,
}

/// Where a sharded run's time went, per shard and in the coordinator —
/// the evidence behind the "why is 4 shards slower on 1 core" question
/// (EXPERIMENTS.md, perf trajectory, PR 10). Snapshot via
/// [`ShardedSimulation::profile`](super::ShardedSimulation::profile)
/// after a profiled run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardProfile {
    /// One row per shard, in shard order.
    pub lanes: Vec<ShardLane>,
    /// Coordinator time inside the window-barrier merge.
    pub merge_ns: u64,
    /// Events that crossed the merge (staged in some window's outbox).
    pub merged_events: u64,
    /// Merged events whose destination lay on a *different* shard than
    /// the one that created them (true cross-shard traffic).
    pub cross_shard_events: u64,
    /// Synchronization windows executed.
    pub windows: u64,
}

/// Nanoseconds since a `profiling.then(Instant::now)` reading; zero when
/// the run is not profiled.
#[inline]
pub(super) fn ns_since(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
}
