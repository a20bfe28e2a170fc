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
//! # Bit-identical to the serial run
//!
//! Determinism is the repo's north star, so parallel execution must not
//! merely be "equivalent up to tie-breaking" — it must reproduce the
//! serial kernel's event order *exactly*. The mechanism:
//!
//! 1. **Staged creation.** Handlers never insert into a queue directly.
//!    Every event produced during a window goes to a per-shard outbox,
//!    tagged with its parent's `(dispatch time, global seq)` and a
//!    per-parent child index.
//! 2. **Window-barrier merge.** At the end of each window a
//!    single-threaded coordinator concatenates all outboxes and sorts by
//!    `(parent_time, parent_gseq, child_idx)` — which is precisely the
//!    order a serial run would have *created* those events in, because a
//!    serial run dispatches parents in `(time, seq)` order and each
//!    parent creates its children in program order.
//! 3. **Global sequence numbers.** The coordinator assigns each staged
//!    event the next global seq and inserts it into its destination
//!    shard's queue. Insertion order into any single queue therefore
//!    agrees with global creation order, so the per-queue FIFO tie-break
//!    reproduces the global one.
//!
//! Because the windowed pop order visits events in nondecreasing time
//! and ties are broken by global creation seq, the sequence of
//! `(time, gseq, destination)` dispatches is identical whether shards
//! are advanced on one thread ([`ShardedSimulation::run`]) or on one
//! worker thread per shard ([`ShardedSimulation::run_parallel`]) — and
//! identical to a serial reference run over one global queue
//! (`tests/prop_sharded.rs` proves this differentially against
//! [`crate::ReferenceEventQueue`] across seeds, shard counts, and churn
//! schedules).
//!
//! The price of the contract is the **lookahead bound**: every
//! [`ShardCtx::send`] must use a delay of at least the configured
//! lookahead (asserted), and handlers may touch only their own shard's
//! state. The Gnutella case study meets both (per-node RNG streams,
//! message-passing reconfiguration, shard-local membership — DESIGN.md
//! §12); worlds that still keep global mutable state (the web-cache
//! and PeerOlap worlds' shared books) keep the serial kernel. See
//! DESIGN.md §11.

use crate::engine::RunOutcome;
use crate::event::EventQueue;
use crate::id::NodeId;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Maps every node to the shard that owns it. Contiguous equal blocks:
/// shard `s` owns `[s * block, (s + 1) * block)`, so the hot
/// `shard_of` lookup is one integer divide and neighbouring nodes stay
/// on one shard (overlay links are degree-bounded and random, so any
/// equal-size partition balances load at paper scale).
#[derive(Clone, Debug)]
pub struct Partition {
    nodes: usize,
    shards: usize,
    block: usize,
}

impl Partition {
    /// Split `nodes` into at most `shards` contiguous equal blocks.
    /// The effective shard count never exceeds the node count.
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn contiguous(nodes: usize, shards: usize) -> Self {
        assert!(nodes >= 1, "cannot partition an empty world");
        assert!(shards >= 1, "need at least one shard");
        let shards = shards.min(nodes);
        Partition {
            nodes,
            shards,
            block: nodes.div_ceil(shards),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of nodes across all shards.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    /// Panics if `node` lies outside the partitioned world.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> usize {
        let i = node.index();
        assert!(i < self.nodes, "node {i} outside the partitioned world");
        // The last block may be short; the divide can't overshoot
        // because `block * shards >= nodes`.
        (i / self.block).min(self.shards - 1)
    }

    /// The node-index range owned by `shard`.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        assert!(shard < self.shards);
        let lo = (shard * self.block).min(self.nodes);
        let hi = ((shard + 1) * self.block).min(self.nodes);
        lo..hi
    }
}

/// One shard's slice of world state. The kernel drives `handle` exactly
/// like [`crate::World::handle`], with two restrictions that buy the
/// parallel determinism guarantee:
///
/// * the handler may touch only state owned by this shard (the event's
///   destination node lives here by construction);
/// * every follow-up event must be scheduled through the [`ShardCtx`],
///   with a delay of at least the kernel's lookahead.
pub trait ShardWorld {
    /// Event payload routed between nodes. `Send` only matters for
    /// [`ShardedSimulation::run_parallel`].
    type Event;

    /// Dispatch one event at virtual time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut ShardCtx<'_, Self::Event>);

    /// First-stage hint: `event` has been popped and will be handled
    /// after the few events (a small constant) popped before it. A world
    /// whose per-node state is far larger than the cache can request the
    /// lines whose address is a pure function of the payload. A hint
    /// only: it may read the world but never write it, no result may
    /// depend on it, and the kernel calls it exactly once per event,
    /// before that event's
    /// [`prefetch_dependent`](Self::prefetch_dependent) and `handle`.
    /// The default does nothing.
    #[inline]
    fn prefetch(&self, _event: &Self::Event) {}

    /// Second-stage hint, under the same contract, called at most once
    /// per event when it is about half as far from dispatch: the lines
    /// its [`prefetch`](Self::prefetch) requested have had time to
    /// arrive, so the lines *they* point to (a hash-table slot behind a
    /// header, a heap buffer behind a `Vec`) can be requested without
    /// stalling on the pointer. The default does nothing.
    #[inline]
    fn prefetch_dependent(&self, _event: &Self::Event) {}

    /// Report time-series metrics into `hub` (see
    /// [`crate::MetricsHub`]). Metered runners call this on every shard
    /// world at sampling boundaries — between windows, never mid-handler
    /// — and the hub sums the per-shard contributions into fleet-wide
    /// series. Must not mutate anything; the default reports nothing.
    fn sample_metrics(&self, _now: SimTime, _hub: &mut dyn crate::MetricsHub) {}
}

/// An event staged in a per-shard outbox during a window, waiting for
/// the coordinator to assign its global sequence number. The
/// `(parent_time, parent_gseq, child_idx)` triple reconstructs the
/// serial creation order (see the module docs).
struct Staged<E> {
    parent_time: SimTime,
    parent_gseq: u64,
    child_idx: u32,
    time: SimTime,
    dest: NodeId,
    event: E,
}

/// Scheduling façade handed to [`ShardWorld::handle`]; the sharded
/// analogue of [`crate::Scheduler`]. All sends are staged in the shard's
/// outbox and only enter a queue at the window barrier.
pub struct ShardCtx<'a, E> {
    now: SimTime,
    lookahead: SimDuration,
    parent_gseq: u64,
    child_idx: u32,
    staged: &'a mut Vec<Staged<E>>,
}

impl<'a, E> ShardCtx<'a, E> {
    /// Current virtual time (the event being handled fires now).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The kernel's lookahead: the minimum admissible send delay.
    #[inline]
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Schedule `event` to fire at node `to` after `delay`. Self-sends
    /// (timers) use the handling node as `to`.
    ///
    /// # Panics
    /// Panics if `delay` is below the kernel's lookahead: such an event
    /// could land inside the current window on another shard, which the
    /// conservative protocol cannot deliver. Model instantaneous
    /// follow-ups by folding them into the handler instead.
    #[inline]
    pub fn send(&mut self, to: NodeId, delay: SimDuration, event: E) {
        assert!(
            delay >= self.lookahead,
            "conservative kernel requires delay >= lookahead ({} ms), got {} ms",
            self.lookahead.as_millis(),
            delay.as_millis()
        );
        let child_idx = self.child_idx;
        self.child_idx += 1;
        self.staged.push(Staged {
            parent_time: self.now,
            parent_gseq: self.parent_gseq,
            child_idx,
            time: self.now + delay,
            dest: to,
            event,
        });
    }
}

/// One shard: a slice of world state, its own calendar queue, and its
/// outbox. Queue entries carry the event's global sequence number so the
/// dispatch order is observable (and testable) per shard.
struct Shard<W: ShardWorld> {
    world: W,
    queue: EventQueue<(u64, W::Event)>,
    /// Events of the current window popped ahead of their dispatch (see
    /// `process_window`); never more than [`LOOKAHEAD_RING`], and empty
    /// between windows.
    ring: VecDeque<(SimTime, (u64, W::Event))>,
    staged: Vec<Staged<W::Event>>,
    processed: u64,
    prof: LaneProf,
}

/// Per-shard profiling accumulators (all zero unless
/// [`ShardedSimulation::enable_profiling`] was called). Workers fold
/// their thread-local tallies in here at shutdown; the serial run writes
/// directly.
#[derive(Debug, Clone, Copy, Default)]
struct LaneProf {
    work_ns: u64,
    barrier_ns: u64,
    stall_ns: u64,
    max_window_events: u64,
}

/// Coordinator-side merge tallies for one `run`/`run_parallel` call,
/// folded into the kernel's cumulative profile on return.
#[derive(Debug, Clone, Copy, Default)]
struct MergeProf {
    merged_events: u64,
    cross_shard: u64,
}

/// One shard's row in a [`ShardProfile`]: where this worker's wall-clock
/// time went across the whole run.
#[derive(Debug, Clone, Copy)]
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
    /// Largest single-window event count this shard saw.
    pub max_window_events: u64,
}

/// Where a sharded run's time went, per shard and in the coordinator —
/// the evidence behind the "why is 4 shards slower on 1 core" question
/// (EXPERIMENTS.md "Where the 4-shard overhead goes"). Snapshot via
/// [`ShardedSimulation::profile`] after a profiled run.
#[derive(Debug, Clone)]
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

/// The sharded kernel. Construct with one [`ShardWorld`] per shard and a
/// [`Partition`], prime via [`ShardedSimulation::schedule_at`], then
/// advance with [`run`](ShardedSimulation::run) (single-threaded, the
/// reference) or [`run_parallel`](ShardedSimulation::run_parallel) (one
/// worker per shard) — both produce bit-identical worlds.
pub struct ShardedSimulation<W: ShardWorld> {
    shards: Vec<Shard<W>>,
    partition: Partition,
    lookahead: SimDuration,
    next_gseq: u64,
    windows: u64,
    event_budget: Option<u64>,
    merge_scratch: Vec<Staged<W::Event>>,
    profiling: bool,
    prof_merge_ns: u64,
    prof_merged_events: u64,
    prof_cross_shard: u64,
}

/// Sentinel window-end broadcast to workers to shut them down.
const WINDOW_DONE: u64 = u64::MAX;

/// How many events of the current window a shard holds popped ahead of
/// dispatch. A constant, not the whole window: a window can hold 10^5
/// events (draining it into a buffer grows the resident set with it),
/// while the memory system tracks only a dozen outstanding misses, so a
/// deeper ring would buy nothing.
const LOOKAHEAD_RING: usize = 8;

/// Ring position (0 is dispatched next) at which an event receives its
/// [`ShardWorld::prefetch_dependent`]: half the ring for the first-stage
/// lines to arrive, half for the lines behind them.
const DEPENDENT_AT: usize = 4;

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
        // Size each shard's queue for its slice of the node space.
        let per_shard_hint =
            crate::event::event_capacity_hint(partition.nodes() / partition.shards() + 1, 4);
        let shards = worlds
            .into_iter()
            .map(|world| Shard {
                world,
                queue: EventQueue::with_capacity(per_shard_hint),
                ring: VecDeque::with_capacity(LOOKAHEAD_RING),
                staged: Vec::new(),
                processed: 0,
                prof: LaneProf::default(),
            })
            .collect();
        ShardedSimulation {
            shards,
            partition,
            lookahead,
            next_gseq: 0,
            windows: 0,
            event_budget: None,
            merge_scratch: Vec::new(),
            profiling: false,
            prof_merge_ns: 0,
            prof_merged_events: 0,
            prof_cross_shard: 0,
        }
    }

    /// Record per-shard work/barrier/merge timings during subsequent
    /// runs. Profiling only reads wall clocks around existing phases —
    /// it never changes window boundaries or event order, so a profiled
    /// run stays bit-identical to an unprofiled one.
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
    }

    /// Snapshot of the accumulated [`ShardProfile`]; `None` unless
    /// [`enable_profiling`](Self::enable_profiling) was called.
    pub fn profile(&self) -> Option<ShardProfile> {
        if !self.profiling {
            return None;
        }
        Some(ShardProfile {
            lanes: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardLane {
                    shard: i,
                    events: s.processed,
                    work_ns: s.prof.work_ns,
                    barrier_ns: s.prof.barrier_ns,
                    stall_ns: s.prof.stall_ns,
                    max_window_events: s.prof.max_window_events,
                })
                .collect(),
            merge_ns: self.prof_merge_ns,
            merged_events: self.prof_merged_events,
            cross_shard_events: self.prof_cross_shard,
            windows: self.windows,
        })
    }

    /// Stop dispatching once this many events have been processed,
    /// checked at window granularity (the parallel run has no cheap
    /// deterministic way to stop mid-window, so the serial run doesn't
    /// either — both overshoot to the same window boundary).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = Some(budget);
    }

    /// Prime an event before (or between) runs. Global sequence numbers
    /// are assigned in call order, exactly like priming a serial queue.
    pub fn schedule_at(&mut self, at: SimTime, dest: NodeId, event: W::Event) {
        let gseq = self.next_gseq;
        self.next_gseq += 1;
        let shard = self.partition.shard_of(dest);
        self.shards[shard].queue.schedule_at(at, (gseq, event));
    }

    /// The configured lookahead.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// The node partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Events dispatched so far, across all shards.
    pub fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Synchronization windows executed so far.
    pub fn windows(&self) -> u64 {
        self.windows
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

    /// Dispatch every event in one shard with `time < w_end`. Events are
    /// only created into the outbox, so this touches nothing outside the
    /// shard — the parallel run calls it concurrently per shard.
    ///
    /// Every send is staged and `delay >= lookahead`, so nothing created
    /// during the window can land inside it: the events `< w_end` are
    /// fixed when the window opens, and popping a few of them ahead of
    /// their dispatch (into the shard's ring) changes neither their order
    /// nor anything a handler can observe. It gives the world the one
    /// thing a far-larger-than-cache state needs — the payloads of the
    /// next [`LOOKAHEAD_RING`] events while the current one still runs —
    /// through the two [`ShardWorld`] hint hooks.
    fn process_window(shard: &mut Shard<W>, w_end: SimTime, lookahead: SimDuration) {
        let Shard {
            world,
            queue,
            ring,
            staged,
            processed,
            ..
        } = shard;
        // Ring entries in front of this position have had their
        // second-stage hint.
        let mut hinted = 0;
        loop {
            while ring.len() < LOOKAHEAD_RING && queue.peek_time().is_some_and(|t| t < w_end) {
                let entry = queue.pop().expect("peeked event vanished");
                world.prefetch(&entry.1 .1);
                ring.push_back(entry);
            }
            // One call per dispatch in a long window; at a window's start
            // (and in windows shorter than the ring) the front entries
            // catch up here, after the whole fill's first-stage requests.
            while hinted < ring.len().min(DEPENDENT_AT + 1) {
                world.prefetch_dependent(&ring[hinted].1 .1);
                hinted += 1;
            }
            let Some((now, (gseq, event))) = ring.pop_front() else {
                break;
            };
            hinted -= 1;
            let mut ctx = ShardCtx {
                now,
                lookahead,
                parent_gseq: gseq,
                child_idx: 0,
                staged,
            };
            world.handle(now, event, &mut ctx);
            *processed += 1;
        }
    }

    /// The window barrier: drain every outbox, restore serial creation
    /// order, assign global seqs, and route into destination queues.
    /// Single-threaded by design — it is the only cross-shard step.
    fn merge_windows(
        shards: &mut [&mut Shard<W>],
        scratch: &mut Vec<Staged<W::Event>>,
        next_gseq: &mut u64,
        partition: &Partition,
        prof: Option<&mut MergeProf>,
    ) {
        scratch.clear();
        if let Some(prof) = prof {
            // Count true cross-shard traffic while the outboxes still
            // carry their source-shard identity (lost after the append).
            for (i, s) in shards.iter().enumerate() {
                prof.merged_events += s.staged.len() as u64;
                prof.cross_shard += s
                    .staged
                    .iter()
                    .filter(|e| partition.shard_of(e.dest) != i)
                    .count() as u64;
            }
        }
        for s in shards.iter_mut() {
            scratch.append(&mut s.staged);
        }
        // Serial creation order: parents dispatch in (time, gseq) order
        // and create children in program order. The triple is unique —
        // gseqs are globally unique and child_idx counts per parent.
        scratch.sort_unstable_by_key(|e| (e.parent_time, e.parent_gseq, e.child_idx));
        for e in scratch.drain(..) {
            let gseq = *next_gseq;
            *next_gseq += 1;
            let dest = partition.shard_of(e.dest);
            // Never panics: e.time >= window start + lookahead >= w_end,
            // and no queue's clock has passed w_end.
            shards[dest].queue.schedule_at(e.time, (gseq, e.event));
        }
    }

    /// Advance all shards to `horizon` on the calling thread. This is
    /// the executable specification for
    /// [`run_parallel`](Self::run_parallel): same windows, same merge,
    /// same everything — the gated parity tests compare the two.
    pub fn run(&mut self, horizon: SimTime) -> RunOutcome {
        let lookahead = self.lookahead;
        let budget = self.event_budget;
        let profiling = self.profiling;
        let partition = &self.partition;
        let scratch = &mut self.merge_scratch;
        let next_gseq = &mut self.next_gseq;
        let mut mprof = MergeProf::default();
        let mut merge_ns = 0u64;
        let mut windows = 0u64;
        let mut refs: Vec<&mut Shard<W>> = self.shards.iter_mut().collect();
        let outcome = loop {
            if let Some(b) = budget {
                let processed: u64 = refs.iter().map(|s| s.processed).sum();
                if processed >= b {
                    break RunOutcome::EventBudgetExhausted;
                }
            }
            // The next window starts at the global minimum pending time
            // (empty stretches are skipped, not walked 10 ms at a time).
            let Some(t) = refs.iter().filter_map(|s| s.queue.peek_time()).min() else {
                break RunOutcome::Exhausted;
            };
            if t >= horizon {
                break RunOutcome::ReachedHorizon;
            }
            let w_end = t
                .checked_add(lookahead)
                .unwrap_or(SimTime::MAX)
                .min(horizon);
            windows += 1;
            if profiling {
                for s in refs.iter_mut() {
                    let before = s.processed;
                    let t0 = Instant::now();
                    Self::process_window(s, w_end, lookahead);
                    s.prof.work_ns += t0.elapsed().as_nanos() as u64;
                    s.prof.max_window_events = s.prof.max_window_events.max(s.processed - before);
                }
                let t0 = Instant::now();
                Self::merge_windows(&mut refs, scratch, next_gseq, partition, Some(&mut mprof));
                merge_ns += t0.elapsed().as_nanos() as u64;
            } else {
                for s in refs.iter_mut() {
                    Self::process_window(s, w_end, lookahead);
                }
                Self::merge_windows(&mut refs, scratch, next_gseq, partition, None);
            }
        };
        drop(refs);
        self.windows += windows;
        self.prof_merge_ns += merge_ns;
        self.prof_merged_events += mprof.merged_events;
        self.prof_cross_shard += mprof.cross_shard;
        outcome
    }

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
        let lookahead = self.lookahead;
        let budget = self.event_budget;
        let profiling = self.profiling;
        let partition = &self.partition;
        let scratch = &mut self.merge_scratch;
        let next_gseq = &mut self.next_gseq;
        let windows = &mut self.windows;
        let mut mprof = MergeProf::default();
        let mut merge_ns = 0u64;
        // Broadcast cell for the current window end (ms); WINDOW_DONE
        // tells workers to exit.
        let w_end_shared = AtomicU64::new(0);
        let start_barrier = Barrier::new(nshards + 1);
        let end_barrier = Barrier::new(nshards + 1);
        // Each worker locks only its own shard during the compute phase
        // (uncontended); the coordinator locks all of them between
        // barriers for the merge.
        let cells: Vec<Mutex<&mut Shard<W>>> = self.shards.iter_mut().map(Mutex::new).collect();
        let mut outcome = RunOutcome::Exhausted;
        std::thread::scope(|scope| {
            for cell in &cells {
                let w_end_shared = &w_end_shared;
                let start_barrier = &start_barrier;
                let end_barrier = &end_barrier;
                scope.spawn(move || {
                    // Thread-local profile tallies; folded into the shard
                    // under its lock once, at shutdown. The clocks only
                    // bracket existing phases — event processing is
                    // untouched, so the run stays bit-identical.
                    let mut lane = LaneProf::default();
                    loop {
                        let t0 = profiling.then(Instant::now);
                        start_barrier.wait();
                        if let Some(t0) = t0 {
                            lane.stall_ns += t0.elapsed().as_nanos() as u64;
                        }
                        let w = w_end_shared.load(AtomicOrdering::Acquire);
                        if w == WINDOW_DONE {
                            break;
                        }
                        let mut shard = cell.lock().expect("shard mutex poisoned");
                        if profiling {
                            let before = shard.processed;
                            let t1 = Instant::now();
                            Self::process_window(&mut shard, SimTime::from_millis(w), lookahead);
                            lane.work_ns += t1.elapsed().as_nanos() as u64;
                            lane.max_window_events =
                                lane.max_window_events.max(shard.processed - before);
                            drop(shard);
                            let t2 = Instant::now();
                            end_barrier.wait();
                            lane.barrier_ns += t2.elapsed().as_nanos() as u64;
                        } else {
                            Self::process_window(&mut shard, SimTime::from_millis(w), lookahead);
                            drop(shard);
                            end_barrier.wait();
                        }
                    }
                    if profiling {
                        let mut shard = cell.lock().expect("shard mutex poisoned");
                        shard.prof.work_ns += lane.work_ns;
                        shard.prof.barrier_ns += lane.barrier_ns;
                        shard.prof.stall_ns += lane.stall_ns;
                        shard.prof.max_window_events =
                            shard.prof.max_window_events.max(lane.max_window_events);
                    }
                });
            }
            loop {
                // Coordinator phase: all workers are parked at the start
                // barrier, so the locks are free.
                let guards: Vec<_> = cells
                    .iter()
                    .map(|c| c.lock().expect("shard mutex poisoned"))
                    .collect();
                if let Some(b) = budget {
                    let processed: u64 = guards.iter().map(|g| g.processed).sum();
                    if processed >= b {
                        outcome = RunOutcome::EventBudgetExhausted;
                        break;
                    }
                }
                let next = guards.iter().filter_map(|g| g.queue.peek_time()).min();
                let t = match next {
                    None => {
                        outcome = RunOutcome::Exhausted;
                        break;
                    }
                    Some(t) if t >= horizon => {
                        outcome = RunOutcome::ReachedHorizon;
                        break;
                    }
                    Some(t) => t,
                };
                let w_end = t
                    .checked_add(lookahead)
                    .unwrap_or(SimTime::MAX)
                    .min(horizon);
                *windows += 1;
                drop(guards);
                w_end_shared.store(w_end.as_millis(), AtomicOrdering::Release);
                start_barrier.wait();
                // Workers dispatch their windows …
                end_barrier.wait();
                // … and park again; merge under fresh locks.
                let mut guards: Vec<_> = cells
                    .iter()
                    .map(|c| c.lock().expect("shard mutex poisoned"))
                    .collect();
                let mut refs: Vec<&mut Shard<W>> = guards.iter_mut().map(|g| &mut ***g).collect();
                if profiling {
                    let t0 = Instant::now();
                    Self::merge_windows(&mut refs, scratch, next_gseq, partition, Some(&mut mprof));
                    merge_ns += t0.elapsed().as_nanos() as u64;
                } else {
                    Self::merge_windows(&mut refs, scratch, next_gseq, partition, None);
                }
            }
            w_end_shared.store(WINDOW_DONE, AtomicOrdering::Release);
            start_barrier.wait();
        });
        self.prof_merge_ns += merge_ns;
        self.prof_merged_events += mprof.merged_events;
        self.prof_cross_shard += mprof.cross_shard;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node-local ping world: each event increments the destination's
    /// counter, folds `(now, gseq-order)` into an order-sensitive
    /// checksum, and forwards a shrinking hop count to a deterministic
    /// next node.
    struct PingWorld {
        base: usize,
        counts: Vec<u64>,
        checksums: Vec<u64>,
        total_nodes: usize,
    }

    #[derive(Clone)]
    struct Ping {
        hops: u32,
        tag: u64,
    }

    fn mix(a: u64, b: u64) -> u64 {
        (a ^ b)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(27)
            .wrapping_add(b)
    }

    impl ShardWorld for PingWorld {
        type Event = Ping;
        fn handle(&mut self, now: SimTime, ev: Ping, ctx: &mut ShardCtx<'_, Ping>) {
            // Which node an event addresses is implicit in this toy
            // world: the tag encodes it.
            let local = (ev.tag % self.total_nodes as u64) as usize;
            if local < self.base || local >= self.base + self.counts.len() {
                panic!("event routed to the wrong shard");
            }
            let i = local - self.base;
            self.counts[i] += 1;
            self.checksums[i] = mix(self.checksums[i], mix(now.as_millis(), ev.tag));
            if ev.hops > 0 {
                let next_tag = mix(ev.tag, ev.hops as u64);
                let dest = NodeId::from_index((next_tag % self.total_nodes as u64) as usize);
                let delay = SimDuration::from_millis(10 + (next_tag % 97));
                ctx.send(
                    dest,
                    delay,
                    Ping {
                        hops: ev.hops - 1,
                        tag: next_tag,
                    },
                );
            }
        }
    }

    fn build(nodes: usize, shards: usize) -> ShardedSimulation<PingWorld> {
        let partition = Partition::contiguous(nodes, shards);
        let worlds = (0..partition.shards())
            .map(|s| {
                let r = partition.range(s);
                PingWorld {
                    base: r.start,
                    counts: vec![0; r.len()],
                    checksums: vec![0; r.len()],
                    total_nodes: nodes,
                }
            })
            .collect();
        let mut sim = ShardedSimulation::new(worlds, partition, SimDuration::from_millis(10));
        for i in 0..nodes as u64 {
            let tag = mix(i, 0xD15C0);
            let dest = NodeId::from_index((tag % nodes as u64) as usize);
            sim.schedule_at(SimTime::from_millis(i % 7), dest, Ping { hops: 40, tag });
        }
        sim
    }

    fn fingerprint(sim: &ShardedSimulation<PingWorld>) -> Vec<(u64, u64)> {
        sim.worlds()
            .flat_map(|w| w.counts.iter().copied().zip(w.checksums.iter().copied()))
            .collect()
    }

    #[test]
    fn partition_covers_every_node_exactly_once() {
        for (nodes, shards) in [(1, 1), (10, 4), (8, 3), (4, 9), (1000, 7)] {
            let p = Partition::contiguous(nodes, shards);
            let mut seen = vec![0u32; nodes];
            for s in 0..p.shards() {
                for i in p.range(s) {
                    assert_eq!(p.shard_of(NodeId::from_index(i)), s);
                    seen[i] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{nodes}/{shards}");
        }
    }

    #[test]
    fn serial_run_drains_to_exhaustion() {
        let mut sim = build(50, 4);
        let outcome = sim.run(SimTime::MAX);
        assert_eq!(outcome, RunOutcome::Exhausted);
        // 50 seeds × 41 dispatches each (hops 40..=0).
        assert_eq!(sim.processed(), 50 * 41);
        assert_eq!(sim.pending(), 0);
        assert!(sim.windows() > 0);
    }

    #[test]
    fn parallel_is_bit_identical_to_serial_across_shard_counts() {
        let mut reference = build(64, 1);
        reference.run(SimTime::MAX);
        let expect = fingerprint(&reference);
        for shards in [2, 3, 4, 7] {
            let mut serial = build(64, shards);
            serial.run(SimTime::MAX);
            assert_eq!(fingerprint(&serial), expect, "serial x{shards}");
            assert_eq!(serial.processed(), reference.processed());

            let mut parallel = build(64, shards);
            parallel.run_parallel(SimTime::from_hours(1_000_000), shards);
            assert_eq!(fingerprint(&parallel), expect, "parallel x{shards}");
            assert_eq!(parallel.windows(), serial.windows());
        }
    }

    #[test]
    fn horizon_stops_both_runs_at_the_same_frontier() {
        let horizon = SimTime::from_millis(1_500);
        let mut serial = build(64, 3);
        assert_eq!(serial.run(horizon), RunOutcome::ReachedHorizon);
        let mut parallel = build(64, 3);
        assert_eq!(
            parallel.run_parallel(horizon, 3),
            RunOutcome::ReachedHorizon
        );
        assert_eq!(fingerprint(&parallel), fingerprint(&serial));
        assert_eq!(parallel.processed(), serial.processed());
        assert_eq!(parallel.pending(), serial.pending());
    }

    #[test]
    fn event_budget_stops_on_a_window_boundary() {
        let mut sim = build(64, 3);
        sim.set_event_budget(100);
        assert_eq!(sim.run(SimTime::MAX), RunOutcome::EventBudgetExhausted);
        let serial_stop = sim.processed();
        assert!(serial_stop >= 100);

        let mut par = build(64, 3);
        par.set_event_budget(100);
        assert_eq!(
            par.run_parallel(SimTime::from_hours(1_000_000), 3),
            RunOutcome::EventBudgetExhausted
        );
        assert_eq!(par.processed(), serial_stop);
    }

    #[test]
    #[should_panic(expected = "delay >= lookahead")]
    fn sub_lookahead_send_panics() {
        struct Eager;
        impl ShardWorld for Eager {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), ctx: &mut ShardCtx<'_, ()>) {
                ctx.send(NodeId::from_index(0), SimDuration::from_millis(1), ());
            }
        }
        let mut sim = ShardedSimulation::new(
            vec![Eager],
            Partition::contiguous(1, 1),
            SimDuration::from_millis(10),
        );
        sim.schedule_at(SimTime::ZERO, NodeId::from_index(0), ());
        sim.run(SimTime::MAX);
    }
}
