//! What a world agrees to: the node [`Partition`], the [`ShardWorld`]
//! handler and its [`ShardCtx`].
//!
//! The price of bit-identical parallel runs is the **lookahead bound**:
//! every [`ShardCtx::send`] must use a delay of at least the configured
//! lookahead (asserted), and handlers may touch only their own shard's
//! state. The Gnutella case study meets both (per-node RNG streams,
//! message-passing reconfiguration, shard-local membership —
//! DESIGN.md §12); worlds that still keep global mutable state (the
//! web-cache and PeerOlap worlds' shared books) keep the serial kernel.
//! See DESIGN.md §11.

use super::merge::Staged;
use crate::id::NodeId;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

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
    /// The effective shard count is the number of non-empty blocks, so it
    /// can fall below both counts: 5 nodes over 4 shards are blocks of 2,
    /// which make 3 slices, not a fourth one holding nothing.
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn contiguous(nodes: usize, shards: usize) -> Self {
        assert!(nodes >= 1, "cannot partition an empty world");
        assert!(shards >= 1, "need at least one shard");
        let block = nodes.div_ceil(shards.min(nodes));
        Partition {
            nodes,
            shards: nodes.div_ceil(block),
            block,
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
        // because `shards` is `nodes.div_ceil(block)`.
        i / self.block
    }

    /// The node-index range owned by `shard`.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        assert!(shard < self.shards);
        let lo = shard * self.block;
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
    /// [`run_parallel`](super::ShardedSimulation::run_parallel).
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
    fn sample_metrics(&self, _now: SimTime, _hub: &mut crate::MetricsHub) {}
}

/// Scheduling façade handed to [`ShardWorld::handle`]; the sharded
/// analogue of [`crate::Scheduler`]. All sends are staged in the shard's
/// outbox and only enter a queue at the window barrier.
pub struct ShardCtx<'a, E> {
    pub(super) now: SimTime,
    pub(super) lookahead: SimDuration,
    pub(super) parent_gseq: u64,
    pub(super) child_idx: u32,
    pub(super) staged: &'a mut VecDeque<Staged<E>>,
}

impl<'a, E> ShardCtx<'a, E> {
    /// Current virtual time (the event being handled fires now).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
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
        self.staged.push_back(Staged {
            parent_time: self.now,
            parent_gseq: self.parent_gseq,
            child_idx,
            time: self.now + delay,
            dest: to,
            event,
        });
    }
}
