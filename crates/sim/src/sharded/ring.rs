//! One shard and its latency-hiding dispatch: `process_window`, through
//! the crate's one lookahead ring ([`crate::lookahead`]).

use super::contract::{ShardCtx, ShardWorld};
use super::merge::Staged;
use super::profile::{ns_since, ShardLane};
use crate::event::EventQueue;
use crate::lookahead::Lookahead;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::time::Instant;

/// One shard: a slice of world state, its own calendar queue, and its
/// outbox. Queue entries carry the event's global sequence number so the
/// dispatch order is observable (and testable) per shard.
pub(super) struct Shard<W: ShardWorld> {
    pub(super) world: W,
    pub(super) queue: EventQueue<(u64, W::Event)>,
    /// Events of the current window popped ahead of their dispatch (see
    /// `process_window`); empty between windows.
    pub(super) ring: Lookahead<(SimTime, (u64, W::Event))>,
    /// This window's sends, in creation order. A deque, so the merge
    /// can release a drained prefix without moving the rest.
    pub(super) staged: VecDeque<Staged<W::Event>>,
    /// This shard's profile row; `lane.events` is also the kernel's
    /// count of events dispatched here.
    pub(super) lane: ShardLane,
}

impl<W: ShardWorld> Shard<W> {
    /// Dispatch every event of this shard with `time < w_end`. Events are
    /// only created into the outbox, so this touches nothing outside the
    /// shard — the threaded executor calls it concurrently per shard.
    ///
    /// Every send is staged and `delay >= lookahead`, so nothing created
    /// during the window can land inside it: the events `< w_end` are
    /// fixed when the window opens, and popping a few of them ahead of
    /// their dispatch (into the shard's ring) changes neither their order
    /// nor anything a handler can observe. It gives the world the one
    /// thing a far-larger-than-cache state needs — the payloads of the
    /// next few events while the current one still runs — through the two
    /// [`ShardWorld`] hint hooks.
    pub(super) fn process_window(
        &mut self,
        w_end: SimTime,
        lookahead: SimDuration,
        profiling: bool,
    ) {
        let start = profiling.then(Instant::now);
        let Shard {
            world,
            queue,
            ring,
            staged,
            lane,
        } = self;
        let before = lane.events;
        while let Some((now, (gseq, event))) = ring.next(
            || {
                queue.peek_time().filter(|&t| t < w_end)?;
                queue.pop()
            },
            |entry| world.prefetch(&entry.1 .1),
            |entry| world.prefetch_dependent(&entry.1 .1),
        ) {
            let mut ctx = ShardCtx {
                now,
                lookahead,
                parent_gseq: gseq,
                child_idx: 0,
                staged,
            };
            world.handle(now, event, &mut ctx);
            lane.events += 1;
        }
        debug_assert!(ring.is_empty(), "an event outlived its window");
        lane.max_window_events = lane.max_window_events.max(lane.events - before);
        lane.work_ns += ns_since(start);
    }
}
