//! One shard and its latency-hiding dispatch: the lookahead ring and
//! `process_window`.

use super::contract::{ShardCtx, ShardWorld};
use super::merge::Staged;
use super::profile::{ns_since, ShardLane};
use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::time::Instant;

/// How many events of the current window a shard holds popped ahead of
/// dispatch. A constant, not the whole window: a window can hold 10^5
/// events (draining it into a buffer grows the resident set with it),
/// while the memory system tracks only a dozen outstanding misses, so a
/// deeper ring would buy nothing.
pub(super) const LOOKAHEAD_RING: usize = 8;

/// Ring position (0 is dispatched next) at which an event receives its
/// [`ShardWorld::prefetch_dependent`]: half the ring for the first-stage
/// lines to arrive, half for the lines behind them.
const DEPENDENT_AT: usize = 4;

/// One shard: a slice of world state, its own calendar queue, and its
/// outbox. Queue entries carry the event's global sequence number so the
/// dispatch order is observable (and testable) per shard.
pub(super) struct Shard<W: ShardWorld> {
    pub(super) world: W,
    pub(super) queue: EventQueue<(u64, W::Event)>,
    /// Events of the current window popped ahead of their dispatch (see
    /// `process_window`); never more than [`LOOKAHEAD_RING`], and empty
    /// between windows.
    pub(super) ring: VecDeque<(SimTime, (u64, W::Event))>,
    pub(super) staged: Vec<Staged<W::Event>>,
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
    /// next [`LOOKAHEAD_RING`] events while the current one still runs —
    /// through the two [`ShardWorld`] hint hooks.
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
            lane.events += 1;
        }
        lane.max_window_events = lane.max_window_events.max(lane.events - before);
        lane.work_ns += ns_since(start);
    }
}
