//! The window coordinator: everything of the kernel that is not a
//! shard. Both executors drive its two steps over the shard slice —
//! `next_window` here, `merge` in `merge.rs` — so they cannot disagree
//! on a window boundary, the budget check or a global sequence number.

use super::contract::{Partition, ShardWorld};
use super::profile::ShardProfile;
use super::ring::Shard;
use crate::engine::RunOutcome;
use crate::time::{SimDuration, SimTime};
use std::ops::ControlFlow;

pub(super) struct Coordinator {
    pub(super) partition: Partition,
    pub(super) lookahead: SimDuration,
    /// `u64::MAX` (never reached) means no budget, as in
    /// [`crate::Simulation`].
    pub(super) event_budget: u64,
    pub(super) next_gseq: u64,
    pub(super) profiling: bool,
    /// The coordinator's side of the profile (`lanes` stays empty: each
    /// shard carries its own row); `profile.windows` is the kernel's
    /// window count.
    pub(super) profile: ShardProfile,
}

impl Coordinator {
    /// The end of the next window, or why the run stops. The budget is
    /// checked here, at window granularity: a threaded run has no cheap
    /// deterministic way to stop mid-window, so no run does.
    pub(super) fn next_window<W: ShardWorld>(
        &mut self,
        shards: &[&mut Shard<W>],
        horizon: SimTime,
    ) -> ControlFlow<RunOutcome, SimTime> {
        let processed: u64 = shards.iter().map(|s| s.lane.events).sum();
        if processed >= self.event_budget {
            return ControlFlow::Break(RunOutcome::EventBudgetExhausted);
        }
        // The next window starts at the global minimum pending time
        // (empty stretches are skipped, not walked 10 ms at a time).
        let Some(t) = shards.iter().filter_map(|s| s.queue.peek_time()).min() else {
            return ControlFlow::Break(RunOutcome::Exhausted);
        };
        if t >= horizon {
            return ControlFlow::Break(RunOutcome::ReachedHorizon);
        }
        self.profile.windows += 1;
        let w_end = t.checked_add(self.lookahead).unwrap_or(SimTime::MAX);
        ControlFlow::Continue(w_end.min(horizon))
    }
}
