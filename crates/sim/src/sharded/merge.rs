//! The staged outbox and the window-barrier merge: how a sharded run
//! reproduces the serial kernel's event order *exactly*, not merely "up
//! to tie-breaking".
//!
//! 1. **Staged creation.** Handlers never insert into a queue directly.
//!    Every event produced during a window goes to a per-shard outbox,
//!    tagged with its parent's `(dispatch time, global seq)` and a
//!    per-parent child index.
//! 2. **Window-barrier merge.** Each outbox is already a sorted run by
//!    `(parent_time, parent_gseq, child_idx)`: its shard dispatched the
//!    parents in `(time, gseq)` order, and each parent created its
//!    children in program order. At the end of each window the
//!    single-threaded coordinator merges the runs by that triple — which
//!    is precisely the order a serial run would have *created* those
//!    events in, because a serial run dispatches parents in
//!    `(time, seq)` order too. Nothing is sorted.
//! 3. **Global sequence numbers.** The coordinator assigns each staged
//!    event the next global seq and inserts it into its destination
//!    shard's queue. Insertion order into any single queue therefore
//!    agrees with global creation order, so the per-queue FIFO tie-break
//!    reproduces the global one.
//!
//! Because the windowed pop order visits events in nondecreasing time
//! and ties are broken by global creation seq, the sequence of
//! `(time, gseq, destination)` dispatches is identical under either
//! executor — and identical to a serial reference run over one global
//! queue (`tests/prop_sharded.rs` proves this differentially against
//! [`crate::ReferenceEventQueue`] across seeds, shard counts, and churn
//! schedules).

use super::contract::ShardWorld;
use super::profile::ns_since;
use super::ring::Shard;
use super::window::Coordinator;
use crate::id::NodeId;
use crate::time::SimTime;
use std::time::Instant;

/// An event staged in a per-shard outbox during a window, waiting for
/// the coordinator to assign its global sequence number. The
/// `(parent_time, parent_gseq, child_idx)` triple reconstructs the
/// serial creation order.
pub(super) struct Staged<E> {
    pub(super) parent_time: SimTime,
    pub(super) parent_gseq: u64,
    pub(super) child_idx: u32,
    pub(super) time: SimTime,
    pub(super) dest: NodeId,
    pub(super) event: E,
}

/// `(parent_time, parent_gseq, child_idx)`: serial creation order.
type Key = (SimTime, u64, u32);

/// An event's [`Key`]. Unique: gseqs are globally unique and
/// `child_idx` counts per parent.
#[inline]
fn creation_key<E>(e: &Staged<E>) -> Key {
    (e.parent_time, e.parent_gseq, e.child_idx)
}

impl Coordinator {
    /// The window barrier: merge every shard's outbox in serial creation
    /// order, assign global seqs, and route into destination queues.
    /// Single-threaded by design — it is the only cross-shard step.
    ///
    /// Each pass takes the run with the least head and drains, in one
    /// piece, its prefix below the second-least head (the whole run when
    /// no other run is left — always, at one shard). The emptied run goes
    /// back to its shard, so no window allocates.
    pub(super) fn merge<W: ShardWorld>(&mut self, shards: &mut [&mut Shard<W>]) {
        let start = self.profiling.then(Instant::now);
        debug_assert!(
            shards
                .iter()
                .all(|s| s.staged.iter().is_sorted_by_key(creation_key)),
            "an outbox is not in creation order"
        );
        let (mut merged, mut crossed) = (0, 0);
        loop {
            // The least head (and its run) and the second-least head.
            let mut least = None;
            let mut second = None;
            for (i, s) in shards.iter().enumerate() {
                let Some(key) = s.staged.front().map(creation_key) else {
                    continue;
                };
                match least {
                    Some((_, low)) if low < key => {
                        second = Some(second.map_or(key, |next: Key| next.min(key)));
                    }
                    _ => {
                        second = least.map(|(_, low)| low);
                        least = Some((i, key));
                    }
                }
            }
            let Some((src, _)) = least else {
                break;
            };
            let mut run = std::mem::take(&mut shards[src].staged);
            let n = match second {
                None => run.len(),
                Some(bound) => run
                    .iter()
                    .position(|e| creation_key(e) > bound)
                    .unwrap_or(run.len()),
            };
            merged += n as u64;
            for e in run.drain(..n) {
                let gseq = self.next_gseq;
                self.next_gseq += 1;
                let dest = self.partition.shard_of(e.dest);
                crossed += u64::from(dest != src);
                // Never panics: e.time >= window start + lookahead >= w_end,
                // and no queue's clock has passed w_end.
                shards[dest].queue.schedule_at(e.time, (gseq, e.event));
            }
            shards[src].staged = run;
        }
        if self.profiling {
            self.profile.merged_events += merged;
            self.profile.cross_shard_events += crossed;
        }
        self.profile.merge_ns += ns_since(start);
    }
}
