//! The staged outbox and the window-barrier merge: how a sharded run
//! reproduces the serial kernel's event order *exactly*, not merely "up
//! to tie-breaking".
//!
//! 1. **Staged creation.** Handlers never insert into a queue directly.
//!    Every event produced during a window goes to a per-shard outbox,
//!    tagged with its parent's `(dispatch time, global seq)` and a
//!    per-parent child index.
//! 2. **Window-barrier merge.** At the end of each window the
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

impl<E> Coordinator<E> {
    /// The window barrier: drain every outbox, restore serial creation
    /// order, assign global seqs, and route into destination queues.
    /// Single-threaded by design — it is the only cross-shard step.
    pub(super) fn merge<W: ShardWorld<Event = E>>(&mut self, shards: &mut [&mut Shard<W>]) {
        let start = self.profiling.then(Instant::now);
        if self.profiling {
            // Count true cross-shard traffic while the outboxes still
            // carry their source-shard identity (lost after the append).
            for (i, s) in shards.iter().enumerate() {
                let elsewhere = |e: &&Staged<E>| self.partition.shard_of(e.dest) != i;
                self.profile.merged_events += s.staged.len() as u64;
                self.profile.cross_shard_events += s.staged.iter().filter(elsewhere).count() as u64;
            }
        }
        for s in shards.iter_mut() {
            self.scratch.append(&mut s.staged);
        }
        // Serial creation order: parents dispatch in (time, gseq) order
        // and create children in program order. The triple is unique —
        // gseqs are globally unique and child_idx counts per parent.
        self.scratch
            .sort_unstable_by_key(|e| (e.parent_time, e.parent_gseq, e.child_idx));
        for e in self.scratch.drain(..) {
            let gseq = self.next_gseq;
            self.next_gseq += 1;
            let dest = self.partition.shard_of(e.dest);
            // Never panics: e.time >= window start + lookahead >= w_end,
            // and no queue's clock has passed w_end.
            shards[dest].queue.schedule_at(e.time, (gseq, e.event));
        }
        self.profile.merge_ns += ns_since(start);
    }
}
