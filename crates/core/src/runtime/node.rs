//! Per-node framework bundle.
//!
//! Each case-study world composes its domain state (caches, pending
//! queries, workload generators) with one [`NodeRuntime`] holding the
//! framework-side machinery the paper gives every node:
//!
//! * the statistics store over encountered nodes (§3.2/§3.4),
//! * an optional duplicate cache (§4.1 — point-to-point protocols like
//!   the web-cache study never see duplicate deliveries),
//! * the threshold-K reconfiguration clock (§4.3).

use crate::dup_cache::DupCache;
use crate::stats_store::StatsStore;

use super::reconfig::ReconfigClock;

/// The framework-side state of one node, composed into each case
/// study's per-node struct. Fields are public: the runtime is plumbing,
/// not policy, and the worlds drive it directly.
#[derive(Debug, Clone)]
pub struct NodeRuntime {
    /// Statistics about neighbouring and encountered nodes.
    pub stats: StatsStore,
    /// Recently seen query ids (`None` when the protocol cannot deliver
    /// duplicates).
    pub seen: Option<DupCache>,
    /// Requests-since-last-update clock (threshold K).
    pub clock: ReconfigClock,
}

impl NodeRuntime {
    /// A bare runtime: stats + clock, no dup cache.
    pub fn new(threshold: u32) -> Self {
        NodeRuntime {
            stats: StatsStore::new(),
            seen: None,
            clock: ReconfigClock::new(threshold),
        }
    }

    /// Attach a duplicate cache of the given capacity.
    pub fn with_dup_cache(mut self, capacity: usize) -> Self {
        self.seen = Some(DupCache::new(capacity));
        self
    }

    /// The duplicate cache.
    ///
    /// # Panics
    /// Panics when the runtime was built without one — that is a wiring
    /// bug in the world, not a runtime condition.
    #[inline]
    pub fn seen(&mut self) -> &mut DupCache {
        self.seen
            .as_mut()
            .expect("NodeRuntime built without dup cache")
    }

    /// Session start (login / restart): forget seen messages and restart
    /// the reconfiguration clock. Statistics survive or not per world
    /// policy — call [`NodeRuntime::reset_stats`] separately when they
    /// should not.
    pub fn begin_session(&mut self) {
        if let Some(seen) = &mut self.seen {
            seen.clear();
        }
        self.clock.reset();
    }

    /// Drop all collected node statistics (cold restart).
    pub fn reset_stats(&mut self) {
        self.stats = StatsStore::new();
    }

    /// Invitation-accepted damping: the neighbour list just changed, so
    /// restart the update clock (§4.3).
    #[inline]
    pub fn note_invitation_accepted(&mut self) {
        self.clock.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddr_sim::QueryId;

    #[test]
    fn builder_attaches_optional_parts() {
        let bare = NodeRuntime::new(4);
        assert!(bare.seen.is_none());
        assert_eq!(bare.clock.threshold(), 4);
        assert!(NodeRuntime::new(4).with_dup_cache(8).seen.is_some());
    }

    #[test]
    fn begin_session_clears_seen_and_clock() {
        let mut rt = NodeRuntime::new(2).with_dup_cache(8);
        assert!(rt.seen().first_sighting(QueryId(1)));
        assert!(!rt.clock.tick());
        rt.begin_session();
        assert!(rt.seen().first_sighting(QueryId(1)), "cache was cleared");
        assert_eq!(rt.clock.count(), 0);
    }

    #[test]
    fn invitation_damping_resets_clock() {
        let mut rt = NodeRuntime::new(2);
        rt.clock.tick();
        rt.note_invitation_accepted();
        assert_eq!(rt.clock.count(), 0);
    }

    #[test]
    #[should_panic(expected = "without dup cache")]
    fn seen_accessor_panics_when_absent() {
        let mut rt = NodeRuntime::new(1);
        rt.seen();
    }
}
