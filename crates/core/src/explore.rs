//! Exploration policies (paper §3.3, Algo 2).
//!
//! "Whereas search concerns the retrieval of actual content, the goal of
//! exploration is to identify beneficial nodes that may become neighbors."
//! Exploration *queries about* collections of data without fetching; the
//! replies carry "statistics and summarized information" which are folded
//! into the [`crate::StatsStore`].
//!
//! This module implements the decision point every world shares: **when**
//! exploration is triggered. *What* is probed is the world's own business
//! (the web-cache case study asks its probe targets for hot-set hits).
//! The music case study needs neither (its search doubles as exploration
//! — "the absence of a central repository and directory information
//! enforces an extensive search process and there is no need for a
//! separate exploration step"); the web-cache case study and the
//! `exploration_sweep` experiment exercise the triggers.

use ddr_sim::{SimDuration, SimTime};

/// Events that trigger an exploration round ("the choice of events is very
/// important since it significantly affects performance").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplorationTrigger {
    /// Fixed period ("there should be a correlation between the
    /// exploration frequency and the frequency with which repositories
    /// change their contents").
    Periodic(SimDuration),
    /// After every `n` local requests (request-count clock rather than
    /// wall clock, matching the reconfiguration-threshold style of §4.3).
    EveryNRequests(u32),
}

/// Tracks trigger state for one node and answers "should I explore now?".
#[derive(Debug, Clone)]
pub struct ExplorationPlanner {
    trigger: ExplorationTrigger,
    last_fired: SimTime,
    requests_since: u32,
}

impl ExplorationPlanner {
    /// A planner with the given trigger, anchored at t = 0.
    pub fn new(trigger: ExplorationTrigger) -> Self {
        ExplorationPlanner {
            trigger,
            last_fired: SimTime::ZERO,
            requests_since: 0,
        }
    }

    /// The configured trigger.
    pub fn trigger(&self) -> ExplorationTrigger {
        self.trigger
    }

    /// Note a local request (for request-count triggers).
    pub fn on_request(&mut self) {
        self.requests_since = self.requests_since.saturating_add(1);
    }

    /// Whether an exploration round should fire at `now`; firing resets
    /// the trigger state.
    pub fn should_fire(&mut self, now: SimTime) -> bool {
        let fire = match self.trigger {
            ExplorationTrigger::Periodic(period) => now.saturating_since(self.last_fired) >= period,
            ExplorationTrigger::EveryNRequests(n) => self.requests_since >= n,
        };
        if fire {
            self.last_fired = now;
            self.requests_since = 0;
        }
        fire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_fires_after_period() {
        let mut p =
            ExplorationPlanner::new(ExplorationTrigger::Periodic(SimDuration::from_secs(10)));
        assert!(!p.should_fire(SimTime::from_secs(5)));
        assert!(p.should_fire(SimTime::from_secs(10)));
        // reset: needs another full period
        assert!(!p.should_fire(SimTime::from_secs(15)));
        assert!(p.should_fire(SimTime::from_secs(20)));
    }

    #[test]
    fn request_count_fires_every_n() {
        let mut p = ExplorationPlanner::new(ExplorationTrigger::EveryNRequests(3));
        for _ in 0..2 {
            p.on_request();
            assert!(!p.should_fire(SimTime::ZERO));
        }
        p.on_request();
        assert!(p.should_fire(SimTime::ZERO));
        assert!(!p.should_fire(SimTime::ZERO), "counter must reset");
    }
}
