//! The threshold-K reconfiguration clock (paper §4.3).
//!
//! "Every K requests" is the paper's update trigger: a node counts local
//! requests and reconfigures its neighbour list once the count reaches
//! the threshold K. Two damping rules ride along:
//!
//! * the count resets when a reconfiguration actually executes, and
//! * it also resets when the node *accepts an invitation* — its
//!   neighbour list just changed for free, so restarting the clock
//!   avoids reconfiguring again on stale statistics (Fig 3(b)'s
//!   interior-optimum shape depends on this damping).
//!
//! The clock always ticks, even in static mode — the world decides
//! whether a due clock actually triggers an update. That keeps static
//! and dynamic runs on identical RNG/event schedules.
//!
//! Nothing in the clock is specific to reconfiguration: it counts
//! requests for any threshold-K trigger. The web cache keeps a second
//! one per proxy as its exploration trigger (Algo 2, "explore every N
//! requests"), reset each time a probe round fires.

/// Counts requests toward a threshold K (reconfiguration, or any other
/// every-K-requests trigger).
#[derive(Debug, Clone)]
pub struct ReconfigClock {
    count: u32,
    threshold: u32,
}

impl ReconfigClock {
    /// A clock firing every `threshold` requests (K in the paper).
    pub fn new(threshold: u32) -> Self {
        ReconfigClock {
            count: 0,
            threshold,
        }
    }

    /// Note one request; returns `true` when the threshold is reached
    /// (the clock is *due* — call [`ReconfigClock::reset`] after the
    /// update actually executes).
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.count = self.count.saturating_add(1);
        self.count >= self.threshold
    }

    /// Restart the count (after an executed update, an accepted
    /// invitation, or a session start).
    #[inline]
    pub fn reset(&mut self) {
        self.count = 0;
    }

    /// Requests counted since the last reset.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The configured threshold K.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_at_threshold_and_keeps_firing_until_reset() {
        let mut c = ReconfigClock::new(3);
        assert!(!c.tick());
        assert!(!c.tick());
        assert!(c.tick(), "third tick reaches K=3");
        assert!(c.tick(), "stays due until reset");
        c.reset();
        assert_eq!(c.count(), 0);
        assert!(!c.tick());
    }

    #[test]
    fn threshold_one_fires_every_tick() {
        let mut c = ReconfigClock::new(1);
        assert!(c.tick());
        c.reset();
        assert!(c.tick());
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut c = ReconfigClock::new(u32::MAX);
        c.count = u32::MAX - 1;
        assert!(c.tick());
        assert!(c.tick(), "saturating add keeps the clock due");
        assert_eq!(c.count(), u32::MAX);
    }
}
