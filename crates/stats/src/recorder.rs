//! Shared framework-level metrics recorder.
//!
//! Every case-study world used to carry a bespoke metrics struct that
//! re-declared the same framework counters (queries, hits, messages,
//! reconfiguration updates, …) next to its domain-specific ones. The
//! [`RuntimeMetrics`] recorder factors that common core out: the worlds
//! embed one shared recorder, keep only their domain fields, and their
//! handlers write its fields directly, as they write their own.
//! [`RuntimeMetrics::counters`] names these counters for the metrics
//! timeline, so a new one is written in three places: the field,
//! [`RuntimeMetrics::merge`], and that list.
//!
//! The field vocabulary follows the paper's reporting: hourly series for
//! the Fig 1–2 curves, a latency accumulator for Fig 3(a), and plain
//! counters for the reconfiguration/exploration machinery.

use crate::{BucketSeries, RunningStats};
use serde::Serialize;

/// Framework counters common to every case-study simulation.
///
/// * hourly [`BucketSeries`] for demand (`queries`), successful remote
///   answers (`hits`) and network cost (`messages`);
/// * a [`RunningStats`] accumulator for first-result latency in
///   milliseconds;
/// * scalar counters for the adaptive machinery: `explorations`
///   (exploration waves fired), `updates` (reconfigurations executed)
///   and `edges_changed` (neighbour-set churn caused by those updates).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RuntimeMetrics {
    /// Queries (or requests) issued, per hour.
    pub queries: BucketSeries,
    /// Queries satisfied remotely (hits / neighbour hits / peer chunks),
    /// per hour.
    pub hits: BucketSeries,
    /// Protocol messages sent, per hour.
    pub messages: BucketSeries,
    /// First-result latency in milliseconds.
    pub latency_ms: RunningStats,
    /// Exploration waves fired beyond the normal search horizon.
    pub explorations: u64,
    /// Reconfigurations (neighbour-list updates) executed.
    pub updates: u64,
    /// Individual neighbour-edge changes applied by reconfigurations.
    pub edges_changed: u64,
}

impl RuntimeMetrics {
    /// A zeroed recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters as `(timeline name, cumulative total)`: the hourly
    /// series' totals, then the scalars. Every world's timeline opens
    /// with these six; `latency_ms` is a distribution, not a counter.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("queries", self.queries.total() as u64),
            ("hits", self.hits.total() as u64),
            ("messages", self.messages.total() as u64),
            ("explorations", self.explorations),
            ("updates", self.updates),
            ("edges_changed", self.edges_changed),
        ]
    }

    /// Merge another recorder (parallel-shard combination).
    pub fn merge(&mut self, other: &RuntimeMetrics) {
        self.queries.merge(&other.queries);
        self.hits.merge(&other.hits);
        self.messages.merge(&other.messages);
        self.latency_ms.merge(&other.latency_ms);
        self.explorations += other.explorations;
        self.updates += other.updates;
        self.edges_changed += other.edges_changed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_everything() {
        let mut a = RuntimeMetrics::new();
        a.hits.incr(0);
        a.updates += 1;
        let mut b = RuntimeMetrics::new();
        b.hits.incr(0);
        b.hits.incr(2);
        b.latency_ms.record(10.0);
        b.edges_changed += 2;
        a.merge(&b);
        assert_eq!(a.hits.total(), 3.0);
        assert_eq!(a.latency_ms.count(), 1);
        assert_eq!(a.updates, 1);
        assert_eq!(a.edges_changed, 2);
        let counters = a.counters();
        assert_eq!(counters[1], ("hits", 3));
        assert_eq!(counters[4..], [("updates", 1), ("edges_changed", 2)]);
    }

    #[test]
    fn serialises() {
        let m = RuntimeMetrics::new();
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"updates\""));
    }
}
