//! Shared framework-level metrics recorder.
//!
//! Every case-study world used to carry a bespoke metrics struct that
//! re-declared the same framework counters (queries, hits, messages,
//! reconfiguration updates, …) next to its domain-specific ones. The
//! [`RuntimeMetrics`] recorder factors that common core out: the worlds
//! embed one shared recorder, keep only their domain fields, and their
//! handlers write its fields directly, as they write their own.
//!
//! The recorder is declared with [`metrics!`](crate::metrics), as the
//! worlds' own records are, so a new counter is one field line: the
//! macro derives its zero, its shard merge and its timeline name.
//!
//! The field vocabulary follows the paper's reporting: hourly series for
//! the Fig 1–2 curves, a latency accumulator for Fig 3(a), and plain
//! counters for the reconfiguration/exploration machinery.

use crate::{BucketSeries, RunningStats};
use serde::Serialize;

crate::metrics! {
    /// Framework counters common to every case-study simulation.
    ///
    /// * hourly [`BucketSeries`] for demand (`queries`), successful remote
    ///   answers (`hits`) and network cost (`messages`);
    /// * a [`RunningStats`] accumulator for first-result latency in
    ///   milliseconds;
    /// * scalar counters for the adaptive machinery: `explorations`
    ///   (exploration waves fired), `updates` (reconfigurations executed)
    ///   and `edges_changed` (neighbour-set churn caused by those updates).
    #[derive(Debug, Clone, PartialEq, Serialize)]
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
        let counters: Vec<_> = a.counters().collect();
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
