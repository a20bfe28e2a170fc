//! Shared framework-level metrics recorder.
//!
//! Every case-study world used to carry a bespoke metrics struct that
//! re-declared the same framework counters (queries, hits, messages,
//! reconfiguration updates, …) next to its domain-specific ones. The
//! [`RuntimeMetrics`] recorder factors that common core out: the worlds
//! embed one shared recorder, keep only their domain fields, and their
//! handlers call its `record_*` methods directly.
//! `ddr_core::runtime::sample_runtime_metrics` names these counters for
//! the metrics timeline, so a new one is written in three places: the
//! field, [`RuntimeMetrics::merge`], and that sampler.
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

    /// Record one issued query in `hour`.
    pub fn record_query(&mut self, hour: usize) {
        self.queries.incr(hour);
    }

    /// Record one remote hit in `hour`.
    pub fn record_hit(&mut self, hour: usize) {
        self.hits.incr(hour);
    }

    /// Record `n` protocol messages in `hour`.
    pub fn record_messages(&mut self, hour: usize, n: f64) {
        self.messages.add(hour, n);
    }

    /// Record one first-result latency observation.
    pub fn record_latency_ms(&mut self, ms: f64) {
        self.latency_ms.record(ms);
    }

    /// Record one exploration wave.
    pub fn record_exploration(&mut self) {
        self.explorations += 1;
    }

    /// Record one executed reconfiguration.
    pub fn record_update(&mut self) {
        self.updates += 1;
    }

    /// Record `n` neighbour-edge changes.
    pub fn record_edges_changed(&mut self, n: u64) {
        self.edges_changed += n;
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
    fn records_into_the_right_fields() {
        let mut m = RuntimeMetrics::new();
        m.record_query(0);
        m.record_query(1);
        m.record_hit(1);
        m.record_messages(1, 7.0);
        m.record_latency_ms(120.0);
        m.record_exploration();
        m.record_update();
        m.record_edges_changed(3);
        assert_eq!(m.queries.total(), 2.0);
        assert_eq!(m.hits.get(1), 1.0);
        assert_eq!(m.messages.get(1), 7.0);
        assert_eq!(m.latency_ms.count(), 1);
        assert_eq!(m.explorations, 1);
        assert_eq!(m.updates, 1);
        assert_eq!(m.edges_changed, 3);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = RuntimeMetrics::new();
        a.record_hit(0);
        a.record_update();
        let mut b = RuntimeMetrics::new();
        b.record_hit(0);
        b.record_hit(2);
        b.record_latency_ms(10.0);
        b.record_edges_changed(2);
        a.merge(&b);
        assert_eq!(a.hits.total(), 3.0);
        assert_eq!(a.latency_ms.count(), 1);
        assert_eq!(a.updates, 1);
        assert_eq!(a.edges_changed, 2);
    }

    #[test]
    fn serialises() {
        let m = RuntimeMetrics::new();
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"updates\""));
    }
}
