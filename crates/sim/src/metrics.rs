//! The kernel-side metrics hook: how worlds expose time-series samples.
//!
//! `ddr-telemetry` owns the rest of the metrics pipeline (recorder, sink,
//! timeline files), but the *hook* has to live here: the [`crate::World`]
//! and [`crate::sharded::ShardWorld`] traits are defined in this crate,
//! and a world reports its gauges without knowing what records them.
//! [`MetricsHub`] is that seam — one sampling pass's named counters
//! and gauges, which the runner hands to `sample_metrics` at every
//! sampling boundary and reads back afterwards.
//!
//! Semantics are additive so sharded worlds compose: when a run samples
//! N shard worlds into one hub, each contribution **adds** to the named
//! series, and the collector sees the fleet-wide sum. Counters carry
//! cumulative totals (the collector windows them into per-interval
//! deltas); gauges carry instantaneous levels (extensive quantities like
//! online population sum naturally across shards).
//!
//! Sampling happens *between* kernel steps — never inside a handler — so
//! a hub only ever observes quiescent world state and cannot perturb
//! event order. The metrics-determinism tests pin that: metrics-on runs
//! are digest-identical to metrics-off runs.

use std::collections::BTreeMap;

/// One sampling pass's named counters and gauges, handed to
/// `sample_metrics`. Contributions **add**.
#[derive(Debug, Default)]
pub struct MetricsHub {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsHub {
    /// Add `total` to the cumulative counter `name`. Worlds report
    /// running totals; the collector turns them into per-window deltas.
    pub fn counter(&mut self, name: &str, total: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += total;
    }

    /// Add `value` to the instantaneous gauge `name`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        *self.gauges.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Forget the previous pass before a new one.
    pub fn begin_sample(&mut self) {
        self.counters.clear();
        self.gauges.clear();
    }

    /// This pass's counters by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// This pass's gauges by name.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_sums_contributions() {
        let mut hub = MetricsHub::default();
        hub.counter("hits", 3);
        hub.counter("hits", 4);
        hub.gauge("online", 10.0);
        hub.gauge("online", 5.0);
        assert_eq!(hub.counters()["hits"], 7);
        assert_eq!(hub.gauges()["online"], 15.0);
        hub.begin_sample();
        assert!(hub.counters().is_empty() && hub.gauges().is_empty());
    }
}
