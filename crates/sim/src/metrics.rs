//! The kernel-side metrics hook: how worlds expose time-series samples.
//!
//! `ddr-telemetry` owns the full metrics pipeline (registry, sink,
//! timeline files), but the *hook* has to live here: the [`crate::World`]
//! and [`crate::sharded::ShardWorld`] traits are defined in this crate,
//! and a world reports its gauges without knowing what collects them.
//! [`MetricsHub`] is that seam — a write-only surface the runner hands to
//! `sample_metrics` at every sampling boundary.
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

/// Write-only metrics surface handed to `sample_metrics`.
pub trait MetricsHub {
    /// Add `total` to the cumulative counter `name`. Worlds report
    /// running totals; the collector turns them into per-window deltas.
    fn counter(&mut self, name: &str, total: u64);

    /// Add `value` to the instantaneous gauge `name`.
    fn gauge(&mut self, name: &str, value: f64);
}
