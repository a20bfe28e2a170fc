//! Run metrics matching the paper's reported quantities.
//!
//! The framework-level counters (queries, hits, messages, first-result
//! latency, reconfiguration updates) live in the shared
//! [`RuntimeMetrics`] recorder from `ddr-stats` — the same recorder the
//! webcache and OLAP case studies embed — so cross-study comparisons
//! read the same fields. This struct adds only the music-domain
//! measurements on top.

use ddr_stats::{BucketSeries, Histogram, MeasurementWindow, RunningStats, RuntimeMetrics};
use serde::Serialize;

ddr_stats::metrics! {
    /// Everything measured during a run. All series are bucketed by simulated
    /// hour; the warm-up window is excluded by the accessor methods on
    /// [`RunReport`], not at collection time, so tests can inspect warm-up
    /// behaviour too.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct Metrics {
        /// Shared framework recorder: `queries` (issued per hour), `hits`
        /// (queries satisfied per hour, bucketed by first-result arrival —
        /// Figs 1a, 2a), `messages` (query transmissions per hour — Figs 1b,
        /// 2b; "messages (i.e., queries)"), `latency_ms` (first-result delay,
        /// post-warm-up — Fig 3a), `updates` (reconfigurations executed) and
        /// `edges_changed` (overlay links rewired by the update protocol).
        pub runtime: RuntimeMetrics,
        /// All results obtained per hour (the totals annotated in Fig 3a).
        pub results: BucketSeries,
        /// First-result delay histogram (50 ms buckets to 5 s).
        pub first_delay_hist: Histogram = Histogram::new(50.0, 100),
        /// Invitations sent / accepted.
        pub invitations_sent: u64,
        /// Invitations that resulted in a new link.
        pub invitations_accepted: u64,
        /// Eviction notices sent.
        pub evictions: u64,
        /// Login events.
        pub logins: u64,
        /// Logoff events.
        pub logoffs: u64,
        /// Queries that were dropped as duplicates somewhere in the network.
        pub duplicates_dropped: u64,
        /// Replies answered from a local index on behalf of a nearby holder
        /// (local-indices strategy only).
        pub index_answers: u64,
        /// Iterative-deepening waves launched beyond the first.
        pub extra_waves: u64,
        /// Overlay distance (hops) of the *first* result of each satisfied
        /// query, post-warm-up — the paper's "most of the results come from
        /// nearby nodes" is a claim about this distribution.
        pub first_result_hops: RunningStats,
        /// Overlay distance of every result, post-warm-up.
        pub result_hops: RunningStats,
        /// Trial relationships (§3.4 solution a) that became permanent.
        pub trials_confirmed: u64,
        /// Trial relationships terminated for lack of benefit.
        pub trials_failed: u64,
        /// Messages dropped by an active regional partition (scenario pack).
        pub partition_drops: u64,
        /// Cross-island deliveries per hour — must be zero inside the
        /// partition window; the invariant checker reads this series.
        pub cross_island: BucketSeries,
        /// Queries finalised by their initiator (answered or timed out).
        pub queries_finalized: u64,
        /// Queries still pending when their initiator logged off.
        pub queries_abandoned: u64,
    }
}

/// The result of a completed run: metrics plus the measurement window.
/// Serialises to JSON for archival (`--csv DIR` in the experiment
/// binaries also writes `<name>.json` next to the CSVs).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunReport {
    /// Collected metrics.
    pub metrics: Metrics,
    /// Measurement window `[warm-up, horizon)`.
    pub window: MeasurementWindow,
    /// Mode label ("Gnutella" / "Dynamic_Gnutella").
    pub label: &'static str,
}

impl RunReport {
    /// Hits per hour over the measurement window.
    pub fn hits_series(&self) -> Vec<f64> {
        self.window.series(&self.metrics.runtime.hits)
    }

    /// Messages per hour over the measurement window.
    pub fn messages_series(&self) -> Vec<f64> {
        self.window.series(&self.metrics.runtime.messages)
    }

    /// Total hits over the window (Fig 3b's y-axis).
    pub fn total_hits(&self) -> f64 {
        self.window.sum(&self.metrics.runtime.hits)
    }

    /// Total results over the window (Fig 3a's column annotations).
    pub fn total_results(&self) -> f64 {
        self.window.sum(&self.metrics.results)
    }

    /// Total messages over the window.
    pub fn total_messages(&self) -> f64 {
        self.window.sum(&self.metrics.runtime.messages)
    }

    /// Mean hits per measured hour.
    pub fn mean_hits_per_hour(&self) -> f64 {
        self.window.mean_per_hour(&self.metrics.runtime.hits)
    }

    /// Mean messages per measured hour.
    pub fn mean_messages_per_hour(&self) -> f64 {
        self.window.mean_per_hour(&self.metrics.runtime.messages)
    }

    /// Mean first-result delay in ms (Fig 3a's y-axis).
    pub fn mean_first_delay_ms(&self) -> f64 {
        self.metrics.runtime.latency_ms.mean()
    }

    /// Hit ratio over the window.
    pub fn hit_ratio(&self) -> f64 {
        self.window
            .ratio(&self.metrics.runtime.hits, &self.metrics.runtime.queries)
    }

    /// The full report as compact JSON, every field in declaration
    /// order: what [`digest`](Self::digest) folds.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialises")
    }

    /// Order-sensitive 64-bit digest of the full report (every metric
    /// field, via the canonical JSON serialisation). Two reports are
    /// digest-equal iff they are bit-identical, so CI can compare a
    /// sharded run against the serial run with one number.
    pub fn digest(&self) -> u64 {
        let json = self.to_json();
        // SplitMix64 fold over the bytes: cheap, stable across platforms,
        // and any single-bit difference avalanches through the state.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        for &b in json.as_bytes() {
            state ^= b as u64;
            state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            state ^= state >> 27;
            state = state.wrapping_mul(0x94D0_49BB_1331_11EB);
            state ^= state >> 31;
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_windows_exclude_warmup() {
        let mut m = Metrics::new();
        m.runtime.hits.add(0, 100.0); // warm-up hour
        m.runtime.hits.add(2, 10.0);
        m.runtime.hits.add(3, 20.0);
        m.runtime.queries.add(2, 40.0);
        m.runtime.queries.add(3, 20.0);
        let r = RunReport {
            metrics: m,
            window: MeasurementWindow::new(2, 4),
            label: "Gnutella",
        };
        assert_eq!(r.total_hits(), 30.0);
        assert_eq!(r.hits_series(), vec![10.0, 20.0]);
        assert_eq!(r.mean_hits_per_hour(), 15.0);
        assert_eq!(r.hit_ratio(), 0.5);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport {
            metrics: Metrics::new(),
            window: MeasurementWindow::new(0, 1),
            label: "Gnutella",
        };
        assert_eq!(r.total_hits(), 0.0);
        assert_eq!(r.hit_ratio(), 0.0);
        assert_eq!(r.mean_first_delay_ms(), 0.0);
    }
}
