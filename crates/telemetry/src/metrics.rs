//! The metrics timeline layer: whole-system time series next to
//! per-query traces.
//!
//! `TraceSink` (PR 4) records *spans* — one query's lifecycle. This
//! module records *windows*: periodic snapshots of fleet-wide counters
//! (hits, messages, logins) and gauges (online population, dup-cache
//! occupancy, per-shard event-queue depth), one JSONL record per
//! sampling interval:
//!
//! ```json
//! {"v":1,"type":"window","run":"Dynamic_Gnutella","t":3600000,
//!  "counters":{"hits":412,"messages":180321},
//!  "gauges":{"online":951,"queue_depth.s0":1204}}
//! ```
//!
//! Counters are **per-window deltas** (worlds report cumulative totals
//! through [`ddr_sim::MetricsHub`]; the recorder differences them), so a
//! plot of any counter column is already the paper's "per hour" shape.
//! Gauges are instantaneous levels summed across shards. Timestamps are
//! virtual ms for simulations and wall ms for `ddr serve`.
//!
//! Metrics are switched off by not building a recorder: every driver
//! holds an `Option<MetricsRecorder<JsonlMetrics>>`. A metered run
//! samples only **between** kernel steps — so metrics-on runs are
//! digest-identical to metrics-off runs (pinned by
//! `metrics_determinism.rs`).

use crate::config::TelemetryConfig;
use crate::sink::JsonlFile;
use ddr_sim::{MetricsHub, ShardWorld, ShardedSimulation, SimTime, Simulation, World};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Version stamped on every timeline record (`"v"`).
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// A destination for JSONL timeline records. The metrics twin of
/// [`crate::TraceSink`]: same construction from [`TelemetryConfig`],
/// same whole-buffer JSONL discipline.
pub trait MetricsSink {
    /// Build the sink from the run's telemetry configuration.
    fn create(cfg: &TelemetryConfig) -> Self;

    /// Accept one complete JSON record (no trailing newline).
    fn write_line(&mut self, line: &str);

    /// Persist anything buffered.
    fn flush(&mut self) {}
}

/// A buffered JSONL timeline file sink, pointed at
/// [`TelemetryConfig::metrics_path`]. Shares the process-wide
/// truncate-once-then-append registry with the trace sink, so a metrics
/// file survives multiple worlds/chunks in one process but never keeps
/// stale content from a previous run.
#[derive(Debug)]
pub struct JsonlMetrics(JsonlFile);

impl MetricsSink for JsonlMetrics {
    fn create(cfg: &TelemetryConfig) -> Self {
        JsonlMetrics(JsonlFile::new(cfg.metrics_path.clone()))
    }

    fn write_line(&mut self, line: &str) {
        self.0.push_line(line);
    }

    fn flush(&mut self) {
        self.0.flush();
    }
}

/// A power-of-two log-bucketed histogram: bucket `k` covers values in
/// `[2^(k-1), 2^k)` (bucket 0 holds everything below 1). 64 buckets
/// cover the full `u64` range, so latency in µs, queue depths and event
/// counts all fit without configuration; quantiles come back as the
/// covering bucket's upper edge (a ≤2× overestimate).
///
/// Cells are atomics recorded through `&self` from any thread: the one
/// user is the serve monitor's shared first-result latency histogram.
#[derive(Debug)]
pub struct LogHistogram {
    counts: [AtomicU64; 64],
    total: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
        }
    }
}

/// The bucket index covering `v`.
fn bucket(v: f64) -> usize {
    if v.is_nan() || v < 1.0 {
        // Negative, sub-1 and NaN samples all land in bucket 0.
        return 0;
    }
    let u = if v >= u64::MAX as f64 {
        u64::MAX
    } else {
        v as u64
    };
    ((64 - u.leading_zeros()) as usize).min(63)
}

/// Relaxed ordering: the cells are statistics that publish no other
/// data, and readers report trends, not linearizable cuts.
const ORD: Ordering = Ordering::Relaxed;

impl LogHistogram {
    /// Record one sample (any thread).
    pub fn record(&self, v: f64) {
        self.counts[bucket(v)].fetch_add(1, ORD);
        self.total.fetch_add(1, ORD);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.total.load(ORD)
    }

    /// Upper edge of the bucket holding the `q`-quantile sample (`q` in
    /// `[0, 1]`); 0 when empty. Approximate under concurrent writes
    /// (cells are read one by one), which is fine for a rolling
    /// dashboard figure.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, c) in self.counts.iter().enumerate() {
            seen += c.load(ORD);
            if seen >= rank {
                return if k == 0 { 1.0 } else { (1u64 << k) as f64 };
            }
        }
        (1u64 << 63) as f64
    }
}

/// Format an `f64` as a JSON value; non-finite values become `null`
/// (valid JSON; the timeline inspector flags them as anomalies).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Drives one run's timeline: owns the [`MetricsHub`], differences
/// cumulative counters into per-window deltas, and emits one versioned
/// record per sampling boundary into the sink type `M`.
pub struct MetricsRecorder<M: MetricsSink> {
    hub: MetricsHub,
    sink: M,
    run_label: &'static str,
    prev: BTreeMap<String, u64>,
    last_t: Option<u64>,
}

impl<M: MetricsSink> MetricsRecorder<M> {
    /// Build a recorder for one run from its telemetry configuration.
    pub fn new(cfg: &TelemetryConfig) -> Self {
        MetricsRecorder {
            hub: MetricsHub::default(),
            sink: M::create(cfg),
            run_label: cfg.run_label,
            prev: BTreeMap::new(),
            last_t: None,
        }
    }

    /// The hub, for sampling passes that report directly (the serve
    /// monitor) rather than through a world hook.
    pub fn hub_mut(&mut self) -> &mut MetricsHub {
        &mut self.hub
    }

    /// Sample a serial simulation at a chunk boundary: clears the
    /// per-window state, invokes the world's
    /// [`World::sample_metrics`] hook, gauges the kernel queue depth,
    /// and emits the window record at virtual time `now`.
    pub fn sample_sim<W: World>(&mut self, now: SimTime, sim: &Simulation<W>) {
        self.hub.begin_sample();
        sim.world().sample_metrics(now, &mut self.hub);
        self.hub.gauge("queue_depth", sim.pending() as f64);
        self.emit_window(now.as_millis());
    }

    /// Sample a sharded simulation at a window-chunk boundary: every
    /// shard world reports through [`ShardWorld::sample_metrics`] (the
    /// hub sums them) and each shard's event-queue depth lands in
    /// its own `queue_depth.s<i>` gauge.
    pub fn sample_sharded<W: ShardWorld>(&mut self, now: SimTime, sim: &ShardedSimulation<W>) {
        self.hub.begin_sample();
        for (i, w) in sim.worlds().enumerate() {
            w.sample_metrics(now, &mut self.hub);
            self.hub
                .gauge(&format!("queue_depth.s{i}"), sim.shard_pending(i) as f64);
        }
        self.emit_window(now.as_millis());
    }

    /// Difference the counters against the previous window and write one
    /// `"window"` record at timestamp `t_ms`. Timestamps are forced strictly
    /// monotonic (a late sampler can never emit a time-travelling
    /// window).
    pub fn emit_window(&mut self, t_ms: u64) {
        let t = match self.last_t {
            Some(last) if t_ms <= last => last + 1,
            _ => t_ms,
        };
        self.last_t = Some(t);

        let mut line = String::with_capacity(256);
        let _ = write!(
            line,
            "{{\"v\":{METRICS_SCHEMA_VERSION},\"type\":\"window\",\"run\":\"{}\",\"t\":{t}",
            self.run_label
        );
        line.push_str(",\"counters\":{");
        let mut first = true;
        for (name, &cur) in self.hub.counters() {
            let prev = self.prev.get(name).copied().unwrap_or(0);
            if !first {
                line.push(',');
            }
            first = false;
            let _ = write!(line, "\"{name}\":{}", cur.saturating_sub(prev));
            self.prev.insert(name.clone(), cur);
        }
        line.push_str("},\"gauges\":{");
        let mut first = true;
        for (name, &v) in self.hub.gauges() {
            if !first {
                line.push(',');
            }
            first = false;
            let _ = write!(line, "\"{name}\":{}", json_f64(v));
        }
        line.push_str("}}");
        self.sink.write_line(&line);
    }

    /// Flush the sink (also happens on drop for `JsonlMetrics`).
    pub fn finish(&mut self) {
        self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_buckets_and_quantiles() {
        let h = LogHistogram::default();
        for v in [0.0, 0.5, 1.0, 3.0, 100.0, 1000.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert!(h.quantile(0.0) >= 1.0);
        // p99 covers the largest sample's bucket: 1000 < 1024 = 2^10.
        assert_eq!(h.quantile(0.99), 1024.0);
    }

    #[test]
    fn recorder_emits_deltas_and_monotonic_timestamps() {
        let path =
            std::env::temp_dir().join(format!("ddr_metrics_rec_{}.jsonl", std::process::id()));
        let cfg = TelemetryConfig {
            metrics_path: Some(path.clone()),
            run_label: "T",
            ..TelemetryConfig::default()
        };
        let mut r = MetricsRecorder::<JsonlMetrics>::new(&cfg);
        r.hub_mut().begin_sample();
        r.hub_mut().counter("hits", 10);
        r.emit_window(1000);
        r.hub_mut().begin_sample();
        r.hub_mut().counter("hits", 25);
        r.emit_window(1000); // same timestamp: must be bumped, not repeated
        r.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"hits\":10"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"hits\":15"),
            "delta, not total: {}",
            lines[1]
        );
        assert!(lines[0].contains("\"t\":1000"));
        assert!(lines[1].contains("\"t\":1001"), "{}", lines[1]);
        for l in &lines {
            serde::json::parse(l).expect("record parses");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_gauges_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
