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

/// Format an `f64` as a JSON value; non-finite values become `null`
/// (valid JSON; the timeline inspector flags them as anomalies).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Append `,"counters":{…},"gauges":{…}` for `hub`'s pass, each
/// counter written as `counter(name, total)`.
fn push_pass(line: &mut String, hub: &MetricsHub, mut counter: impl FnMut(&str, u64) -> u64) {
    line.push_str(",\"counters\":{");
    for (i, (name, &total)) in hub.counters().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(line, "{sep}\"{name}\":{}", counter(name, total));
    }
    line.push_str("},\"gauges\":{");
    for (i, (name, &v)) in hub.gauges().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(line, "{sep}\"{name}\":{}", json_f64(v));
    }
    line.push('}');
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

    /// The current pass, for renderers other than the timeline.
    pub fn hub(&self) -> &MetricsHub {
        &self.hub
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
        let prev = &mut self.prev;
        push_pass(&mut line, &self.hub, |name, total| {
            let delta = total.saturating_sub(prev.get(name).copied().unwrap_or(0));
            prev.insert(name.to_string(), total);
            delta
        });
        line.push('}');
        self.sink.write_line(&line);
    }

    /// The current pass as one JSON object, `{"t", "counters", "gauges"}`,
    /// its counters cumulative rather than differenced: what a live
    /// reader asking "how many so far" wants (the serve endpoint).
    pub fn pass_json(&self, t_ms: u64) -> String {
        let mut line = format!("{{\"t\":{t_ms}");
        push_pass(&mut line, &self.hub, |_, total| total);
        line.push('}');
        line
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
