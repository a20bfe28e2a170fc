//! `serve_open_30k`: the real-time bus under an open-loop load.
//!
//! Open loop because queries come from independent users: the in-program
//! generator of `ddr_serve::run_gnutella` sends on a schedule whatever the
//! bus does, self-pacing every 500 µs, and how far it fell behind is
//! reported as `serve.offered_share`. The offered rate sits at about 80 %
//! of the measured one-shard knee, so latency is still the modelled
//! network delay and a slower bus shows as CPU per query first.

use crate::procfs::cpu_seconds;
use crate::sim_workloads::Size;
use crate::trace::Tracer;
use ddr_gnutella::{build_nodes, NodeSetConfig};
use ddr_serve::{run_gnutella, run_gnutella_traced, ServeConfig, ServeReport};
use ddr_sim::SimDuration;
use ddr_telemetry::TelemetryConfig;
use std::path::Path;

/// Wall time the bus keeps draining after the last collection window
/// (`DRAIN_GRACE` in `ddr_serve::bus`, which does not export it).
const DRAIN_GRACE_S: f64 = 0.5;

/// Timed `build_nodes` calls per untraced run; the median is `setup_s`.
pub const SETUP_REPS: usize = 5;

/// Shape of the serve workload.
pub struct ServeWorkload {
    node_set: NodeSetConfig,
    qps: f64,
}

/// One bus run and the process CPU it consumed.
pub struct BusRun {
    pub report: ServeReport,
    pub cpu_s: f64,
    /// Queries the offered rate entitles the injection window to.
    pub target: f64,
}

impl BusRun {
    pub fn cpu_us_per_query(&self) -> f64 {
        self.cpu_s * 1e6 / self.report.queries_completed.max(1) as f64
    }

    /// Bus deliveries (protocol messages plus issued queries) per second
    /// of the injection window.
    pub fn events_per_s(&self) -> f64 {
        (self.report.messages + self.report.queries_issued) as f64 / self.report.duration_s
    }

    /// Diagnosis of the first failed correctness check, if any.
    pub fn failure(&self) -> Option<String> {
        let r = &self.report;
        if r.queries_issued != r.queries_offered {
            return Some(format!(
                "bus delivered {} of {} offered queries",
                r.queries_issued, r.queries_offered
            ));
        }
        if !(r.hits <= r.queries_completed && r.queries_completed <= r.queries_issued) {
            return Some(format!(
                "hits {} <= completed {} <= issued {} does not hold",
                r.hits, r.queries_completed, r.queries_issued
            ));
        }
        if r.p50_first_ms.is_none() || r.p99_first_ms.is_none() {
            return Some("no query got a first result".into());
        }
        [("hit_rate", r.hit_rate), ("achieved_qps", r.achieved_qps)]
            .iter()
            .find(|(_, v)| !v.is_finite())
            .map(|(name, v)| format!("{name} is not finite ({v})"))
    }
}

impl ServeWorkload {
    pub fn new(seed: u64, size: Size) -> Self {
        let (nodes, qps, timeout_ms) = match size {
            Size::Full => (2_000, 30_000.0, 2_000),
            Size::Check => (200, 2_000.0, 300),
        };
        let mut node_set = NodeSetConfig::new(nodes, seed);
        node_set.query_timeout = SimDuration::from_millis(timeout_ms);
        ServeWorkload { node_set, qps }
    }

    /// Seconds a bus run lasts beyond its injection window.
    fn drain_s(&self) -> f64 {
        self.node_set.query_timeout.as_millis() as f64 / 1e3 + DRAIN_GRACE_S
    }

    /// The injection window that makes one bus run last `seconds`.
    pub fn injection_s(&self, seconds: f64) -> f64 {
        (seconds - self.drain_s()).max(0.5)
    }

    /// `build_nodes` timed `reps` times; the fleets are dropped (the bus
    /// builds its own from the same config).
    pub fn time_build_nodes(&self, reps: usize, tr: &mut Tracer) -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let span = tr.begin("build_nodes");
                let nodes = build_nodes(&self.node_set);
                let secs = tr.end(span);
                drop(std::hint::black_box(nodes));
                secs
            })
            .collect()
    }

    /// One bus run injecting for `injection_s`; with `spans_to`, the
    /// traced entry point writing sampled query spans there.
    pub fn bus_run(&self, injection_s: f64, spans_to: Option<&Path>, tr: &mut Tracer) -> BusRun {
        // One shard: the generator thread plus one worker is all this
        // two-core host can run without time-slicing.
        let mut cfg = ServeConfig::new(self.node_set.clone(), self.qps, injection_s, 1);
        let cpu0 = cpu_seconds();
        let span = tr.begin(if spans_to.is_some() {
            "bus.traced"
        } else {
            "bus"
        });
        let report = match spans_to {
            Some(path) => {
                cfg.telemetry = TelemetryConfig {
                    trace_path: Some(path.to_path_buf()),
                    sample: 16,
                    run_label: "benchmark",
                    ..TelemetryConfig::default()
                };
                run_gnutella_traced(&cfg)
            }
            None => run_gnutella(&cfg),
        };
        tr.end(span);
        BusRun {
            report,
            cpu_s: cpu_seconds() - cpu0,
            target: self.qps * injection_s,
        }
    }
}
