//! Live introspection for the serve bus: a monitor thread sampling
//! shared atomic counters into the same `"v":1` timeline format the
//! simulator's metrics layer writes, plus an optional plaintext TCP
//! endpoint serving a Prometheus-style snapshot while the run is live.
//!
//! The instrumentation is strictly *observational*: shards and the load
//! generator bump lock-free atomics on paths they already execute, each
//! shard stores its world slice's cumulative `Metrics` counters once per
//! turn, the monitor thread only reads them (and zeroes the one running
//! maximum, `delivery_lag_ms`, as it reads it), and completed-query
//! outcomes are drained into the same end-of-run report whether the
//! monitor is on or off. Counters the simulator also reports keep its
//! names (DESIGN.md §14). `monitor_does_not_perturb_the_report` pins that
//! the monitor's cumulative counters agree exactly with the final
//! [`crate::ServeReport`] fields.

use crate::bus::WallClock;
use ddr_gnutella::{GnutellaWorld, QueryOutcome};
use ddr_telemetry::{JsonlMetrics, LogHistogram, MetricsRecorder, TelemetryConfig, TraceSink};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Relaxed ordering everywhere: the monitor reports trends, not
/// linearizable cuts; the end-of-run parity check happens after the
/// shard threads are joined (a full synchronization point).
const ORD: Ordering = Ordering::Relaxed;

/// Counters and levels shared between the bus (writers) and the monitor
/// / TCP endpoint (readers). One instance per run, behind an `Arc`.
#[derive(Debug)]
pub struct MonitorShared {
    /// Per-shard inbox occupancy: +1 on every successful channel send,
    /// -1 on every receive.
    pub inbox_depth: Vec<AtomicUsize>,
    /// Timers pending per shard, stored by each shard once per loop
    /// (exported as `timer_heap`, the name dashboards already use).
    pub timers_pending: Vec<AtomicUsize>,
    /// Per shard, the latest delivery since this was last read: the
    /// largest `now − deliver_at`, milliseconds. Every reader (a timeline
    /// window, an endpoint request) takes the value and leaves zero.
    pub delivery_lag_ms: Vec<AtomicU64>,
    /// Envelopes the load generator handed to the bus.
    pub offered: AtomicU64,
    /// Per shard, its slice's cumulative `metrics.runtime.queries` as of
    /// its last turn: queries launched.
    pub issued: Vec<AtomicU64>,
    /// Per shard, likewise: `metrics.runtime.messages`, query
    /// transmissions (floods and forwards).
    pub messages: Vec<AtomicU64>,
    /// Per shard, likewise: results sent to their initiator, one reply
    /// message each (the report's `messages` is these plus `messages`).
    pub replies: Vec<AtomicU64>,
    /// Per shard, likewise: `metrics.duplicates_dropped`.
    pub duplicates_dropped: Vec<AtomicU64>,
    /// Queries whose collection window closed.
    pub completed: AtomicU64,
    /// Completed queries with at least one result.
    pub hits: AtomicU64,
    /// First-result latency, milliseconds.
    pub latency_ms: LogHistogram,
    /// Set by the coordinator once the shards are joined; tells the
    /// monitor and endpoint threads to emit a final window and exit.
    pub done: AtomicBool,
}

/// The current value of a per-shard level.
fn levels(per_shard: &[AtomicUsize]) -> Vec<u64> {
    per_shard.iter().map(|d| d.load(ORD) as u64).collect()
}

/// A per-shard counter summed over the shards.
fn total(per_shard: &[AtomicU64]) -> u64 {
    per_shard.iter().map(|c| c.load(ORD)).sum()
}

impl MonitorShared {
    /// Fresh (all-zero) state for `nshards` shards.
    pub fn new(nshards: usize) -> Self {
        let counters = || (0..nshards).map(|_| AtomicU64::new(0)).collect();
        MonitorShared {
            inbox_depth: (0..nshards).map(|_| AtomicUsize::new(0)).collect(),
            timers_pending: (0..nshards).map(|_| AtomicUsize::new(0)).collect(),
            delivery_lag_ms: counters(),
            offered: AtomicU64::new(0),
            issued: counters(),
            messages: counters(),
            replies: counters(),
            duplicates_dropped: counters(),
            completed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            latency_ms: LogHistogram::default(),
            done: AtomicBool::new(false),
        }
    }

    /// Count one query whose collection window closed.
    pub(crate) fn note_completed(&self, done: &QueryOutcome) {
        self.completed.fetch_add(1, ORD);
        if let Some(latency) = done.latency_ms() {
            self.hits.fetch_add(1, ORD);
            self.latency_ms.record(latency);
        }
    }

    /// Store `shard`'s slice counters, cumulative so far.
    pub(crate) fn publish<T: TraceSink>(&self, shard: usize, world: &GnutellaWorld<T>) {
        let runtime = &world.metrics.runtime;
        self.issued[shard].store(runtime.queries.total() as u64, ORD);
        self.messages[shard].store(runtime.messages.total() as u64, ORD);
        self.replies[shard].store(world.replies_served(), ORD);
        let dropped = world.metrics.duplicates_dropped;
        self.duplicates_dropped[shard].store(dropped, ORD);
    }

    /// Each shard's `delivery_lag_ms`, taken (the gauges restart at zero).
    fn take_delivery_lag(&self) -> Vec<u64> {
        self.delivery_lag_ms
            .iter()
            .map(|d| d.swap(0, ORD))
            .collect()
    }

    /// The Prometheus-text exposition of the current state.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(512);
        for (name, v) in [
            ("ddr_serve_queries_offered", self.offered.load(ORD)),
            ("ddr_serve_queries_issued", total(&self.issued)),
            ("ddr_serve_queries_completed", self.completed.load(ORD)),
            ("ddr_serve_hits", self.hits.load(ORD)),
            ("ddr_serve_latency_samples", self.latency_ms.count()),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in [
            ("ddr_serve_latency_p50_ms", self.latency_ms.quantile(0.50)),
            ("ddr_serve_latency_p99_ms", self.latency_ms.quantile(0.99)),
        ] {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, per_shard) in [
            ("ddr_serve_inbox_depth", levels(&self.inbox_depth)),
            ("ddr_serve_timer_heap", levels(&self.timers_pending)),
            ("ddr_serve_delivery_lag_ms", self.take_delivery_lag()),
        ] {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            for (i, v) in per_shard.iter().enumerate() {
                out.push_str(&format!("{name}{{shard=\"{i}\"}} {v}\n"));
            }
        }
        out
    }

    /// The live report as a JSON object (the dashboard analogue of the
    /// end-of-run [`crate::ServeReport`]).
    pub fn report_json(&self) -> String {
        let completed = self.completed.load(ORD);
        let hits = self.hits.load(ORD);
        let hit_rate = if completed == 0 {
            0.0
        } else {
            hits as f64 / completed as f64
        };
        let array = |per_shard: Vec<u64>| {
            let cells: Vec<String> = per_shard.iter().map(u64::to_string).collect();
            format!("[{}]", cells.join(","))
        };
        format!(
            "{{\"queries_offered\":{},\"queries_issued\":{},\"queries_completed\":{completed},\
             \"hits\":{hits},\"hit_rate\":{hit_rate},\"p50_first_ms\":{},\"p99_first_ms\":{},\
             \"inbox_depth\":{},\"timer_heap\":{},\"delivery_lag_ms\":{}}}",
            self.offered.load(ORD),
            total(&self.issued),
            self.latency_ms.quantile(0.50),
            self.latency_ms.quantile(0.99),
            array(levels(&self.inbox_depth)),
            array(levels(&self.timers_pending)),
            array(self.take_delivery_lag()),
        )
    }
}

/// Spawn the monitor thread: every `interval_ms` of wall time it copies
/// the shared atomics into a `MetricsRecorder` window (cumulative
/// counters are differenced into per-window deltas by the recorder) and
/// appends a timeline record to `telemetry.metrics_path`. After `done`
/// is raised it emits one final window — taken *after* the shard
/// threads joined, so the file's column sums equal the final report —
/// and flushes.
pub(crate) fn spawn_monitor(
    shared: Arc<MonitorShared>,
    clock: Arc<WallClock>,
    telemetry: TelemetryConfig,
    interval_ms: u64,
) -> JoinHandle<()> {
    thread::spawn(move || {
        let mut rec: MetricsRecorder<JsonlMetrics> = MetricsRecorder::new(&telemetry);
        let interval = interval_ms.max(1);
        let mut prev_completed = 0u64;
        let mut prev_t = clock.now().as_millis();
        let mut next = prev_t + interval;
        loop {
            let finished = shared.done.load(ORD);
            let now = clock.now().as_millis();
            if now >= next || finished {
                let completed = shared.completed.load(ORD);
                let dt_s = (now.saturating_sub(prev_t)).max(1) as f64 / 1_000.0;
                let hub = rec.hub_mut();
                hub.begin_sample();
                // Quantities the simulator also reports keep its names
                // (DESIGN.md §14); `queries_offered` and `replies` are
                // serve-only.
                hub.counter("queries_offered", shared.offered.load(ORD));
                hub.counter("queries", total(&shared.issued));
                hub.counter("queries_finalized", completed);
                hub.counter("hits", shared.hits.load(ORD));
                hub.counter("messages", total(&shared.messages));
                hub.counter("replies", total(&shared.replies));
                hub.counter("duplicates_dropped", total(&shared.duplicates_dropped));
                hub.gauge(
                    "achieved_qps",
                    (completed.saturating_sub(prev_completed)) as f64 / dt_s,
                );
                hub.gauge("latency_count", shared.latency_ms.count() as f64);
                hub.gauge("latency_p50_ms", shared.latency_ms.quantile(0.50));
                hub.gauge("latency_p99_ms", shared.latency_ms.quantile(0.99));
                for (i, d) in shared.inbox_depth.iter().enumerate() {
                    hub.gauge(&format!("inbox_depth.s{i}"), d.load(ORD) as f64);
                }
                for (i, d) in shared.timers_pending.iter().enumerate() {
                    hub.gauge(&format!("timer_heap.s{i}"), d.load(ORD) as f64);
                }
                for (i, lag) in shared.take_delivery_lag().into_iter().enumerate() {
                    hub.gauge(&format!("delivery_lag_ms.s{i}"), lag as f64);
                }
                rec.emit_window(now);
                prev_completed = completed;
                prev_t = now;
                next = now + interval;
            }
            if finished {
                break;
            }
            thread::sleep(Duration::from_millis(interval.min(25)));
        }
        rec.finish();
    })
}

/// Spawn the `--metrics-port` endpoint: a stdlib TCP listener on
/// `127.0.0.1:port` answering `GET /metrics` with the Prometheus text
/// snapshot and any other path with the live report as JSON. Exits when
/// `done` is raised. A bind failure is reported and tolerated — the run
/// itself must not die because a port is taken.
pub(crate) fn spawn_endpoint(shared: Arc<MonitorShared>, port: u16) -> JoinHandle<()> {
    thread::spawn(move || {
        let listener = match TcpListener::bind(("127.0.0.1", port)) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("[serve] --metrics-port {port}: bind failed ({e}); endpoint disabled");
                return;
            }
        };
        listener
            .set_nonblocking(true)
            .expect("set_nonblocking on metrics listener");
        while !shared.done.load(ORD) {
            match listener.accept() {
                Ok((mut stream, _peer)) => {
                    stream
                        .set_read_timeout(Some(Duration::from_millis(200)))
                        .ok();
                    let mut req = [0u8; 1024];
                    let n = stream.read(&mut req).unwrap_or(0);
                    let head = String::from_utf8_lossy(&req[..n]);
                    let want_prometheus = head
                        .lines()
                        .next()
                        .map(|l| l.contains("/metrics"))
                        .unwrap_or(false);
                    let (ctype, body) = if want_prometheus {
                        ("text/plain; version=0.0.4", shared.prometheus_text())
                    } else {
                        ("application/json", shared.report_json())
                    };
                    let resp = format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    );
                    stream.write_all(resp.as_bytes()).ok();
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(_) => thread::sleep(Duration::from_millis(20)),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_and_json_snapshots_render() {
        let s = MonitorShared::new(2);
        s.offered.store(10, ORD);
        s.completed.store(8, ORD);
        s.hits.store(4, ORD);
        s.inbox_depth[1].store(7, ORD);
        s.delivery_lag_ms[0].store(3, ORD);
        s.latency_ms.record(12.0);
        let text = s.prometheus_text();
        assert!(text.contains("ddr_serve_queries_completed 8"));
        assert!(text.contains("ddr_serve_inbox_depth{shard=\"1\"} 7"));
        assert!(text.contains("ddr_serve_delivery_lag_ms{shard=\"0\"} 3"));
        s.delivery_lag_ms[1].store(5, ORD);
        let json = s.report_json();
        assert!(json.contains("\"hit_rate\":0.5"), "{json}");
        // Both shards appear in the depth arrays.
        assert!(json.contains("\"inbox_depth\":[0,7]"), "{json}");
        // The first read took shard 0's lag; this one takes shard 1's.
        assert!(json.contains("\"delivery_lag_ms\":[0,5]"), "{json}");
        assert_eq!(s.take_delivery_lag(), [0, 0]);
        serde::json::parse(&json).expect("report JSON parses");
    }

    #[test]
    fn endpoint_serves_both_content_types() {
        let s = Arc::new(MonitorShared::new(1));
        s.completed.store(3, ORD);
        // Pick an ephemeral port by binding first, then freeing it.
        let probe = TcpListener::bind(("127.0.0.1", 0)).expect("probe bind");
        let port = probe.local_addr().expect("probe addr").port();
        drop(probe);
        let handle = spawn_endpoint(Arc::clone(&s), port);
        let fetch = |path: &str| -> String {
            for _ in 0..50 {
                if let Ok(mut c) = std::net::TcpStream::connect(("127.0.0.1", port)) {
                    c.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                        .expect("write request");
                    let mut out = String::new();
                    c.read_to_string(&mut out).expect("read response");
                    return out;
                }
                thread::sleep(Duration::from_millis(10));
            }
            panic!("endpoint never came up on port {port}");
        };
        let prom = fetch("/metrics");
        assert!(prom.contains("ddr_serve_queries_completed 3"), "{prom}");
        let json = fetch("/report");
        assert!(json.contains("\"queries_completed\":3"), "{json}");
        s.done.store(true, ORD);
        handle.join().expect("endpoint thread");
    }
}
