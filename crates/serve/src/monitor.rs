//! Live introspection for the serve bus: one observer thread samples the
//! slices' own `Metrics` and the bus's levels into one `MetricsHub` pass
//! per interval, and every output renders that pass — the `"v":1`
//! timeline window the simulator's metrics layer writes (`--metrics`),
//! and, on a plaintext TCP endpoint (`--metrics-port`), the same pass as
//! Prometheus text or as JSON.
//!
//! The instrumentation is strictly *observational*: shards and the load
//! generator bump lock-free atomics on paths they already execute, each
//! shard copies its slice's cumulative counters and first-result
//! histogram once per turn, and the observer only reads them (zeroing
//! the one running maximum, `delivery_lag_ms`, as it reads it).
//! Completed-query outcomes reach the end-of-run report whether the
//! monitor is on or off. The counters are the world's own list,
//! `GnutellaWorld::counters`, so they carry the simulator's names and
//! meanings (DESIGN.md §14); the bus adds only `queries_offered`.
//! `monitor_does_not_perturb_the_report` pins that the timeline's summed
//! counters equal the final [`crate::ServeReport`].

use crate::bus::WallClock;
use ddr_gnutella::GnutellaWorld;
use ddr_sim::MetricsHub;
use ddr_telemetry::{Histogram, JsonlMetrics, MetricsRecorder, TelemetryConfig, TraceSink};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Relaxed ordering everywhere: the monitor reports trends, not
/// linearizable cuts; the end-of-run parity check happens after the
/// shard threads are joined (a full synchronization point).
const ORD: Ordering = Ordering::Relaxed;

/// One slice's cumulative `Metrics`, as its shard last published them.
#[derive(Debug, Clone)]
struct SliceCounts {
    /// `GnutellaWorld::counters`, refilled in place: no allocation after
    /// the first publish. The report's `messages` is `messages` (query
    /// transmissions) plus `replies` (results sent to an initiator).
    totals: Vec<(&'static str, u64)>,
    /// `metrics.first_delay_hist`: the first-result delay of every closed
    /// query with a result (a serve fleet has no warm-up), so its count
    /// is the slice's closed queries with a result.
    first_delay: Histogram,
}

/// State shared between the bus (writers) and the observer thread (the
/// one reader). One instance per run, behind an `Arc`.
#[derive(Debug)]
pub(crate) struct MonitorShared {
    /// Per-shard inbox occupancy: +1 on every successful channel send,
    /// -1 on every receive.
    pub inbox_depth: Vec<AtomicUsize>,
    /// Timers pending per shard, stored by each shard once per loop
    /// (exported as `timer_heap`, the name dashboards already use).
    pub timers_pending: Vec<AtomicUsize>,
    /// Per shard, the largest `now − deliver_at` of any delivery since
    /// the previous pass, milliseconds; each pass takes it and leaves
    /// zero.
    pub delivery_lag_ms: Vec<AtomicU64>,
    /// Envelopes the load generator handed to the bus.
    pub offered: AtomicU64,
    /// Per shard, its slice's counters as of its last turn.
    slices: Vec<Mutex<SliceCounts>>,
    /// Set by the coordinator once the shards are joined; tells the
    /// observer to take a final pass and exit.
    pub done: AtomicBool,
}

/// The snapshot behind `slice`; a poisoned lock still holds plain
/// counters.
fn lock(slice: &Mutex<SliceCounts>) -> MutexGuard<'_, SliceCounts> {
    slice.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MonitorShared {
    /// Fresh (all-zero) state for `nshards` shards: a fresh `Metrics`'
    /// counters, so the first pass names them all (`replies`, the
    /// world's own, joins at a shard's first publish).
    pub fn new(nshards: usize) -> Self {
        let metrics = ddr_gnutella::Metrics::new();
        let zero = SliceCounts {
            totals: metrics.counters().collect(),
            first_delay: metrics.first_delay_hist,
        };
        MonitorShared {
            inbox_depth: (0..nshards).map(|_| AtomicUsize::new(0)).collect(),
            timers_pending: (0..nshards).map(|_| AtomicUsize::new(0)).collect(),
            delivery_lag_ms: (0..nshards).map(|_| AtomicU64::new(0)).collect(),
            offered: AtomicU64::new(0),
            slices: (0..nshards).map(|_| Mutex::new(zero.clone())).collect(),
            done: AtomicBool::new(false),
        }
    }

    /// Store `shard`'s slice counters, cumulative so far. The histogram
    /// is copied only when a query closed with a result since the last
    /// copy.
    pub(crate) fn publish<T: TraceSink>(&self, shard: usize, world: &GnutellaWorld<T>) {
        let mut slice = lock(&self.slices[shard]);
        slice.totals.clear();
        slice.totals.extend(world.counters());
        let first_delay = &world.metrics.first_delay_hist;
        if slice.first_delay.count() != first_delay.count() {
            slice.first_delay = first_delay.clone();
        }
    }

    /// Fill `hub` with one pass at wall time `t_ms`: the slices' counters
    /// summed and their histograms merged, the bus's levels per shard,
    /// and `achieved_qps` since `prev`, the previous pass's wall time and
    /// `queries_finalized` — which this returns for the next pass.
    fn sample(&self, hub: &mut MetricsHub, t_ms: u64, prev: (u64, u64)) -> (u64, u64) {
        hub.begin_sample();
        hub.counter("queries_offered", self.offered.load(ORD));
        let mut first_delay: Option<Histogram> = None;
        for slice in &self.slices {
            let slice = lock(slice);
            for &(name, total) in &slice.totals {
                hub.counter(name, total);
            }
            match &mut first_delay {
                Some(merged) => merged.merge(&slice.first_delay),
                None => first_delay = Some(slice.first_delay.clone()),
            }
        }
        let finalized = hub.counters().get("queries_finalized").copied();
        let finalized = finalized.unwrap_or(0);
        let dt_s = t_ms.saturating_sub(prev.0).max(1) as f64 / 1_000.0;
        let closed = finalized.saturating_sub(prev.1);
        hub.gauge("achieved_qps", closed as f64 / dt_s);
        let count = first_delay.as_ref().map_or(0, Histogram::count);
        let quantile = |q| match &first_delay {
            Some(h) if count > 0 => h.quantile(q),
            _ => 0.0,
        };
        hub.gauge("latency_count", count as f64);
        hub.gauge("latency_p50_ms", quantile(0.50));
        hub.gauge("latency_p99_ms", quantile(0.99));
        for i in 0..self.slices.len() {
            let depth = self.inbox_depth[i].load(ORD);
            hub.gauge(&format!("inbox_depth.s{i}"), depth as f64);
            let timers = self.timers_pending[i].load(ORD);
            hub.gauge(&format!("timer_heap.s{i}"), timers as f64);
            let lag = self.delivery_lag_ms[i].swap(0, ORD);
            hub.gauge(&format!("delivery_lag_ms.s{i}"), lag as f64);
        }
        (t_ms, finalized)
    }
}

/// A gauge as Prometheus text writes it: an overflowed quantile is
/// `+Inf`.
fn prometheus_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else {
        v.to_string()
    }
}

/// One pass as Prometheus text: each name `ddr_serve_<name>`, a
/// per-shard `<name>.s<i>` as `ddr_serve_<name>{shard="i"}`, and one
/// `# TYPE` line per family.
fn prometheus_text(hub: &MetricsHub) -> String {
    let mut out = String::with_capacity(1024);
    let counters = hub
        .counters()
        .iter()
        .map(|(k, &v)| ("counter", k, v.to_string()));
    let gauges = hub
        .gauges()
        .iter()
        .map(|(k, &v)| ("gauge", k, prometheus_f64(v)));
    let mut family = "";
    for (kind, name, value) in counters.chain(gauges) {
        let (stem, label) = match name.rsplit_once(".s") {
            Some((stem, i)) if i.parse::<usize>().is_ok() => (stem, format!("{{shard=\"{i}\"}}")),
            _ => (name.as_str(), String::new()),
        };
        if stem != family {
            let _ = writeln!(out, "# TYPE ddr_serve_{stem} {kind}");
            family = stem;
        }
        let _ = writeln!(out, "ddr_serve_{stem}{label} {value}");
    }
    out
}

/// The `--metrics-port` listener on `127.0.0.1:port`, non-blocking. A
/// failure is reported and disables the endpoint — the run itself must
/// not die because a port is taken.
fn listen(port: u16) -> Option<TcpListener> {
    let listener = TcpListener::bind(("127.0.0.1", port))
        .and_then(|l| l.set_nonblocking(true).map(|()| l))
        .map_err(|e| eprintln!("[serve] --metrics-port {port}: {e}; endpoint disabled"));
    listener.ok()
}

/// Answer every connection waiting on `listener` from the recorder's
/// latest pass, taken at `t_ms`: `GET /metrics` as Prometheus text, any
/// other path as JSON with cumulative counters.
fn answer(listener: &TcpListener, rec: &MetricsRecorder<JsonlMetrics>, t_ms: u64) {
    while let Ok((mut stream, _peer)) = listener.accept() {
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .ok();
        let mut req = [0u8; 1024];
        let n = stream.read(&mut req).unwrap_or(0);
        let head = String::from_utf8_lossy(&req[..n]);
        let want_prometheus = head.lines().next().is_some_and(|l| l.contains("/metrics"));
        let (ctype, body) = if want_prometheus {
            ("text/plain; version=0.0.4", prometheus_text(rec.hub()))
        } else {
            ("application/json", rec.pass_json(t_ms))
        };
        let resp = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(resp.as_bytes()).ok();
    }
}

/// Spawn the observer: every `interval_ms` of wall time it fills one
/// pass and appends it to `telemetry.metrics_path` as a timeline window
/// (the recorder differences the cumulative counters; without a path the
/// window goes nowhere), and in between it answers the `port` endpoint,
/// if any, from the latest pass. After `done` is raised it takes one
/// final pass — *after* the shard threads joined, so the file's column
/// sums equal the final report — and flushes.
pub(crate) fn spawn_observer(
    shared: Arc<MonitorShared>,
    clock: Arc<WallClock>,
    telemetry: TelemetryConfig,
    port: Option<u16>,
    interval_ms: u64,
) -> JoinHandle<()> {
    thread::spawn(move || {
        let listener = port.and_then(listen);
        let mut rec: MetricsRecorder<JsonlMetrics> = MetricsRecorder::new(&telemetry);
        let interval = interval_ms.max(1);
        // An unwritten first pass, so the endpoint never answers empty.
        let start = clock.now().as_millis();
        let mut last = shared.sample(rec.hub_mut(), start, (start, 0));
        loop {
            let finished = shared.done.load(ORD);
            let now = clock.now().as_millis();
            if now >= last.0 + interval || finished {
                last = shared.sample(rec.hub_mut(), now, last);
                rec.emit_window(now);
            }
            if let Some(listener) = &listener {
                answer(listener, &rec, last.0);
            }
            if finished {
                break;
            }
            thread::sleep(Duration::from_millis(interval.min(25)));
        }
        rec.finish();
    })
}

/// `GET path` from the endpoint on `port`, retried while it comes up:
/// the whole response, head and body.
#[cfg(test)]
pub(crate) fn fetch(port: u16, path: &str) -> String {
    for _ in 0..100 {
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
}

/// A port nothing listens on: bind an ephemeral one, then free it.
#[cfg(test)]
pub(crate) fn free_port() -> u16 {
    let probe = TcpListener::bind(("127.0.0.1", 0)).expect("probe bind");
    probe.local_addr().expect("probe addr").port()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::Value;
    use std::collections::BTreeMap;

    /// Set the counter `name` of `shard`'s snapshot to `total`.
    fn set_total(shared: &MonitorShared, shard: usize, name: &str, total: u64) {
        let mut slice = lock(&shared.slices[shard]);
        let entry = slice.totals.iter_mut().find(|(n, _)| *n == name);
        entry.expect("a Metrics counter").1 = total;
    }

    /// The text and the JSON of one pass name exactly its counters and
    /// gauges, with the same values.
    #[test]
    fn text_and_json_render_exactly_the_pass() {
        // Two shards; shard 1 closed eight queries, two with a result:
        // 615 ms, and one past the histogram's 5 s.
        let shared = MonitorShared::new(2);
        shared.inbox_depth[1].store(7, ORD);
        shared.delivery_lag_ms[0].store(3, ORD);
        set_total(&shared, 1, "queries_finalized", 8);
        set_total(&shared, 1, "hits", 2);
        let mut slice = lock(&shared.slices[1]);
        slice.first_delay.record(615.0);
        slice.first_delay.record(6_000.0);
        drop(slice);
        let mut rec = MetricsRecorder::<JsonlMetrics>::new(&TelemetryConfig::default());
        shared.sample(rec.hub_mut(), 1_000, (0, 0));
        assert_eq!(shared.delivery_lag_ms[0].load(ORD), 0, "the pass took it");
        let hub = rec.hub();
        let counters = hub
            .counters()
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()));
        let gauges = hub
            .gauges()
            .iter()
            .map(|(k, &v)| (k.clone(), prometheus_f64(v)));
        let pass: BTreeMap<String, String> = counters.chain(gauges).collect();
        for (name, value) in [
            ("queries_finalized", "8"),
            ("hits", "2"),
            ("inbox_depth.s1", "7"),
            ("delivery_lag_ms.s0", "3"),
            // Fig 3(a)'s 50 ms buckets: 615 ms reads 650; 6 s is past 5 s.
            ("latency_p50_ms", "650"),
            ("latency_p99_ms", "+Inf"),
        ] {
            assert_eq!(pass[name], value, "{name}");
        }

        // The text: one line per entry, shard labels folded back into
        // `.s<i>`; 22 counter and seven gauge families, each typed once.
        let text = prometheus_text(hub);
        assert_eq!(text.matches("# TYPE ").count(), 29, "{text}");
        let mut rendered = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.split_once(' ').expect("name value");
            let name = name.strip_prefix("ddr_serve_").expect("prefixed");
            let name = match name.split_once("{shard=\"") {
                Some((stem, i)) => format!("{stem}.s{}", i.trim_end_matches("\"}")),
                None => name.to_string(),
            };
            assert!(rendered.insert(name, value.to_string()).is_none(), "{text}");
        }
        assert_eq!(rendered, pass, "{text}");

        // The JSON: counters cumulative, the overflowed quantile `null`.
        let json = serde::json::parse(&rec.pass_json(1_000)).expect("pass JSON parses");
        assert_eq!(json.get("t").and_then(Value::as_f64), Some(1_000.0));
        let mut rendered = BTreeMap::new();
        for kind in ["counters", "gauges"] {
            let Some(Value::Obj(entries)) = json.get(kind) else {
                panic!("no {kind} object");
            };
            for (name, value) in entries {
                let value = value.as_f64().map_or("+Inf".to_string(), prometheus_f64);
                assert!(rendered.insert(name.clone(), value).is_none(), "{name}");
            }
        }
        assert_eq!(rendered, pass);
    }

    /// Both content types over TCP; a second observer on the taken port
    /// disables only its endpoint and still exits when told.
    #[test]
    fn endpoint_serves_both_content_types() {
        let shared = Arc::new(MonitorShared::new(1));
        set_total(&shared, 0, "queries_finalized", 3);
        let port = free_port();
        let clock = Arc::new(WallClock::start());
        let spawn = || {
            let (shared, clock) = (Arc::clone(&shared), Arc::clone(&clock));
            spawn_observer(shared, clock, TelemetryConfig::default(), Some(port), 10)
        };
        let observer = spawn();
        let prom = fetch(port, "/metrics");
        assert!(prom.contains("Content-Type: text/plain"), "{prom}");
        assert!(prom.contains("\nddr_serve_queries_finalized 3\n"), "{prom}");
        let json = fetch(port, "/report");
        assert!(json.contains("Content-Type: application/json"), "{json}");
        let (_, body) = json.split_once("\r\n\r\n").expect("head and body");
        let pass = serde::json::parse(body).expect("body parses");
        let finalized = pass
            .get("counters")
            .and_then(|c| c.get("queries_finalized"));
        assert_eq!(finalized.and_then(Value::as_f64), Some(3.0), "{body}");
        let refused = spawn();
        shared.done.store(true, ORD);
        observer.join().expect("observer thread");
        refused.join().expect("observer without its endpoint");
    }
}
