//! The query-lifecycle tracer embedded in scenario worlds.
//!
//! A *span* is the life of one query: an `issue` record, any number of
//! `hop` / `dup` records as the query propagates, at most one `first`
//! record (first useful result back at the initiator), optional
//! `relaunch` links (iterative-deepening waves re-issue under a fresh
//! query id), and exactly one terminal `end` record with outcome
//! `hit` / `miss` / `timeout`. All records carry the schema version
//! (`"v":1`), the run label, and the virtual time in ms (`"t"`).
//!
//! Sampling is by initiator: a span is traced exactly when the node that
//! issued it is (`origin.index() % sample == 0`). A `hop` or `dup` record
//! names its initiator, so whichever world handles the relay writes it —
//! on any shard or executor, after the span's `end` too. The live-span
//! set is the initiator's bookkeeping (`first`, `relaunch`, one `end`,
//! the timeouts written at drop). With [`NullSink`](crate::NullSink) the
//! `T::ENABLED` guard removes every call.

use crate::config::TelemetryConfig;
use crate::sink::TraceSink;
use ddr_sim::{FastHashSet, NodeId, QueryId, SimTime};
use std::fmt::Write as _;

/// How a traced query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The query was satisfied (at least one result / page / chunk came
    /// from the peer network).
    Hit,
    /// The query fell through to the alternative repository (origin
    /// server, warehouse) or simply found nothing it was allowed to.
    Miss,
    /// The query was cut off: its deadline passed with no result, or its
    /// initiator left the network with the query in flight.
    Timeout,
}

impl TraceOutcome {
    /// The schema string for this outcome.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Hit => "hit",
            TraceOutcome::Miss => "miss",
            TraceOutcome::Timeout => "timeout",
        }
    }
}

/// Per-world span recorder, generic over the sink so the off-state
/// compiles to nothing.
pub struct QueryTracer<T: TraceSink> {
    sink: T,
    sample: u64,
    run: &'static str,
    /// Sampled spans this world initiated that have not yet seen their
    /// terminal record.
    live: FastHashSet<u64>,
    /// Latest virtual time seen (stamps drop-time cut terminals).
    last_t: u64,
    line: String,
}

impl<T: TraceSink> QueryTracer<T> {
    /// Build a tracer (and its sink) from the run's telemetry config.
    pub fn new(cfg: &TelemetryConfig) -> Self {
        QueryTracer {
            sink: T::create(cfg),
            sample: cfg.sample_every(),
            run: cfg.run_label,
            live: ddr_sim::hash::fast_set(),
            last_t: 0,
            line: String::new(),
        }
    }

    /// Stamp the timeouts each of `tracers` writes at drop with the latest
    /// record time among them all: the slices of one sharded run then cut
    /// their open spans where one world holding every node would.
    pub fn share_last_time<'a>(tracers: impl IntoIterator<Item = &'a mut Self>)
    where
        T: 'a,
    {
        if !T::ENABLED {
            return;
        }
        let mut all: Vec<&mut Self> = tracers.into_iter().collect();
        let latest = all.iter().map(|tr| tr.last_t).max().unwrap_or(0);
        for tr in &mut all {
            tr.last_t = latest;
        }
    }

    /// The sink, for tests and explicit flushing.
    pub fn sink_mut(&mut self) -> &mut T {
        &mut self.sink
    }

    /// Whether the spans `origin` initiates are traced (never, under a
    /// disabled sink).
    #[inline]
    fn sampled(&self, origin: NodeId) -> bool {
        T::ENABLED && (origin.index() as u64).is_multiple_of(self.sample)
    }

    /// Write one record: the common head, then `fields`.
    fn write(&mut self, kind: &str, t: SimTime, fields: std::fmt::Arguments) {
        self.last_t = t.as_millis();
        let (run, t) = (self.run, self.last_t);
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"v\":1,\"type\":\"{kind}\",\"run\":\"{run}\",\"t\":{t}{fields}}}"
        );
        self.sink.write_line(&self.line);
    }

    /// `node` issued a query. Starts a span when `node` is sampled.
    #[inline]
    pub fn issue(&mut self, t: SimTime, q: QueryId, node: NodeId, item: u64, ttl: u8) {
        if self.sampled(node) {
            self.live.insert(q.0);
            let (q, node) = (q.0, node.index());
            let fields = format_args!(",\"q\":{q},\"node\":{node},\"item\":{item},\"ttl\":{ttl}");
            self.write("issue", t, fields);
        }
    }

    /// The query `origin` issued reached `node` from `from` and is being
    /// served / forwarded there. `hops` is the overlay distance travelled
    /// so far, `fanout` the number of neighbors it was forwarded to from
    /// here.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn hop(
        &mut self,
        t: SimTime,
        q: QueryId,
        origin: NodeId,
        node: NodeId,
        from: NodeId,
        ttl: u8,
        hops: u8,
        fanout: usize,
    ) {
        if self.sampled(origin) {
            let (q, node, from) = (q.0, node.index(), from.index());
            self.write(
                "hop",
                t,
                format_args!(
                    ",\"q\":{q},\"node\":{node},\"from\":{from},\"ttl\":{ttl},\"hops\":{hops},\"fanout\":{fanout}"
                ),
            );
        }
    }

    /// The query `origin` issued arrived at `node` a second time and was
    /// dropped.
    #[inline]
    pub fn dup(&mut self, t: SimTime, q: QueryId, origin: NodeId, node: NodeId) {
        if self.sampled(origin) {
            let (q, node) = (q.0, node.index());
            self.write("dup", t, format_args!(",\"q\":{q},\"node\":{node}"));
        }
    }

    /// The first useful result reached the initiator.
    #[inline]
    pub fn first(&mut self, t: SimTime, q: QueryId, from: NodeId, hops: u8, latency_ms: f64) {
        if T::ENABLED && self.live.contains(&q.0) {
            let (q, from) = (q.0, from.index());
            self.write(
                "first",
                t,
                format_args!(
                    ",\"q\":{q},\"from\":{from},\"hops\":{hops},\"latency_ms\":{latency_ms:.3}"
                ),
            );
        }
    }

    /// An iterative-deepening wave re-issued the query under a new id;
    /// the span continues under `new`.
    #[inline]
    pub fn relaunch(&mut self, t: SimTime, old: QueryId, new: QueryId, wave: u8) {
        if T::ENABLED && self.live.remove(&old.0) {
            self.live.insert(new.0);
            let (q, parent) = (new.0, old.0);
            let fields = format_args!(",\"q\":{q},\"parent\":{parent},\"wave\":{wave}");
            self.write("relaunch", t, fields);
        }
    }

    /// Terminal record: the span is over.
    #[inline]
    pub fn finish(
        &mut self,
        t: SimTime,
        q: QueryId,
        outcome: TraceOutcome,
        results: u64,
        latency_ms: f64,
    ) {
        if T::ENABLED && self.live.remove(&q.0) {
            let (q, outcome) = (q.0, outcome.as_str());
            self.write(
                "end",
                t,
                format_args!(
                    ",\"q\":{q},\"outcome\":\"{outcome}\",\"results\":{results},\"latency_ms\":{latency_ms:.3}"
                ),
            );
        }
    }
}

impl<T: TraceSink> Drop for QueryTracer<T> {
    /// Spans still live when the world is torn down (queries in flight at
    /// the horizon) are closed as timeouts, stamped with the latest time
    /// this tracer wrote, so every sampled span has exactly one terminal
    /// record.
    fn drop(&mut self) {
        let mut open: Vec<u64> = self.live.iter().copied().collect();
        open.sort_unstable();
        let t = SimTime::from_millis(self.last_t);
        for q in open {
            self.finish(t, QueryId(q), TraceOutcome::Timeout, 0, -1.0);
        }
        self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;
    use std::cell::RefCell;

    thread_local! {
        /// What every [`VecSink`] on this test's thread wrote, drop-time
        /// records included.
        static WRITTEN: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    }

    /// In-memory sink for asserting on emitted lines.
    struct VecSink;
    impl TraceSink for VecSink {
        const ENABLED: bool = true;
        fn create(_cfg: &TelemetryConfig) -> Self {
            VecSink
        }
        fn write_line(&mut self, line: &str) {
            WRITTEN.with(|w| w.borrow_mut().push(line.to_string()));
        }
    }

    fn tracer<T: TraceSink>(sample: u64) -> QueryTracer<T> {
        QueryTracer::new(&TelemetryConfig {
            sample,
            run_label: "TestRun",
            ..TelemetryConfig::default()
        })
    }

    /// The lines written on this thread so far, which are forgotten.
    fn written() -> Vec<String> {
        WRITTEN.with(|w| w.take())
    }

    const ZERO: SimTime = SimTime::ZERO;
    const fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }
    const fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn full_span_emits_parseable_records() {
        let mut tr = tracer::<VecSink>(1);
        tr.issue(ms(10), QueryId(4), n(0), 99, 2);
        tr.hop(ms(80), QueryId(4), n(0), n(1), n(0), 2, 1, 3);
        tr.dup(ms(90), QueryId(4), n(0), n(2));
        tr.first(ms(150), QueryId(4), n(1), 1, 140.0);
        tr.finish(ms(500), QueryId(4), TraceOutcome::Hit, 2, 140.0);
        let lines = written();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            let v = serde::json::parse(line).expect("record must be valid JSON");
            assert_eq!(v.get("v").and_then(|x| x.as_f64()), Some(1.0));
            let run = serde::json::Value::Str("TestRun".into());
            assert_eq!(v.get("run"), Some(&run));
        }
        assert!(lines[0].contains("\"type\":\"issue\""));
        assert!(lines[4].contains("\"outcome\":\"hit\""));
    }

    #[test]
    fn sampling_skips_unselected_ids_entirely() {
        // Node 3 is not sampled at 10, so its query is traced nowhere,
        // although the id (20) is a multiple of 10.
        let mut tr = tracer::<VecSink>(10);
        tr.issue(ZERO, QueryId(20), n(3), 1, 2);
        tr.hop(ZERO, QueryId(20), n(3), n(1), n(3), 2, 1, 1);
        tr.dup(ZERO, QueryId(20), n(3), n(2));
        tr.finish(ZERO, QueryId(20), TraceOutcome::Miss, 0, 0.0);
        assert!(written().is_empty(), "node 3 % 10 != 0 must not trace");
        // Node 20 is: a relay's world writes its hop and dup without ever
        // having seen the issue, and keeps no span state for it.
        let mut relay = tracer::<VecSink>(10);
        relay.hop(ZERO, QueryId(3), n(20), n(1), n(20), 2, 1, 1);
        relay.dup(ZERO, QueryId(3), n(20), n(2));
        assert_eq!(written().len(), 2);
        assert!(relay.live.is_empty());
    }

    #[test]
    fn relaunch_transfers_span_membership() {
        let mut tr = tracer::<VecSink>(1);
        tr.issue(ZERO, QueryId(0), n(0), 1, 2);
        tr.relaunch(ms(5), QueryId(0), QueryId(7), 1);
        // The old id is dead, the new one is live.
        tr.finish(ms(6), QueryId(0), TraceOutcome::Hit, 1, 1.0);
        tr.finish(ms(9), QueryId(7), TraceOutcome::Timeout, 0, 9.0);
        let lines = written();
        assert_eq!(lines.len(), 3, "finish on the dead id must be ignored");
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[2].contains("\"q\":7"));
    }

    /// Two slices of one run: each cuts its open spans at drop, at the
    /// latest record either of them wrote.
    #[test]
    fn drop_closes_open_spans_as_timeouts() {
        let mut slices = [tracer::<VecSink>(1), tracer::<VecSink>(1)];
        slices[0].issue(ms(42), QueryId(0), n(0), 1, 2);
        slices[0].issue(ms(43), QueryId(1), n(1), 1, 2);
        slices[1].hop(ms(50), QueryId(0), n(0), n(5), n(0), 2, 1, 1);
        QueryTracer::share_last_time(&mut slices);
        drop(slices);
        let lines = written();
        assert_eq!(lines.len(), 5);
        for (line, q) in lines[3..].iter().zip([0, 1]) {
            let end = format!("\"t\":50,\"q\":{q},\"outcome\":\"timeout\"");
            assert!(line.contains(&end), "{line}");
        }
    }

    #[test]
    fn null_sink_tracer_tracks_nothing() {
        let mut tr = tracer::<NullSink>(1);
        tr.issue(ZERO, QueryId(0), n(0), 1, 2);
        assert!(tr.live.is_empty(), "NullSink must keep no span state");
    }
}
