//! Trace summarisation: the analysis behind `ddr inspect`.
//!
//! [`summarize`] replays a JSONL trace (schema `"v":1`, written by
//! [`crate::QueryTracer`]) and reconstructs every span, following
//! `relaunch` links so an iterative-deepening chain counts as one query.
//! It validates span completeness — every `issue` must reach exactly one
//! terminal `end`, and no record may refer to a span that was never
//! issued — and aggregates the distributions `ddr inspect` prints:
//! hop-depth, per-hour hit/miss funnel, slowest queries, record-type
//! breakdown.

use ddr_stats::table::fnum;
use ddr_stats::{safe_ratio, RunningStats, Table};
use serde::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// How many slowest queries to keep.
const TOP_K: usize = 10;
/// How many span-completeness problems to keep verbatim.
const MAX_ERRORS: usize = 20;

/// Per-hour outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HourFunnel {
    /// Queries issued in this hour.
    pub issued: u64,
    /// Spans that ended `hit` in this hour.
    pub hits: u64,
    /// Spans that ended `miss` in this hour.
    pub misses: u64,
    /// Spans that ended `timeout` in this hour.
    pub timeouts: u64,
}

/// One entry of the slowest-queries leaderboard.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQuery {
    /// Root query id of the span (first id in its relaunch chain).
    pub query: u64,
    /// Run label the span belongs to.
    pub run: String,
    /// Terminal outcome.
    pub outcome: String,
    /// First-result (or completion) latency from the terminal record.
    pub latency_ms: f64,
}

/// Everything `ddr inspect` reports about one trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total records parsed.
    pub records: u64,
    /// Record count per `type`.
    pub by_type: BTreeMap<String, u64>,
    /// Spans issued (relaunch chains count once).
    pub spans: u64,
    /// Spans ending in each outcome.
    pub hits: u64,
    /// See [`TraceSummary::hits`].
    pub misses: u64,
    /// See [`TraceSummary::hits`].
    pub timeouts: u64,
    /// Duplicate-drop records.
    pub dups: u64,
    /// Query copies forwarded (sum of `fanout` over hop records).
    pub forwarded: u64,
    /// Spans per maximum hop depth reached.
    pub hop_depth: BTreeMap<u64, u64>,
    /// Outcome funnel per simulated hour.
    pub hourly: BTreeMap<u64, HourFunnel>,
    /// Up to `TOP_K` slowest completed spans, slowest first.
    pub slowest: Vec<SlowQuery>,
    /// Latency of spans that ended `hit`.
    pub hit_latency: RunningStats,
    /// Span-completeness violations (empty for a well-formed trace).
    pub errors: Vec<String>,
    /// Violations beyond the ones kept in `errors`.
    pub errors_truncated: u64,
}

/// Open-span bookkeeping while replaying the record stream.
#[derive(Debug, Clone)]
struct OpenSpan {
    root: u64,
    run: String,
    max_hops: u64,
}

impl TraceSummary {
    /// `true` when every span resolved cleanly.
    pub fn is_complete(&self) -> bool {
        self.errors.is_empty() && self.errors_truncated == 0
    }

    fn error(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        } else {
            self.errors_truncated += 1;
        }
    }

    /// The summary as printable tables, in the order `ddr inspect`
    /// shows them.
    pub fn tables(&self) -> Vec<Table> {
        let mut out = Vec::new();

        let mut overview = Table::new("trace overview", &["metric", "value"]);
        let ended = self.hits + self.misses + self.timeouts;
        for (name, value) in [
            ("records", self.records.to_string()),
            ("query spans", self.spans.to_string()),
            ("hits", self.hits.to_string()),
            ("misses", self.misses.to_string()),
            ("timeouts", self.timeouts.to_string()),
            (
                "hit ratio",
                fnum(safe_ratio(self.hits as f64, ended as f64), 3),
            ),
            ("duplicate drops", self.dups.to_string()),
            ("forwarded copies", self.forwarded.to_string()),
            ("mean hit latency ms", fnum(self.hit_latency.mean(), 1)),
            (
                "span errors",
                (self.errors.len() as u64 + self.errors_truncated).to_string(),
            ),
        ] {
            overview.row(vec![name.to_string(), value]);
        }
        out.push(overview);

        let mut depth = Table::new("hop-depth distribution", &["max hops", "spans", "share"]);
        for (&d, &n) in &self.hop_depth {
            depth.row(vec![
                d.to_string(),
                n.to_string(),
                fnum(safe_ratio(n as f64, self.spans as f64), 3),
            ]);
        }
        out.push(depth);

        let mut funnel = Table::new(
            "hourly funnel",
            &["hour", "issued", "hits", "misses", "timeouts"],
        );
        for (&h, f) in &self.hourly {
            funnel.row(vec![
                h.to_string(),
                f.issued.to_string(),
                f.hits.to_string(),
                f.misses.to_string(),
                f.timeouts.to_string(),
            ]);
        }
        out.push(funnel);

        let mut slow = Table::new(
            format!("slowest queries (top {})", self.slowest.len()),
            &["query", "run", "outcome", "latency ms"],
        );
        for s in &self.slowest {
            slow.row(vec![
                format!("q{}", s.query),
                s.run.clone(),
                s.outcome.clone(),
                fnum(s.latency_ms, 1),
            ]);
        }
        out.push(slow);

        let mut types = Table::new("records by type", &["type", "count"]);
        for (k, &n) in &self.by_type {
            types.row(vec![k.clone(), n.to_string()]);
        }
        out.push(types);

        out
    }

    /// Tables plus the span-error list, rendered as one string.
    pub fn render(&self) -> String {
        let mut text = self
            .tables()
            .iter()
            .map(|t| t.render())
            .collect::<Vec<_>>()
            .join("\n");
        if !self.is_complete() {
            text.push_str("\nspan-completeness problems:\n");
            for e in &self.errors {
                text.push_str("  - ");
                text.push_str(e);
                text.push('\n');
            }
            if self.errors_truncated > 0 {
                text.push_str(&format!("  … and {} more\n", self.errors_truncated));
            }
        }
        text
    }
}

fn num(v: &Value, key: &str, line: usize) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("line {line}: missing numeric field `{key}`"))
}

fn text(v: &Value, key: &str, line: usize) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("line {line}: missing string field `{key}`")),
    }
}

/// Read and summarise a trace file.
pub fn summarize_file(path: &Path) -> Result<TraceSummary, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    summarize(&src)
}

/// Summarise a JSONL trace. Fails on unparseable lines, wrong schema
/// versions and structurally broken records; span-completeness problems
/// are *collected* (in [`TraceSummary::errors`]) rather than fatal, so a
/// truncated trace still yields a report.
pub fn summarize(src: &str) -> Result<TraceSummary, String> {
    let mut s = TraceSummary::default();
    let mut open: BTreeMap<u64, OpenSpan> = BTreeMap::new();
    let mut ends: Vec<(f64, SlowQuery)> = Vec::new();

    for (idx, raw) in src.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v = parse(raw).map_err(|e| format!("line {line}: {e}"))?;
        let version = num(&v, "v", line)?;
        if version != crate::TRACE_SCHEMA_VERSION as f64 {
            return Err(format!("line {line}: unsupported schema version {version}"));
        }
        let kind = text(&v, "type", line)?;
        let t_ms = num(&v, "t", line)?;
        let hour = (t_ms / 3_600_000.0) as u64;
        s.records += 1;
        *s.by_type.entry(kind.clone()).or_insert(0) += 1;

        match kind.as_str() {
            "issue" => {
                let q = num(&v, "q", line)? as u64;
                let run = text(&v, "run", line)?;
                if open.contains_key(&q) {
                    s.error(format!("line {line}: q{q} issued while already open"));
                }
                open.insert(
                    q,
                    OpenSpan {
                        root: q,
                        run,
                        max_hops: 0,
                    },
                );
                s.spans += 1;
                s.hourly.entry(hour).or_default().issued += 1;
            }
            "hop" => {
                let q = num(&v, "q", line)? as u64;
                let hops = num(&v, "hops", line)? as u64;
                s.forwarded += num(&v, "fanout", line)? as u64;
                match open.get_mut(&q) {
                    Some(span) => span.max_hops = span.max_hops.max(hops),
                    None => s.error(format!("line {line}: hop for unknown span q{q}")),
                }
            }
            "dup" => {
                let q = num(&v, "q", line)? as u64;
                s.dups += 1;
                if !open.contains_key(&q) {
                    s.error(format!("line {line}: dup for unknown span q{q}"));
                }
            }
            "first" => {
                let q = num(&v, "q", line)? as u64;
                let hops = num(&v, "hops", line)? as u64;
                match open.get_mut(&q) {
                    Some(span) => span.max_hops = span.max_hops.max(hops),
                    None => s.error(format!("line {line}: first for unknown span q{q}")),
                }
            }
            "relaunch" => {
                let q = num(&v, "q", line)? as u64;
                let parent = num(&v, "parent", line)? as u64;
                match open.remove(&parent) {
                    Some(span) => {
                        open.insert(q, span);
                    }
                    None => s.error(format!(
                        "line {line}: relaunch q{q} from unknown span q{parent}"
                    )),
                }
            }
            "end" => {
                let q = num(&v, "q", line)? as u64;
                let outcome = text(&v, "outcome", line)?;
                let latency = num(&v, "latency_ms", line)?;
                let f = s.hourly.entry(hour).or_default();
                match outcome.as_str() {
                    "hit" => {
                        s.hits += 1;
                        f.hits += 1;
                        s.hit_latency.record(latency);
                    }
                    "miss" => {
                        s.misses += 1;
                        f.misses += 1;
                    }
                    "timeout" => {
                        s.timeouts += 1;
                        f.timeouts += 1;
                    }
                    other => return Err(format!("line {line}: unknown outcome `{other}`")),
                }
                match open.remove(&q) {
                    Some(span) => {
                        *s.hop_depth.entry(span.max_hops).or_insert(0) += 1;
                        if latency >= 0.0 {
                            ends.push((
                                latency,
                                SlowQuery {
                                    query: span.root,
                                    run: span.run,
                                    outcome,
                                    latency_ms: latency,
                                },
                            ));
                        }
                    }
                    None => s.error(format!("line {line}: end for unknown span q{q}")),
                }
            }
            other => return Err(format!("line {line}: unknown record type `{other}`")),
        }
    }

    let mut dangling: Vec<u64> = open.keys().copied().collect();
    dangling.sort_unstable();
    for q in dangling {
        s.error(format!("q{q} never reached a terminal record"));
    }

    // Slowest first; ties broken by query id for a deterministic report.
    ends.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.query.cmp(&b.1.query))
    });
    s.slowest = ends.into_iter().take(TOP_K).map(|(_, q)| q).collect();

    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelemetryConfig;
    use crate::sink::TraceSink;
    use crate::tracer::{QueryTracer, TraceOutcome};
    use ddr_sim::{NodeId, QueryId, SimTime};

    struct StringSink(String);
    impl TraceSink for StringSink {
        const ENABLED: bool = true;
        fn create(_cfg: &TelemetryConfig) -> Self {
            StringSink(String::new())
        }
        fn write_line(&mut self, line: &str) {
            self.0.push_str(line);
            self.0.push('\n');
        }
    }

    fn trace_two_spans() -> String {
        let mut tr: QueryTracer<StringSink> = QueryTracer::new(&TelemetryConfig {
            run_label: "Dyn",
            ..TelemetryConfig::default()
        });
        let n = NodeId::from_index;
        // Span 0: hit at depth 2, relaunched once.
        tr.issue(SimTime::from_millis(100), QueryId(0), n(0), 7, 2);
        tr.hop(SimTime::from_millis(170), QueryId(0), n(1), n(0), 2, 1, 4);
        tr.relaunch(SimTime::from_mins(5), QueryId(0), QueryId(1), 1);
        tr.hop(SimTime::from_mins(5), QueryId(1), n(2), n(0), 3, 2, 2);
        tr.dup(SimTime::from_mins(5), QueryId(1), n(1));
        tr.first(SimTime::from_mins(6), QueryId(1), n(2), 2, 360_000.0);
        tr.finish(
            SimTime::from_hours(1),
            QueryId(1),
            TraceOutcome::Hit,
            3,
            360_000.0,
        );
        // Span 2: miss, never left the initiator.
        tr.issue(SimTime::from_hours(1), QueryId(2), n(3), 9, 2);
        tr.finish(
            SimTime::from_hours(2),
            QueryId(2),
            TraceOutcome::Miss,
            0,
            50.0,
        );
        std::mem::take(&mut tr.sink_mut().0)
    }

    #[test]
    fn summarize_reconstructs_spans_across_relaunches() {
        let s = summarize(&trace_two_spans()).unwrap();
        assert!(s.is_complete(), "errors: {:?}", s.errors);
        assert_eq!(s.records, 9);
        assert_eq!(s.spans, 2);
        assert_eq!((s.hits, s.misses, s.timeouts), (1, 1, 0));
        assert_eq!(s.dups, 1);
        assert_eq!(s.forwarded, 6);
        // Span 0+1 reached depth 2; span 2 stayed at depth 0.
        assert_eq!(s.hop_depth.get(&2), Some(&1));
        assert_eq!(s.hop_depth.get(&0), Some(&1));
        // Funnel: issues in hours 0 and 1, ends in hours 1 and 2.
        assert_eq!(s.hourly[&0].issued, 1);
        assert_eq!(s.hourly[&1].hits, 1);
        assert_eq!(s.hourly[&2].misses, 1);
        // Slowest is the relaunch chain under its root id.
        assert_eq!(s.slowest[0].query, 0);
        assert_eq!(s.slowest[0].run, "Dyn");
        let text = s.render();
        assert!(text.contains("hop-depth distribution"));
        assert!(text.contains("q0"));
    }

    #[test]
    fn incomplete_spans_are_reported_not_fatal() {
        let src = "{\"v\":1,\"type\":\"issue\",\"run\":\"X\",\"t\":0,\"q\":0,\"node\":1,\"item\":2,\"ttl\":2}\n\
                   {\"v\":1,\"type\":\"end\",\"run\":\"X\",\"t\":5,\"q\":9,\"outcome\":\"hit\",\"results\":1,\"latency_ms\":5.000}\n";
        let s = summarize(src).unwrap();
        assert!(!s.is_complete());
        assert_eq!(s.errors.len(), 2, "{:?}", s.errors);
        assert!(s.errors[0].contains("unknown span q9"));
        assert!(s.errors[1].contains("q0 never reached"));
        assert!(s.render().contains("span-completeness problems"));
    }

    #[test]
    fn malformed_lines_are_fatal() {
        assert!(summarize("not json\n").is_err());
        assert!(summarize("{\"v\":2,\"type\":\"issue\",\"t\":0}\n").is_err());
        assert!(summarize("{\"v\":1,\"type\":\"mystery\",\"t\":0}\n").is_err());
        assert!(summarize("{\"v\":1,\"type\":\"issue\",\"t\":0}\n").is_err());
    }

    #[test]
    fn empty_trace_summarises_to_zeroes() {
        let s = summarize("").unwrap();
        assert_eq!(s.records, 0);
        assert_eq!(s.spans, 0);
        assert!(s.is_complete());
        assert!(s.render().contains("trace overview"));
    }
}
