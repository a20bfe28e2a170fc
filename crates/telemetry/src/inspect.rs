//! Trace summarisation: the analysis behind `ddr inspect`.
//!
//! [`summarize`] reads a JSONL trace (schema `"v":1`, written by
//! [`crate::QueryTracer`]) in any line order and reconstructs every
//! span, following `relaunch` links so an iterative-deepening chain
//! counts as one query. It validates span completeness — every `issue`
//! reaches exactly one terminal `end`, no record refers to a span that
//! was never issued, and no forwarder's `hop` is missing — and
//! aggregates the distributions `ddr inspect` prints: hop-depth, per-hour
//! hit/miss funnel, slowest queries, record-type breakdown.

use ddr_stats::table::fnum;
use ddr_stats::{safe_ratio, RunningStats, Table};
use serde::json::{parse, Value};
use std::collections::{BTreeMap, HashSet};

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
        let hit_ratio = fnum(safe_ratio(self.hits as f64, ended as f64), 3);
        let dups = self.by_type.get("dup").unwrap_or(&0);
        let errors = self.errors.len() as u64 + self.errors_truncated;
        for (name, value) in [
            ("records", self.records.to_string()),
            ("query spans", self.spans.to_string()),
            ("hits", self.hits.to_string()),
            ("misses", self.misses.to_string()),
            ("timeouts", self.timeouts.to_string()),
            ("hit ratio", hit_ratio),
            ("duplicate drops", dups.to_string()),
            ("forwarded copies", self.forwarded.to_string()),
            ("mean hit latency ms", fnum(self.hit_latency.mean(), 1)),
            ("span errors", errors.to_string()),
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
                text += &format!("  - {e}\n");
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

/// One record, reduced to the fields the summary reads.
struct Record {
    line: usize,
    kind: String,
    run: String,
    /// The wire id the record names.
    q: u64,
    body: Body,
}

enum Body {
    /// The initiator.
    Issue(u64),
    /// Node, the node it came from, hops travelled.
    Hop(u64, u64, u64),
    Dup,
    /// Hops of the first result.
    First(u64),
    /// The wire id this one continues.
    Relaunch(u64),
    /// Outcome and latency.
    End(String, f64),
}

impl Record {
    /// Where an error about this record starts.
    fn at(&self) -> String {
        format!(
            "line {}: {} of q{} ({})",
            self.line, self.kind, self.q, self.run
        )
    }
}

/// One span while the records are attributed to it.
struct Span {
    initiator: u64,
    max_hops: u64,
    /// The terminal record's outcome and latency.
    end: Option<(String, f64)>,
}

/// Parse one line into a [`Record`], counting what needs no span into
/// `s`: records by type, issues and outcomes per hour, forwarded copies.
fn record(raw: &str, line: usize, s: &mut TraceSummary) -> Result<Record, String> {
    let v = parse(raw).map_err(|e| format!("line {line}: {e}"))?;
    let version = num(&v, "v", line)?;
    if version != crate::TRACE_SCHEMA_VERSION as f64 {
        return Err(format!("line {line}: unsupported schema version {version}"));
    }
    let kind = text(&v, "type", line)?;
    let hour = (num(&v, "t", line)? / 3_600_000.0) as u64;
    let field = |key| num(&v, key, line).map(|x| x as u64);
    let body = match kind.as_str() {
        "issue" => {
            s.spans += 1;
            s.hourly.entry(hour).or_default().issued += 1;
            Body::Issue(field("node")?)
        }
        "hop" => {
            s.forwarded += field("fanout")?;
            Body::Hop(field("node")?, field("from")?, field("hops")?)
        }
        "dup" => Body::Dup,
        "first" => Body::First(field("hops")?),
        "relaunch" => Body::Relaunch(field("parent")?),
        "end" => {
            let outcome = text(&v, "outcome", line)?;
            let f = s.hourly.entry(hour).or_default();
            let (total, in_hour) = match outcome.as_str() {
                "hit" => (&mut s.hits, &mut f.hits),
                "miss" => (&mut s.misses, &mut f.misses),
                "timeout" => (&mut s.timeouts, &mut f.timeouts),
                other => return Err(format!("line {line}: unknown outcome `{other}`")),
            };
            *total += 1;
            *in_hour += 1;
            Body::End(outcome, num(&v, "latency_ms", line)?)
        }
        other => return Err(format!("line {line}: unknown record type `{other}`")),
    };
    s.records += 1;
    *s.by_type.entry(kind.clone()).or_insert(0) += 1;
    Ok(Record {
        line,
        run: text(&v, "run", line)?,
        q: field("q")?,
        kind,
        body,
    })
}

/// Summarise a JSONL trace. Fails on unparseable lines, wrong schema
/// versions and structurally broken records; span-completeness problems
/// are *collected* (in [`TraceSummary::errors`]) rather than fatal, so a
/// truncated trace still yields a report.
///
/// The summary does not depend on line order: shards and sweep workers
/// append whole buffers in any order, and a relay's records may precede
/// the issue of their span. Spans are keyed by `(run, root id)` — a
/// sweep's runs issue the same ids under different labels — and
/// `relaunch` links are resolved before any record is attributed. A
/// complete trace opens every span once and ends it once, names no
/// unknown span, and holds every forwarder: each `hop`'s `from` is its
/// span's initiator or has a `hop` of its own under the same wire id.
pub fn summarize(src: &str) -> Result<TraceSummary, String> {
    let mut s = TraceSummary::default();
    let mut records = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        if !raw.trim().is_empty() {
            records.push(record(raw, idx + 1, &mut s)?);
        }
    }

    // Spans, relaunch links and forwarders, each under `(run, wire id)`.
    let mut spans: BTreeMap<(&str, u64), Span> = BTreeMap::new();
    let mut parents = BTreeMap::new();
    let mut forwarders = HashSet::new();
    for r in &records {
        let key = (r.run.as_str(), r.q);
        let twice = match r.body {
            Body::Issue(initiator) => {
                let span = Span {
                    initiator,
                    max_hops: 0,
                    end: None,
                };
                spans.insert(key, span).is_some()
            }
            Body::Relaunch(parent) => parents.insert(key, parent).is_some(),
            Body::Hop(node, ..) => {
                forwarders.insert((key, node));
                false
            }
            _ => false,
        };
        if twice {
            s.error(format!("{}: a second one", r.at()));
        }
    }
    // The root id of `q`'s relaunch chain (a cycle stops after one lap).
    let root = |run: &str, mut q: u64| {
        for _ in 0..=parents.len() {
            match parents.get(&(run, q)) {
                Some(&p) => q = p,
                None => break,
            }
        }
        q
    };

    for r in &records {
        let named = match r.body {
            Body::Issue(_) => continue,
            Body::Relaunch(parent) => parent,
            _ => r.q,
        };
        let id = root(&r.run, named);
        let Some(span) = spans.get_mut(&(r.run.as_str(), id)) else {
            s.error(format!("{}: unknown span q{named}", r.at()));
            continue;
        };
        match &r.body {
            Body::Hop(node, from, hops) => {
                span.max_hops = span.max_hops.max(*hops);
                if *from != span.initiator && !forwarders.contains(&((r.run.as_str(), r.q), *from))
                {
                    let lost = format!("node {from}, which has no hop of its own");
                    s.error(format!(
                        "{} in span q{id}: at node {node} from {lost}",
                        r.at()
                    ));
                }
            }
            Body::First(hops) => span.max_hops = span.max_hops.max(*hops),
            Body::End(..) if span.end.is_some() => {
                s.error(format!("{}: span q{id} ended twice", r.at()));
            }
            Body::End(outcome, latency) => span.end = Some((outcome.clone(), *latency)),
            _ => {}
        }
    }

    // Per-span aggregates, in key order so no float sum sees input order.
    let mut ends = Vec::new();
    for ((run, id), span) in spans {
        let Some((outcome, latency)) = span.end else {
            s.error(format!("q{id} never reached a terminal record (run {run})"));
            continue;
        };
        *s.hop_depth.entry(span.max_hops).or_insert(0) += 1;
        if outcome == "hit" {
            s.hit_latency.record(latency);
        }
        if latency >= 0.0 {
            ends.push(SlowQuery {
                query: id,
                run: run.to_string(),
                outcome,
                latency_ms: latency,
            });
        }
    }
    // Slowest first; ties broken by query id, then run.
    ends.sort_by(|a, b| {
        b.latency_ms
            .total_cmp(&a.latency_ms)
            .then(a.query.cmp(&b.query))
            .then_with(|| a.run.cmp(&b.run))
    });
    ends.truncate(TOP_K);
    s.slowest = ends;

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
        let (n, q, min) = (NodeId::from_index, QueryId, SimTime::from_mins);
        // Span 0: hit at depth 2, relaunched once; node 2 forwards node
        // 0's copy to node 4.
        tr.issue(SimTime::from_millis(100), q(0), n(0), 7, 2);
        tr.hop(SimTime::from_millis(170), q(0), n(0), n(1), n(0), 2, 1, 4);
        tr.relaunch(min(5), q(0), q(1), 1);
        tr.hop(min(5), q(1), n(0), n(2), n(0), 3, 1, 2);
        tr.hop(min(5), q(1), n(0), n(4), n(2), 3, 2, 2);
        tr.dup(min(5), q(1), n(0), n(1));
        tr.first(min(6), q(1), n(2), 2, 360_000.0);
        tr.finish(min(60), q(1), TraceOutcome::Hit, 3, 360_000.0);
        // Span 2: miss, never left the initiator.
        tr.issue(min(60), q(2), n(3), 9, 2);
        tr.finish(min(120), q(2), TraceOutcome::Miss, 0, 50.0);
        std::mem::take(&mut tr.sink_mut().0)
    }

    #[test]
    fn summarize_reconstructs_spans_across_relaunches() {
        let s = summarize(&trace_two_spans()).unwrap();
        assert!(s.is_complete(), "errors: {:?}", s.errors);
        assert_eq!(s.records, 10);
        assert_eq!(s.spans, 2);
        assert_eq!((s.hits, s.misses, s.timeouts), (1, 1, 0));
        assert_eq!(s.by_type["dup"], 1);
        assert_eq!(s.forwarded, 8);
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

    /// Two runs issue the same ids; their lines, interleaved backwards,
    /// are two runs' spans.
    #[test]
    fn runs_sharing_ids_are_separate_spans_in_any_order() {
        let one = trace_two_spans();
        let other = one.replace("\"run\":\"Dyn\"", "\"run\":\"Static\"");
        let both = one.lines().rev().zip(other.lines().rev());
        let backwards: String = both.map(|(a, b)| format!("{a}\n{b}\n")).collect();
        let s = summarize(&backwards).unwrap();
        assert!(s.is_complete(), "errors: {:?}", s.errors);
        assert_eq!((s.spans, s.hop_depth[&2]), (4, 2));
    }

    #[test]
    fn a_lost_forwarder_breaks_the_hop_chain() {
        let src = trace_two_spans();
        let lost = src.replace(&src.lines().nth(3).unwrap().to_string(), "");
        assert!(lost.contains("\n\n"), "node 2's hop went");
        let s = summarize(&lost).unwrap();
        assert_eq!(s.errors.len(), 1, "{:?}", s.errors);
        let error = &s.errors[0];
        assert!(
            error.contains("(Dyn) in span q0") && error.contains("from node 2"),
            "{error}"
        );
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
