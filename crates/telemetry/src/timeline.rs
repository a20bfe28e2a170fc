//! Summarising metrics timeline files for `ddr inspect`.
//!
//! A timeline file is JSONL of `"type":"window"` records written by
//! [`crate::MetricsRecorder`] (see the `metrics` module docs for the
//! schema). The summariser renders a per-window table — one row per
//! sampling interval, one column per counter series — and flags
//! anomalies the aggregate report hides: non-finite values, zero-traffic
//! windows (a partition or stall makes these visible as a flat gap),
//! traffic spikes (flash crowds), and non-monotonic timestamps.
//!
//! Strictness matches the trace summariser: an unknown record type or a
//! wrong schema version is a hard error, not a skip — silent drift
//! between writer and reader is how observability rots.

use crate::metrics::METRICS_SCHEMA_VERSION;
use ddr_stats::Table;
use serde::json::{parse, Value};
use std::collections::BTreeMap;

/// Spike threshold: a counter value this many times its series mean is
/// flagged (the flash-crowd signature).
const SPIKE_FACTOR: f64 = 5.0;

/// Max counter columns in the rendered table (widest series win).
const MAX_COLUMNS: usize = 6;

/// Max rows rendered; longer timelines are evenly thinned.
const MAX_ROWS: usize = 48;

/// One parsed window record.
#[derive(Debug, Clone)]
struct Window {
    t: u64,
    run: String,
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    /// Names whose value was JSON `null` (a non-finite number at write
    /// time) — carried separately so the anomaly pass can name them.
    non_finite: Vec<String>,
}

/// Everything `ddr inspect` prints for a timeline file.
#[derive(Debug)]
pub struct TimelineSummary {
    windows: Vec<Window>,
    /// Union of counter names, by descending series total.
    counter_keys: Vec<String>,
    /// Union of gauge names.
    gauge_keys: Vec<String>,
    /// Human-readable anomaly lines (empty = clean).
    anomalies: Vec<String>,
}

/// `true` when `src` looks like a metrics timeline (first non-empty line
/// is a `"type":"window"` record) rather than a query trace — the sniff
/// `ddr inspect` dispatches on.
pub fn is_timeline(src: &str) -> bool {
    src.lines()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| parse(l).ok())
        .and_then(|v| v.get("type").cloned())
        .is_some_and(|t| matches!(t, Value::Str(s) if s == "window"))
}

fn num_members(
    v: &Value,
    line: usize,
    kind: &str,
) -> Result<(BTreeMap<String, f64>, Vec<String>), String> {
    let mut out = BTreeMap::new();
    let mut nulls = Vec::new();
    match v {
        Value::Obj(members) => {
            for (k, v) in members {
                match v {
                    Value::Num(n) => {
                        out.insert(k.clone(), *n);
                    }
                    Value::Null => nulls.push(k.clone()),
                    other => {
                        return Err(format!(
                            "line {line}: {kind} `{k}` is not a number: {other:?}"
                        ))
                    }
                }
            }
            Ok((out, nulls))
        }
        other => Err(format!("line {line}: `{kind}` is not an object: {other:?}")),
    }
}

/// Summarise timeline JSONL from a string (the testable core).
pub fn summarize_timeline(src: &str) -> Result<TimelineSummary, String> {
    let mut windows = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v = parse(raw).map_err(|e| format!("line {line}: {e}"))?;
        let ver = v.get("v").and_then(Value::as_f64).map(|f| f as u64);
        if ver != Some(METRICS_SCHEMA_VERSION) {
            return Err(format!(
                "line {line}: unsupported schema version {ver:?} (want {METRICS_SCHEMA_VERSION})"
            ));
        }
        match v.get("type") {
            Some(Value::Str(s)) if s == "window" => {}
            Some(Value::Str(s)) => {
                return Err(format!("line {line}: unknown record type `{s}`"));
            }
            _ => return Err(format!("line {line}: record has no `type`")),
        }
        let t = v
            .get("t")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("line {line}: record has no numeric `t`"))?
            as u64;
        let run = match v.get("run") {
            Some(Value::Str(s)) => s.clone(),
            _ => String::new(),
        };
        let (counters, mut non_finite) = match v.get("counters") {
            Some(c) => num_members(c, line, "counter")?,
            None => (BTreeMap::new(), Vec::new()),
        };
        let (gauges, nf2) = match v.get("gauges") {
            Some(g) => num_members(g, line, "gauge")?,
            None => (BTreeMap::new(), Vec::new()),
        };
        non_finite.extend(nf2);
        windows.push(Window {
            t,
            run,
            counters,
            gauges,
            non_finite,
        });
    }
    if windows.is_empty() {
        return Err("no window records found".to_string());
    }

    // Column order: counters by descending series total.
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut gauge_keys: Vec<String> = Vec::new();
    for w in &windows {
        for (k, v) in &w.counters {
            *totals.entry(k.clone()).or_insert(0.0) += v;
        }
        for k in w.gauges.keys() {
            if !gauge_keys.contains(k) {
                gauge_keys.push(k.clone());
            }
        }
    }
    let mut counter_keys: Vec<String> = totals.keys().cloned().collect();
    counter_keys.sort_by(|a, b| {
        totals[b]
            .partial_cmp(&totals[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(b))
    });
    gauge_keys.sort();

    // Anomaly pass.
    let mut anomalies = Vec::new();
    let mut last_t: BTreeMap<&str, u64> = BTreeMap::new();
    let nonzero_means: BTreeMap<&String, f64> = totals
        .iter()
        .map(|(k, total)| (k, total / windows.len() as f64))
        .collect();
    for (i, w) in windows.iter().enumerate() {
        for k in &w.non_finite {
            anomalies.push(format!(
                "window {i} (t={}): non-finite value for `{k}`",
                w.t
            ));
        }
        for (k, v) in w.counters.iter().chain(&w.gauges) {
            if !v.is_finite() {
                anomalies.push(format!(
                    "window {i} (t={}): non-finite value for `{k}`",
                    w.t
                ));
            }
        }
        if let Some(&prev) = last_t.get(w.run.as_str()) {
            if w.t <= prev {
                anomalies.push(format!(
                    "window {i} (t={}): non-monotonic timestamp (run `{}` was at {prev})",
                    w.t, w.run
                ));
            }
        }
        last_t.insert(w.run.as_str(), w.t);
        if !w.counters.is_empty() && w.counters.values().all(|&v| v == 0.0) {
            anomalies.push(format!(
                "window {i} (t={}): zero traffic (all counters 0 — stall or partition?)",
                w.t
            ));
        }
        for (k, &v) in &w.counters {
            // Mean of the *other* windows, so a single huge spike cannot
            // dilute its own baseline.
            let total = nonzero_means.get(k).copied().unwrap_or(0.0) * windows.len() as f64;
            let mean = (total - v) / (windows.len() as f64 - 1.0).max(1.0);
            if mean > 0.0 && v > SPIKE_FACTOR * mean && windows.len() > 2 {
                anomalies.push(format!(
                    "window {i} (t={t}): spike in `{k}` ({v:.0} vs mean {mean:.0})",
                    t = w.t
                ));
            }
        }
    }

    Ok(TimelineSummary {
        windows,
        counter_keys,
        gauge_keys,
        anomalies,
    })
}

impl TimelineSummary {
    /// Windows parsed.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Anomaly lines (empty = clean timeline).
    pub fn anomalies(&self) -> &[String] {
        &self.anomalies
    }

    /// Counter series names, widest first.
    pub fn counter_keys(&self) -> &[String] {
        &self.counter_keys
    }

    /// Gauge series names, sorted.
    pub fn gauge_keys(&self) -> &[String] {
        &self.gauge_keys
    }

    /// Render the per-window table plus the anomaly report.
    pub fn render(&self) -> String {
        let cols: Vec<&String> = self.counter_keys.iter().take(MAX_COLUMNS).collect();
        let mut headers: Vec<&str> = vec!["win", "t_ms", "run"];
        for c in &cols {
            headers.push(c.as_str());
        }
        let mut t = Table::new(
            format!(
                "Metrics timeline: {} windows, {} counter + {} gauge series",
                self.windows.len(),
                self.counter_keys.len(),
                self.gauge_keys.len()
            ),
            &headers,
        );
        let step = self.windows.len().div_ceil(MAX_ROWS).max(1);
        for (i, w) in self.windows.iter().enumerate() {
            if i % step != 0 && i + 1 != self.windows.len() {
                continue;
            }
            let mut row = vec![format!("{i}"), format!("{}", w.t), w.run.clone()];
            for c in &cols {
                row.push(match w.counters.get(*c) {
                    Some(v) => format!("{v:.0}"),
                    None => "-".to_string(),
                });
            }
            t.row(row);
        }
        let mut out = t.render();
        out.push('\n');
        if self.counter_keys.len() > cols.len() {
            out.push_str(&format!(
                "({} more counter series not shown)\n",
                self.counter_keys.len() - cols.len()
            ));
        }
        if !self.gauge_keys.is_empty() {
            out.push_str(&format!("gauges: {}\n", self.gauge_keys.join(", ")));
        }
        if self.anomalies.is_empty() {
            out.push_str("anomalies: none\n");
        } else {
            out.push_str(&format!("anomalies: {}\n", self.anomalies.len()));
            for a in &self.anomalies {
                out.push_str(&format!("  ! {a}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t: u64, hits: &str) -> String {
        format!(
            "{{\"v\":1,\"type\":\"window\",\"run\":\"T\",\"t\":{t},\"counters\":{{\"hits\":{hits},\"messages\":100}},\"gauges\":{{\"online\":50}}}}"
        )
    }

    #[test]
    fn sniffs_timelines_vs_traces() {
        assert!(is_timeline(&record(1000, "5")));
        assert!(!is_timeline("{\"v\":1,\"type\":\"issue\",\"t\":0}"));
        assert!(!is_timeline("not json"));
        assert!(!is_timeline(""));
    }

    #[test]
    fn summarises_clean_timeline() {
        let src = [record(1000, "5"), record(2000, "6"), record(3000, "7")].join("\n");
        let s = summarize_timeline(&src).unwrap();
        assert_eq!(s.window_count(), 3);
        assert!(s.anomalies().is_empty(), "{:?}", s.anomalies());
        let out = s.render();
        assert!(out.contains("hits"), "{out}");
        assert!(out.contains("anomalies: none"), "{out}");
    }

    #[test]
    fn flags_zero_traffic_null_values_and_spikes() {
        let src = [
            record(1000, "10"),
            record(2000, "0").replace("\"messages\":100", "\"messages\":0"),
            record(3000, "500"),
            record(4000, "10").replace("\"online\":50", "\"online\":null"),
        ]
        .join("\n");
        let s = summarize_timeline(&src).unwrap();
        let text = s.anomalies().join("\n");
        assert!(text.contains("zero traffic"), "{text}");
        assert!(text.contains("spike in `hits`"), "{text}");
        assert!(text.contains("non-finite value for `online`"), "{text}");
    }

    #[test]
    fn flags_non_monotonic_timestamps() {
        let src = [record(2000, "5"), record(1000, "5")].join("\n");
        let s = summarize_timeline(&src).unwrap();
        assert!(
            s.anomalies().iter().any(|a| a.contains("non-monotonic")),
            "{:?}",
            s.anomalies()
        );
    }

    #[test]
    fn rejects_unknown_types_and_versions() {
        let bad_type = "{\"v\":1,\"type\":\"mystery\",\"t\":0}";
        assert!(summarize_timeline(bad_type)
            .unwrap_err()
            .contains("unknown record type"));
        let bad_ver = "{\"v\":9,\"type\":\"window\",\"t\":0}";
        assert!(summarize_timeline(bad_ver)
            .unwrap_err()
            .contains("unsupported schema version"));
        assert!(summarize_timeline("").is_err());
    }
}
