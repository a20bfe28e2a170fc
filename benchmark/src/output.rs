//! Printing a run: one line per metric for people, then the one-line JSON
//! object the acceptance driver reads.

use crate::names;
use crate::runner::RunResult;
use std::fmt::Write as _;

/// The names (with units) a run in this mode reports to the driver.
pub fn reported(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        names::per_layer()
    } else {
        names::END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect()
    }
}

/// Human-readable lines: every metric that applies to the workload, the
/// spread behind the per-repetition ones, and every failed check.
pub fn human(header: &str, result: &RunResult, traced: bool) -> String {
    let units = reported(traced);
    let mut out = format!("# {header}\n");
    for (name, value) in &result.metrics {
        let unit = units
            .iter()
            .find(|(n, _)| n == name)
            .map_or("?", |(_, u)| u);
        write!(out, "{name:<44} {value:>18.6} {unit}").expect("write to String");
        if let Some((_, s)) = result.summaries.iter().find(|(n, _)| n == name) {
            write!(
                out,
                "   [n={} min={:.6} q1={:.6} median={:.6} q3={:.6}]",
                s.n, s.min, s.q1, s.median, s.q3
            )
            .expect("write to String");
        }
        out.push('\n');
    }
    if let Some(host) = &result.host {
        let s = host.slowdown;
        write!(
            out,
            "# host: yardstick slowdown median={:.3} q1={:.3} q3={:.3} n={}; unadjusted:",
            s.median, s.q1, s.q3, s.n
        )
        .expect("write to String");
        for (name, value) in &host.unadjusted {
            write!(out, " {name}={value:.6}").expect("write to String");
        }
        out.push('\n');
    }
    if let (Some(events), Some(digest)) = (result.events, result.digest) {
        writeln!(out, "# simulated: events={events} digest={digest:#018x}")
            .expect("write to String");
    }
    writeln!(
        out,
        "# ops: attempted={} failed={} correct={}",
        result.attempted, result.failed, result.correct
    )
    .expect("write to String");
    for d in &result.diagnoses {
        writeln!(out, "# CHECK FAILED {d}").expect("write to String");
    }
    out
}

/// The `"metrics"` object: every name the mode reports, in declaration
/// order. A per-layer metric of a layer the workload bypasses reads 0 —
/// no events of that kind, no time spent there.
fn metrics_json(result: &RunResult, traced: bool) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in reported(traced).iter().enumerate() {
        let value = result
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        if i > 0 {
            out.push(',');
        }
        write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            .expect("write to String");
    }
    out.push('}');
    out
}

/// A run is correct only if every reported value is a finite number too.
pub fn all_finite(result: &RunResult) -> bool {
    result.metrics.iter().all(|(_, v)| v.is_finite())
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn driver_json(result: &RunResult, traced: bool) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        result.correct && all_finite(result),
        result.attempted.max(1),
        result.failed,
        metrics_json(result, traced)
    )
}

/// One `--record` line: the driver's fields plus what `compare` needs to
/// pair runs up and to check that simulated statistics repeat.
pub fn record_json(workload: &str, seed: u64, traced: bool, result: &RunResult) -> String {
    let exact = match (result.events, result.digest) {
        (Some(events), Some(digest)) => {
            format!(",\"events\":{events},\"digest\":\"{digest:#018x}\"")
        }
        _ => String::new(),
    };
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{}{exact},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        traced as u8,
        result.correct && all_finite(result),
        result.attempted.max(1),
        result.failed,
        metrics_json(result, traced)
    )
}
