//! `compare A B`: hold two recorded result sets against the per-metric
//! bounds of `BENCHMARK.json`.
//!
//! A result set is a `--record` file: one JSON line per run. Used for
//! the A/A acceptance of the benchmark itself (two sets of the same
//! commit) and later for parent against change. One row per workload ×
//! end-to-end metric, each judged on its own; no combined score.

use crate::declared::{Declared, DeclaredMetric};
use crate::names::is_exact_count;
use crate::stats::{summarize, Summary};
use serde::json::{self, Value};
use std::fmt::Write as _;

/// One recorded run.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub events: Option<u64>,
    pub digest: Option<String>,
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Parse one result set, one record per non-empty line.
pub fn parse_records(src: &str) -> Result<Vec<Record>, String> {
    src.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| parse_record(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

fn parse_record(line: &str) -> Result<Record, String> {
    let v = json::parse(line).map_err(|e| format!("{e:?}"))?;
    let number = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("`{key}` should be a number"))
    };
    let workload = match v.get("workload") {
        Some(Value::Str(s)) => s.clone(),
        _ => return Err("`workload` should be a string".into()),
    };
    let Some(Value::Obj(members)) = v.get("metrics") else {
        return Err("`metrics` should be an object".into());
    };
    let metrics = members
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|value| (name.clone(), value))
                .ok_or(format!("metric `{name}` has no numeric `value`"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Record {
        workload,
        seed: number("seed")? as u64,
        traced: number("trace")? != 0.0,
        events: v.get("events").and_then(Value::as_f64).map(|e| e as u64),
        digest: match v.get("digest") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        },
        metrics,
    })
}

/// How B stands against A on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread is wider than the bound, and B's runs do not
    /// all read better than A's.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × metric row of the comparison.
pub struct Row {
    pub verdict: Verdict,
    pub a: Summary,
    pub b: Summary,
    /// Change of the median from A to B, as a share of A's.
    pub change: f64,
}

/// Judge B's runs against A's under `metric`'s bound and direction.
pub fn judge(metric: &DeclaredMetric, a: &[f64], b: &[f64]) -> Row {
    let (sa, sb) = (summarize(a), summarize(b));
    let bound = metric.bound.unwrap_or(0.0);
    // Signed change of the median, as a share of A's; worsening is the
    // same with the metric's direction applied.
    let change = (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
    let worsening = if metric.lower_is_better {
        change
    } else {
        -change
    };
    let every_b_beats_every_a = if metric.lower_is_better {
        b.iter().all(|y| a.iter().all(|x| y < x))
    } else {
        b.iter().all(|y| a.iter().all(|x| y > x))
    };
    // The acceptance driver judges `setup_s` on its medians alone: a
    // millisecond of allocation repeats too coarsely for its spread to
    // say anything.
    let spread_gates = metric.name != "setup_s";
    let verdict = if spread_gates && sa.spread().max(sb.spread()) > bound {
        if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row {
        verdict,
        a: sa,
        b: sb,
        change,
    }
}

/// The comparison table and whether B is acceptable against A.
pub struct Comparison {
    pub table: String,
    pub acceptable: bool,
}

/// Compare two result sets.
pub fn compare(declared: &Declared, a: &[Record], b: &[Record]) -> Comparison {
    let mut table = String::new();
    let mut acceptable = true;
    writeln!(
        table,
        "{:<15} {:<20} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "change", "bound"
    )
    .expect("write to String");
    let series = |set: &[Record], workload: &str, name: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| !r.traced && r.workload == workload)
            .filter_map(|r| r.metric(name))
            .collect()
    };
    for workload in &declared.workloads {
        for metric in &declared.end_to_end {
            let (va, vb) = (
                series(a, workload, &metric.name),
                series(b, workload, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                acceptable = false;
                writeln!(
                    table,
                    "{workload:<15} {:<20} missing from {}",
                    metric.name,
                    if va.is_empty() { "A" } else { "B" }
                )
                .expect("write to String");
                continue;
            }
            let row = judge(metric, &va, &vb);
            acceptable &= matches!(row.verdict, Verdict::Same | Verdict::Better);
            writeln!(
                table,
                "{workload:<15} {:<20} {:>14.4} {:>7.2}% {:>14.4} {:>7.2}% {:>+7.2}% {:>5.0}%  {}",
                metric.name,
                row.a.median,
                row.a.spread() * 100.0,
                row.b.median,
                row.b.spread() * 100.0,
                row.change * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                row.verdict.label()
            )
            .expect("write to String");
        }
    }

    // Simulated statistics are exact: the same (workload, seed, mode)
    // must read identically on both sides.
    for ra in a {
        for rb in b
            .iter()
            .filter(|rb| rb.workload == ra.workload && rb.seed == ra.seed && rb.traced == ra.traced)
        {
            let mut diverged = Vec::new();
            if ra.events != rb.events {
                diverged.push(format!("events {:?} vs {:?}", ra.events, rb.events));
            }
            if ra.digest != rb.digest {
                diverged.push(format!("digest {:?} vs {:?}", ra.digest, rb.digest));
            }
            for (name, x) in ra.metrics.iter().filter(|(n, _)| is_exact_count(n)) {
                if rb.metric(name) != Some(*x) {
                    diverged.push(format!("{name} {x} vs {:?}", rb.metric(name)));
                }
            }
            if !diverged.is_empty() {
                acceptable = false;
                writeln!(
                    table,
                    "{:<15} seed {} trace {}: diverged — {}",
                    ra.workload,
                    ra.seed,
                    ra.traced as u8,
                    diverged.join(", ")
                )
                .expect("write to String");
            }
        }
    }
    Comparison { table, acceptable }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower: bool, bound: f64) -> DeclaredMetric {
        DeclaredMetric {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let m = metric(true, 0.10);
        assert_eq!(judge(&m, &a, &a).verdict, Verdict::Same);
        assert_eq!(judge(&m, &a, &slower).verdict, Verdict::Worse);
        assert_eq!(judge(&m, &slower, &a).verdict, Verdict::Better);
        // The same numbers as a rate: higher is better.
        let rate = metric(false, 0.10);
        assert_eq!(judge(&rate, &a, &slower).verdict, Verdict::Better);
        assert_eq!(judge(&rate, &slower, &a).verdict, Verdict::Worse);
        // Spread wider than the bound: unresolved, unless B wins every pairing.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&m, &noisy, &a).verdict, Verdict::Unresolved);
        let far = [10.0, 11.0, 12.0];
        assert_eq!(judge(&m, &noisy, &far).verdict, Verdict::Better);
        // `setup_s` is judged on its medians whatever its spread.
        let setup = DeclaredMetric {
            name: "setup_s".into(),
            ..metric(true, 0.10)
        };
        assert_eq!(judge(&setup, &noisy, &a).verdict, Verdict::Same);
    }

    #[test]
    fn records_round_trip_and_divergence_is_caught() {
        let line = |digest: &str, v: f64| {
            format!(
                "{{\"workload\":\"w\",\"seed\":7,\"trace\":0,\"events\":10,\"digest\":\"{digest}\",\
                 \"correct\":true,\"attempted\":3,\"failed\":0,\
                 \"metrics\":{{\"m\":{{\"value\":{v},\"unit\":\"s\"}}}}}}"
            )
        };
        let a = parse_records(&line("0x1", 1.0)).unwrap();
        assert_eq!(a[0].metric("m"), Some(1.0));
        assert_eq!((a[0].seed, a[0].traced, a[0].events), (7, false, Some(10)));
        let declared = Declared {
            run_seconds: 1.0,
            workloads: vec!["w".into()],
            end_to_end: vec![metric(true, 0.1)],
            per_layer: vec![],
        };
        assert!(compare(&declared, &a, &a).acceptable);
        let b = parse_records(&line("0x2", 1.0)).unwrap();
        let c = compare(&declared, &a, &b);
        assert!(!c.acceptable && c.table.contains("diverged"), "{}", c.table);
        assert!(parse_records("{\"workload\":1}").is_err());
    }
}
