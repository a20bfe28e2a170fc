//! What `BENCHMARK.json` declares, compiled in so `--check` and `compare`
//! judge against the file this build was made from, whatever the working
//! directory.

use serde::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct DeclaredMetric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the runner reads back.
#[derive(Debug, Clone)]
pub struct Declared {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<DeclaredMetric>,
    pub per_layer: Vec<DeclaredMetric>,
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        other => Err(format!("`{key}` should be a string, got {other:?}")),
    }
}

fn list<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match v.get(key) {
        Some(Value::Arr(items)) => Ok(items),
        other => Err(format!("`{key}` should be an array, got {other:?}")),
    }
}

fn metric(v: &Value) -> Result<DeclaredMetric, String> {
    let better = text(v, "better")?;
    Ok(DeclaredMetric {
        name: text(v, "name")?,
        unit: text(v, "unit")?,
        lower_is_better: match better.as_str() {
            "lower" => true,
            "higher" => false,
            other => return Err(format!("`better` is `{other}`, not lower/higher")),
        },
        bound: v.get("bound").and_then(Value::as_f64),
    })
}

/// Parse a `BENCHMARK.json` document.
pub fn parse(src: &str) -> Result<Declared, String> {
    let doc = json::parse(src).map_err(|e| format!("{e:?}"))?;
    Ok(Declared {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("`run_seconds` should be a number")?,
        workloads: list(&doc, "workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: list(&doc, "end_to_end")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
        per_layer: list(&doc, "per_layer")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
    })
}

/// The declaration this binary was built against.
pub fn load() -> Declared {
    parse(BENCHMARK_JSON).expect("BENCHMARK.json at the repository root is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_declaration_parses_and_carries_bounds() {
        let d = load();
        assert!(d.run_seconds >= 1.0);
        assert!(d.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(d
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.lower_is_better));
    }

    #[test]
    fn malformed_declarations_are_diagnosed() {
        assert!(parse("{}").is_err());
        let bad = r#"{"run_seconds":8,"workloads":[],"end_to_end":
            [{"name":"x","unit":"s","better":"sideways","bound":0.1}],"per_layer":[]}"#;
        assert!(parse(bad).unwrap_err().contains("sideways"));
    }
}
