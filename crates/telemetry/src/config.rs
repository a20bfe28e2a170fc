//! Runtime telemetry configuration, embedded in every scenario config so
//! `Scenario::build` can construct the world's sink without widening the
//! `Scenario` trait.

use std::path::PathBuf;

/// Where and how densely to trace. The *whether* is decided at compile
/// time by the world's [`crate::TraceSink`] parameter; this struct only
/// parameterises an enabled sink, so a default (`trace_path: None`)
/// config plus the default `NullSink` world is exactly the pre-telemetry
/// behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// JSONL output path for [`crate::JsonlSink`]. `None` discards.
    pub trace_path: Option<PathBuf>,
    /// Trace the queries of every N-th node, those whose index is a
    /// multiple of N (1 = every query, 0 treated as 1).
    pub sample: u64,
    /// Label stamped on each record (`"run"`), distinguishing e.g. the
    /// static and dynamic configs sharing one trace file.
    pub run_label: &'static str,
    /// JSONL output path for the metrics timeline
    /// ([`crate::JsonlMetrics`]). `None` discards. Independent of
    /// `trace_path`: a run can trace spans, sample metrics, both, or
    /// neither.
    pub metrics_path: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_path: None,
            sample: 1,
            run_label: "",
            metrics_path: None,
        }
    }
}

impl TelemetryConfig {
    /// The sampling modulus, never zero.
    pub fn sample_every(&self) -> u64 {
        self.sample.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_sample_never_zero() {
        let c = TelemetryConfig::default();
        assert!(c.trace_path.is_none());
        assert_eq!(c.sample_every(), 1);
        let z = TelemetryConfig {
            sample: 0,
            ..TelemetryConfig::default()
        };
        assert_eq!(z.sample_every(), 1);
    }
}
