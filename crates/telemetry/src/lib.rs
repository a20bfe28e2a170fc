//! # ddr-telemetry — structured observability for the framework
//!
//! Four pillars, each usable on its own:
//!
//! * **Query-lifecycle tracing** — a [`QueryTracer`] embedded in each
//!   scenario world records sampled per-query spans (issue → hops →
//!   duplicate drops → first result → terminal hit/miss/timeout) through
//!   a [`TraceSink`]. Sinks are selected at *compile time* via a generic
//!   parameter on the world: the default [`NullSink`] has
//!   `ENABLED = false`, so every tracer call const-folds to nothing and
//!   the traced and untraced builds share one hot path. The runtime
//!   sink, [`JsonlSink`], buffers versioned (`"v":1`) JSONL records and
//!   appends them to the configured file.
//! * **Metrics timelines** — a [`MetricsRecorder`] samples whole-system
//!   counters and gauges into windowed JSONL records ([`JsonlMetrics`]
//!   writes `"v":1` timeline files; an unmetered run builds no
//!   recorder). Worlds report through the `ddr_sim::MetricsHub` hook;
//!   the [`timeline`] module summarises the files for `ddr inspect`.
//! * **Kernel profiling** — [`KernelProfiler`] implements
//!   `ddr_sim::KernelProbe`: per-event-type dispatch counts and
//!   wall-time histograms plus periodic calendar-queue statistics,
//!   rendered as an end-of-run report.
//! * **Trace inspection** — [`inspect::summarize`] parses a JSONL trace
//!   and produces the hop-depth distribution, per-hour hit/miss funnel,
//!   top-k slowest queries and span-completeness diagnostics printed by
//!   `ddr inspect`.
//!
//! Determinism: tracing only *observes*. A world built with `JsonlSink`
//! consumes exactly the same RNG streams and schedules exactly the same
//! events as one built with `NullSink`; the pinned-series regression
//! tests enforce this.

pub mod config;
pub mod inspect;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod timeline;
pub mod tracer;

pub use config::TelemetryConfig;
/// The fixed-width histogram fig3a reads; the serve monitor names it
/// through this crate rather than depending on `ddr-stats` itself.
pub use ddr_stats::Histogram;
pub use inspect::{summarize, TraceSummary};
pub use metrics::{JsonlMetrics, MetricsRecorder, MetricsSink, METRICS_SCHEMA_VERSION};
pub use profile::{shard_profile_report, KernelProfiler};
pub use sink::{JsonlSink, NullSink, TraceSink};
pub use timeline::{is_timeline, summarize_timeline, TimelineSummary};
pub use tracer::{QueryTracer, TraceOutcome};

/// Schema version stamped on every trace record (`"v":1`).
pub const TRACE_SCHEMA_VERSION: u64 = 1;
