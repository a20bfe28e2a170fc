//! Trace sinks: where span records go.
//!
//! The sink is a *type* parameter of the scenario worlds, defaulting to
//! [`NullSink`]. Monomorphisation makes the off-state free: every
//! [`crate::QueryTracer`] method begins with
//! `if !T::ENABLED { return; }`, which the compiler folds away for
//! `NullSink`, leaving the untraced build byte-for-byte on the same hot
//! path it had before telemetry existed.

use crate::config::TelemetryConfig;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

/// A destination for JSONL trace lines.
pub trait TraceSink {
    /// Whether this sink records anything. `false` lets the tracer's
    /// guard const-fold every call site to a no-op.
    const ENABLED: bool;

    /// Build the sink from the run's telemetry configuration.
    fn create(cfg: &TelemetryConfig) -> Self;

    /// Accept one complete JSON record (no trailing newline).
    fn write_line(&mut self, line: &str);

    /// Persist anything buffered.
    fn flush(&mut self) {}
}

/// The compile-time-off sink: records nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    fn create(_cfg: &TelemetryConfig) -> Self {
        NullSink
    }

    fn write_line(&mut self, _line: &str) {}
}

/// Paths some [`JsonlFile`] has already written to in this process. The
/// first flush to a path truncates it; later flushes (same world growing
/// its trace, or the parallel sweep's other worlds sharing one file)
/// append. The lock is held across the file write so concurrently
/// flushed buffers never interleave mid-line.
static OPENED: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// The buffered JSONL file behind [`JsonlSink`] and the metrics layer's
/// `JsonlMetrics`. Worlds run on sweep worker threads, so lines
/// accumulate in memory and reach the file in whole-buffer appends; the
/// buffer drains when it exceeds ~1 MiB and on drop. Without a path every
/// line is discarded.
#[derive(Debug)]
pub(crate) struct JsonlFile {
    path: Option<PathBuf>,
    buf: String,
}

impl JsonlFile {
    pub(crate) fn new(path: Option<PathBuf>) -> Self {
        JsonlFile {
            path,
            buf: String::new(),
        }
    }

    /// Buffer one complete JSON record (no trailing newline).
    pub(crate) fn push_line(&mut self, line: &str) {
        if self.path.is_none() {
            return;
        }
        self.buf.push_str(line);
        self.buf.push('\n');
        if self.buf.len() >= 1 << 20 {
            self.flush();
        }
    }

    /// Drain the buffer into the file with truncate-once-then-append
    /// semantics (shared across every sink type in the process: the
    /// first writer of a path this process sees truncates stale content,
    /// later writers append).
    pub(crate) fn flush(&mut self) {
        let Some(path) = &self.path else {
            return;
        };
        if self.buf.is_empty() {
            return;
        }
        let mut opened = OPENED.lock().unwrap_or_else(|e| e.into_inner());
        let fresh = !opened.iter().any(|p| p == path);
        let result = if fresh {
            opened.push(path.clone());
            std::fs::write(path, self.buf.as_bytes())
        } else {
            std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(self.buf.as_bytes()))
        };
        if let Err(e) = result {
            eprintln!("[telemetry] cannot write {}: {e}", path.display());
        }
        self.buf.clear();
    }
}

impl Drop for JsonlFile {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A buffered JSONL trace file sink, pointed at
/// [`TelemetryConfig::trace_path`].
#[derive(Debug)]
pub struct JsonlSink(JsonlFile);

impl TraceSink for JsonlSink {
    const ENABLED: bool = true;

    fn create(cfg: &TelemetryConfig) -> Self {
        JsonlSink(JsonlFile::new(cfg.trace_path.clone()))
    }

    fn write_line(&mut self, line: &str) {
        self.0.push_line(line);
    }

    fn flush(&mut self) {
        self.0.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ddr_sink_{}_{name}.jsonl", std::process::id()))
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        let mut s = NullSink::create(&TelemetryConfig::default());
        s.write_line("{}");
        s.flush();
    }

    #[test]
    fn jsonl_sink_truncates_then_appends() {
        let path = tmp("trunc");
        std::fs::write(&path, "stale\n").unwrap();
        let cfg = TelemetryConfig {
            trace_path: Some(path.clone()),
            ..TelemetryConfig::default()
        };
        let mut a = JsonlSink::create(&cfg);
        a.write_line("{\"a\":1}");
        a.flush();
        let mut b = JsonlSink::create(&cfg);
        b.write_line("{\"b\":2}");
        drop(b); // drop flushes
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n", "stale content must go");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pathless_jsonl_sink_discards() {
        let mut s = JsonlSink::create(&TelemetryConfig::default());
        s.write_line("{\"x\":1}");
        s.flush();
        assert!(s.0.buf.is_empty());
    }
}
