//! In-memory tracing for the traced run: spans at layer boundaries and
//! per-label handler totals from the kernel's probe hook.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the crates under test is touched. The
//! same `begin`/`end` pair times the untraced run (the span is simply not
//! kept), so traced and untraced repetitions execute identical code
//! around the measured call.

use ddr_sim::{KernelProbe, QueueSample};
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: `[start_ns, end_ns)` since the tracer's origin,
/// nested under `parent` (an index into the span list).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// Handle for a span that is still open.
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Span recorder. Disabled, it keeps nothing and `end` still returns the
/// elapsed time.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Repetition stamped on new spans.
    pub rep: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Close `open` and return its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(
                self.stack.pop(),
                Some(index),
                "spans must close innermost first"
            );
            self.spans[index].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (end - open.start).as_secs_f64()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_time_ns(&self, index: usize) -> u64 {
        let total = self.spans[index].end_ns - self.spans[index].start_ns;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        total.saturating_sub(children)
    }

    /// Append every span as one JSONL record to `out`.
    pub fn write_jsonl(&self, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"rep\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.rep,
                self.self_time_ns(i)
            )
            .expect("write to String");
        }
    }
}

/// Dispatch count and wall time inside `World::handle` for one label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandlerTotals {
    pub count: u64,
    pub ns: u64,
}

/// The benchmark's [`KernelProbe`]: per-label handler totals, snapshotted
/// once per simulated hour so the trace shows how the event mix drifts
/// without storing 10⁷ spans.
#[derive(Default)]
pub struct LabelProbe {
    current: Vec<(&'static str, HandlerTotals)>,
    hours: Vec<Vec<(&'static str, HandlerTotals)>>,
}

impl LabelProbe {
    /// Close the current simulated hour.
    pub fn end_hour(&mut self) {
        let hour = self.current.clone();
        for (_, t) in &mut self.current {
            *t = HandlerTotals::default();
        }
        self.hours.push(hour);
    }

    /// Totals per label over all closed hours, in first-seen order.
    pub fn totals(&self) -> Vec<(&'static str, HandlerTotals)> {
        let mut out: Vec<(&'static str, HandlerTotals)> = Vec::new();
        for hour in &self.hours {
            for &(label, t) in hour {
                match out.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, acc)) => {
                        acc.count += t.count;
                        acc.ns += t.ns;
                    }
                    None => out.push((label, t)),
                }
            }
        }
        out
    }

    /// Append one JSONL record per (simulated hour, label) to `out`.
    pub fn write_jsonl(&self, world: &str, out: &mut String) {
        for (hour, labels) in self.hours.iter().enumerate() {
            for (label, t) in labels.iter().filter(|(_, t)| t.count > 0) {
                writeln!(
                    out,
                    "{{\"type\":\"handler\",\"world\":\"{world}\",\"sim_hour\":{hour},\
                     \"label\":\"{label}\",\"count\":{},\"ns\":{}}}",
                    t.count, t.ns
                )
                .expect("write to String");
            }
        }
    }
}

impl KernelProbe for LabelProbe {
    #[inline]
    fn on_dispatch(&mut self, label: &'static str, wall_ns: u64) {
        // A world has at most 14 labels and a few dominate, so a linear
        // scan comparing the (interned) pointers first beats hashing.
        let slot = self
            .current
            .iter_mut()
            .find(|(l, _)| std::ptr::eq(*l, label) || *l == label);
        let totals = match slot {
            Some((_, t)) => t,
            None => {
                self.current.push((label, HandlerTotals::default()));
                &mut self.current.last_mut().expect("just pushed").1
            }
        };
        totals.count += 1;
        totals.ns += wall_ns;
    }

    fn on_queue_sample(&mut self, _sample: QueueSample) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("run");
        let inner = tr.begin("hour");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(tr.end(inner) >= 0.002);
        tr.end(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let child = spans[1].end_ns - spans[1].start_ns;
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(tr.self_time_ns(0), total - child);
        let mut out = String::new();
        tr.write_jsonl(&mut out);
        assert_eq!(out.lines().count(), 2);
        assert!(serde::json::parse(out.lines().next().unwrap()).is_ok());
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.begin("build");
        assert!(tr.end(open) >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn probe_totals_add_up_across_hours() {
        let mut p = LabelProbe::default();
        p.on_dispatch("A", 10);
        p.on_dispatch("B", 5);
        p.end_hour();
        p.on_dispatch("A", 7);
        p.end_hour();
        let totals = p.totals();
        assert_eq!(totals[0], ("A", HandlerTotals { count: 2, ns: 17 }));
        assert_eq!(totals[1], ("B", HandlerTotals { count: 1, ns: 5 }));
        let mut out = String::new();
        p.write_jsonl("toy", &mut out);
        // Hour 1 has no "B" dispatches, so only three records.
        assert_eq!(out.lines().count(), 3);
    }
}
