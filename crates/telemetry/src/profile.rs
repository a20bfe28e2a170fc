//! Kernel profiling: a recording [`ddr_sim::KernelProbe`].
//!
//! Attached to a run via `Simulation::run_probed`, the profiler keeps a
//! per-event-type dispatch count, total wall time and a microsecond
//! wall-time histogram, plus running statistics over the calendar
//! queue's periodic occupancy samples. The probe sits outside the
//! `World` — the simulated system never observes it, so a profiled run
//! is event-for-event identical to an unprofiled one.

use ddr_sim::{KernelProbe, QueueSample};
use ddr_stats::table::fnum;
use ddr_stats::{Histogram, RunningStats, Table};
use std::collections::BTreeMap;

/// Dispatch-time histogram geometry: 1 µs buckets up to 64 µs. Handler
/// bodies in this codebase run well under a microsecond on average, so
/// the interesting tail fits; anything slower lands in overflow and is
/// reported as such.
const HIST_BUCKET_NS: f64 = 1_000.0;
const HIST_BINS: usize = 64;

#[derive(Debug, Clone)]
struct LabelStats {
    count: u64,
    total_ns: u64,
    wall: Histogram,
}

impl LabelStats {
    fn new() -> Self {
        LabelStats {
            count: 0,
            total_ns: 0,
            wall: Histogram::new(HIST_BUCKET_NS, HIST_BINS),
        }
    }
}

/// Accumulates per-event-type dispatch statistics and calendar-queue
/// occupancy over the runs it probes (one profiler follows a whole batch
/// run in sequence).
#[derive(Debug, Clone, Default)]
pub struct KernelProfiler {
    // BTreeMap so the report row order is label-sorted, not insertion- or
    // hash-ordered: profiles of different runs diff cleanly.
    by_label: BTreeMap<&'static str, LabelStats>,
    pending: RunningStats,
    overflow: RunningStats,
    occupied: RunningStats,
    migrations: u64,
    retained_slots: usize,
    samples: u64,
}

impl KernelProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total events dispatched while this profiler was attached.
    pub fn dispatches(&self) -> u64 {
        self.by_label.values().map(|s| s.count).sum()
    }

    /// Number of distinct event types observed.
    pub fn event_types(&self) -> usize {
        self.by_label.len()
    }

    /// Number of periodic queue samples taken.
    pub fn queue_samples(&self) -> u64 {
        self.samples
    }

    /// The end-of-run report: a dispatch table (one row per event type,
    /// sorted by label) and a queue-occupancy table.
    pub fn report(&self) -> Vec<Table> {
        let mut dispatch = Table::new(
            "kernel dispatch profile (calendar-queue)",
            &[
                "event", "count", "total ms", "mean us", "p50 us", "p99 us", ">64 us",
            ],
        );
        for (label, s) in &self.by_label {
            let mean_us = if s.count == 0 {
                0.0
            } else {
                s.total_ns as f64 / s.count as f64 / 1_000.0
            };
            dispatch.row(vec![
                (*label).to_string(),
                s.count.to_string(),
                fnum(s.total_ns as f64 / 1e6, 2),
                fnum(mean_us, 3),
                fnum(s.wall.quantile(0.5) / 1_000.0, 1),
                fnum(s.wall.quantile(0.99) / 1_000.0, 1),
                s.wall.overflow().to_string(),
            ]);
        }

        let mut queue = Table::new(
            format!("calendar-queue occupancy ({} samples)", self.samples),
            &["metric", "mean", "min", "max"],
        );
        for (name, st) in [
            ("pending events", &self.pending),
            ("overflow heap", &self.overflow),
            ("occupied buckets", &self.occupied),
        ] {
            let (min, max) = if st.count() == 0 {
                (0.0, 0.0)
            } else {
                (st.min(), st.max())
            };
            queue.row(vec![
                name.to_string(),
                fnum(st.mean(), 1),
                fnum(min, 0),
                fnum(max, 0),
            ]);
        }
        // Allocated capacity, under the max column next to peak pending:
        // the queue recycles bucket buffers, so the two stay within a
        // small factor; a large gap is retained memory nobody uses.
        queue.row(vec![
            "retained slots".to_string(),
            String::new(),
            String::new(),
            self.retained_slots.to_string(),
        ]);
        queue.row(vec![
            "overflow migrations".to_string(),
            self.migrations.to_string(),
            String::new(),
            String::new(),
        ]);

        vec![dispatch, queue]
    }

    /// The report rendered as one printable string.
    pub fn render(&self) -> String {
        self.report()
            .iter()
            .map(|t| t.render())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Render a sharded-kernel [`ddr_sim::ShardProfile`] as the per-shard
/// work/barrier/merge breakdown behind `--profile --shards N`. `threads`
/// says which execution path produced it: with one worker thread the
/// barrier/stall columns are structurally zero (the serial reference
/// path has no barriers), so the report points the reader at the merge
/// and work columns instead.
pub fn shard_profile_report(p: &ddr_sim::ShardProfile, threads: usize) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut t = Table::new(
        format!(
            "Sharded-kernel profile: {} shards, {} windows, {} worker thread(s)",
            p.lanes.len(),
            p.windows,
            threads
        ),
        &[
            "shard",
            "events",
            "ev/win",
            "max ev/win",
            "work ms",
            "barrier ms",
            "stall ms",
            "busy %",
        ],
    );
    for lane in &p.lanes {
        let busy_den = (lane.work_ns + lane.barrier_ns + lane.stall_ns) as f64;
        let busy = if busy_den > 0.0 {
            100.0 * lane.work_ns as f64 / busy_den
        } else {
            0.0
        };
        t.row(vec![
            lane.shard.to_string(),
            fnum(lane.events as f64, 0),
            fnum(lane.events as f64 / (p.windows.max(1)) as f64, 1),
            fnum(lane.max_window_events as f64, 0),
            fnum(ms(lane.work_ns), 1),
            fnum(ms(lane.barrier_ns), 1),
            fnum(ms(lane.stall_ns), 1),
            fnum(busy, 1),
        ]);
    }
    let total_events: u64 = p.lanes.iter().map(|l| l.events).sum();
    let total_work: u64 = p.lanes.iter().map(|l| l.work_ns).sum();
    let cross_pct = if p.merged_events > 0 {
        100.0 * p.cross_shard_events as f64 / p.merged_events as f64
    } else {
        0.0
    };
    let mut out = t.render();
    out.push('\n');
    out.push_str(&format!(
        "coordinator: merge {} ms over {} windows ({} merged events, {} cross-shard = {}%)\n",
        fnum(ms(p.merge_ns), 1),
        p.windows,
        fnum(p.merged_events as f64, 0),
        fnum(p.cross_shard_events as f64, 0),
        fnum(cross_pct, 1),
    ));
    out.push_str(&format!(
        "totals: {} events, {} ms work across shards, {} ms merge (serialized)\n",
        fnum(total_events as f64, 0),
        fnum(ms(total_work), 1),
        fnum(ms(p.merge_ns), 1),
    ));
    out
}

impl KernelProbe for KernelProfiler {
    fn on_dispatch(&mut self, label: &'static str, wall_ns: u64) {
        let s = self.by_label.entry(label).or_insert_with(LabelStats::new);
        s.count += 1;
        s.total_ns += wall_ns;
        s.wall.record(wall_ns as f64);
    }

    fn on_queue_sample(&mut self, sample: QueueSample) {
        self.samples += 1;
        self.pending.record(sample.pending as f64);
        self.overflow.record(sample.overflow as f64);
        self.occupied.record(sample.occupied_buckets as f64);
        self.migrations = self.migrations.max(sample.migrations);
        self.retained_slots = self.retained_slots.max(sample.retained_slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_accumulates_and_reports() {
        let mut p = KernelProfiler::new();
        p.on_dispatch("IssueQuery", 500);
        p.on_dispatch("IssueQuery", 1_500);
        p.on_dispatch("QueryArrive", 250);
        p.on_queue_sample(QueueSample {
            pending: 10,
            overflow: 2,
            occupied_buckets: 4,
            migrations: 1,
            retained_slots: 16,
        });
        assert_eq!(p.dispatches(), 3);
        assert_eq!(p.event_types(), 2);
        assert_eq!(p.queue_samples(), 1);
        let tables = p.report();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 2, "one row per event type");
        let text = p.render();
        assert!(text.contains("IssueQuery"));
        assert!(text.contains("calendar-queue occupancy"));
        assert!(text.contains("retained slots"));
    }

    #[test]
    fn report_rows_are_label_sorted() {
        let mut p = KernelProfiler::new();
        p.on_dispatch("Zeta", 1);
        p.on_dispatch("Alpha", 1);
        let text = p.report()[0].render();
        let a = text.find("Alpha").unwrap();
        let z = text.find("Zeta").unwrap();
        assert!(a < z);
    }

    #[test]
    fn empty_profiler_renders_without_panicking() {
        let p = KernelProfiler::new();
        let text = p.render();
        assert!(text.contains("0 samples"));
    }
}
