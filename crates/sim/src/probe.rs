//! Kernel-instrumentation hooks for [`crate::Simulation::run_probed`].
//!
//! [`crate::Simulation::run`] is the measured hot path and carries no
//! instrumentation. Profiling runs call `run_probed`, which drives the
//! same dispatch loop with the handler call wrapped in a label and a
//! timer, and reports every dispatch (event-type label + wall time) and
//! periodic calendar-queue statistics to a [`KernelProbe`].
//! The recording implementation lives downstream in `ddr-telemetry`; this
//! module only defines the contract so the kernel stays dependency-free.

/// Events that can name their variant for per-type profiling. Labels must
/// be `'static` so the probe can key histograms without allocating on the
/// dispatch path.
pub trait EventLabel {
    /// A short static name for this event's variant (e.g. `"QueryArrive"`).
    fn label(&self) -> &'static str;
}

impl EventLabel for () {
    fn label(&self) -> &'static str {
        "()"
    }
}

/// Snapshot of the calendar queue's internals, sampled periodically by
/// the probed driver loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSample {
    /// Total pending events (wheel + overflow).
    pub pending: usize,
    /// Events parked in the far-future overflow heap.
    pub overflow: usize,
    /// Non-empty wheel buckets.
    pub occupied_buckets: usize,
    /// Cumulative overflow → wheel migrations so far.
    pub migrations: u64,
    /// Entry slots the queue holds allocated
    /// ([`crate::EventQueue::retained_slots`]).
    pub retained_slots: usize,
}

/// Receiver of kernel profiling data. Implementations must not mutate
/// anything the simulation observes — probing a run never changes its
/// event sequence or its report.
pub trait KernelProbe {
    /// One event was dispatched: its variant label and the wall-clock
    /// nanoseconds spent inside `World::handle`.
    fn on_dispatch(&mut self, label: &'static str, wall_ns: u64);

    /// Periodic queue snapshot (every few thousand dispatches).
    fn on_queue_sample(&mut self, sample: QueueSample);
}
