//! The simulation driver loop.
//!
//! A simulation is a [`World`] (all mutable state plus an event handler)
//! attached to an [`EventQueue`]. The driver pops events in timestamp order
//! and dispatches them to the world, which may schedule follow-ups through
//! the [`Scheduler`] façade. This is the textbook event-scheduling world
//! view; it keeps the hot loop free of dynamic dispatch and allocation.

use crate::event::{EventQueue, Scheduler};
use crate::metrics::MetricsHub;
use crate::probe::{EventLabel, KernelProbe};
use crate::time::SimTime;

/// Simulation state + event semantics.
pub trait World {
    /// The event payload enum for this simulation.
    type Event;

    /// Handle one event at virtual time `now`, scheduling any follow-up
    /// events through `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);

    /// Hint that `next` is the event the driver will dispatch right
    /// after the one currently being handled. Worlds whose per-event
    /// state is scattered across large arrays (hundreds of nodes, each
    /// owning multi-KiB tables) can issue software prefetches for the
    /// state `next` will touch, overlapping that memory latency with the
    /// current event's work. Must not mutate anything observable — the
    /// default does nothing, and correctness never depends on it.
    #[inline]
    fn prefetch(&self, _next: &Self::Event) {}

    /// Report time-series metrics (counters as cumulative totals, gauges
    /// as instantaneous levels) into `hub`. Called by metered runners at
    /// sampling boundaries, between events — never mid-handler — so it
    /// observes only quiescent state and must not mutate anything. The
    /// default reports nothing.
    fn sample_metrics(&self, _now: SimTime, _hub: &mut MetricsHub) {}
}

/// Why a [`Simulation::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon.
    Exhausted,
    /// The next pending event lies at or beyond the horizon (it remains
    /// queued; the run can be resumed with a later horizon).
    ReachedHorizon,
    /// The configured event budget was hit (runaway-loop protection).
    EventBudgetExhausted,
}

/// A world bound to an event queue, plus bookkeeping.
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    processed: u64,
    event_budget: u64,
}

impl<W: World> Simulation<W> {
    /// Create a simulation over `world` with an empty queue.
    pub fn new(world: W) -> Self {
        Self::with_queue(world, EventQueue::new())
    }

    /// Create a simulation over `world` driving a pre-built (typically
    /// pre-primed and pre-sized) event queue. The scenario runners use
    /// this to prime worlds through [`EventQueue::with_capacity`] and
    /// hand the queue over without re-enqueueing every event.
    pub fn with_queue(world: W, queue: EventQueue<W::Event>) -> Self {
        Simulation {
            world,
            queue,
            processed: 0,
            event_budget: u64::MAX,
        }
    }

    /// Cap the total number of processed events; [`RunOutcome::EventBudgetExhausted`]
    /// is returned when the cap is hit. Useful in tests to bound runaway
    /// feedback loops (e.g. reconfiguration storms).
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Access the world immutably (for inspection between runs).
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consume the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of pending events (perf instrumentation).
    pub fn peak_pending(&self) -> usize {
        self.queue.peak_pending()
    }

    /// Seed the queue before (or between) runs.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        self.queue.schedule_at(at, event);
    }

    /// Run until the queue drains, the horizon is reached, or the event
    /// budget is exhausted. Events timestamped exactly at `horizon` are
    /// *not* processed (half-open interval `[now, horizon)`), which makes
    /// `run(h1); run(h2)` equivalent to `run(h2)` for `h1 <= h2`.
    pub fn run(&mut self, horizon: SimTime) -> RunOutcome {
        self.dispatch_until(horizon, |world, now, event, queue, _| {
            world.handle(now, event, &mut Scheduler::new(queue));
        })
    }

    /// Like [`run`](Self::run), but reporting every dispatch (event label
    /// and wall time inside `World::handle`) and a periodic queue snapshot
    /// to `probe`. Same loop, same event sequence, same final world; the
    /// label, the timer and the snapshot live in the closure passed here,
    /// so `run`'s instantiation of the loop stays timer-free.
    pub fn run_probed<P>(&mut self, horizon: SimTime, probe: &mut P) -> RunOutcome
    where
        W::Event: EventLabel,
        P: KernelProbe,
    {
        /// Dispatches between queue snapshots. A snapshot walks the wheel
        /// (`retained_slots`), so big wheels sample no more often than
        /// once per `wheel_buckets` dispatches: O(1) amortised per event.
        const SAMPLE_EVERY: u64 = 4_096;
        let sample_every = SAMPLE_EVERY.max(self.queue.wheel_buckets() as u64);
        // `processed` is the kernel's total, so the sampling cadence
        // carries across hour-by-hour calls.
        self.dispatch_until(horizon, |world, now, event, queue, processed| {
            let label = event.label();
            let start = std::time::Instant::now();
            world.handle(now, event, &mut Scheduler::new(queue));
            probe.on_dispatch(label, start.elapsed().as_nanos() as u64);
            if processed.is_multiple_of(sample_every) {
                probe.on_queue_sample(queue.sample());
            }
        })
    }

    /// The dispatch loop: pop in `(time, seq)` order up to `horizon` or
    /// the event budget, and hand each event to `dispatch` — which calls
    /// [`World::handle`], bare or wrapped in a probe's instruments — with
    /// the kernel's event count, this event included.
    #[inline]
    fn dispatch_until(
        &mut self,
        horizon: SimTime,
        mut dispatch: impl FnMut(&mut W, SimTime, W::Event, &mut EventQueue<W::Event>, u64),
    ) -> RunOutcome {
        loop {
            match self.queue.peek_time() {
                None => return RunOutcome::Exhausted,
                Some(t) if t >= horizon => return RunOutcome::ReachedHorizon,
                Some(_) => {}
            }
            if self.processed >= self.event_budget {
                return RunOutcome::EventBudgetExhausted;
            }
            let (now, event) = self.queue.pop().expect("peeked event vanished");
            self.processed += 1;
            // Let the world warm caches for the *following* event while it
            // handles this one (peeking here also warms the queue's own
            // next-event cache, so the peek at the top of the next
            // iteration is free).
            if let Some(next) = self.queue.peek_event() {
                self.world.prefetch(next);
            }
            dispatch(&mut self.world, now, event, &mut self.queue, self.processed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A world that counts down: each event schedules the next one 10 ms
    /// later until the counter hits zero.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl World for Countdown {
        type Event = ();
        fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<'_, ()>) {
            self.fired_at.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.after(SimDuration::from_millis(10), ());
            }
        }
    }

    #[test]
    fn runs_to_exhaustion() {
        let mut sim = Simulation::new(Countdown {
            remaining: 5,
            fired_at: vec![],
        });
        sim.schedule_at(SimTime::ZERO, ());
        let outcome = sim.run(SimTime::MAX);
        assert_eq!(outcome, RunOutcome::Exhausted);
        assert_eq!(sim.world().fired_at.len(), 6);
        assert_eq!(sim.processed(), 6);
        assert_eq!(
            *sim.world().fired_at.last().unwrap(),
            SimTime::from_millis(50)
        );
    }

    #[test]
    fn horizon_is_half_open_and_resumable() {
        let mut sim = Simulation::new(Countdown {
            remaining: 10,
            fired_at: vec![],
        });
        sim.schedule_at(SimTime::ZERO, ());
        let outcome = sim.run(SimTime::from_millis(30));
        assert_eq!(outcome, RunOutcome::ReachedHorizon);
        // events at 0,10,20 processed; 30 pending
        assert_eq!(sim.world().fired_at.len(), 3);
        assert_eq!(sim.pending(), 1);
        let outcome = sim.run(SimTime::MAX);
        assert_eq!(outcome, RunOutcome::Exhausted);
        assert_eq!(sim.world().fired_at.len(), 11);
    }

    #[test]
    fn event_budget_stops_runaway() {
        struct Forever;
        impl World for Forever {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), sched: &mut Scheduler<'_, ()>) {
                sched.after(SimDuration::from_millis(1), ());
            }
        }
        let mut sim = Simulation::new(Forever).with_event_budget(1_000);
        sim.schedule_at(SimTime::ZERO, ());
        assert_eq!(sim.run(SimTime::MAX), RunOutcome::EventBudgetExhausted);
        assert_eq!(sim.processed(), 1_000);
    }

    #[test]
    fn probed_run_matches_plain_run() {
        use crate::probe::{KernelProbe, QueueSample};

        struct CountingProbe {
            dispatches: u64,
            samples: u64,
        }
        impl KernelProbe for CountingProbe {
            fn on_dispatch(&mut self, label: &'static str, _wall_ns: u64) {
                assert_eq!(label, "()");
                self.dispatches += 1;
            }
            fn on_queue_sample(&mut self, _sample: QueueSample) {
                self.samples += 1;
            }
        }

        let mut plain = Simulation::new(Countdown {
            remaining: 5_000,
            fired_at: vec![],
        });
        plain.schedule_at(SimTime::ZERO, ());
        assert_eq!(plain.run(SimTime::MAX), RunOutcome::Exhausted);

        let mut probed = Simulation::new(Countdown {
            remaining: 5_000,
            fired_at: vec![],
        });
        probed.schedule_at(SimTime::ZERO, ());
        let mut probe = CountingProbe {
            dispatches: 0,
            samples: 0,
        };
        assert_eq!(
            probed.run_probed(SimTime::MAX, &mut probe),
            RunOutcome::Exhausted
        );
        assert_eq!(probed.world().fired_at, plain.world().fired_at);
        assert_eq!(probe.dispatches, probed.processed());
        assert!(probe.samples >= 1, "5001 events must yield a queue sample");
    }

    #[test]
    fn empty_queue_run_is_exhausted_immediately() {
        let mut sim = Simulation::new(Countdown {
            remaining: 0,
            fired_at: vec![],
        });
        assert_eq!(sim.run(SimTime::MAX), RunOutcome::Exhausted);
        assert_eq!(sim.processed(), 0);
    }
}
