//! The [`Scenario`] trait and the generic prime → run → extract driver.

use ddr_sim::{EventQueue, RunOutcome, SimTime, Simulation, World};
use ddr_stats::MeasurementWindow;

/// One framework instantiation, described declaratively so the shared
/// driver ([`run`], [`run_with`]) can execute it.
///
/// Implementations are zero-sized marker types (`GnutellaScenario`,
/// `WebCacheScenario`, `PeerOlapScenario`, …): all state lives in
/// `Config` and `World`. The driver owns the loop that used to be
/// copy-pasted per case study:
///
/// 1. read the measurement [`window`](Scenario::window) and
///    [`capacity_hint`](Scenario::capacity_hint) from the config;
/// 2. [`build`](Scenario::build) the world and
///    [`prime`](Scenario::prime) its initial events into a pre-sized
///    queue (priming in place — the queue preserves schedule order);
/// 3. run to the horizon (`window.to_hour`), which every scenario
///    reaches: its clock events (churn, requests, queries) reschedule
///    themselves, so its queue never drains;
/// 4. [`extract_report`](Scenario::extract_report) from the final world.
///
/// Determinism contract: `run` is a pure function of `Config` (which
/// embeds the seed) — calling it twice, or on different worker threads,
/// yields identical reports. A sweep through `ddr_sim::map_chunked`
/// relies on this.
pub trait Scenario {
    /// Full configuration of one run, seed included.
    type Config: Clone;
    /// The simulation world driven by the event kernel.
    type World: World;
    /// The domain report extracted after the run.
    type Report;

    /// Construct the world from a configuration.
    fn build(config: Self::Config) -> Self::World;

    /// Expected peak pending-event count (pre-sizes the calendar queue).
    fn capacity_hint(config: &Self::Config) -> usize;

    /// The measurement window `[warmup, horizon)`; the driver runs the
    /// simulation to `window.to_hour`.
    fn window(config: &Self::Config) -> MeasurementWindow;

    /// Schedule the world's initial events: every case study schedules
    /// its world's `collect_prime` list, in order.
    fn prime(world: &mut Self::World, queue: &mut EventQueue<<Self::World as World>::Event>);

    /// Build the domain report from the final world state.
    fn extract_report(world: &Self::World, window: MeasurementWindow) -> Self::Report;
}

/// Run one scenario to its horizon and return the report. A pure function
/// of the configuration (which embeds the seed).
pub fn run<S: Scenario>(config: S::Config) -> S::Report {
    run_with::<S>(config, |sim, until| sim.run(until), |_, _| {}).0
}

/// The one serial driver: build, prime, advance hour by hour to the
/// horizon (debug-asserting the run reached it), extract the report,
/// and hand back the final world next to it (tests and diagnostics
/// assert on end state).
///
/// `advance(sim, until)` says *how* each hour runs — `sim.run(until)`,
/// or `sim.run_probed(until, probe)` to label and time every dispatch —
/// and `on_hour(now, &sim)` runs strictly *between* kernel steps at each
/// hour boundary (metrics sampling). The serial kernel is resumable
/// (`run(h1); run(h2)` ≡ `run(h2)`) and probes and samplers only
/// observe, so every combination returns a report bit-identical to
/// [`run`]'s. The harness stays telemetry-agnostic: the caller owns the
/// probe and whatever recorder the samples feed.
pub fn run_with<S: Scenario>(
    config: S::Config,
    mut advance: impl FnMut(&mut Simulation<S::World>, SimTime) -> RunOutcome,
    mut on_hour: impl FnMut(SimTime, &Simulation<S::World>),
) -> (S::Report, S::World) {
    let window = S::window(&config);
    let capacity = S::capacity_hint(&config);

    let mut world = S::build(config);
    let mut queue: EventQueue<<S::World as World>::Event> = EventQueue::with_capacity(capacity);
    S::prime(&mut world, &mut queue);
    let mut sim = Simulation::with_queue(world, queue);

    let mut outcome = RunOutcome::ReachedHorizon;
    for hour in 1..=window.to_hour {
        let until = SimTime::from_hours(hour);
        outcome = advance(&mut sim, until);
        on_hour(until, &sim);
    }
    debug_assert_eq!(
        outcome,
        RunOutcome::ReachedHorizon,
        "a scenario's clock events never let its queue drain"
    );
    let world = sim.into_world();
    let report = S::extract_report(&world, window);
    (report, world)
}

#[cfg(test)]
mod toy {
    //! A minimal in-crate scenario used by harness unit tests (the real
    //! case studies live downstream and would be a dependency cycle).

    use super::*;
    use ddr_sim::{Scheduler, SimDuration};

    /// Config: fire one event per `step_ms` until the horizon; the seed
    /// perturbs a running checksum so different seeds yield different
    /// reports.
    #[derive(Debug, Clone)]
    pub struct TickConfig {
        pub seed: u64,
        pub step_ms: u64,
        pub hours: u64,
        pub warmup_hours: u64,
    }

    pub struct TickWorld {
        config: TickConfig,
        pub fired: u64,
        pub checksum: u64,
    }

    impl World for TickWorld {
        type Event = ();
        fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<'_, ()>) {
            self.fired += 1;
            self.checksum = self
                .checksum
                .wrapping_mul(6364136223846793005)
                .wrapping_add(self.config.seed)
                .wrapping_add(1);
            sched.after(SimDuration::from_millis(self.config.step_ms), ());
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    pub struct TickReport {
        pub fired: u64,
        pub checksum: u64,
        pub window: MeasurementWindow,
    }

    pub struct TickScenario;

    impl Scenario for TickScenario {
        type Config = TickConfig;
        type World = TickWorld;
        type Report = TickReport;

        fn build(config: TickConfig) -> TickWorld {
            TickWorld {
                config,
                fired: 0,
                checksum: 0,
            }
        }
        fn capacity_hint(_config: &TickConfig) -> usize {
            16
        }
        fn window(config: &TickConfig) -> MeasurementWindow {
            MeasurementWindow::new(config.warmup_hours, config.hours)
        }
        fn prime(world: &mut TickWorld, queue: &mut EventQueue<()>) {
            queue.schedule_at(SimTime::ZERO, ());
            let _ = world;
        }
        fn extract_report(world: &TickWorld, window: MeasurementWindow) -> TickReport {
            TickReport {
                fired: world.fired,
                checksum: world.checksum,
                window,
            }
        }
    }

    pub fn cfg(seed: u64) -> TickConfig {
        TickConfig {
            seed,
            step_ms: 500,
            hours: 1,
            warmup_hours: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::toy::*;
    use super::*;

    #[test]
    fn run_reaches_horizon_and_reports() {
        let report = run::<TickScenario>(cfg(7));
        // one event per 500 ms for 1 simulated hour, half-open horizon
        assert_eq!(report.fired, 7_200);
        assert_eq!(report.window, MeasurementWindow::new(0, 1));
    }

    #[test]
    fn run_is_pure_in_config() {
        let a = run::<TickScenario>(cfg(42));
        let b = run::<TickScenario>(cfg(42));
        assert_eq!(a, b);
        let c = run::<TickScenario>(cfg(43));
        assert_ne!(a.checksum, c.checksum);
    }

    #[test]
    fn run_with_exposes_final_state() {
        let (report, world) = run_with::<TickScenario>(cfg(1), |sim, t| sim.run(t), |_, _| {});
        assert_eq!(report.fired, world.fired);
        assert_eq!(report.checksum, world.checksum);
    }

    struct CountProbe {
        dispatches: u64,
        samples: u64,
    }
    impl ddr_sim::KernelProbe for CountProbe {
        fn on_dispatch(&mut self, label: &'static str, _wall_ns: u64) {
            assert_eq!(label, "()");
            self.dispatches += 1;
        }
        fn on_queue_sample(&mut self, _sample: ddr_sim::QueueSample) {
            self.samples += 1;
        }
    }

    #[test]
    fn probed_run_sees_every_dispatch_and_changes_nothing() {
        let mut probe = CountProbe {
            dispatches: 0,
            samples: 0,
        };
        let (probed, _) =
            run_with::<TickScenario>(cfg(7), |sim, t| sim.run_probed(t, &mut probe), |_, _| {});
        let plain = run::<TickScenario>(cfg(7));
        assert_eq!(probed, plain, "probing must not perturb the run");
        assert_eq!(probe.dispatches, plain.fired);
        assert!(probe.samples > 0, "7200 events must trigger queue samples");
    }

    #[test]
    fn hourly_callback_composes_with_probing_and_changes_nothing() {
        let mut cfg3 = cfg(7);
        cfg3.hours = 3;
        let plain = run::<TickScenario>(cfg3.clone());
        let mut samples = Vec::new();
        let (sampled, _) = run_with::<TickScenario>(
            cfg3.clone(),
            |sim, t| sim.run(t),
            |now, sim| samples.push((now.as_millis(), sim.pending())),
        );
        assert_eq!(sampled, plain, "sampling must not perturb the run");
        assert_eq!(samples.len(), 3, "one sample per simulated hour");
        assert_eq!(samples[0].0, 3_600_000);
        assert!(samples.iter().all(|&(_, pending)| pending >= 1));

        let mut probe = CountProbe {
            dispatches: 0,
            samples: 0,
        };
        let mut hours = 0;
        let (both, _) = run_with::<TickScenario>(
            cfg3,
            |sim, t| sim.run_probed(t, &mut probe),
            |_, _| hours += 1,
        );
        assert_eq!(both, plain, "probing + sampling must not perturb the run");
        assert_eq!((hours, probe.dispatches), (3, plain.fired));
    }
}
