//! Driving the Gnutella world on the conservative sharded kernel.
//!
//! [`GnutellaWorld`] is a slice world (see the `world` module docs): each
//! shard owns a contiguous node range, every handler touches only the
//! destination node's state, and all delays respect the lookahead. Under
//! those rules `ddr_sim::ShardedSimulation` processes events in exactly
//! the serial kernel's order, so [`run_scenario_sharded`] returns a
//! [`RunReport`] *bit-identical* to [`crate::run_scenario`] — at any
//! shard count, serial or thread-parallel. The shard-parity tests and the
//! `ddr run fig1 --shards N` CI gate pin that property.

use crate::config::ScenarioConfig;
use crate::metrics::{Metrics, RunReport};
use crate::world::GnutellaWorld;
use ddr_sim::{RunOutcome, ShardProfile, ShardedSimulation, SimTime};
use ddr_stats::MeasurementWindow;
use ddr_telemetry::{JsonlMetrics, MetricsRecorder, QueryTracer, TraceSink};

/// What one sharded run leaves behind.
pub struct ShardedRun<T: TraceSink> {
    /// The merged report — bit-identical to [`crate::run_scenario`]'s.
    pub report: RunReport,
    /// The final per-shard worlds, in shard (= global node) order, for
    /// post-run inspection: [`crate::check_invariants`] walks them into
    /// the run's [`crate::Census`] next to the report.
    pub worlds: Vec<GnutellaWorld<T>>,
    /// Per-shard work/barrier/stall/merge wall-clock breakdown; `Some`
    /// when the run was asked to profile.
    pub profile: Option<ShardProfile>,
}

/// Run one scenario on the sharded kernel.
///
/// `shards` is the number of contiguous node slices; `threads > 1`
/// additionally gives every shard a worker thread of its own, whatever
/// the value (same result; less wall clock only with a core per shard);
/// `profile` wall-clocks the kernel's phases into
/// [`ShardedRun::profile`]. The report is a pure function of `config` —
/// shard count, thread count and profiling do not change it.
///
/// When `config.telemetry.metrics_path` is set, every shard world is
/// sampled into a `"v":1` timeline file at each simulated-hour boundary —
/// strictly *between* kernel windows, so the report (and its digest) is
/// identical to an unmetered run's. Under a `T = JsonlSink` every slice
/// traces its own nodes into `config.telemetry.trace_path`: together the
/// serial trace's lines, in another order.
pub fn run_scenario_sharded<T: TraceSink + Send>(
    config: ScenarioConfig,
    shards: usize,
    threads: usize,
    profile: bool,
) -> ShardedRun<T> {
    let window = MeasurementWindow::new(config.warmup_hours, config.sim_hours);
    let label = config.mode.label();
    let mut recorder = config
        .telemetry
        .metrics_path
        .is_some()
        .then(|| MetricsRecorder::<JsonlMetrics>::new(&config.telemetry));
    let (mut worlds, partition, lookahead) =
        GnutellaWorld::<T>::build_sharded(config.clone(), shards);

    // Initial events, concatenated in shard (= global node) order so the
    // kernel's insertion sequence matches the serial queue exactly.
    let mut prime = Vec::new();
    for w in &mut worlds {
        w.collect_prime(&mut prime);
    }
    let mut sim = ShardedSimulation::new(worlds, partition, lookahead);
    for (at, node, ev) in prime {
        sim.schedule_at(at, node, ev);
    }
    if profile {
        sim.enable_profiling();
    }

    // Hour by hour, like the serial driver: `run(h1); run(h2)` is
    // event-identical to `run(h2)` on this kernel (pinned by the
    // resumability tests), so the sampling pauses cannot perturb the run.
    let mut outcome = RunOutcome::ReachedHorizon;
    for hour in 1..=config.sim_hours {
        let until = SimTime::from_hours(hour);
        outcome = sim.run_parallel(until, threads);
        if let Some(rec) = &mut recorder {
            rec.sample_sharded(until, &sim);
        }
    }
    debug_assert!(
        matches!(outcome, RunOutcome::ReachedHorizon),
        "a churn-driven simulation never drains: {outcome:?}"
    );
    if let Some(rec) = &mut recorder {
        rec.finish();
    }
    let profile = sim.profile();

    let mut worlds = sim.into_worlds();
    QueryTracer::share_last_time(worlds.iter_mut().map(|w| &mut w.tracer));
    let mut metrics = Metrics::new();
    for w in &worlds {
        metrics.merge(&w.metrics);
    }
    ShardedRun {
        report: RunReport {
            metrics,
            window,
            label,
        },
        worlds,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use crate::{run_scenario, Census};
    use ddr_sim::parallelism::MIN_CHUNK;
    use ddr_telemetry::NullSink;

    fn small(mode: Mode) -> ScenarioConfig {
        let mut c = ScenarioConfig::scaled(mode, 2, 20, 6);
        c.seed = 7;
        c
    }

    #[test]
    fn one_shard_matches_serial_bit_for_bit() {
        for mode in [Mode::Static, Mode::Dynamic] {
            let serial = run_scenario(small(mode));
            let sharded = run_scenario_sharded::<NullSink>(small(mode), 1, 1, false).report;
            assert_eq!(serial, sharded, "{mode:?}");
        }
    }

    #[test]
    fn shard_count_is_invisible() {
        let serial = run_scenario(small(Mode::Dynamic));
        for shards in [2, 3, 4] {
            let sharded =
                run_scenario_sharded::<NullSink>(small(Mode::Dynamic), shards, 1, false).report;
            assert_eq!(serial.digest(), sharded.digest(), "shards={shards}");
            assert_eq!(serial, sharded, "shards={shards}");
        }
    }

    #[test]
    fn threads_are_invisible() {
        let one = run_scenario_sharded::<NullSink>(small(Mode::Dynamic), 4, 1, false).report;
        let four = run_scenario_sharded::<NullSink>(small(Mode::Dynamic), 4, 4, false).report;
        assert_eq!(one, four);
    }

    /// A world of more than one build chunk, built on 1 and 3 workers
    /// and split into 1 and 2 shards, runs a simulated quarter hour to
    /// one digest and one census.
    #[test]
    fn build_workers_are_invisible() {
        let mut config = ScenarioConfig::big_world(Mode::Dynamic, 2, 2 * MIN_CHUNK + 3, 2);
        config.seed = 7;
        let run = |shards: usize, workers: usize| {
            let (mut worlds, partition, lookahead) =
                GnutellaWorld::<NullSink>::build_on(config.clone(), shards, workers);
            let mut prime = Vec::new();
            for w in &mut worlds {
                w.collect_prime(&mut prime);
            }
            let mut sim = ShardedSimulation::new(worlds, partition, lookahead);
            for (at, node, ev) in prime {
                sim.schedule_at(at, node, ev);
            }
            sim.run_parallel(SimTime::from_mins(15), 1);
            let worlds = sim.into_worlds();
            let mut metrics = Metrics::new();
            for w in &worlds {
                metrics.merge(&w.metrics);
            }
            let report = RunReport {
                metrics,
                window: MeasurementWindow::new(config.warmup_hours, config.sim_hours),
                label: config.mode.label(),
            };
            (report.digest(), Census::of(&worlds))
        };
        let serial = run(1, 1);
        assert!(serial.1.links > 0, "the world never linked: {:?}", serial.1);
        for (shards, workers) in [(1, 3), (2, 1), (2, 3)] {
            assert_eq!(
                run(shards, workers),
                serial,
                "shards {shards}, workers {workers}"
            );
        }
    }

    /// `own` is for the slice's own nodes: asked for a node another slice
    /// owns, it panics in a debug build.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dispatched to the slice")]
    fn own_refuses_a_node_another_slice_owns() {
        let (worlds, partition, _) =
            GnutellaWorld::<NullSink>::build_sharded(small(Mode::Static), 2);
        let other = ddr_sim::NodeId::from_index(partition.range(1).start);
        let _ = worlds[0].own(other);
    }
}
