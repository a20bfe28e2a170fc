//! The case study as a [`ddr_harness::Scenario`]: world construction,
//! event priming and report extraction are declared here; the prime →
//! run → extract loop itself lives once in `ddr-harness`.

use crate::config::ScenarioConfig;
use crate::metrics::RunReport;
use crate::world::GnutellaWorld;
use ddr_harness::Scenario;
use ddr_sim::{event_capacity_hint, EventQueue};
use ddr_stats::MeasurementWindow;
use ddr_telemetry::{NullSink, TraceSink};
use std::marker::PhantomData;

/// Case study 1 (static vs dynamic Gnutella, paper §4) as a harness
/// scenario. The sink parameter selects the telemetry build: the default
/// `GnutellaScenario` (= `GnutellaScenario<NullSink>`) is the untraced
/// fast path, `GnutellaScenario<JsonlSink>` records query spans.
pub struct GnutellaScenario<T: TraceSink = NullSink>(PhantomData<T>);

impl<T: TraceSink> Scenario for GnutellaScenario<T> {
    type Config = ScenarioConfig;
    type World = GnutellaWorld<T>;
    type Report = RunReport;

    fn build(config: ScenarioConfig) -> GnutellaWorld<T> {
        GnutellaWorld::new(config)
    }

    fn capacity_hint(config: &ScenarioConfig) -> usize {
        event_capacity_hint(config.workload.users, config.max_hops)
    }

    fn window(config: &ScenarioConfig) -> MeasurementWindow {
        MeasurementWindow::new(config.warmup_hours, config.sim_hours)
    }

    fn prime(world: &mut GnutellaWorld<T>, queue: &mut EventQueue<crate::events::GnutellaEvent>) {
        let mut prime = Vec::new();
        world.collect_prime(&mut prime);
        for (at, _, event) in prime {
            queue.schedule_at(at, event);
        }
    }

    fn extract_report(world: &GnutellaWorld<T>, window: MeasurementWindow) -> RunReport {
        RunReport {
            metrics: world.metrics.clone(),
            window,
            label: world.config().mode.label(),
        }
    }
}

/// Run one scenario to its horizon and return the report. A pure function
/// of the configuration (which embeds the seed): calling it twice yields
/// identical reports.
pub fn run_scenario(config: ScenarioConfig) -> RunReport {
    ddr_harness::run::<GnutellaScenario>(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Mode, ScenarioConfig};
    use crate::peer::DEGREE;
    use crate::{run_scenario_sharded, Census};
    use ddr_telemetry::NullSink;

    /// A small-but-alive configuration: 200 users, paper densities,
    /// 12 simulated hours. Fast enough for unit tests (< 1 s release,
    /// a few seconds debug).
    fn small(mode: Mode, hops: u8) -> ScenarioConfig {
        let mut c = ScenarioConfig::scaled(mode, hops, 10, 12);
        c.seed = 2024;
        c
    }

    #[test]
    fn static_run_produces_traffic_and_hits() {
        let report = run_scenario(small(Mode::Static, 2));
        assert!(report.total_messages() > 0.0, "no messages propagated");
        assert!(report.total_hits() > 0.0, "no query was ever satisfied");
        assert!(
            report.metrics.logins + report.metrics.logoffs > 0,
            "no churn"
        );
        // static mode never reconfigures
        assert_eq!(report.metrics.runtime.updates, 0);
        assert_eq!(report.metrics.invitations_sent, 0);
    }

    #[test]
    fn dynamic_run_reconfigures() {
        let report = run_scenario(small(Mode::Dynamic, 2));
        assert!(
            report.metrics.runtime.updates > 0,
            "dynamic never reconfigured"
        );
        assert!(report.total_hits() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_scenario(small(Mode::Dynamic, 2));
        let b = run_scenario(small(Mode::Dynamic, 2));
        assert_eq!(a.total_hits(), b.total_hits());
        assert_eq!(a.total_messages(), b.total_messages());
        assert_eq!(a.metrics.runtime.updates, b.metrics.runtime.updates);
        assert_eq!(a.mean_first_delay_ms(), b.mean_first_delay_ms());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_scenario(small(Mode::Static, 2));
        let mut cfg = small(Mode::Static, 2);
        cfg.seed = 999;
        let b = run_scenario(cfg);
        assert_ne!(
            (a.total_hits(), a.total_messages()),
            (b.total_hits(), b.total_messages())
        );
    }

    #[test]
    fn neighbor_views_consistent_after_run() {
        for mode in [Mode::Static, Mode::Dynamic] {
            let run = run_scenario_sharded::<NullSink>(small(mode, 2), 1, 1, false);
            let world = &run.worlds[0];
            for i in 0..world.config().workload.users {
                let n = ddr_sim::NodeId::from_index(i);
                let view = world.neighbors_of(n);
                // degree bound respected, no self-links, no duplicates
                assert!(view.len() <= DEGREE, "{mode:?}: {n}");
                assert!(!view.contains(&n), "{mode:?}: {n} links itself");
                for (a, &m) in view.iter().enumerate() {
                    assert!(!view[..a].contains(&m), "{mode:?}: {n} links {m} twice");
                }
            }
        }
    }

    #[test]
    fn offline_nodes_hold_no_links() {
        // Link state is per-node views reconciled by messages, so an
        // online node may briefly list an offline one (its Unlink is in
        // flight) — but an offline node's *own* view is always empty.
        let run = run_scenario_sharded::<NullSink>(small(Mode::Dynamic, 2), 1, 1, false);
        let census = Census::of(&run.worlds);
        let roles = [&census.contributors, &census.free_riders, &census.liars];
        let online_links: usize = roles.iter().map(|r| r.links).sum();
        assert_eq!(census.links, online_links, "an offline node holds links");
    }

    #[test]
    fn hop_limit_one_still_finds_neighbors_content() {
        let report = run_scenario(small(Mode::Static, 1));
        assert!(report.total_hits() > 0.0);
        // With hops=1 each query sends at most `degree` messages.
        let whole_run = MeasurementWindow::new(0, report.window.to_hour);
        let queries = whole_run.sum(&report.metrics.runtime.queries);
        assert!(whole_run.sum(&report.metrics.runtime.messages) <= queries * 4.0 + 1.0);
    }

    #[test]
    fn more_hops_mean_more_messages_and_hits() {
        let h1 = run_scenario(small(Mode::Static, 1));
        let h3 = run_scenario(small(Mode::Static, 3));
        assert!(h3.total_messages() > h1.total_messages() * 2.0);
        assert!(h3.total_hits() >= h1.total_hits());
    }
}
