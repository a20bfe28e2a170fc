//! The web-cache case study as a [`ddr_harness::Scenario`]: this file
//! declares how to build, prime and report on a run; the shared driver
//! loop lives in `ddr-harness`.

use crate::config::WebCacheConfig;
use crate::world::WebCacheWorld;
use ddr_harness::Scenario;
use ddr_sim::{event_capacity_hint, EventQueue};
use ddr_stats::MeasurementWindow;
use ddr_telemetry::{NullSink, TraceSink};
use std::marker::PhantomData;

/// Report of one web-cache run: a thin domain view over the collected
/// metrics and the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct WebCacheReport {
    /// Mode label.
    pub label: &'static str,
    /// Collected metrics.
    pub metrics: crate::world::CacheMetrics,
    /// Measurement window (hours, warm-up excluded).
    pub window: MeasurementWindow,
    /// Fraction of outgoing edges connecting same-group proxies at the end
    /// of the run.
    pub same_group_fraction: f64,
}

impl WebCacheReport {
    /// Requests in the measurement window.
    pub fn requests(&self) -> f64 {
        self.window.sum(&self.metrics.runtime.queries)
    }

    /// Local hit ratio.
    pub fn local_hit_ratio(&self) -> f64 {
        self.window
            .ratio(&self.metrics.local_hits, &self.metrics.runtime.queries)
    }

    /// Neighbor (sibling) hit ratio — the quantity cooperation improves.
    pub fn neighbor_hit_ratio(&self) -> f64 {
        self.window
            .ratio(&self.metrics.runtime.hits, &self.metrics.runtime.queries)
    }

    /// Origin-fetch ratio (lower is better).
    pub fn origin_ratio(&self) -> f64 {
        self.window
            .ratio(&self.metrics.origin_fetches, &self.metrics.runtime.queries)
    }

    /// Mean request latency in ms.
    pub fn mean_latency_ms(&self) -> f64 {
        self.metrics.runtime.latency_ms.mean()
    }
}

/// Case study 2 (cooperative proxy caching, pure-asymmetric relations) as
/// a harness scenario. The sink parameter selects the telemetry build:
/// the default `WebCacheScenario` (= `WebCacheScenario<NullSink>`) is the
/// untraced fast path, `WebCacheScenario<JsonlSink>` records query spans.
pub struct WebCacheScenario<T: TraceSink = NullSink>(PhantomData<T>);

impl<T: TraceSink> Scenario for WebCacheScenario<T> {
    type Config = WebCacheConfig;
    type World = WebCacheWorld<T>;
    type Report = WebCacheReport;

    fn build(config: WebCacheConfig) -> WebCacheWorld<T> {
        WebCacheWorld::new(config)
    }

    fn capacity_hint(config: &WebCacheConfig) -> usize {
        event_capacity_hint(config.proxies, 1)
    }

    fn window(config: &WebCacheConfig) -> MeasurementWindow {
        MeasurementWindow::new(config.warmup_hours, config.sim_hours)
    }

    fn prime(world: &mut WebCacheWorld<T>, queue: &mut EventQueue<crate::world::CacheEvent>) {
        world.prime(queue);
    }

    fn extract_report(world: &WebCacheWorld<T>, window: MeasurementWindow) -> WebCacheReport {
        WebCacheReport {
            label: world.config().mode.label(),
            same_group_fraction: world.same_group_edge_fraction(),
            metrics: world.metrics.clone(),
            window,
        }
    }
}

/// Run one scenario; pure function of the config (which embeds the seed).
pub fn run_webcache(config: WebCacheConfig) -> WebCacheReport {
    ddr_harness::run::<WebCacheScenario>(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheMode, WebCacheConfig};

    fn small(mode: CacheMode) -> WebCacheConfig {
        let mut c = WebCacheConfig::default_scenario(mode);
        c.proxies = 32;
        c.groups = 4;
        c.pages_per_group = 4_000;
        c.global_pages = 4_000;
        c.cache_capacity = 500;
        c.sim_hours = 6;
        c.warmup_hours = 1;
        c.mean_request_interval = ddr_sim::SimDuration::from_millis(1_000);
        c.seed = 11;
        c
    }

    /// Every request ends as exactly one of a local hit, a sibling hit or
    /// an origin fetch, in both modes and with digests off and on.
    #[test]
    fn run_accounts_every_request() {
        for mode in [CacheMode::Static, CacheMode::Dynamic] {
            for use_digests in [false, true] {
                let mut c = small(mode);
                c.use_digests = use_digests;
                let r = run_webcache(c);
                let total = r.window.sum(&r.metrics.local_hits)
                    + r.window.sum(&r.metrics.runtime.hits)
                    + r.window.sum(&r.metrics.origin_fetches);
                let shape = format!("{mode:?}, digests {use_digests}");
                assert_eq!(total, r.requests(), "{shape}: hit/miss accounting leak");
                assert!(r.requests() > 0.0, "{shape}: no requests");
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_webcache(small(CacheMode::Dynamic));
        let b = run_webcache(small(CacheMode::Dynamic));
        assert_eq!(a.neighbor_hit_ratio(), b.neighbor_hit_ratio());
        assert_eq!(a.mean_latency_ms(), b.mean_latency_ms());
        assert_eq!(a.metrics.runtime.updates, b.metrics.runtime.updates);
    }

    #[test]
    fn dynamic_explores_and_updates() {
        let r = run_webcache(small(CacheMode::Dynamic));
        assert!(r.metrics.runtime.explorations > 0, "no exploration fired");
        assert!(r.metrics.runtime.updates > 0, "no neighbor update fired");
        assert!(
            r.metrics.runtime.edges_changed > 0,
            "updates never changed an edge"
        );
    }

    #[test]
    fn static_never_updates() {
        let r = run_webcache(small(CacheMode::Static));
        assert_eq!(r.metrics.runtime.updates, 0);
        assert_eq!(r.metrics.runtime.explorations, 0);
    }

    #[test]
    fn dynamic_beats_static_on_neighbor_hits_and_latency() {
        let s = run_webcache(small(CacheMode::Static));
        let d = run_webcache(small(CacheMode::Dynamic));
        assert!(
            d.neighbor_hit_ratio() > s.neighbor_hit_ratio(),
            "dynamic {} <= static {}",
            d.neighbor_hit_ratio(),
            s.neighbor_hit_ratio()
        );
        assert!(
            d.mean_latency_ms() < s.mean_latency_ms(),
            "dynamic latency {} >= static {}",
            d.mean_latency_ms(),
            s.mean_latency_ms()
        );
    }

    #[test]
    fn dynamic_clusters_same_group_proxies() {
        let s = run_webcache(small(CacheMode::Static));
        let d = run_webcache(small(CacheMode::Dynamic));
        assert!(
            d.same_group_fraction > s.same_group_fraction + 0.1,
            "no clustering: dynamic {} vs static {}",
            d.same_group_fraction,
            s.same_group_fraction
        );
    }

    #[test]
    fn neighbor_lists_stay_bounded() {
        let mut c = small(CacheMode::Dynamic);
        c.sim_hours = 2;
        let (out_degree, proxies) = (c.out_degree, c.proxies);
        let (_, world) =
            ddr_harness::run_with::<WebCacheScenario>(c, |sim, until| sim.run(until), |_, _| {});
        for p in 0..proxies {
            let me = ddr_sim::NodeId::from_index(p);
            let out = world.neighbors_of(me);
            assert!(out.len() <= out_degree, "{me} lists {}", out.len());
            for (i, q) in out.iter().enumerate() {
                assert!(
                    *q != me && !out[..i].contains(q),
                    "{me} lists {q} twice or itself"
                );
            }
        }
    }
}
