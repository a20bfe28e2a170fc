//! Exploration-frequency behaviour (paper §3.3: performance should track
//! the correlation between exploration frequency and content-change
//! rate).

use ddr_sim::SimDuration;
use ddr_webcache::{run_webcache, CacheMode, WebCacheConfig};

fn cfg(explore_every: u32) -> WebCacheConfig {
    let mut c = WebCacheConfig::default_scenario(CacheMode::Dynamic);
    c.proxies = 32;
    c.groups = 4;
    c.pages_per_group = 4_000;
    c.global_pages = 4_000;
    c.cache_capacity = 500;
    c.sim_hours = 6;
    c.warmup_hours = 1;
    c.mean_request_interval = SimDuration::from_millis(1_000);
    c.explore_every = explore_every;
    c.seed = 31;
    c
}

#[test]
fn starved_exploration_degrades_adaptation() {
    let frequent = run_webcache(cfg(25));
    let starved = run_webcache(cfg(20_000));
    assert!(
        frequent.neighbor_hit_ratio() > starved.neighbor_hit_ratio(),
        "frequent {} <= starved {}",
        frequent.neighbor_hit_ratio(),
        starved.neighbor_hit_ratio()
    );
    assert!(
        frequent.same_group_fraction > starved.same_group_fraction + 0.15,
        "clustering did not respond to exploration frequency: {} vs {}",
        frequent.same_group_fraction,
        starved.same_group_fraction
    );
}

#[test]
fn more_exploration_costs_more_messages() {
    let frantic = run_webcache(cfg(5));
    let calm = run_webcache(cfg(500));
    assert!(
        frantic.metrics.runtime.messages.total() > calm.metrics.runtime.messages.total(),
        "probe volume did not scale with trigger frequency"
    );
}
