//! Full-stack determinism and end-state invariants across both case
//! studies and multiple seeds: the foundation for every reported number.

use ddr_repro::gnutella::scenario::run_scenario_with_world;
use ddr_repro::gnutella::{run_scenario, Census, Mode, ScenarioConfig};
use ddr_repro::sim::NodeId;
use ddr_repro::webcache::{run_webcache, CacheMode, WebCacheConfig};

fn gnutella_cfg(mode: Mode, seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::scaled(mode, 2, 20, 8);
    c.seed = seed;
    c
}

#[test]
fn gnutella_runs_are_bit_reproducible() {
    for mode in [Mode::Static, Mode::Dynamic] {
        let a = run_scenario(gnutella_cfg(mode, 31));
        let b = run_scenario(gnutella_cfg(mode, 31));
        assert_eq!(a.total_hits(), b.total_hits());
        assert_eq!(a.total_messages(), b.total_messages());
        assert_eq!(a.total_results(), b.total_results());
        assert_eq!(a.mean_first_delay_ms(), b.mean_first_delay_ms());
        assert_eq!(a.metrics.logins, b.metrics.logins);
        assert_eq!(a.metrics.runtime.updates, b.metrics.runtime.updates);
        assert_eq!(a.metrics.duplicates_dropped, b.metrics.duplicates_dropped);
        assert_eq!(a.hits_series(), b.hits_series());
        assert_eq!(a.messages_series(), b.messages_series());
    }
}

#[test]
fn webcache_runs_are_bit_reproducible() {
    for mode in [CacheMode::Static, CacheMode::Dynamic] {
        let mut cfg = WebCacheConfig::default_scenario(mode);
        cfg.proxies = 24;
        cfg.groups = 4;
        cfg.sim_hours = 4;
        cfg.warmup_hours = 1;
        let a = run_webcache(cfg.clone());
        let b = run_webcache(cfg);
        assert_eq!(a.requests(), b.requests());
        assert_eq!(a.neighbor_hit_ratio(), b.neighbor_hit_ratio());
        assert_eq!(a.mean_latency_ms(), b.mean_latency_ms());
        assert_eq!(a.same_group_fraction, b.same_group_fraction);
    }
}

#[test]
fn invariants_hold_across_seeds() {
    for seed in [1u64, 17, 99, 1234, 98765] {
        let (report, world) = run_scenario_with_world(gnutella_cfg(Mode::Dynamic, seed));
        let users = world.config().workload.users;
        for i in 0..users {
            let n = NodeId::from_index(i);
            // 1. Per-node view consistency: no self-links, no duplicates.
            let view = world.neighbors_of(n);
            assert!(!view.contains(&n), "seed {seed}: {n} links itself");
            for (a, &m) in view.iter().enumerate() {
                assert!(!view[..a].contains(&m), "seed {seed}: {n} links {m} twice");
            }
            // 2. Degree bound.
            assert!(
                view.len() <= ddr_gnutella::peer::DEGREE,
                "seed {seed}: node {n} over degree"
            );
        }
        // 3. Offline nodes hold no links in their own view: every link
        // counts in an online member's degree.
        let census = Census::of(std::slice::from_ref(&world));
        let roles = [&census.contributors, &census.free_riders, &census.liars];
        let online_links: usize = roles.iter().map(|r| r.links).sum();
        assert_eq!(
            census.links, online_links,
            "seed {seed}: an offline node is linked"
        );
        // 4. Accounting sanity: hits ≤ queries issued; results ≥ hits.
        let queries = report.metrics.runtime.queries.total();
        assert!(
            report.metrics.runtime.hits.total() <= queries,
            "seed {seed}: more hits than queries"
        );
        assert!(
            report.metrics.results.total() >= report.metrics.runtime.hits.total(),
            "seed {seed}: fewer results than hits"
        );
        // 5. Invitations accepted never exceed invitations sent.
        assert!(report.metrics.invitations_accepted <= report.metrics.invitations_sent);
    }
}

#[test]
fn seeds_actually_vary_outcomes() {
    let a = run_scenario(gnutella_cfg(Mode::Dynamic, 1));
    let b = run_scenario(gnutella_cfg(Mode::Dynamic, 2));
    assert_ne!(
        (a.total_hits(), a.total_messages()),
        (b.total_hits(), b.total_messages()),
        "different seeds produced identical runs"
    );
}
