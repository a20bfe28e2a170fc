//! Peer churn in the bounded-incoming asymmetric regime: departures tear
//! down links on both sides; returns rejoin randomly and re-adapt.

use ddr_peerolap::{run_peerolap, OlapMode, PeerOlapConfig, PeerOlapScenario};
use ddr_sim::{NodeId, SimDuration};

fn base(mode: OlapMode, churn: bool) -> PeerOlapConfig {
    let mut c = PeerOlapConfig::default_scenario(mode);
    c.peers = 24;
    c.groups = 4;
    c.chunks_per_region = 2_048;
    c.cache_capacity = 512;
    c.sim_hours = 5;
    c.warmup_hours = 1;
    c.mean_query_interval = SimDuration::from_millis(2_000);
    if churn {
        c.mean_session = Some(SimDuration::from_mins(40));
        c.mean_absence = SimDuration::from_mins(10);
    }
    c.seed = 61;
    c
}

#[test]
fn churn_runs_with_departures() {
    let r = run_peerolap(base(OlapMode::Dynamic, true));
    assert!(r.metrics.departures > 0, "no departures under churn");
    assert!(r.total_chunks() > 0.0);
    assert!(r.peer_share() > 0.0, "cooperation died under churn");
}

#[test]
fn dynamic_still_beats_static_under_churn() {
    let s = run_peerolap(base(OlapMode::Static, true));
    let d = run_peerolap(base(OlapMode::Dynamic, true));
    assert!(
        d.peer_share() > s.peer_share(),
        "churn broke the dynamic advantage: {} vs {}",
        d.peer_share(),
        s.peer_share()
    );
}

#[test]
fn invariants_hold_under_churn() {
    let mut cfg = base(OlapMode::Dynamic, true);
    cfg.sim_hours = 3;
    let (out_degree, in_capacity, peers) = (cfg.out_degree, cfg.in_capacity, cfg.peers);
    let (_, world) =
        ddr_harness::run_with::<PeerOlapScenario>(cfg, |sim, until| sim.run(until), |_, _| {});
    let mut in_degree = vec![0usize; peers];
    for p in 0..peers {
        let n = NodeId::from_index(p);
        let out = world.neighbors_of(n);
        assert!(out.len() <= out_degree);
        if !world.is_present(n) {
            assert!(out.is_empty(), "absent peer {n} still linked out");
        }
        for &q in out {
            in_degree[q.index()] += 1;
            assert!(world.is_present(q), "{n} still links to absent peer {q}");
        }
    }
    assert!(
        in_degree.iter().all(|&d| d <= in_capacity),
        "incoming capacity violated: {in_degree:?}"
    );
}

#[test]
fn churn_is_deterministic() {
    let a = run_peerolap(base(OlapMode::Dynamic, true));
    let b = run_peerolap(base(OlapMode::Dynamic, true));
    assert_eq!(a.metrics.departures, b.metrics.departures);
    assert_eq!(a.peer_share(), b.peer_share());
    assert_eq!(a.mean_latency_ms(), b.mean_latency_ms());
}
