//! Sim/serve parity. `run_deterministic` is the bus's own shard stepped
//! on a virtual millisecond clock, delivering through the same
//! `GnutellaWorld::dispatch` the simulation kernels run. Its wheel orders
//! deliveries by (deadline, push order), which at one shard is the
//! sharded kernel's `(time, global seq)`: so the slice it ends with must
//! equal `ShardedSimulation`'s at one shard — the same `build_sharded`
//! world, the same `OfferQuery` schedule — `Metrics` for `Metrics`, not
//! within a tolerance (DESIGN.md §10).
//!
//! The wall-clock bus takes the same `ServeConfig`, so topology,
//! libraries, per-node RNG streams and the offered load are identical;
//! only delivery timing differs (real threads and channels), so against
//! it the assertions are aggregate tolerances. See EXPERIMENTS.md
//! "Serve-backend determinism".

use ddr_gnutella::events::GnutellaEvent;
use ddr_gnutella::{GnutellaWorld, NodeSetConfig};
use ddr_serve::{run_deterministic, run_gnutella, ServeConfig};
use ddr_sim::{NodeId, ShardedSimulation, SimDuration, SimTime};

/// `cfg`'s fleet and offered load on the sharded kernel at one shard:
/// query `k` is an `OfferQuery` for node `k mod nodes` at `k·1000/qps` ms.
fn sharded_kernel(cfg: &ServeConfig) -> GnutellaWorld {
    let (worlds, partition, lookahead) = GnutellaWorld::build_sharded(cfg.node_set.scenario(), 1);
    let mut sim = ShardedSimulation::new(worlds, partition, lookahead);
    let nodes = cfg.node_set.nodes as u64;
    for k in 0..(cfg.qps * cfg.duration_s) as u64 {
        let node = NodeId::from_index((k % nodes) as usize);
        let at = SimTime::from_millis((k as f64 * 1_000.0 / cfg.qps) as u64);
        sim.schedule_at(at, node, GnutellaEvent::OfferQuery { node });
    }
    sim.run(SimTime::MAX);
    sim.into_worlds().pop().expect("one shard, one world")
}

#[test]
fn virtual_clock_equals_the_sharded_kernel() {
    for (nodes, seed, qps, secs) in [
        (80, 21, 25.0, 8.0),
        (120, 5, 40.0, 10.0),
        (300, 3, 400.0, 2.0),
    ] {
        let cfg = ServeConfig::new(NodeSetConfig::new(nodes, seed), qps, secs, 1);
        let (r, slice) = run_deterministic(&cfg);
        let kernel = sharded_kernel(&cfg);
        assert_eq!(slice.metrics, kernel.metrics, "{nodes} nodes, seed {seed}");
        let served = slice.served_loads();
        assert_eq!(served, kernel.served_loads(), "per-node results served");
        assert_eq!(slice.replies_served(), served.iter().sum::<f64>() as u64);
        let queries = (qps * secs) as u64;
        let counts = (r.queries_offered, r.queries_issued, r.queries_completed);
        assert_eq!(counts, (queries, queries, queries), "every offer closes");
        assert!(r.hits > 0 && r.duplicates > 0, "{r:?}");
        let wide = ServeConfig::new(cfg.node_set.clone(), qps, secs, 4);
        assert_eq!(
            run_deterministic(&wide).0,
            r,
            "one shard whatever cfg.shards says, run after run"
        );
    }
}

#[test]
fn sim_and_bus_agree_on_hit_rate_and_message_volume() {
    let mut node_set = NodeSetConfig::new(100, 42);
    node_set.query_timeout = SimDuration::from_millis(500);
    let cfg = ServeConfig::new(node_set, 400.0, 1.0, 2);
    let queries = 400;

    let (sim, _) = run_deterministic(&cfg);
    let bus = run_gnutella(&cfg);

    assert_eq!(
        (sim.queries_offered, sim.queries_completed),
        (queries, queries),
        "the virtual clock must finalize every query"
    );
    assert!(
        bus.queries_completed as f64 >= 0.5 * queries as f64,
        "bus completed only {} of ~{queries} queries",
        bus.queries_completed
    );

    // Same fleet, same workload distribution: the fraction of queries
    // finding at least one holder within the hop limit must agree.
    let dh = (sim.hit_rate - bus.hit_rate).abs();
    assert!(
        dh < 0.15,
        "hit rates diverge: sim {:.3} vs bus {:.3}",
        sim.hit_rate,
        bus.hit_rate
    );

    // Flood fan-out per query is a topology property; thread scheduling
    // only perturbs duplicate-arrival order, so per-query message
    // volume must land in the same band.
    let per_query = |r: &ddr_serve::ServeReport| r.messages as f64 / r.queries_issued.max(1) as f64;
    let (sim_mpq, bus_mpq) = (per_query(&sim), per_query(&bus));
    assert!(
        (bus_mpq - sim_mpq).abs() / sim_mpq < 0.30,
        "messages per query diverge: sim {sim_mpq:.2} vs bus {bus_mpq:.2}"
    );
}
