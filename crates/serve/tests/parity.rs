//! Sim/serve parity: the same `GnutellaNode` fleet under the same
//! offered load, driven once by the bus's shard on a virtual clock
//! (`run_deterministic`) and once by the wall-clock bus, must agree on
//! protocol-level behaviour.
//!
//! Both sides take one `ServeConfig`, so topology, libraries, per-node
//! RNG streams and the offered load are identical; only delivery timing
//! differs (a virtual millisecond clock vs. real threads and channels).
//! Exact message counts therefore differ run to run on the bus side — the
//! assertions use aggregate tolerances, not equality. See
//! EXPERIMENTS.md "Serve-backend determinism".

use ddr_gnutella::NodeSetConfig;
use ddr_serve::{run_deterministic, run_gnutella, ServeConfig};
use ddr_sim::SimDuration;

#[test]
fn sim_and_bus_agree_on_hit_rate_and_message_volume() {
    let mut node_set = NodeSetConfig::new(100, 42);
    node_set.query_timeout = SimDuration::from_millis(500);
    let cfg = ServeConfig::new(node_set, 400.0, 1.0, 2);
    let queries = 400;

    let sim = run_deterministic(&cfg);
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

/// The calendar-queue DES driver `run_deterministic` replaced (PR 25),
/// pinned as its numbers: the wheel's (deadline, push order) is that
/// queue's `(time, seq)` at millisecond resolution, so the virtual clock
/// must match it field for field, on any `cfg.shards`, run after run.
#[test]
fn virtual_clock_reproduces_the_des_reference() {
    for (nodes, seed, qps, secs, want) in [
        (80, 21, 25.0, 8.0, [200, 61, 3_181, 96, 602, 911]),
        (120, 5, 40.0, 10.0, [400, 105, 6_461, 187, 612, 938]),
    ] {
        let cfg = ServeConfig::new(NodeSetConfig::new(nodes, seed), qps, secs, 1);
        let r = run_deterministic(&cfg);
        let ms = |p: Option<f64>| p.expect("hits imply latencies") as u64;
        let got = [
            r.queries_completed,
            r.hits,
            r.messages,
            r.duplicates,
            ms(r.p50_first_ms),
            ms(r.p99_first_ms),
        ];
        assert_eq!(got, want, "{nodes} nodes, seed {seed}");
        assert_eq!((r.queries_offered, r.queries_issued), (want[0], want[0]));
        assert_eq!(r, run_deterministic(&cfg), "two runs, two reports");
        let wide = ServeConfig::new(cfg.node_set.clone(), qps, secs, 4);
        assert_eq!(
            run_deterministic(&wide),
            r,
            "one shard whatever cfg.shards says"
        );
    }
}
