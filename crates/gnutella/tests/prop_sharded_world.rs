//! Differential property test: the Gnutella world on the sharded kernel
//! is bit-identical to the serial kernel over *random* configurations —
//! not just the pinned scenarios the unit tests use.
//!
//! The serial [`run_scenario`] is the executable specification. For any
//! sampled world size, horizon, hop limit, mode, free-rider mix, churn
//! repair flag, seed, shard count and thread count, the sharded run must
//! produce an equal [`RunReport`] (full structural equality, which
//! implies equal digests). This is the property the shard-native
//! refactor exists to provide: per-node RNG streams, message-passing
//! reconfiguration and shard-local membership leave no global state
//! whose access order could depend on the shard layout.
//!
//! Each case runs two full simulations, so the worlds are scaled far
//! down (20–50 users, 2–3 hours) to keep the whole test affordable
//! while still exercising login/logoff, eviction, invitation and
//! reconfiguration traffic.

use ddr_gnutella::{run_scenario, run_scenario_sharded, Mode, ScenarioConfig};
use ddr_telemetry::NullSink;
use proptest::prelude::*;

fn config(
    mode: Mode,
    hops: u8,
    scale: u32,
    hours: u64,
    seed: u64,
    free_riders: bool,
    repair_on_loss: bool,
) -> ScenarioConfig {
    let mut c = ScenarioConfig::scaled(mode, hops, scale, hours);
    c.seed = seed;
    c.free_rider_fraction = if free_riders { 0.25 } else { 0.0 };
    c.reconfig_on_neighbor_loss = repair_on_loss;
    c
}

proptest! {
    #[test]
    fn sharded_report_equals_serial_report(
        seed in any::<u64>(),
        // Valid scale divisors only: `scaled` requires the divisor to
        // split the paper's 2000 users and 200k songs without remainder.
        scale in prop_oneof![Just(40u32), Just(50), Just(80), Just(100)],
        hours in 2u64..4,
        hops in 2u8..4,
        dynamic in any::<bool>(),
        free_riders in any::<bool>(),
        repair_on_loss in any::<bool>(),
        shards in 1usize..6,
        threads in 1usize..4,
    ) {
        let mode = if dynamic { Mode::Dynamic } else { Mode::Static };
        let c = config(mode, hops, scale, hours, seed, free_riders, repair_on_loss);
        let serial = run_scenario(c.clone());
        let sharded = run_scenario_sharded::<NullSink>(c, shards, threads, false).report;
        prop_assert_eq!(serial.digest(), sharded.digest());
        prop_assert_eq!(serial, sharded);
    }
}
