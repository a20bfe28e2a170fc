//! Adversarial scenario pack: end-to-end properties of the flash-crowd,
//! partition, heavy-churn, free-rider/liar and bandwidth-era scenarios,
//! plus the differential guarantees every pack member must keep:
//!
//! * the [`check_invariants`] layer passes on every scenario, serial and
//!   sharded, and the census it returns is the same at every shard count;
//! * tracing (`JsonlSink` harness) is observationally inert — traced and
//!   untraced runs produce bit-identical reports;
//! * liars — nodes advertising summaries for content they refuse to
//!   serve — are isolated by the benefit function exactly like
//!   free-riders: zero served queries structurally, drained
//!   neighborhoods under dynamic reconfiguration.

use ddr_gnutella::scenario::run_scenario_with_world;
use ddr_gnutella::{
    check_invariants, run_scenario, run_scenario_sharded, Census, GnutellaScenario, Mode,
    PartitionWindow, RunReport, ScenarioConfig,
};
use ddr_net::ClassMix;
use ddr_telemetry::{JsonlSink, NullSink};
use ddr_workload::{ChurnModel, FlashCrowd};
use proptest::prelude::*;

/// The five pack shapes, applied onto a benign base configuration.
const PACK: [&str; 5] = [
    "flash_crowd",
    "partition_heal",
    "heavy_churn",
    "free_riders",
    "bandwidth_eras",
];

fn apply_pack(which: &str, cfg: &mut ScenarioConfig) {
    match which {
        "flash_crowd" => {
            let warm = cfg.warmup_hours as f64;
            cfg.workload.flash_crowd = Some(FlashCrowd {
                category: cfg.workload.categories / 4,
                start_hour: warm + 0.5,
                ramp_hours: 0.5,
                hold_hours: 1.0,
                decay_hours: 0.5,
                peak_weight: 0.8,
                spike_theta: 1.2,
            });
        }
        "partition_heal" => {
            cfg.partition = Some(PartitionWindow {
                islands: 2,
                from_hour: cfg.sim_hours / 3,
                to_hour: 2 * cfg.sim_hours / 3,
            });
        }
        "heavy_churn" => cfg.workload.churn_model = ChurnModel::Pareto { shape: 1.5 },
        "free_riders" => {
            cfg.free_rider_fraction = 0.15;
            cfg.liar_fraction = 0.15;
        }
        "bandwidth_eras" => cfg.bandwidth_mix = Some(ClassMix::dialup_era()),
        other => panic!("unknown pack scenario {other}"),
    }
}

#[test]
fn every_pack_scenario_passes_invariants_serial_and_sharded() {
    for which in PACK {
        let mut cfg = ScenarioConfig::scaled(Mode::Dynamic, 2, 50, 6);
        cfg.seed = 33;
        apply_pack(which, &mut cfg);
        cfg.validate().unwrap_or_else(|e| panic!("{which}: {e}"));
        let censuses: Vec<Census> = [1, 2, 3]
            .into_iter()
            .map(|shards| {
                let run = run_scenario_sharded::<NullSink>(cfg.clone(), shards, 1, false);
                check_invariants(&run.report, &run.worlds)
                    .unwrap_or_else(|e| panic!("{which} at {shards} shards: {e}"))
            })
            .collect();
        assert_eq!(
            censuses[0], censuses[1],
            "{which}: 2 shards moved the census"
        );
        assert_eq!(
            censuses[0], censuses[2],
            "{which}: 3 shards moved the census"
        );
    }
}

#[test]
fn pack_scenarios_are_deterministic_per_seed() {
    for which in PACK {
        let mut cfg = ScenarioConfig::scaled(Mode::Dynamic, 2, 50, 6);
        cfg.seed = 44;
        apply_pack(which, &mut cfg);
        let a = run_scenario(cfg.clone());
        let b = run_scenario(cfg.clone());
        assert_eq!(a.digest(), b.digest(), "{which} is not deterministic");
        let mut reseeded = cfg;
        reseeded.seed = 45;
        let c = run_scenario(reseeded);
        assert_ne!(a.digest(), c.digest(), "{which} ignores the seed");
    }
}

proptest! {
    /// Differential: the traced harness (`JsonlSink` type parameter, no
    /// output path) must be observationally identical to the untraced
    /// one, for every pack scenario and any seed.
    #[test]
    fn traced_pack_runs_match_untraced_bit_for_bit(
        seed in 0u64..10_000,
        which in 0usize..PACK.len(),
    ) {
        let mut cfg = ScenarioConfig::scaled(Mode::Dynamic, 2, 100, 3);
        cfg.seed = seed;
        apply_pack(PACK[which], &mut cfg);
        let plain = run_scenario(cfg.clone());
        let traced = ddr_harness::run::<GnutellaScenario<JsonlSink>>(cfg);
        prop_assert_eq!(&plain, &traced, "tracing perturbed {}", PACK[which]);
        prop_assert_eq!(plain.digest(), traced.digest());
    }
}

fn liar_cfg(mode: Mode) -> ScenarioConfig {
    let mut c = ScenarioConfig::scaled(mode, 2, 8, 24);
    c.liar_fraction = 0.15;
    c.seed = 13;
    c
}

/// The run's report and its end-of-run census (invariants checked).
fn run(cfg: ScenarioConfig) -> (RunReport, Census) {
    let (report, world) = run_scenario_with_world(cfg);
    let census = check_invariants(&report, &[world]).unwrap();
    (report, census)
}

#[test]
fn liars_advertise_but_never_serve() {
    let (_, census) = run(liar_cfg(Mode::Static));
    let users = census.served.len();
    assert_eq!(census.liars.members, (users as f64 * 0.15).round() as usize);
    assert_eq!(census.liars.served, 0, "a liar served a query");
    assert!(census.contributors.served > 0, "nobody served anything");
}

#[test]
fn dynamic_mode_isolates_liars_despite_their_advertisements() {
    let (_, stat) = run(liar_cfg(Mode::Static));
    let (_, dynm) = run(liar_cfg(Mode::Dynamic));

    let liar_static = stat
        .liars
        .mean_degree()
        .expect("liars online in static run");
    let liar_dynamic = dynm
        .liars
        .mean_degree()
        .expect("liars online in dynamic run");
    let contrib_dynamic = dynm
        .contributors
        .mean_degree()
        .expect("contributors online");

    // Liar isolation is *weaker in degree* than free-rider isolation:
    // a free-rider's empty summary fails the invitation-planning
    // eligibility gate, so it is never invited, while a liar's full
    // (fabricated) summary keeps attracting invitations. Its observed
    // benefit stays zero, so it is then evicted preferentially — the
    // steady state is churn, not emptiness. Measured across seeds
    // {13, 17, 23, 29} at scale 8 / 24 h: degree ratio vs static
    // 0.89–0.93, vs contributors 0.94–1.00, and 21–22% of standing
    // eviction memories point at the 15% liar population
    // (see EXPERIMENTS.md "Assertion recalibration").
    assert!(
        liar_dynamic < liar_static * 0.97,
        "dynamic did not degrade liar connectivity: {liar_dynamic} vs static {liar_static}"
    );
    assert!(
        liar_dynamic < contrib_dynamic * 1.05,
        "fabricated summaries bought liars better-than-contributor degree: \
         {liar_dynamic} vs {contrib_dynamic}"
    );
    // The sharp signal: evictions single liars out well beyond their
    // population share.
    let memories = |c: &Census| c.contributors.evicted + c.free_riders.evicted + c.liars.evicted;
    let share = dynm.liars.evicted as f64 / memories(&dynm).max(1) as f64;
    assert!(
        share > 0.18,
        "evictions do not target liars: {share:.3} of {} memories vs 0.15 population share",
        memories(&dynm)
    );
    assert_eq!(memories(&stat), 0, "static mode never evicts");
}
