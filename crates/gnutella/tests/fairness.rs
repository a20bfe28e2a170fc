//! Free-rider and load-balance behaviour (paper §2: static configurations
//! let relations become "unbalanced, if a peer only requires, but refuses
//! to provide any content" — dynamic reconfiguration is supposed to fix
//! exactly this, because a node that never answers accumulates zero
//! benefit and gets evicted).

use ddr_gnutella::{
    check_invariants, run_scenario_sharded, Census, Mode, RunReport, ScenarioConfig,
};
use ddr_telemetry::NullSink;

fn cfg(mode: Mode, free_riders: f64) -> ScenarioConfig {
    let mut c = ScenarioConfig::scaled(mode, 2, 8, 24);
    c.free_rider_fraction = free_riders;
    c.seed = 13;
    c
}

/// The run's report and its end-of-run census (invariants checked).
fn run(cfg: ScenarioConfig) -> (RunReport, Census) {
    let r = run_scenario_sharded::<NullSink>(cfg, 1, 1, false);
    let census = check_invariants(&r.report, &r.worlds).unwrap();
    (r.report, census)
}

#[test]
fn free_rider_selection_is_deterministic_and_sized() {
    let (_, a) = run(cfg(Mode::Static, 0.25));
    let (_, b) = run(cfg(Mode::Static, 0.25));
    let users = a.served.len();
    assert_eq!(
        a.free_riders.members,
        (users as f64 * 0.25).round() as usize
    );
    assert_eq!(a, b);
}

#[test]
fn free_riders_never_serve() {
    let (_, census) = run(cfg(Mode::Static, 0.25));
    assert_eq!(census.free_riders.served, 0, "a free-rider served results");
    // ... while contributors do serve.
    assert!(census.contributors.served > 0);
}

#[test]
fn free_riders_depress_hits() {
    let (clean, _) = run(cfg(Mode::Static, 0.0));
    let (infested, _) = run(cfg(Mode::Static, 0.25));
    assert!(
        infested.total_hits() < clean.total_hits(),
        "free riders should cost hits: {} vs {}",
        infested.total_hits(),
        clean.total_hits()
    );
}

#[test]
fn dynamic_mode_starves_free_riders_of_neighbors() {
    let (_, stat) = run(cfg(Mode::Static, 0.25));
    let (_, dynm) = run(cfg(Mode::Dynamic, 0.25));

    let fr_static = stat.free_riders.mean_degree().expect("free riders online");
    let fr_dynamic = dynm.free_riders.mean_degree().expect("free riders online");
    let contrib_dynamic = dynm
        .contributors
        .mean_degree()
        .expect("contributors online");

    // In the static overlay free-riders are indistinguishable; dynamic
    // reconfiguration drains their neighborhoods relative to both the
    // static case and to contributors in the same run.
    assert!(
        fr_dynamic < fr_static * 0.9,
        "dynamic did not starve free riders: {fr_dynamic} vs static {fr_static}"
    );
    assert!(
        fr_dynamic < contrib_dynamic * 0.9,
        "free riders as connected as contributors: {fr_dynamic} vs {contrib_dynamic}"
    );
}

#[test]
fn serving_load_is_skewed_and_measurable() {
    let (_, census) = run(cfg(Mode::Dynamic, 0.0));
    let loads: Vec<f64> = census.served.iter().map(|&s| s as f64).collect();
    let g = ddr_stats::gini(&loads);
    let top10 = ddr_stats::top_share(&loads, 0.10);
    // Zipf content popularity + bandwidth preference make serving load
    // unequal, but not degenerate.
    assert!(g > 0.1, "implausibly even load: gini {g}");
    assert!(g < 0.95, "implausibly concentrated load: gini {g}");
    assert!(top10 > 0.10 && top10 < 0.95, "top-10% share {top10}");
}
