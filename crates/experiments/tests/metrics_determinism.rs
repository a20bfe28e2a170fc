//! Metrics-on runs must be digest-identical to metrics-off runs — the
//! timeline is a pure side channel. Pinned here for Figure 1's dynamic
//! configuration on the sharded kernel at shards {1, 2} and for an
//! adversarial-pack (flash crowd) scenario, because those paths chunk
//! the horizon to sample between hours and a chunking bug would corrupt
//! results silently.
//!
//! The emitted timeline itself is also checked: every window finite,
//! timestamps strictly monotonic per run label.

use ddr_gnutella::{run_scenario_sharded, Mode, ScenarioConfig};
use ddr_telemetry::{summarize_timeline, NullSink};
use ddr_workload::FlashCrowd;
use std::path::PathBuf;

fn tiny(mode: Mode) -> ScenarioConfig {
    let mut c = ScenarioConfig::scaled(mode, 2, 25, 6);
    c.seed = 11;
    c
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ddr-metrics-det-{}-{name}", std::process::id()))
}

/// Run `config` with and without a metrics timeline at `shards`; return
/// (digest, timeline text).
fn digest_pair(mut config: ScenarioConfig, shards: usize, name: &str) -> (u64, u64, String) {
    let plain = run_scenario_sharded::<NullSink>(config.clone(), shards, shards, false).report;

    let path = tmp(name);
    config.telemetry.metrics_path = Some(path.clone());
    let metered = run_scenario_sharded::<NullSink>(config, shards, shards, false).report;
    let timeline = std::fs::read_to_string(&path).expect("timeline file written");
    std::fs::remove_file(&path).ok();
    (plain.digest(), metered.digest(), timeline)
}

fn assert_clean_timeline(src: &str, expect_windows: usize, ctx: &str) {
    let s = summarize_timeline(src).unwrap_or_else(|e| panic!("{ctx}: timeline invalid: {e}"));
    assert_eq!(s.window_count(), expect_windows, "{ctx}: window count");
    // Finiteness and monotonicity are anomaly classes the summariser
    // detects; spikes / zero-traffic windows are legitimate world
    // behaviour, so filter to the two hard invariants.
    let hard: Vec<&String> = s
        .anomalies()
        .iter()
        .filter(|a| a.contains("non-finite") || a.contains("non-monotonic"))
        .collect();
    assert!(hard.is_empty(), "{ctx}: {hard:?}");
}

#[test]
fn figure1_dynamic_metrics_do_not_move_the_digest() {
    for shards in [1usize, 2] {
        let cfg = tiny(Mode::Dynamic);
        let hours = cfg.sim_hours as usize;
        let (plain, metered, timeline) = digest_pair(cfg, shards, &format!("fig1-s{shards}.jsonl"));
        assert_eq!(
            plain, metered,
            "shards={shards}: metrics sampling changed the run digest"
        );
        assert_clean_timeline(&timeline, hours, &format!("fig1 shards={shards}"));
    }
}

#[test]
fn sharded_digest_is_shard_count_invariant_with_metrics_on() {
    // Belt and braces: the metered path must ALSO hold shard parity.
    let (_, d1, _) = digest_pair(tiny(Mode::Dynamic), 1, "parity-s1.jsonl");
    let (_, d2, _) = digest_pair(tiny(Mode::Dynamic), 2, "parity-s2.jsonl");
    assert_eq!(d1, d2, "metered runs lost shard parity");
}

#[test]
fn flash_crowd_pack_metrics_do_not_move_the_digest() {
    let mut cfg = tiny(Mode::Dynamic);
    let warm = cfg.warmup_hours as f64;
    let span = (cfg.sim_hours as f64 - warm).max(2.0);
    cfg.workload.flash_crowd = Some(FlashCrowd {
        category: cfg.workload.categories / 4,
        start_hour: warm + span / 4.0,
        ramp_hours: span / 8.0,
        hold_hours: span / 4.0,
        decay_hours: span / 8.0,
        peak_weight: 0.8,
        spike_theta: 1.2,
    });
    cfg.validate().expect("flash-crowd config is valid");
    let hours = cfg.sim_hours as usize;
    let (plain, metered, timeline) = digest_pair(cfg, 2, "flash-s2.jsonl");
    assert_eq!(plain, metered, "flash-crowd metrics changed the digest");
    assert_clean_timeline(&timeline, hours, "flash_crowd shards=2");
}

#[test]
fn timeline_windows_carry_the_expected_series() {
    let (_, _, timeline) = digest_pair(tiny(Mode::Dynamic), 2, "series.jsonl");
    let s = summarize_timeline(&timeline).expect("timeline parses");
    for key in ["queries", "hits", "messages"] {
        assert!(
            s.counter_keys().iter().any(|k| k == key),
            "missing counter series `{key}`: {:?}",
            s.counter_keys()
        );
    }
}
