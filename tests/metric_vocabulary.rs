//! One metric vocabulary, enforced: the table in DESIGN.md §14 is the
//! list of every counter and gauge a timeline can carry and who emits
//! it. This test runs the three simulated worlds and a serve bus
//! metered, reads the keys back out of the written timelines, and fails
//! on an emitted name the table lacks, a row nobody emits, or a ✓ in the
//! wrong column. Per-shard series (`queue_depth.s0`) match by stem.

use ddr_repro::gnutella::{
    run_scenario_sharded, GnutellaScenario, Mode, NodeSetConfig, ScenarioConfig,
};
use ddr_repro::harness::{run_with, Scenario};
use ddr_repro::peerolap::{OlapMode, PeerOlapConfig, PeerOlapScenario};
use ddr_repro::sim::SimDuration;
use ddr_repro::telemetry::{
    summarize_timeline_file, JsonlMetrics, MetricsRecorder, TelemetryConfig,
};
use ddr_repro::webcache::{CacheMode, WebCacheConfig, WebCacheScenario};
use ddr_serve::{run_gnutella, ServeConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const EMITTERS: [&str; 4] = ["gnutella", "webcache", "peerolap", "serve"];

/// `(kind, name)` pairs: a counter and a gauge of one name would be two
/// different series.
type Keys = BTreeSet<(String, String)>;

/// A fresh timeline path and the telemetry config metering into it.
fn metered(tag: &str) -> (PathBuf, TelemetryConfig) {
    let file = format!("ddr-vocabulary-{tag}-{}.jsonl", std::process::id());
    let path = std::env::temp_dir().join(file);
    let telemetry = TelemetryConfig {
        metrics_path: Some(path.clone()),
        run_label: "vocabulary",
        ..TelemetryConfig::default()
    };
    (path, telemetry)
}

/// Every key in the timeline at `path`, per-shard suffix stripped; the
/// file is removed afterwards.
fn keys_in(path: &Path) -> Keys {
    let summary = summarize_timeline_file(path).expect("timeline must parse");
    std::fs::remove_file(path).ok();
    let stem = |k: &String| match k.rsplit_once(".s") {
        Some((stem, shard)) if shard.parse::<usize>().is_ok() => stem.to_string(),
        _ => k.clone(),
    };
    let counters = summary.counter_keys().iter().map(|k| ("counter", k));
    let gauges = summary.gauge_keys().iter().map(|k| ("gauge", k));
    counters
        .chain(gauges)
        .map(|(kind, k)| (kind.to_string(), stem(k)))
        .collect()
}

/// Run `S` on the serial kernel, sampled hourly, and return its keys.
fn serial_keys<S: Scenario>(cfg: S::Config, tag: &str) -> Keys {
    let (path, telemetry) = metered(tag);
    let mut recorder = MetricsRecorder::<JsonlMetrics>::new(&telemetry);
    run_with::<S>(
        cfg,
        |sim, until| sim.run(until),
        |now, sim| recorder.sample_sim(now, sim),
    );
    recorder.finish();
    keys_in(&path)
}

/// The DESIGN.md table: for each emitter, the keys it is documented to
/// emit.
fn documented() -> [Keys; 4] {
    let design = include_str!("../DESIGN.md");
    let (_, rest) = design
        .split_once("<!-- metric-vocabulary:begin -->")
        .expect("DESIGN.md has the vocabulary table");
    let (table, _) = rest
        .split_once("<!-- metric-vocabulary:end -->")
        .expect("vocabulary table is closed");
    let mut out: [Keys; 4] = Default::default();
    // Skip the header and the `|---|` separator.
    for row in table.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        assert_eq!(cells.len(), 3 + EMITTERS.len(), "malformed row: {row}");
        let (name, kind) = (cells[0].trim_matches('`'), cells[1]);
        assert!(matches!(kind, "counter" | "gauge"), "bad kind in: {row}");
        assert!(!cells[2].is_empty(), "row without a unit: {row}");
        let marks = &cells[3..];
        assert!(marks.contains(&"✓"), "`{name}` is emitted by nobody");
        for (keys, mark) in out.iter_mut().zip(marks) {
            if *mark == "✓" {
                let fresh = keys.insert((kind.to_string(), name.to_string()));
                assert!(fresh, "`{name}` is listed twice");
            }
        }
    }
    out
}

#[test]
fn every_timeline_key_is_documented_and_every_row_is_emitted() {
    // Gnutella: serial and 2-shard sharded runs must agree on the names.
    let mut cfg = ScenarioConfig::scaled(Mode::Dynamic, 2, 20, 3);
    cfg.seed = 5;
    let gnutella = serial_keys::<GnutellaScenario>(cfg.clone(), "gnutella");
    let (sharded_path, telemetry) = metered("gnutella-sharded");
    cfg.telemetry = telemetry;
    run_scenario_sharded(cfg, 2, 1, false);
    assert_eq!(gnutella, keys_in(&sharded_path), "serial vs sharded names");

    // Two simulated hours: the key set is fixed by the first window.
    let mut cfg = WebCacheConfig::default_scenario(CacheMode::Dynamic);
    (cfg.sim_hours, cfg.warmup_hours) = (2, 1);
    let webcache = serial_keys::<WebCacheScenario>(cfg, "webcache");

    let mut cfg = PeerOlapConfig::default_scenario(OlapMode::Dynamic);
    (cfg.sim_hours, cfg.warmup_hours) = (2, 1);
    let peerolap = serial_keys::<PeerOlapScenario>(cfg, "peerolap");

    let (serve_path, telemetry) = metered("serve");
    let mut node_set = NodeSetConfig::new(32, 7);
    node_set.query_timeout = SimDuration::from_millis(200);
    let mut cfg = ServeConfig::new(node_set, 200.0, 0.3, 2);
    cfg.telemetry = telemetry;
    cfg.monitor_interval_ms = 50;
    run_gnutella(&cfg);
    let serve = keys_in(&serve_path);

    let emitted = [gnutella, webcache, peerolap, serve];
    for ((who, emitted), documented) in EMITTERS.iter().zip(&emitted).zip(&documented()) {
        let undocumented: Vec<_> = emitted.difference(documented).collect();
        let unemitted: Vec<_> = documented.difference(emitted).collect();
        assert!(
            undocumented.is_empty() && unemitted.is_empty(),
            "{who}: emitted but not in DESIGN.md §14: {undocumented:?}; \
             documented but not emitted: {unemitted:?}"
        );
    }
}
