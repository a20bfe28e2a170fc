//! One metric vocabulary, enforced: the table in DESIGN.md §14 is the
//! list of every counter and gauge a timeline can carry and who emits
//! it. This test runs the three simulated worlds and a serve bus
//! metered, reads the keys back out of the written timelines, and fails
//! on an emitted name the table lacks, a row nobody emits, or a ✓ in the
//! wrong column. Per-shard series (`queue_depth.s0`) match by stem. A
//! second test holds the Gnutella report to its timelines: every counter
//! the report serialises is a timeline counter on both clocks.

use ddr_repro::gnutella::{
    run_scenario_sharded, GnutellaScenario, Mode, NodeSetConfig, RunReport, ScenarioConfig,
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

/// Run `S` on the serial kernel, sampled hourly: its report and its
/// timeline's keys.
fn serial_run<S: Scenario>(cfg: S::Config, tag: &str) -> (S::Report, Keys) {
    let (path, telemetry) = metered(tag);
    let mut recorder = MetricsRecorder::<JsonlMetrics>::new(&telemetry);
    let (report, _) = run_with::<S>(
        cfg,
        |sim, until| sim.run(until),
        |now, sim| recorder.sample_sim(now, sim),
    );
    recorder.finish();
    (report, keys_in(&path))
}

/// A small dynamic Gnutella world metered on the serial kernel and on
/// two shards: the serial report and both timelines' keys.
fn gnutella_runs(tag: &str) -> (RunReport, Keys, Keys) {
    let mut cfg = ScenarioConfig::scaled(Mode::Dynamic, 2, 20, 3);
    cfg.seed = 5;
    let (report, serial) = serial_run::<GnutellaScenario>(cfg.clone(), tag);
    let (sharded_path, telemetry) = metered(&format!("{tag}-sharded"));
    cfg.telemetry = telemetry;
    run_scenario_sharded(cfg, 2, 1, false);
    (report, serial, keys_in(&sharded_path))
}

/// A short metered serve run's timeline keys.
fn serve_keys(tag: &str) -> Keys {
    let (path, telemetry) = metered(tag);
    let mut node_set = NodeSetConfig::new(32, 7);
    node_set.query_timeout = SimDuration::from_millis(200);
    let mut cfg = ServeConfig::new(node_set, 200.0, 0.3, 2);
    cfg.telemetry = telemetry;
    run_gnutella(&cfg);
    keys_in(&path)
}

/// The counters of a serialised `RunReport`: each key of its `metrics`
/// object, and of `metrics.runtime`, whose value is a number or a
/// `{"buckets": …}` series. Histograms and running stats are
/// distributions, not counters.
fn report_counters(json: &str) -> BTreeSet<String> {
    let mut counters = BTreeSet::new();
    // The key each open object hangs under; the outermost has none.
    let mut open: Vec<&str> = Vec::new();
    let mut key = "";
    let mut rest = json;
    while let Some(c) = rest.chars().next() {
        rest = &rest[c.len_utf8()..];
        match c {
            '{' => open.push(key),
            '}' => {
                open.pop();
            }
            '"' => {
                let (string, after) = rest.split_once('"').expect("a closed string");
                rest = after;
                let Some(value) = rest.strip_prefix(':') else {
                    continue;
                };
                key = string;
                let series = value.starts_with("{\"buckets\"");
                let number = value.starts_with(|c: char| c.is_ascii_digit());
                let level = matches!(open[..], ["", "metrics"] | ["", "metrics", "runtime"]);
                if level && (series || number) {
                    counters.insert(string.to_string());
                }
            }
            _ => {}
        }
    }
    counters
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
    let (_, gnutella, sharded) = gnutella_runs("gnutella");
    assert_eq!(gnutella, sharded, "serial vs sharded names");

    // Two simulated hours: the key set is fixed by the first window.
    let mut cfg = WebCacheConfig::default_scenario(CacheMode::Dynamic);
    (cfg.sim_hours, cfg.warmup_hours) = (2, 1);
    let (_, webcache) = serial_run::<WebCacheScenario>(cfg, "webcache");

    let mut cfg = PeerOlapConfig::default_scenario(OlapMode::Dynamic);
    (cfg.sim_hours, cfg.warmup_hours) = (2, 1);
    let (_, peerolap) = serial_run::<PeerOlapScenario>(cfg, "peerolap");

    let emitted = [gnutella, webcache, peerolap, serve_keys("serve")];
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

/// Every counter the Gnutella report holds is a timeline counter on both
/// clocks: the serial kernel's, two shards' and the serve bus's.
#[test]
fn report_counters_are_timeline_counters_on_both_clocks() {
    let (report, serial, sharded) = gnutella_runs("report");
    let counters = report_counters(&report.to_json());
    // The walk found both levels: a framework series and a domain scalar.
    assert!(counters.contains("hits") && counters.contains("logins"));
    let timelines = [
        ("serial", serial),
        ("2-shard", sharded),
        ("serve", serve_keys("report-serve")),
    ];
    for (clock, keys) in timelines {
        let missing: Vec<&String> = counters
            .iter()
            .filter(|&name| !keys.contains(&("counter".to_string(), name.clone())))
            .collect();
        assert!(
            missing.is_empty(),
            "the {clock} timeline lacks the report's counters {missing:?}"
        );
    }
}
