//! The telemetry determinism contract: tracing only **observes**.
//!
//! A trace-enabled run (`XScenario<JsonlSink>`, the sink compiled in)
//! must produce a report **bit-identical** to the untraced default build
//! of the same `(config, seed)` — the tracer consumes no randomness and
//! schedules no events, so the simulated world cannot tell whether it is
//! being watched. Each case study is checked on its hourly series and
//! scalar metrics, and the emitted JSONL is fed through the `ddr inspect`
//! summarizer to assert it is well-formed (every line parses, every
//! sampled span reaches exactly one terminal record). The same holds with
//! every observer attached at once — trace sink, kernel probe and hourly
//! metrics sampling compose on the one `harness::run_with` driver.

use ddr_repro::gnutella::{
    run_scenario, run_scenario_sharded, GnutellaScenario, Mode, ScenarioConfig,
};
use ddr_repro::harness::{run, run_with, Scenario};
use ddr_repro::peerolap::{run_peerolap, OlapMode, PeerOlapConfig, PeerOlapScenario};
use ddr_repro::sim::{EventLabel, SimDuration, World};
use ddr_repro::telemetry::{
    summarize, summarize_timeline, JsonlMetrics, JsonlSink, KernelProfiler, MetricsRecorder,
    TelemetryConfig, TraceSummary,
};
use ddr_repro::webcache::{run_webcache, CacheMode, WebCacheConfig, WebCacheScenario};
use std::collections::HashSet;
use std::path::PathBuf;

/// A unique trace path per test so parallel test threads never share a
/// sink file.
fn trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ddr-telemetry-{tag}-{}.jsonl", std::process::id()))
}

/// The file at `path`, which is removed.
fn take(path: &std::path::Path) -> String {
    let text = std::fs::read_to_string(path).expect("the file was written");
    std::fs::remove_file(path).ok();
    text
}

/// The trace at `path` summarised; the file is removed.
fn summarize_trace(path: &std::path::Path) -> TraceSummary {
    summarize(&take(path)).expect("trace must parse line by line")
}

/// The unsigned integer field `key` of a trace record.
fn field(line: &str, key: &str) -> u64 {
    let at = line
        .find(&format!("\"{key}\":"))
        .expect("the record has the field")
        + key.len()
        + 3;
    let digits = line[at..].split(|c: char| !c.is_ascii_digit()).next();
    digits.unwrap().parse().expect("an unsigned integer")
}

fn telemetry(path: &std::path::Path, sample: u64, label: &'static str) -> TelemetryConfig {
    TelemetryConfig {
        trace_path: Some(path.to_path_buf()),
        sample,
        run_label: label,
        metrics_path: None,
    }
}

/// Run `S` (built with the JSONL trace sink) under a kernel probe *and*
/// hourly metrics sampling into a `tag`-named timeline, and check every
/// observer saw the run: the probe timed dispatches, the timeline holds
/// one window per simulated hour.
fn run_fully_observed<S: Scenario>(cfg: S::Config, tag: &str, hours: u64) -> S::Report
where
    <S::World as World>::Event: EventLabel,
{
    let timeline = trace_path(&format!("{tag}-timeline"));
    let metrics_cfg = TelemetryConfig {
        metrics_path: Some(timeline.clone()),
        run_label: "Observed",
        ..TelemetryConfig::default()
    };
    let mut profiler = KernelProfiler::new();
    let mut recorder = MetricsRecorder::<JsonlMetrics>::new(&metrics_cfg);
    let (report, _world) = run_with::<S>(
        cfg,
        |sim, until| sim.run_probed(until, &mut profiler),
        |now, sim| recorder.sample_sim(now, sim),
    );
    recorder.finish();
    assert!(!profiler.report()[0].is_empty(), "{tag}: probe saw nothing");
    let summary = summarize_timeline(&take(&timeline)).expect("timeline must parse");
    assert_eq!(
        summary.window_count() as u64,
        hours,
        "{tag}: one window per hour"
    );
    report
}

#[test]
fn gnutella_traced_run_is_bit_identical_and_trace_is_complete() {
    let mut cfg = ScenarioConfig::scaled(Mode::Dynamic, 2, 20, 6);
    cfg.seed = 3;
    let plain = run_scenario(cfg.clone());

    let path = trace_path("gnutella");
    cfg.telemetry = telemetry(&path, 1, "Dynamic_Gnutella");
    let traced = run::<GnutellaScenario<JsonlSink>>(cfg.clone());
    assert_eq!(plain, traced);

    // Its own span file, so the completeness checks below see one run.
    let observed_trace = trace_path("gnutella-observed");
    cfg.telemetry.trace_path = Some(observed_trace.clone());
    let observed = run_fully_observed::<GnutellaScenario<JsonlSink>>(cfg, "gnutella", 6);
    std::fs::remove_file(&observed_trace).ok();
    assert_eq!(plain, observed, "probe + sampling + tracing moved the run");

    assert_eq!(plain.hits_series(), traced.hits_series());
    assert_eq!(plain.messages_series(), traced.messages_series());
    assert_eq!(
        plain.metrics.runtime.updates,
        traced.metrics.runtime.updates
    );
    assert_eq!(plain.mean_first_delay_ms(), traced.mean_first_delay_ms());

    let summary = summarize_trace(&path);
    assert!(summary.records > 0, "trace file came out empty");
    assert!(summary.spans > 0, "no query span was recorded");
    assert!(
        summary.is_complete(),
        "span accounting broke: {:?}",
        summary.errors
    );
    assert_eq!(
        summary.spans,
        summary.hits + summary.misses + summary.timeouts,
        "every span must reach exactly one terminal record"
    );
}

/// Three slices trace the serial run: each writes the relays it handles
/// and the spans its nodes issue, and the spans still open at the
/// horizon end at the run's latest record, so the file holds the serial
/// trace's lines in another order and summarises the same.
#[test]
fn gnutella_sharded_trace_equals_the_serial_trace() {
    let sorted = |text: &str| {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines.sort();
        lines
    };
    for mode in [Mode::Static, Mode::Dynamic] {
        let mut cfg = ScenarioConfig::scaled(mode, 2, 20, 6);
        let plain = run_scenario(cfg.clone());

        let serial_path = trace_path(&format!("gnutella-serial-{mode:?}"));
        cfg.telemetry = telemetry(&serial_path, 1, mode.label());
        run::<GnutellaScenario<JsonlSink>>(cfg.clone());
        let serial = take(&serial_path);

        let sharded_path = trace_path(&format!("gnutella-sharded-{mode:?}"));
        cfg.telemetry.trace_path = Some(sharded_path.clone());
        let sharded = run_scenario_sharded::<JsonlSink>(cfg, 3, 1, false);
        assert_eq!(plain, sharded.report);
        drop(sharded.worlds);
        let trace = take(&sharded_path);
        let (lines, serial_lines) = (sorted(&trace), sorted(&serial));
        let first_difference = lines.iter().zip(&serial_lines).find(|(a, b)| a != b);
        assert_eq!(first_difference, None, "{mode:?}");
        assert_eq!(lines.len(), serial_lines.len(), "{mode:?}");

        let summary = summarize(&trace).expect("sharded trace must parse");
        assert!(summary.is_complete(), "{:?}", summary.errors);
        assert!(summary.by_type["hop"] > 0 && summary.by_type["dup"] > 0);
        let serial = summarize(&serial).expect("serial trace must parse");
        assert_eq!(serial.render(), summary.render());
    }
}

/// A trace that lost one forwarder's `hop` reads incomplete, naming the
/// span, whether one world or two slices wrote it. Hop limit 4, so
/// relays forward relays' copies.
#[test]
fn a_trace_missing_a_forwarders_hop_reads_incomplete() {
    let mut cfg = ScenarioConfig::scaled(Mode::Dynamic, 4, 20, 3);
    cfg.seed = 3;
    for shards in [1, 2] {
        let path = trace_path(&format!("gnutella-lost-hop-{shards}"));
        cfg.telemetry = telemetry(&path, 1, "Dynamic_Gnutella");
        if shards == 1 {
            run::<GnutellaScenario<JsonlSink>>(cfg.clone());
        } else {
            drop(run_scenario_sharded::<JsonlSink>(
                cfg.clone(),
                shards,
                1,
                false,
            ));
        }
        let trace = take(&path);
        assert!(summarize(&trace).unwrap().is_complete());
        let hops: Vec<&str> = trace
            .lines()
            .filter(|l| l.contains("\"type\":\"hop\""))
            .collect();
        let froms: HashSet<(u64, u64)> = hops
            .iter()
            .map(|h| (field(h, "q"), field(h, "from")))
            .collect();
        let (victim, q) = hops
            .iter()
            .map(|h| (*h, field(h, "q")))
            .find(|&(h, q)| froms.contains(&(q, field(h, "node"))))
            .expect("some relay forwarded a relay's copy");
        let lost: String = trace
            .lines()
            .filter(|l| *l != victim)
            .map(|l| format!("{l}\n"))
            .collect();
        let summary = summarize(&lost).unwrap();
        assert!(!summary.is_complete(), "{shards} shards: lost {victim}");
        let span = format!("(Dynamic_Gnutella) in span q{q}:");
        assert!(
            summary.errors.iter().all(|e| e.contains(&span)),
            "{:?}",
            summary.errors
        );
    }
}

/// At `--trace-sample 8` exactly the spans of nodes 0, 8, 16, … are
/// traced, each whole: every relay writes their hops and duplicates.
#[test]
fn gnutella_sampling_reduces_spans_without_perturbing_the_run() {
    let mut cfg = ScenarioConfig::scaled(Mode::Static, 2, 20, 6);
    cfg.seed = 3;
    let plain = run_scenario(cfg.clone());

    let path = trace_path("gnutella-sampled");
    cfg.telemetry = telemetry(&path, 8, "Gnutella");
    let traced = run::<GnutellaScenario<JsonlSink>>(cfg);

    assert_eq!(plain.hits_series(), traced.hits_series());
    assert_eq!(plain.messages_series(), traced.messages_series());

    let trace = take(&path);
    let initiators: Vec<u64> = trace
        .lines()
        .filter(|l| l.contains("\"type\":\"issue\""))
        .map(|l| field(l, "node"))
        .collect();
    assert!(initiators.iter().all(|n| n % 8 == 0), "{initiators:?}");
    assert!(initiators.iter().any(|&n| n > 0), "one node traced");
    let summary = summarize(&trace).expect("sampled trace must parse");
    assert!(summary.spans > 0 && summary.by_type["hop"] > 0);
    assert!(summary.is_complete(), "{:?}", summary.errors);
}

#[test]
fn webcache_traced_run_is_bit_identical() {
    let mut cfg = WebCacheConfig::default_scenario(CacheMode::Dynamic);
    cfg.proxies = 32;
    cfg.groups = 4;
    cfg.pages_per_group = 4_000;
    cfg.global_pages = 4_000;
    cfg.cache_capacity = 500;
    cfg.sim_hours = 6;
    cfg.warmup_hours = 1;
    cfg.mean_request_interval = SimDuration::from_millis(1_000);
    cfg.seed = 11;
    let plain = run_webcache(cfg.clone());

    let path = trace_path("webcache");
    cfg.telemetry = telemetry(&path, 16, "Dynamic_Squid");
    let traced = run::<WebCacheScenario<JsonlSink>>(cfg.clone());
    assert_eq!(plain, traced);

    // Its own span file, so the completeness checks below see one run.
    let observed_trace = trace_path("webcache-observed");
    cfg.telemetry.trace_path = Some(observed_trace.clone());
    let observed = run_fully_observed::<WebCacheScenario<JsonlSink>>(cfg, "webcache", 6);
    std::fs::remove_file(&observed_trace).ok();
    assert_eq!(plain, observed, "probe + sampling + tracing moved the run");

    assert_eq!(plain.neighbor_hit_ratio(), traced.neighbor_hit_ratio());
    assert_eq!(plain.mean_latency_ms(), traced.mean_latency_ms());
    assert_eq!(
        plain.metrics.runtime.updates,
        traced.metrics.runtime.updates
    );

    let summary = summarize_trace(&path);
    assert!(summary.spans > 0);
    assert!(summary.is_complete(), "{:?}", summary.errors);
}

#[test]
fn peerolap_traced_run_is_bit_identical() {
    let mut cfg = PeerOlapConfig::default_scenario(OlapMode::Dynamic);
    cfg.peers = 24;
    cfg.groups = 4;
    cfg.chunks_per_region = 2_048;
    cfg.cache_capacity = 512;
    cfg.sim_hours = 5;
    cfg.warmup_hours = 1;
    cfg.mean_query_interval = SimDuration::from_millis(2_000);
    cfg.seed = 4;
    let plain = run_peerolap(cfg.clone());

    let path = trace_path("peerolap");
    cfg.telemetry = telemetry(&path, 16, "Dynamic_PeerOlap");
    let traced = run::<PeerOlapScenario<JsonlSink>>(cfg.clone());
    assert_eq!(plain, traced);

    // Its own span file, so the completeness checks below see one run.
    let observed_trace = trace_path("peerolap-observed");
    cfg.telemetry.trace_path = Some(observed_trace.clone());
    let observed = run_fully_observed::<PeerOlapScenario<JsonlSink>>(cfg, "peerolap", 5);
    std::fs::remove_file(&observed_trace).ok();
    assert_eq!(plain, observed, "probe + sampling + tracing moved the run");

    assert_eq!(plain.total_chunks(), traced.total_chunks());
    assert_eq!(plain.peer_share(), traced.peer_share());
    assert_eq!(plain.mean_latency_ms(), traced.mean_latency_ms());
    assert_eq!(plain.metrics.adds_refused, traced.metrics.adds_refused);

    let summary = summarize_trace(&path);
    assert!(summary.spans > 0);
    assert!(summary.is_complete(), "{:?}", summary.errors);
}
