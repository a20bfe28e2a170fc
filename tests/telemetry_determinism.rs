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

use ddr_repro::gnutella::{run_scenario, GnutellaScenario, Mode, ScenarioConfig};
use ddr_repro::harness::{run, run_with, Scenario};
use ddr_repro::peerolap::{run_peerolap, OlapMode, PeerOlapConfig, PeerOlapScenario};
use ddr_repro::sim::{EventLabel, SimDuration, World};
use ddr_repro::telemetry::{
    summarize_file, summarize_timeline_file, JsonlMetrics, JsonlSink, KernelProfiler,
    MetricsRecorder, TelemetryConfig,
};
use ddr_repro::webcache::{run_webcache, CacheMode, WebCacheConfig, WebCacheScenario};
use std::path::PathBuf;

/// A unique trace path per test so parallel test threads never share a
/// sink file.
fn trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ddr-telemetry-{tag}-{}.jsonl", std::process::id()))
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
    assert!(profiler.dispatches() > 0, "{tag}: probe saw nothing");
    let summary = summarize_timeline_file(&timeline).expect("timeline must parse");
    std::fs::remove_file(&timeline).ok();
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

    let summary = summarize_file(&path).expect("trace must parse line by line");
    std::fs::remove_file(&path).ok();
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

    let summary = summarize_file(&path).expect("sampled trace must parse");
    std::fs::remove_file(&path).ok();
    assert!(summary.spans > 0);
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

    let summary = summarize_file(&path).expect("webcache trace must parse");
    std::fs::remove_file(&path).ok();
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

    let summary = summarize_file(&path).expect("peerolap trace must parse");
    std::fs::remove_file(&path).ok();
    assert!(summary.spans > 0);
    assert!(summary.is_complete(), "{:?}", summary.errors);
}
