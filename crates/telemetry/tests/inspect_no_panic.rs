//! The parsers behind `ddr inspect` answer broken input with `Ok` or
//! `Err`, never a panic. A small trace and timeline, recorded by the
//! writers `ddr run` uses, are broken three ways: cut at every char
//! boundary, short of any one line, and any one line at schema version 2.

use ddr_sim::{NodeId, QueryId, SimTime};
use ddr_telemetry::{
    is_timeline, summarize, summarize_timeline, JsonlMetrics, JsonlSink, MetricsRecorder,
    QueryTracer, TelemetryConfig, TraceOutcome,
};

/// The recorded trace and timeline. The run label is multi-byte, so some
/// byte offsets are not char boundaries.
fn recordings() -> [String; 2] {
    let path = |kind: &str| {
        std::env::temp_dir().join(format!("ddr-no-panic-{kind}-{}.jsonl", std::process::id()))
    };
    let cfg = TelemetryConfig {
        trace_path: Some(path("trace")),
        metrics_path: Some(path("timeline")),
        run_label: "Dynamic·Gnutella",
        ..TelemetryConfig::default()
    };
    let (ms, n, q) = (SimTime::from_millis, NodeId::from_index, QueryId);
    let mut tr = QueryTracer::<JsonlSink>::new(&cfg);
    // A hit at depth 2 after one relaunch, and a miss.
    tr.issue(ms(100), q(0), n(0), 7, 2);
    tr.hop(ms(170), q(0), n(1), n(0), 2, 1, 4);
    tr.relaunch(ms(300_000), q(0), q(1), 1);
    tr.hop(ms(300_000), q(1), n(2), n(0), 3, 2, 2);
    tr.dup(ms(300_000), q(1), n(1));
    tr.first(ms(360_000), q(1), n(2), 2, 60_000.0);
    tr.finish(ms(3_600_000), q(1), TraceOutcome::Hit, 3, 60_000.0);
    tr.issue(ms(7_200_000), q(2), n(3), 9, 1);
    tr.finish(ms(7_200_050), q(2), TraceOutcome::Miss, 0, 50.0);
    drop(tr);
    let mut rec = MetricsRecorder::<JsonlMetrics>::new(&cfg);
    for hour in 1..=3 {
        let hub = rec.hub_mut();
        hub.begin_sample();
        hub.counter("hits", 10 * hour);
        hub.counter("messages", 400 * hour);
        // Written as JSON `null` in the second window.
        hub.gauge("latency_p99_ms", 80.0 / (hour as f64 - 2.0).abs());
        rec.emit_window(hour * 3_600_000);
    }
    drop(rec);
    ["trace", "timeline"].map(|kind| {
        let text = std::fs::read_to_string(path(kind)).expect("the recording was written");
        std::fs::remove_file(path(kind)).ok();
        text
    })
}

/// Run every `ddr inspect` parser over `src`, rendering what parses.
fn inspect_all(src: &str) {
    is_timeline(src);
    summarize(src).map(|s| s.render()).ok();
    summarize_timeline(src).map(|s| s.render()).ok();
}

#[test]
fn broken_recordings_are_ok_or_err_never_a_panic() {
    let [trace, timeline] = recordings();
    let whole = summarize(&trace).expect("the recorded trace parses");
    assert!(whole.is_complete(), "{}", whole.render());
    assert!(!is_timeline(&trace));
    assert!(summarize_timeline(&timeline).is_ok() && is_timeline(&timeline));
    for src in [&trace, &timeline] {
        assert!(!src.is_ascii(), "no cut would fall inside a char");
        for cut in (0..=src.len()).filter(|&i| src.is_char_boundary(i)) {
            inspect_all(&src[..cut]);
        }
        let lines: Vec<&str> = src.lines().collect();
        let join = |ls: &[String]| ls.iter().map(|l| format!("{l}\n")).collect::<String>();
        for at in 0..lines.len() {
            let mut edit: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            edit[at] = edit[at].replacen("\"v\":1", "\"v\":2", 1);
            let v2 = join(&edit);
            edit.remove(at);
            inspect_all(&join(&edit));
            inspect_all(&v2);
            let verdict = if src == &trace {
                summarize(&v2).map(drop)
            } else {
                summarize_timeline(&v2).map(drop)
            };
            let err = verdict.expect_err("a version-2 line parsed");
            assert!(err.contains(&format!("line {}", at + 1)), "{err}");
        }
    }
}
