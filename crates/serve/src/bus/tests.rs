//! Unit tests of the bus: load, drain, sharding and the deterministic twin.

use super::*;

fn quick_cfg(nodes: usize, seed: u64, qps: f64, duration_s: f64, shards: usize) -> ServeConfig {
    let mut node_set = NodeSetConfig::new(nodes, seed);
    // Short collection window so the drain phase stays test-sized.
    node_set.query_timeout = SimDuration::from_millis(300);
    ServeConfig::new(node_set, qps, duration_s, shards)
}

#[test]
fn bus_completes_queries_under_load() {
    let cfg = quick_cfg(64, 11, 400.0, 0.5, 2);
    let r = run_gnutella(&cfg);
    assert_eq!(r.nodes, 64);
    assert_eq!(r.shards, 2);
    assert!(r.queries_offered > 0, "load generator never fired");
    assert!(
        r.queries_completed > 0,
        "no query survived to its collection window"
    );
    // Issues are delivered reliably inside one process.
    assert_eq!(r.queries_issued, r.queries_offered);
    assert!(r.messages > 0);
    assert!(r.hit_rate >= 0.0 && r.hit_rate <= 1.0);
    if r.hits > 0 {
        let p50 = r.p50_first_ms.expect("hits imply latency samples");
        let p99 = r.p99_first_ms.expect("hits imply latency samples");
        assert!(p50 <= p99);
    }
}

/// The generator stamps an `OfferQuery` with its send time, and a shard
/// that has already served that millisecond files it behind its
/// wheel's cursor: it must go out on the next turn, not a lap later.
#[test]
fn offer_stamped_behind_the_cursor_is_delivered_and_completes() {
    let cfg = quick_cfg(16, 9, 0.0, 0.0, 2);
    let (worlds, partition, _) = GnutellaWorld::<NullSink>::build_sharded(cfg.scenario(), 2);
    let (mut shards, txs) = build_shards(worlds, &partition, &None);
    drop(txs);
    let clock = Arc::new(WallClock::start());
    assert!(shards[1].wheel.pop_due(40).is_none(), "cursor now at 40 ms");
    shards[1].route(offer(9, 16, SimTime::from_millis(3)));
    let deadline = SimTime::from_millis(40) + cfg.node_set.query_timeout + DRAIN_GRACE;
    let running: Vec<_> = shards
        .into_iter()
        .map(|shard| {
            let clock = Arc::clone(&clock);
            thread::spawn(move || shard.run(clock, deadline))
        })
        .collect();
    let shards: Vec<_> = running
        .into_iter()
        .map(|shard| shard.join().expect("shard thread panicked"))
        .collect();
    let r = report(&cfg, 1, &shards, clock.now());
    assert_eq!((r.queries_issued, r.queries_completed), (1, 1));
}

/// Every injection finalizes, none before its collection window
/// closes, and no initiator is left holding a pending query.
#[test]
fn virtual_run_closes_every_window_on_time() {
    let cfg = ServeConfig::new(NodeSetConfig::new(48, 7), 20.0, 1.0, 1);
    let (shard, offered, end) = run_virtual(&cfg);
    assert_eq!(offered, 20);
    let r = report(&cfg, offered, std::slice::from_ref(&shard), end);
    assert_eq!((r.queries_issued, r.queries_completed), (20, 20));
    assert_eq!(shard.outcomes.len(), 20);
    assert_eq!(
        ddr_gnutella::Census::of(std::slice::from_ref(&shard.world)).pending,
        0
    );
    // The last query, issued at 950 ms, closed the run.
    let window = cfg.node_set.query_timeout;
    assert_eq!(end, SimTime::from_millis(950) + window);
}

/// Nothing is primed but the offered queries: a run offering none ends
/// where it starts, with nothing left on the wheel.
#[test]
fn virtual_run_at_zero_qps_is_empty() {
    let cfg = quick_cfg(16, 9, 0.0, 1.0, 1);
    let (shard, offered, end) = run_virtual(&cfg);
    assert_eq!((offered, end, shard.wheel.len()), (0, SimTime::ZERO, 0));
    assert_eq!(shard.world.metrics, ddr_gnutella::Metrics::new());
}

#[test]
fn traced_bus_writes_inspectable_spans() {
    let dir = std::env::temp_dir().join(format!("ddr-serve-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("serve.jsonl");
    let mut cfg = quick_cfg(48, 5, 300.0, 0.4, 2);
    cfg.telemetry = TelemetryConfig {
        trace_path: Some(path.clone()),
        sample: 1,
        run_label: "ServeSmoke",
        ..TelemetryConfig::default()
    };
    let r = run_gnutella_traced(&cfg);
    assert!(r.queries_completed > 0);
    let trace = std::fs::read_to_string(&path).expect("trace was written");
    std::fs::remove_file(&path).ok();
    let summary = ddr_telemetry::summarize(&trace).expect("trace must parse");
    assert_eq!(
        summary.spans, r.queries_completed,
        "one span per completed query"
    );
    assert!(summary.by_type["hop"] > 0, "the relays wrote their hops");
    assert!(summary.is_complete(), "{}", summary.render());
}

/// The monitor is purely observational: the timeline file's per-window
/// deltas must sum back to the end-of-run report's totals, with the
/// endpoint scraped mid-run — i.e. turning the monitor on changes what
/// is *written*, never what is *reported*.
#[test]
fn monitor_does_not_perturb_the_report() {
    let dir = std::env::temp_dir().join(format!("ddr-serve-mon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("timeline.jsonl");
    let mut cfg = quick_cfg(48, 7, 300.0, 0.4, 2);
    cfg.telemetry.metrics_path = Some(path.clone());
    let port = crate::monitor::free_port();
    cfg.metrics_port = Some(port);
    // Both renderings of a live pass, fetched while the bus runs.
    let scraper = thread::spawn(move || {
        let text = crate::monitor::fetch(port, "/metrics");
        let json = crate::monitor::fetch(port, "/report");
        (text, json)
    });
    let r = run_gnutella(&cfg);
    assert!(r.queries_completed > 0, "run produced no completions");
    let (text, json) = scraper.join().expect("scraper thread");
    assert!(text.contains("\nddr_serve_queries_finalized "), "{text}");
    assert!(
        text.contains("\nddr_serve_delivery_lag_ms{shard=\"1\"} "),
        "{text}"
    );
    let (_, body) = json.split_once("\r\n\r\n").expect("head and body");
    let pass = serde::json::parse(body).expect("pass JSON parses");
    let hits = pass.get("counters").and_then(|c| c.get("hits"));
    assert!(hits.is_some(), "{body}");

    let text = std::fs::read_to_string(&path).expect("timeline file written");
    let keys = [
        "queries_offered",
        "queries",
        "queries_finalized",
        "hits",
        "messages",
        "replies",
        "duplicates_dropped",
    ];
    let mut sums = [0u64; 7];
    let mut windows = 0u64;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = serde::json::parse(line).expect("window record parses");
        let counters = v.get("counters").expect("counters object");
        for (sum, key) in sums.iter_mut().zip(keys) {
            *sum += counters.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
        }
        windows += 1;
    }
    assert!(windows >= 2, "expected several windows, got {windows}");
    // The timeline keeps the simulator's `messages` (query transmissions);
    // the report counts floods and replies together.
    let [offered, queries, finalized, hits, messages, replies, dropped] = sums;
    assert!(messages > 0 && replies > 0, "{sums:?}");
    let sums = [
        offered,
        queries,
        finalized,
        hits,
        messages + replies,
        dropped,
    ];
    let reported = [
        r.queries_offered,
        r.queries_issued,
        r.queries_completed,
        r.hits,
        r.messages,
        r.duplicates,
    ];
    assert_eq!(sums, reported, "timeline sums vs the report");
    // The report's derived fields are internally consistent — the
    // monitor did not leak into their computation.
    assert!((r.achieved_qps - r.queries_completed as f64 / r.duration_s).abs() < 1e-9);
    if r.queries_completed > 0 {
        assert!((r.hit_rate - r.hits as f64 / r.queries_completed as f64).abs() < 1e-9);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn monitor_interval_is_a_tenth_of_the_injection_window_within_10_to_250_ms() {
    let interval = |duration_s| quick_cfg(8, 1, 10.0, duration_s, 1).monitor_interval_ms();
    assert_eq!(interval(0.3), 30);
    assert_eq!(interval(2.0), 200);
    assert_eq!(interval(60.0), 250);
    assert_eq!(interval(0.05), 10);
}

/// A run whose deadline or query count does not fit its integer is a
/// panic naming the field, before any fleet is built — not a run that
/// stops its shards at once or never leaves the inbox drain.
#[test]
fn drain_deadline_is_checked() {
    let window = SimDuration::from_millis(10_000);
    let deadline = drain_deadline(2.0, window);
    assert_eq!(deadline, Some(SimTime::from_millis(12_000) + DRAIN_GRACE));
    for bad in [f64::INFINITY, f64::NAN, -1.0, 1e300, 1.845e16] {
        assert_eq!(drain_deadline(bad, window), None, "duration {bad}");
    }
}

#[test]
#[should_panic(expected = "ServeConfig::duration_s = inf")]
fn infinite_duration_panics_naming_the_field() {
    run_deterministic(&quick_cfg(16, 1, 10.0, f64::INFINITY, 1));
}

#[test]
#[should_panic(expected = "ServeConfig::qps = inf")]
fn infinite_qps_panics_naming_the_field() {
    run_gnutella(&quick_cfg(16, 1, f64::INFINITY, 0.2, 1));
}

#[test]
#[should_panic(expected = "ServeConfig::node_set.nodes = 0")]
fn empty_fleet_panics_naming_the_field() {
    run_gnutella(&quick_cfg(0, 1, 10.0, 0.2, 1));
}

#[test]
fn single_shard_degenerate_case_works() {
    let cfg = quick_cfg(16, 3, 150.0, 0.3, 1);
    let r = run_gnutella(&cfg);
    assert_eq!(r.shards, 1);
    assert!(r.queries_completed > 0);
}
