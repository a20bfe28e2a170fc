//! The metric vocabulary: every name the runner can emit, with its unit.
//!
//! `BENCHMARK.json` declares the same names; `--check` asserts the two
//! lists agree in both directions.

/// The seven workloads, in the order `--check` runs them.
pub const WORKLOADS: [&str; 7] = [
    "fig1_paper",
    "churn_links",
    "big_world_50k",
    "relay_kernel",
    "webcache_64",
    "peerolap_48",
    "serve_open_30k",
];

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("cpu_us_per_query", "us"),
    ("first_result_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Event labels per world, as `EventLabel::label` spells them.
pub const HANDLER_LABELS: [(&str, &[&str]); 3] = [
    (
        "gnutella",
        &[
            "Toggle",
            "IssueQuery",
            "QueryArrive",
            "ReplyArrive",
            "QueryFinalize",
            "InviteArrive",
            "InviteReply",
            "EvictArrive",
            "LinkRequest",
            "LinkAck",
            "Unlink",
            "WaveCheck",
            "IndexRefresh",
            "TrialExpire",
        ],
    ),
    (
        "webcache",
        &[
            "Request",
            "FetchComplete",
            "ProbeReply",
            "DigestRefresh",
            "ProxyToggle",
        ],
    ),
    (
        "peerolap",
        &[
            "IssueQuery",
            "ChunkRequest",
            "ChunkReply",
            "P2pPhaseEnd",
            "QueryComplete",
            "PeerToggle",
        ],
    ),
];

/// Per-layer metrics that are not per-handler, `(name, unit)`.
const LAYER_FIXED: [(&str, &str); 36] = [
    ("harness.build_s", "s"),
    ("harness.prime_s", "s"),
    ("harness.extract_report_s", "s"),
    ("sim.events_processed", "count"),
    ("sim.peak_pending", "count"),
    ("sim.queue.hold_ns_d1k", "ns"),
    ("sim.queue.hold_ns_d100k", "ns"),
    ("sim.queue.overflow_share", "share"),
    ("sim.serial.ns_per_event", "ns"),
    ("sim.sharded1.ns_per_event", "ns"),
    ("sim.sharded2_t1.ns_per_event", "ns"),
    ("sim.sharded2_t2.ns_per_event", "ns"),
    ("sim.sharded.windows", "count"),
    ("sim.sharded.events_per_window", "count"),
    ("sim.sharded.merge_ns_per_window", "ns"),
    ("sim.sharded.work_share", "share"),
    ("sim.sharded.barrier_share", "share"),
    ("sim.sharded.stall_share", "share"),
    ("sim.sharded.cross_shard_share", "share"),
    ("sim.handler_share", "share"),
    ("sim.residual_ns_per_event", "ns"),
    ("core.dup_cache.first_sighting_ns", "ns"),
    ("webcache.lru.touch_insert_ns", "ns"),
    ("webcache.digest.contains_ns", "ns"),
    ("workload.next_target_ns", "ns"),
    ("serve.build_nodes_s", "s"),
    ("serve.achieved_qps", "1/s"),
    ("serve.first_result_p99_ms", "ms"),
    ("serve.offered_share", "share"),
    ("serve.completed_share", "share"),
    ("serve.messages_per_query", "count"),
    ("serve.duplicates_share", "share"),
    ("serve.hit_rate", "share"),
    ("serve.drain_s", "s"),
    ("telemetry.metrics_on_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Name of a per-handler metric: `<world>.handler.<Label>.<count|ns>`.
pub fn handler_metric(world: &str, label: &str, what: &str) -> String {
    format!("{world}.handler.{label}.{what}")
}

/// Every per-layer metric `(name, unit)`, measured in the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for (world, labels) in HANDLER_LABELS {
        for label in labels {
            out.push((handler_metric(world, label, "count"), "count"));
            out.push((handler_metric(world, label, "ns"), "ns"));
        }
    }
    out
}

/// Whether a per-layer metric is an exact count: one that must repeat
/// bit for bit between two runs of one `(workload, seed)`.
pub fn is_exact_count(name: &str) -> bool {
    name == "sim.events_processed"
        || name == "sim.peak_pending"
        || name == "sim.sharded.windows"
        || (name.contains(".handler.") && name.ends_with(".count"))
}
