//! Exploration-frequency sweep (paper §3.3: "The choice of events is very
//! important since it significantly affects performance. Ideally, there
//! should be a correlation between the exploration frequency and the
//! frequency with which repositories change their contents").
//!
//! The web-cache case study is the right instrument: proxy contents churn
//! continuously through LRU replacement, so statistics go stale at a rate
//! set by the request stream. Sweeping the exploration trigger from
//! frantic to glacial should show a broad optimum: probing too rarely
//! starves the updater of candidates; probing constantly pays message
//! overhead for information that hasn't changed.

use super::{case_study_runs, webcache_config};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_stats::Table;
use ddr_telemetry::JsonlSink;
use ddr_webcache::{CacheMode, WebCacheScenario};

/// Requests between explorations, each with the run label its trace and
/// timeline records carry.
const POINTS: [(u32, &str); 7] = [
    (10, "explore/10"),
    (25, "explore/25"),
    (50, "explore/50"),
    (100, "explore/100"),
    (250, "explore/250"),
    (1_000, "explore/1000"),
    (10_000, "explore/10000"),
];

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let frequencies: Vec<(u32, &str)> = POINTS
        .into_iter()
        .filter(|(n, _)| !opts.smoke || matches!(n, 10 | 250 | 10_000))
        .collect();
    let configs = frequencies
        .iter()
        .map(|&(n, run_label)| {
            let mut cfg = webcache_config(opts, CacheMode::Dynamic, run_label);
            cfg.explore_every = n;
            cfg
        })
        .collect();
    let reports = case_study_runs::<WebCacheScenario, WebCacheScenario<JsonlSink>>(
        opts,
        configs,
        |c| &c.telemetry,
        em,
    );

    let mut t = Table::new(
        "Exploration frequency vs adaptation quality (dynamic web cache)",
        &[
            "Explore every N requests",
            "sibling hit %",
            "origin %",
            "latency ms",
            "same-group %",
            "probe+query msgs",
        ],
    );
    for ((n, _), r) in frequencies.iter().zip(reports) {
        t.row(vec![
            n.to_string(),
            format!("{:.1}", 100.0 * r.neighbor_hit_ratio()),
            format!("{:.1}", 100.0 * r.origin_ratio()),
            format!("{:.0}", r.mean_latency_ms()),
            format!("{:.1}", 100.0 * r.same_group_fraction),
            format!("{:.0}", r.metrics.runtime.messages.total()),
        ]);
    }
    em.table(&t);
    em.note(
        "Expected shape: quality degrades toward the bottom rows (exploration\n\
         too rare to track cache churn), while the top rows pay extra probe\n\
         messages for little additional benefit.",
    );
    opts.write_csv("exploration_sweep", &t);
}
