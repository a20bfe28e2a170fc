//! Case study 2 evaluation: cooperative web caching under pure-asymmetric
//! relations (paper §1/§3's Squid scenario; no figure in the paper — this
//! demonstrates the framework's generality claim of §5: "we applied our
//! framework for many existing systems, including … distributed caching").
//!
//! Expected shape: the dynamic variant raises the sibling hit ratio and
//! cuts mean latency vs static random neighborhoods, because exploration +
//! asymmetric updates cluster same-interest proxies.

use super::{case_study_runs, webcache_config};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_stats::Table;
use ddr_telemetry::JsonlSink;
use ddr_webcache::{CacheMode, WebCacheScenario};

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let mut table = Table::new(
        "Cooperative web caching: static vs dynamic neighborhoods",
        &[
            "Mode",
            "local hit %",
            "sibling hit %",
            "origin %",
            "mean latency ms",
            "same-group edges %",
            "updates",
        ],
    );
    let configs = [CacheMode::Static, CacheMode::Dynamic]
        .map(|mode| webcache_config(opts, mode, mode.label()))
        .to_vec();
    for r in case_study_runs::<WebCacheScenario, WebCacheScenario<JsonlSink>>(
        opts,
        configs,
        |c| &c.telemetry,
        em,
    ) {
        table.row(vec![
            r.label.to_string(),
            format!("{:.1}", 100.0 * r.local_hit_ratio()),
            format!("{:.1}", 100.0 * r.neighbor_hit_ratio()),
            format!("{:.1}", 100.0 * r.origin_ratio()),
            format!("{:.0}", r.mean_latency_ms()),
            format!("{:.1}", 100.0 * r.same_group_fraction),
            format!("{}", r.metrics.runtime.updates),
        ]);
    }
    em.table(&table);
    opts.write_csv("webcache_eval", &table);
}
