//! Case study 2 evaluation: cooperative web caching under pure-asymmetric
//! relations (paper §1/§3's Squid scenario; no figure in the paper — this
//! demonstrates the framework's generality claim of §5: "we applied our
//! framework for many existing systems, including … distributed caching").
//!
//! Expected shape: the dynamic variant raises the sibling hit ratio and
//! cuts mean latency vs static random neighborhoods, because exploration +
//! asymmetric updates cluster same-interest proxies.

use super::shrink_webcache;
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use crate::run_observed;
use ddr_stats::Table;
use ddr_telemetry::{JsonlSink, KernelProfiler};
use ddr_webcache::{CacheMode, WebCacheConfig, WebCacheScenario};

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let hours: u64 = if opts.hours_explicit { opts.hours } else { 12 };
    let mut profiler = opts.profile.then(KernelProfiler::new);

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
    for mode in [CacheMode::Static, CacheMode::Dynamic] {
        let mut cfg = WebCacheConfig::default_scenario(mode);
        cfg.sim_hours = hours;
        cfg.warmup_hours = (hours / 6).max(1);
        if let Some(s) = opts.seed {
            cfg.seed = s;
        }
        if opts.smoke {
            shrink_webcache(&mut cfg);
        }
        cfg.telemetry = opts.telemetry_for(mode.label());
        let telemetry = cfg.telemetry.clone();
        let r = if opts.trace.is_some() {
            run_observed::<WebCacheScenario<JsonlSink>>(cfg, &telemetry, profiler.as_mut())
        } else {
            run_observed::<WebCacheScenario>(cfg, &telemetry, profiler.as_mut())
        };
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
    if let Some(p) = &profiler {
        em.note(&p.render());
    }
    opts.write_csv("webcache_eval", &table);
}
