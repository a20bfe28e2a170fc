//! Case study 3 evaluation: PeerOlap-style distributed OLAP caching
//! (paper §2/§5). Dynamic reconfiguration should raise the peer-served
//! chunk share, cut warehouse load and mean query latency, and cluster
//! same-workload peers — under *bounded* incoming lists, where adoption
//! can be refused.

use super::shrink_peerolap;
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use crate::run_observed;
use ddr_peerolap::{OlapMode, PeerOlapConfig, PeerOlapScenario};
use ddr_stats::Table;
use ddr_telemetry::{JsonlSink, KernelProfiler};

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let hours: u64 = if opts.hours_explicit { opts.hours } else { 8 };
    let mut profiler = opts.profile.then(KernelProfiler::new);

    let mut table = Table::new(
        "Distributed OLAP caching: static vs dynamic neighborhoods",
        &[
            "Mode",
            "peer chunk %",
            "warehouse chunk %",
            "warehouse cpu s",
            "mean latency ms",
            "same-group %",
            "updates",
            "refused",
        ],
    );
    for mode in [OlapMode::Static, OlapMode::Dynamic] {
        let mut cfg = PeerOlapConfig::default_scenario(mode);
        cfg.sim_hours = hours;
        cfg.warmup_hours = (hours / 8).max(1);
        if let Some(s) = opts.seed {
            cfg.seed = s;
        }
        if opts.smoke {
            shrink_peerolap(&mut cfg);
        }
        cfg.telemetry = opts.telemetry_for(mode.label());
        let telemetry = cfg.telemetry.clone();
        let r = if opts.trace.is_some() {
            run_observed::<PeerOlapScenario<JsonlSink>>(cfg, &telemetry, profiler.as_mut())
        } else {
            run_observed::<PeerOlapScenario>(cfg, &telemetry, profiler.as_mut())
        };
        table.row(vec![
            r.label.to_string(),
            format!("{:.1}", 100.0 * r.peer_share()),
            format!("{:.1}", 100.0 * r.warehouse_share()),
            format!("{:.0}", r.warehouse_ms() / 1_000.0),
            format!("{:.0}", r.mean_latency_ms()),
            format!("{:.1}", 100.0 * r.same_group_fraction),
            format!("{}", r.metrics.runtime.updates),
            format!("{}", r.metrics.adds_refused),
        ]);
    }
    em.table(&table);
    if let Some(p) = &profiler {
        em.note(&p.render());
    }
    opts.write_csv("peerolap_eval", &table);
}
