//! Case study 3 evaluation: PeerOlap-style distributed OLAP caching
//! (paper §2/§5). Dynamic reconfiguration should raise the peer-served
//! chunk share, cut warehouse load and mean query latency, and cluster
//! same-workload peers — under *bounded* incoming lists, where adoption
//! can be refused.

use super::{case_study_runs, peerolap_config};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_peerolap::{OlapMode, PeerOlapScenario};
use ddr_stats::Table;
use ddr_telemetry::JsonlSink;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
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
    let configs = [OlapMode::Static, OlapMode::Dynamic]
        .map(|mode| peerolap_config(opts, mode))
        .to_vec();
    for r in case_study_runs::<PeerOlapScenario, PeerOlapScenario<JsonlSink>>(
        opts,
        configs,
        |c| &c.telemetry,
        em,
    ) {
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
    opts.write_csv("peerolap_eval", &table);
}
