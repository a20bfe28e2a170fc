//! Diagnostic run: clustering strength and statistics coverage of the
//! dynamic overlay (not a paper figure; used to verify the mechanism
//! behind Figs 1–3 is operating).

use super::{gnutella_runs, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::Mode;
use ddr_stats::Table;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone());
    let mut t = Table::new(
        "Overlay diagnostics: clustering and statistics coverage",
        &[
            "Mode",
            "same-cat links %",
            "stats/peer",
            "hits",
            "msgs",
            "delay ms",
            "first-hop dist",
            "reconf",
            "inv sent",
            "inv acc",
        ],
    );
    let configs = vec![
        opts.scenario(Mode::Static, 2),
        opts.scenario(Mode::Dynamic, 2),
    ];
    for (report, end) in gnutella_runs(&opts, configs, em) {
        t.row(vec![
            report.label.to_string(),
            format!("{:.1}", 100.0 * end.same_category_links),
            format!("{:.1}", end.stats_per_peer),
            format!("{:.0}", report.total_hits()),
            format!("{:.0}", report.total_messages()),
            format!("{:.0}", report.mean_first_delay_ms()),
            format!("{:.2}", report.metrics.first_result_hops.mean()),
            format!("{}", report.metrics.runtime.updates),
            format!("{}", report.metrics.invitations_sent),
            format!("{}", report.metrics.invitations_accepted),
        ]);
    }
    em.table(&t);
}
