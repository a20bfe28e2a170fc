//! Figure 3(a): average response time for the first result, vs the
//! terminating condition (hops = 1..4); column annotations are the total
//! number of results obtained.
//!
//! Expected shape (paper): static delay climbs steeply with the hop limit
//! (results come from far away); dynamic stays much flatter and lower
//! (reconfiguration pulls beneficial content to 1 hop), while obtaining
//! *more* total results.

use super::{gnutella_reports, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::Mode;
use ddr_stats::Table;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone());
    let hops: Vec<u8> = vec![1, 2, 3, 4];
    let mut configs = Vec::new();
    for &h in &hops {
        configs.push(opts.scenario(Mode::Static, h));
        configs.push(opts.scenario(Mode::Dynamic, h));
    }
    let reports = gnutella_reports(&opts, configs, em);

    let mut t = Table::new(
        "Figure 3(a): mean first-result delay (ms) and total results, by hop limit",
        &[
            "Hops",
            "Gnutella delay",
            "Gnutella results",
            "Dynamic delay",
            "Dynamic results",
        ],
    );
    for (i, &h) in hops.iter().enumerate() {
        let s = &reports[2 * i];
        let d = &reports[2 * i + 1];
        t.row(vec![
            format!("{h}"),
            format!("{:.0}", s.mean_first_delay_ms()),
            format!("{:.0}", s.total_results()),
            format!("{:.0}", d.mean_first_delay_ms()),
            format!("{:.0}", d.total_results()),
        ]);
    }
    em.table(&t);
    opts.write_csv("fig3a_delay_by_hops", &t);

    // Tail behaviour (beyond the paper's means): p50/p95 from the delay
    // histograms show how much of the static curve is tail inflation,
    // and the mean overlay distance of first results quantifies the
    // paper's "most of the results come from nearby nodes" claim.
    let mut q = Table::new(
        "Fig 3(a) supplement: delay quantiles (ms) and first-result distance (hops)",
        &[
            "Hops",
            "static p50",
            "static p95",
            "static dist",
            "dynamic p50",
            "dynamic p95",
            "dynamic dist",
        ],
    );
    for (i, &h) in hops.iter().enumerate() {
        let s = &reports[2 * i].metrics;
        let d = &reports[2 * i + 1].metrics;
        q.row(vec![
            format!("{h}"),
            format!("{:.0}", s.first_delay_hist.quantile(0.5)),
            format!("{:.0}", s.first_delay_hist.quantile(0.95)),
            format!("{:.2}", s.first_result_hops.mean()),
            format!("{:.0}", d.first_delay_hist.quantile(0.5)),
            format!("{:.0}", d.first_delay_hist.quantile(0.95)),
            format!("{:.2}", d.first_result_hops.mean()),
        ]);
    }
    em.table(&q);
    opts.write_csv("fig3a_delay_quantiles", &q);
}
