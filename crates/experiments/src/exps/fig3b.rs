//! Figure 3(b): total hits over the whole measured period vs the
//! reconfiguration threshold K ∈ {1, 2, 4, 8, 16}, at hops = 2, with the
//! static configuration as the flat baseline.
//!
//! Expected shape (paper): K = 1 performs like static (reconfiguration on
//! every returned result is too noisy — any responder becomes a neighbor
//! even without shared interests); intermediate K is optimal; very large K
//! decays toward static because a 3-hour session leaves too few
//! reconfigurations to assemble the beneficial neighborhood.

use super::{gnutella_reports, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::Mode;
use ddr_stats::Table;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone());
    let thresholds: Vec<u32> = vec![1, 2, 4, 8, 16];

    let mut configs = vec![opts.scenario(Mode::Static, 2)];
    for &k in &thresholds {
        let mut c = opts.scenario(Mode::Dynamic, 2);
        c.reconfig_threshold = k;
        configs.push(c);
    }
    let reports = gnutella_reports(&opts, configs, em);
    let static_hits = reports[0].total_hits();

    let mut t = Table::new(
        "Figure 3(b): total hits vs reconfiguration threshold (hops=2)",
        &["Threshold (requests)", "Gnutella", "Dynamic_Gnutella"],
    );
    for (i, &k) in thresholds.iter().enumerate() {
        t.row(vec![
            format!("{k}"),
            format!("{static_hits:.0}"),
            format!("{:.0}", reports[i + 1].total_hits()),
        ]);
    }
    em.table(&t);

    let best = thresholds
        .iter()
        .enumerate()
        .max_by(|a, b| {
            reports[a.0 + 1]
                .total_hits()
                .partial_cmp(&reports[b.0 + 1].total_hits())
                .unwrap()
        })
        .map(|(i, &k)| (k, reports[i + 1].total_hits()))
        .unwrap();
    em.note(&format!(
        "best threshold: K={} with {:.0} hits (static: {:.0})",
        best.0, best.1, static_hits
    ));
    opts.write_csv("fig3b_threshold_sweep", &t);
}
