//! Fairness and free-rider analysis (paper §2's imbalance motivation):
//!
//! * how unevenly does serving load distribute (Gini, top-10 % share),
//!   and does dynamic reconfiguration concentrate it further (it prefers
//!   high-bandwidth, content-rich neighbors)?
//! * with a population of free-riders, does dynamic reconfiguration
//!   starve them of neighbors while static treats them like anyone else?

use super::{degree_cell, gnutella_runs, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::Mode;
use ddr_stats::{gini, top_share, Table};

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone().tuned(4, 48));

    let mut t = Table::new(
        "Serving-load distribution and free-rider isolation (hops=2)",
        &[
            "Mode",
            "free-riders",
            "total hits",
            "gini(served)",
            "top-10% share",
            "deg(free-riders)",
            "deg(contributors)",
        ],
    );
    let mut configs = Vec::new();
    for fr in [0.0f64, 0.25] {
        for mode in [Mode::Static, Mode::Dynamic] {
            let mut cfg = opts.scenario(mode, 2);
            cfg.free_rider_fraction = fr;
            configs.push(cfg);
        }
    }
    let runs = gnutella_runs(&opts, configs.clone(), em);
    for ((report, census), cfg) in runs.into_iter().zip(&configs) {
        let served: Vec<f64> = census.served.iter().map(|&s| s as f64).collect();
        t.row(vec![
            report.label.to_string(),
            format!("{:.0}%", cfg.free_rider_fraction * 100.0),
            format!("{:.0}", report.total_hits()),
            format!("{:.3}", gini(&served)),
            format!("{:.1}%", 100.0 * top_share(&served, 0.10)),
            degree_cell(&census.free_riders),
            degree_cell(&census.contributors),
        ]);
    }
    em.table(&t);
    em.note(
        "Reading guide: with 25% free-riders, dynamic reconfiguration drains the\n\
         free-riders' neighborhoods (their mean degree drops well below the\n\
         contributors'), recovering part of the hit loss — the self-policing\n\
         behaviour §2 motivates.",
    );
    opts.write_csv("fairness", &t);
}
