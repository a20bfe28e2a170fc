//! Figure 1: performance of dynamic Gnutella at hops = 2.
//!
//! (a) queries satisfied per one-hour interval, hours 12–96;
//! (b) query messages propagated per hour.
//!
//! Expected shape (paper): the dynamic approach satisfies more queries per
//! hour than static while sending fewer messages; the gain is modest
//! because at 2 hops only a few dozen nodes are explored per query.

use super::{gnutella_reports, smoke_scale};
use crate::emit::Emitter;
use crate::hourly_figure_table;
use crate::opts::ExpOptions;
use ddr_gnutella::Mode;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    hourly_figure(opts, em, 1, 2);
}

/// Figures 1 and 2 are one experiment at two hop limits: the (a) hits and
/// (b) messages hourly tables for a static/dynamic pair, two summary
/// lines, the full-resolution CSVs and both report JSONs. Figure 1 states
/// the message saving as a percentage, Figure 2 as the dynamic/static
/// ratio (the paper's "roughly half").
pub(crate) fn hourly_figure(opts: &ExpOptions, em: &mut Emitter, fig: u8, hops: u8) {
    let opts = smoke_scale(opts.clone());
    let configs = vec![
        opts.scenario(Mode::Static, hops),
        opts.scenario(Mode::Dynamic, hops),
    ];
    let reports = gnutella_reports(&opts, configs, em);
    let (stat, dynm) = (&reports[0], &reports[1]);

    for (part, what, metric) in [
        ('a', "queries satisfied", "hits"),
        ('b', "query messages", "messages"),
    ] {
        let title = format!("Figure {fig}({part}): {what} per hour (hops={hops})");
        em.table(&hourly_figure_table(&title, metric, stat, dynm, 15));
    }

    let (sh, dh) = (stat.mean_hits_per_hour(), dynm.mean_hits_per_hour());
    em.note(&format!(
        "summary: hits/hour  static={sh:.0} dynamic={dh:.0} ({:+.1}%)",
        100.0 * (dh / sh - 1.0)
    ));
    let (sm, dm) = (stat.mean_messages_per_hour(), dynm.mean_messages_per_hour());
    let saving = if fig == 1 {
        format!("{:+.1}%", 100.0 * (dm / sm - 1.0))
    } else {
        format!("dynamic/static = {:.2}", dm / sm)
    };
    em.note(&format!(
        "summary: msgs/hour  static={sm:.0} dynamic={dm:.0} ({saving})"
    ));

    opts.write_json(&format!("fig{fig}_static_report"), stat);
    opts.write_json(&format!("fig{fig}_dynamic_report"), dynm);

    // Full-resolution CSVs (every hour).
    for (part, metric) in [('a', "hits"), ('b', "messages")] {
        let name = format!("fig{fig}{part}");
        opts.write_csv(
            &format!("{name}_{metric}_hops{hops}"),
            &hourly_figure_table(&name, metric, stat, dynm, 1),
        );
    }
}
