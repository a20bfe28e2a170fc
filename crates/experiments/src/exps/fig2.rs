//! Figure 2: performance of dynamic Gnutella at hops = 4.
//!
//! Expected shape (paper): with the larger exploration radius (up to 160
//! nodes per query) the dynamic approach finds beneficial neighbors much
//! faster — more hits than static *and* roughly half the message overhead.

use super::smoke_scale;
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use crate::{hourly_figure_table, run_all_with};
use ddr_gnutella::Mode;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone());
    let configs = vec![
        opts.scenario(Mode::Static, 4),
        opts.scenario(Mode::Dynamic, 4),
    ];
    let reports = run_all_with(&opts, configs, em);
    let (stat, dynm) = (&reports[0], &reports[1]);

    let fig2a = hourly_figure_table(
        "Figure 2(a): queries satisfied per hour (hops=4)",
        "hits",
        stat,
        dynm,
        15,
    );
    em.table(&fig2a);
    let fig2b = hourly_figure_table(
        "Figure 2(b): query messages per hour (hops=4)",
        "messages",
        stat,
        dynm,
        15,
    );
    em.table(&fig2b);

    em.note(&format!(
        "summary: hits/hour  static={:.0} dynamic={:.0} ({:+.1}%)",
        stat.mean_hits_per_hour(),
        dynm.mean_hits_per_hour(),
        100.0 * (dynm.mean_hits_per_hour() / stat.mean_hits_per_hour() - 1.0)
    ));
    em.note(&format!(
        "summary: msgs/hour  static={:.0} dynamic={:.0} (dynamic/static = {:.2})",
        stat.mean_messages_per_hour(),
        dynm.mean_messages_per_hour(),
        dynm.mean_messages_per_hour() / stat.mean_messages_per_hour()
    ));

    opts.write_csv(
        "fig2a_hits_hops4",
        &hourly_figure_table("fig2a", "hits", stat, dynm, 1),
    );
    opts.write_csv(
        "fig2b_messages_hops4",
        &hourly_figure_table("fig2b", "messages", stat, dynm, 1),
    );
}
