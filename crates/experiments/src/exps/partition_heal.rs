//! Regional partition & heal: correlated link failure, not random loss.
//!
//! For the middle third of the run the node population splits into
//! `ISLANDS` contiguous regions and every message crossing an island
//! boundary is dropped at delivery time; afterwards the network heals.
//! The benign run is the control. The [`check_invariants`] layer proves
//! the isolation property — zero cross-island deliveries inside the
//! window — and the table shows the cost: dropped messages, the hit-rate
//! dent, and the cross-island traffic that resumes after the heal.
//!
//! [`check_invariants`]: ddr_gnutella::check_invariants

use super::{fold_digests, gnutella_reports, pct_delta, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::{Mode, PartitionWindow};
use ddr_stats::Table;

/// Island count of the regional partition (>= 2).
const ISLANDS: usize = 3;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone().tuned(4, 48));

    let benign = opts.scenario(Mode::Dynamic, 2);
    let mut cut = benign.clone();
    let from_hour = (cut.sim_hours / 3).max(1);
    let to_hour = (2 * cut.sim_hours / 3).max(from_hour + 1);
    let window = PartitionWindow {
        islands: ISLANDS.min(cut.workload.users),
        from_hour,
        to_hour,
    };
    cut.partition = Some(window);

    let reports = gnutella_reports(&opts, vec![benign, cut], em);
    let (base, split) = (&reports[0], &reports[1]);

    let mut t = Table::new(
        format!(
            "Regional partition: {} islands over hours [{from_hour}, {to_hour})",
            window.islands
        ),
        &[
            "Scenario",
            "hits/hour",
            "msgs/hour",
            "hit ratio",
            "drops",
            "cross-island",
        ],
    );
    for (name, r) in [("benign", base), ("partitioned", split)] {
        t.row(vec![
            name.to_string(),
            format!("{:.0}", r.mean_hits_per_hour()),
            format!("{:.0}", r.mean_messages_per_hour()),
            format!("{:.3}", r.hit_ratio()),
            format!("{}", r.metrics.partition_drops),
            // max(0.0) normalises the empty series' negative zero.
            format!("{:.0}", r.metrics.cross_island.total().max(0.0)),
        ]);
    }
    em.table(&t);

    let healed = split
        .metrics
        .cross_island
        .window_sum(to_hour as usize, split.metrics.cross_island.len());
    em.note(&format!(
        "hit-rate delta during outage era: {:+.1}%; {} messages dropped at island \
         boundaries; {healed:.0} cross-island deliveries after the heal at hour {to_hour}",
        pct_delta(split.hit_ratio(), base.hit_ratio()),
        split.metrics.partition_drops,
    ));
    em.note("invariants: ok (zero cross-island deliveries inside the window)");
    em.note(&format!("digest: {:016x}", fold_digests(&[base, split])));

    opts.write_csv("partition_heal", &t);
    opts.write_json("partition_heal_report", split);
}
