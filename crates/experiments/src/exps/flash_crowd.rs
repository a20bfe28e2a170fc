//! Flash crowd: a sudden popularity spike on one genre.
//!
//! The benign dynamic run is compared against the same world with a
//! trapezoidal [`FlashCrowd`] event: starting a quarter into the
//! measurement window, `--spike-boost` of all queries redirect onto one
//! category, drawn from a sharper Zipf so the crowd piles onto a handful
//! of items. Demand concentration is the *favourable* case for the
//! framework — clustering forms around the hot genre — so hit rate
//! should rise while message volume stays flat (queries, not downloads,
//! are the metered cost).
//!
//! The `digest:` note folds both runs; the invariants are asserted on
//! every run by the shared runner.

use super::{fold_digests, gnutella_reports, pct_delta, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::Mode;
use ddr_stats::Table;
use ddr_workload::FlashCrowd;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone().tuned(4, 48));

    let benign = opts.scenario(Mode::Dynamic, 2);
    let mut crowd = benign.clone();
    // Place the event inside the measurement window: ramp for span/8,
    // hold for span/4, decay for span/8 — a quarter of the measured run
    // at full intensity regardless of the horizon.
    let warm = crowd.warmup_hours as f64;
    let span = (crowd.sim_hours as f64 - warm).max(2.0);
    crowd.workload.flash_crowd = Some(FlashCrowd {
        category: crowd.workload.categories / 4,
        start_hour: warm + span / 4.0,
        ramp_hours: span / 8.0,
        hold_hours: span / 4.0,
        decay_hours: span / 8.0,
        peak_weight: opts.pack.spike_boost,
        spike_theta: 1.2,
    });

    let reports = gnutella_reports(&opts, vec![benign, crowd], em);
    let (base, spiked) = (&reports[0], &reports[1]);

    let mut t = Table::new(
        format!(
            "Flash crowd: {:.0}% of queries onto one genre at peak",
            opts.pack.spike_boost * 100.0
        ),
        &[
            "Scenario",
            "hits/hour",
            "msgs/hour",
            "hit ratio",
            "first delay ms",
        ],
    );
    for (name, r) in [("benign", base), ("flash_crowd", spiked)] {
        t.row(vec![
            name.to_string(),
            format!("{:.0}", r.mean_hits_per_hour()),
            format!("{:.0}", r.mean_messages_per_hour()),
            format!("{:.3}", r.hit_ratio()),
            format!("{:.0}", r.mean_first_delay_ms()),
        ]);
    }
    em.table(&t);

    em.note(&format!(
        "delta vs benign: hits/hour {:+.1}%, msgs/hour {:+.1}%",
        pct_delta(spiked.mean_hits_per_hour(), base.mean_hits_per_hour()),
        pct_delta(
            spiked.mean_messages_per_hour(),
            base.mean_messages_per_hour()
        ),
    ));
    em.note("invariants: ok (conservation, dup-cache, partition, refusal, finite)");
    em.note(&format!("digest: {:016x}", fold_digests(&[base, spiked])));

    opts.write_csv("flash_crowd", &t);
    opts.write_json("flash_crowd_report", spiked);
}
