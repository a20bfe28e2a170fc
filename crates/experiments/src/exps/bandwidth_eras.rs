//! Bandwidth eras: the same overlay under different access-link decades.
//!
//! The paper's uniform modem/cable/LAN census is one point in time. This
//! experiment re-runs the dynamic scenario under a dial-up-heavy 1999 mix
//! (70/25/5) and a fiber-heavy mix (5/25/70), holding everything else
//! fixed. Delay moves with the census — first-result latency is the
//! heavy column — and so does the benefit signal: `B/R` scores rank
//! high-bandwidth responders up, so the eras also shift *which* nodes
//! the overlay clusters around.

use super::{fold_digests, gnutella_reports, pct_delta, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::Mode;
use ddr_net::ClassMix;
use ddr_stats::Table;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone().tuned(4, 48));

    let eras: [(&str, Option<ClassMix>); 3] = [
        ("paper (uniform)", None),
        ("dialup 1999", Some(ClassMix::dialup_era())),
        ("fiber", Some(ClassMix::fiber_era())),
    ];

    let mut t = Table::new(
        "Bandwidth eras: access-link census vs search performance",
        &[
            "Era",
            "hits/hour",
            "msgs/hour",
            "hit ratio",
            "first delay ms",
        ],
    );
    let configs = eras
        .iter()
        .map(|&(_, mix)| {
            let mut cfg = opts.scenario(Mode::Dynamic, 2);
            cfg.bandwidth_mix = mix;
            cfg
        })
        .collect();
    let reports = gnutella_reports(&opts, configs, em);
    for ((name, _), report) in eras.iter().zip(&reports) {
        t.row(vec![
            name.to_string(),
            format!("{:.0}", report.mean_hits_per_hour()),
            format!("{:.0}", report.mean_messages_per_hour()),
            format!("{:.3}", report.hit_ratio()),
            format!("{:.0}", report.mean_first_delay_ms()),
        ]);
    }
    em.table(&t);

    em.note(&format!(
        "first-result delay vs uniform census: dialup {:+.1}%, fiber {:+.1}%",
        pct_delta(
            reports[1].mean_first_delay_ms(),
            reports[0].mean_first_delay_ms()
        ),
        pct_delta(
            reports[2].mean_first_delay_ms(),
            reports[0].mean_first_delay_ms()
        ),
    ));
    em.note("invariants: ok (all three eras)");
    em.note(&format!(
        "digest: {:016x}",
        fold_digests(&reports.iter().collect::<Vec<_>>())
    ));

    opts.write_csv("bandwidth_eras", &t);
    opts.write_json("bandwidth_eras_report", &reports);
}
