//! Free-riders & liars: the benefit function as an immune system.
//!
//! Two refuser classes join the population: free-riders (query-only,
//! §2's imbalance motivation) and *liars*, who advertise full content
//! summaries — maximally attractive to the statistics layer — but refuse
//! every query. The lie is only detectable behaviourally: a liar's
//! observed benefit stays zero, so under dynamic reconfiguration its
//! neighbors evict it just like a free-rider. The table compares static
//! vs dynamic on the same adversarial population; isolation shows up as
//! the refusers' mean degree falling below the contributors'.
//!
//! The structural half of the claim — refusers never serve a single
//! result — is asserted by the invariant layer on every run.

use super::{fold_digests, gnutella_runs, smoke_scale};
use crate::emit::Emitter;
use crate::opts::{ExpOptions, FREE_RIDER_FRACTION};
use ddr_gnutella::Mode;
use ddr_stats::Table;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone().tuned(4, 48));

    let mut t = Table::new(
        format!(
            "Free-riders (15%) & liars ({:.0}%): static vs dynamic isolation",
            opts.pack.liar_fraction * 100.0
        ),
        &[
            "Mode",
            "hits/hour",
            "deg(liars)",
            "deg(free-riders)",
            "deg(contributors)",
            "evict bias fr/liar",
            "refuser served",
        ],
    );
    let configs = [Mode::Static, Mode::Dynamic]
        .into_iter()
        .map(|mode| {
            let mut cfg = opts.scenario(mode, 2);
            cfg.free_rider_fraction = FREE_RIDER_FRACTION;
            cfg.liar_fraction = opts.pack.liar_fraction;
            cfg
        })
        .collect();
    let mut reports = Vec::new();
    for (report, end) in gnutella_runs(&opts, configs, em) {
        let (contrib, frs, liars) = (end.contributors, end.free_riders, end.liars);
        // Structurally zero — the invariant layer already asserted it;
        // the column makes the claim visible in the table.
        let refuser_served = frs.served + liars.served;
        // Per-capita eviction bias vs contributors: how many standing
        // eviction memories point at each class, normalised by class
        // size. This is the liar-specific isolation signal — liars keep
        // near-normal degree (their fabricated summaries keep attracting
        // invitations) but are evicted at a higher per-capita rate.
        let users = end.served.len() as f64;
        let n_liars = (users * opts.pack.liar_fraction).round().max(1.0);
        let n_frs = (users * FREE_RIDER_FRACTION).round().max(1.0);
        let n_contrib = (users - n_liars - n_frs).max(1.0);
        let contrib_rate = contrib.evicted as f64 / n_contrib;
        let evict_bias = if contrib_rate > 0.0 {
            format!(
                "{:.1}x / {:.1}x",
                (frs.evicted as f64 / n_frs) / contrib_rate,
                (liars.evicted as f64 / n_liars) / contrib_rate,
            )
        } else {
            "-".into()
        };
        t.row(vec![
            report.label.to_string(),
            format!("{:.0}", report.mean_hits_per_hour()),
            liars.degree_cell(),
            frs.degree_cell(),
            contrib.degree_cell(),
            evict_bias,
            format!("{refuser_served:.0}"),
        ]);
        reports.push(report);
    }
    em.table(&t);

    em.note(
        "Reading guide: the two refusal styles are punished differently. A \n\
         free-rider's empty summary fails the invitation-planning gate, so dynamic \n\
         mode starves it outright (degree collapses) and eviction memories pile \n\
         onto it at several times the contributor rate. A liar's fabricated \n\
         summary keeps attracting invitations, so its degree stays near normal — \n\
         but its observed benefit is zero, so it is evicted at an elevated \n\
         per-capita rate too (evict-bias column): invite-then-evict churn, not \n\
         membership. Neither class serves a single query; the invariant layer \n\
         asserts that on every run.",
    );
    em.note("invariants: ok (refusal structural, starvation directional)");
    em.note(&format!(
        "digest: {:016x}",
        fold_digests(&reports.iter().collect::<Vec<_>>())
    ));

    opts.write_csv("free_riders", &t);
    opts.write_json("free_riders_report", &reports);
}
