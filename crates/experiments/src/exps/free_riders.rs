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

use super::{degree_cell, fold_digests, gnutella_runs, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::{Mode, RoleCensus};
use ddr_stats::Table;

/// The free-rider share of the population.
const FREE_RIDER_FRACTION: f64 = 0.15;
/// The share of nodes advertising summaries they refuse to serve.
const LIAR_FRACTION: f64 = 0.15;
// Liars and free riders are disjoint classes of one population.
const _: () = assert!(FREE_RIDER_FRACTION + LIAR_FRACTION <= 1.0);

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone().tuned(4, 48));

    let mut t = Table::new(
        format!(
            "Free-riders (15%) & liars ({:.0}%): static vs dynamic isolation",
            LIAR_FRACTION * 100.0
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
            cfg.liar_fraction = LIAR_FRACTION;
            cfg
        })
        .collect();
    let mut reports = Vec::new();
    for (report, census) in gnutella_runs(&opts, configs, em) {
        let (contrib, frs, liars) = (census.contributors, census.free_riders, census.liars);
        // Structurally zero — the invariant layer already asserted it;
        // the column makes the claim visible in the table.
        let refuser_served = frs.served + liars.served;
        // Per-capita eviction bias vs contributors: how many standing
        // eviction memories point at each class, normalised by class
        // size. This is the liar-specific isolation signal — liars keep
        // near-normal degree (their fabricated summaries keep attracting
        // invitations) but are evicted at a higher per-capita rate.
        let rate = |role: RoleCensus| role.evicted as f64 / role.members.max(1) as f64;
        let contrib_rate = rate(contrib);
        let evict_bias = if contrib_rate > 0.0 {
            format!(
                "{:.1}x / {:.1}x",
                rate(frs) / contrib_rate,
                rate(liars) / contrib_rate,
            )
        } else {
            "-".into()
        };
        t.row(vec![
            report.label.to_string(),
            format!("{:.0}", report.mean_hits_per_hour()),
            degree_cell(&liars),
            degree_cell(&frs),
            degree_cell(&contrib),
            evict_bias,
            refuser_served.to_string(),
        ]);
        reports.push(report);
    }
    em.table(&t);

    em.note(
        "Reading guide: the two refusal styles are punished differently. A\n\
         free-rider's empty summary fails the invitation-planning gate, so dynamic\n\
         mode starves it outright (degree collapses) and eviction memories pile\n\
         onto it at several times the contributor rate. A liar's fabricated\n\
         summary keeps attracting invitations, so its degree stays near normal —\n\
         but its observed benefit is zero, so it is evicted at an elevated\n\
         per-capita rate too (evict-bias column): invite-then-evict churn, not\n\
         membership. Neither class serves a single query; the invariant layer\n\
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
