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

use super::{fold_digests, run_pack, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::{GnutellaWorld, Mode};
use ddr_sim::NodeId;
use ddr_stats::Table;
use ddr_telemetry::NullSink;

/// Mean degree of online nodes matching `pred`, pooled across shards.
fn mean_degree<P: Fn(&GnutellaWorld<NullSink>, NodeId) -> bool>(
    worlds: &[GnutellaWorld<NullSink>],
    pred: P,
) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for w in worlds {
        for k in 0..w.owned_nodes() {
            let node = NodeId::from_index(w.base() + k);
            if w.is_online(node) && pred(w, node) {
                sum += w.neighbors_of(node).len() as f64;
                n += 1;
            }
        }
    }
    (n > 0).then(|| sum / n as f64)
}

fn fmt(d: Option<f64>) -> String {
    d.map(|d| format!("{d:.2}")).unwrap_or_else(|| "-".into())
}

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
    let mut reports = Vec::new();
    for mode in [Mode::Static, Mode::Dynamic] {
        let mut cfg = opts.scenario(mode, 2);
        cfg.free_rider_fraction = 0.15;
        cfg.liar_fraction = opts.pack.liar_fraction;
        let (report, worlds) = run_pack(&opts, cfg, em);
        // Structurally zero — the invariant layer already asserted it;
        // the column makes the claim visible in the table.
        let refuser_served: f64 = worlds
            .iter()
            .flat_map(|w| {
                let loads = w.served_loads();
                (0..w.owned_nodes())
                    .filter(|&k| {
                        let n = NodeId::from_index(w.base() + k);
                        w.is_free_rider(n) || w.is_liar(n)
                    })
                    .map(move |k| loads[k])
                    .collect::<Vec<_>>()
            })
            .sum();
        // Per-capita eviction bias vs contributors: how many standing
        // eviction memories point at each class, normalised by class
        // size. This is the liar-specific isolation signal — liars keep
        // near-normal degree (their fabricated summaries keep attracting
        // invitations) but are evicted at a higher per-capita rate.
        let (on_liars, on_rest) = worlds
            .iter()
            .map(|w| w.eviction_memory_split(|n| w.is_liar(n)))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
        let (on_frs, _) = worlds
            .iter()
            .map(|w| w.eviction_memory_split(|n| w.is_free_rider(n)))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
        let on_contrib = on_rest - on_frs;
        let users = worlds.iter().map(|w| w.owned_nodes()).sum::<usize>() as f64;
        let n_liars = (users * opts.pack.liar_fraction).round().max(1.0);
        let n_frs = (users * 0.15).round().max(1.0);
        let n_contrib = (users - n_liars - n_frs).max(1.0);
        let contrib_rate = on_contrib as f64 / n_contrib;
        let evict_bias = if contrib_rate > 0.0 {
            format!(
                "{:.1}x / {:.1}x",
                (on_frs as f64 / n_frs) / contrib_rate,
                (on_liars as f64 / n_liars) / contrib_rate,
            )
        } else {
            "-".into()
        };
        t.row(vec![
            report.label.to_string(),
            format!("{:.0}", report.mean_hits_per_hour()),
            fmt(mean_degree(&worlds, |w, n| w.is_liar(n))),
            fmt(mean_degree(&worlds, |w, n| w.is_free_rider(n))),
            fmt(mean_degree(&worlds, |w, n| {
                !w.is_free_rider(n) && !w.is_liar(n)
            })),
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
