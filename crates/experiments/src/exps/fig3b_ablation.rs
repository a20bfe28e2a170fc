//! Fig 3(b) mechanism ablation: which adaptation channels hide the
//! paper's decay at large reconfiguration thresholds?
//!
//! Sweeps K with three updater configurations:
//! 1. default (logoff-triggered updates + persistent statistics);
//! 2. no logoff triggers (K is the only update clock);
//! 3. no logoff triggers **and** stateless clients (each session starts
//!    from zero knowledge — the most K-sensitive configuration).

use super::{gnutella_reports, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::{Mode, ScenarioConfig};
use ddr_stats::Table;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    // Unattended default: keep the ablation suite fast.
    let opts = smoke_scale(opts.clone().tuned(4, 48));
    let thresholds: Vec<u32> = vec![1, 2, 4, 8, 16, 32];

    let variant = |k: u32, loss_trigger: bool, persist: bool| -> ScenarioConfig {
        let mut c = opts.scenario(Mode::Dynamic, 2);
        c.reconfig_threshold = k;
        c.reconfig_on_neighbor_loss = loss_trigger;
        c.persist_stats = persist;
        c
    };

    let mut configs = vec![opts.scenario(Mode::Static, 2)];
    for &k in &thresholds {
        configs.push(variant(k, true, true)); // default
        configs.push(variant(k, false, true)); // no loss trigger
        configs.push(variant(k, false, false)); // + stateless
    }
    let reports = gnutella_reports(&opts, configs, em);
    let static_hits = reports[0].total_hits();

    let mut t = Table::new(
        "Fig 3(b) ablation: total hits vs K under reduced adaptation channels",
        &["K", "static", "default", "no-loss-trigger", "+stateless"],
    );
    for (i, &k) in thresholds.iter().enumerate() {
        t.row(vec![
            format!("{k}"),
            format!("{static_hits:.0}"),
            format!("{:.0}", reports[1 + 3 * i].total_hits()),
            format!("{:.0}", reports[2 + 3 * i].total_hits()),
            format!("{:.0}", reports[3 + 3 * i].total_hits()),
        ]);
    }
    em.table(&t);
    opts.write_csv("fig3b_ablation", &t);
}
