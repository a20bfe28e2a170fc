//! Design-choice ablations over the framework knobs (DESIGN.md §5):
//!
//! 1. benefit function: B/R (paper) vs count vs latency-aware vs
//!    advertised-bandwidth;
//! 2. forward selection: flooding vs random-k vs directed BFT;
//! 3. invitation policy: always-accept (paper case i) vs benefit-gated,
//!    summary-gated and trial-period (case ii);
//! 4. bandwidth weight B: delay-class (1:2:4.3) vs raw line rate (1:27:179);
//! 5. swap cap: one exchange per reconfiguration vs full-list replacement;
//! 6. statistics persistence across sessions vs stateless clients;
//! 7. duplicate-cache capacity: 4 / 64 / 4,096 entries.
//!
//! Defaults run at scale 4 (500 users, 48 h) so the whole suite finishes
//! in minutes; pass `--scale 1 --hours 96` for paper scale.

use super::{gnutella_reports, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_core::{ForwardSelection, InvitationPolicy};
use ddr_gnutella::{Benefit, Mode, RunReport, ScenarioConfig};
use ddr_stats::Table;

fn row(t: &mut Table, name: &str, r: &RunReport) {
    t.row(vec![
        name.to_string(),
        format!("{:.0}", r.total_hits()),
        format!("{:.0}", r.total_messages()),
        format!("{:.0}", r.mean_first_delay_ms()),
    ]);
}

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    // Unattended default: keep the ablation suite fast.
    let opts = smoke_scale(opts.clone().tuned(4, 48));
    let base = |mode: Mode| opts.scenario(mode, 2);

    // --- 1. benefit functions --------------------------------------------
    let kinds = [
        ("B/R (paper)", Benefit::BandwidthOverResults),
        ("count", Benefit::Count),
        ("latency-aware", Benefit::LatencyAware),
        ("advertised-bw", Benefit::AdvertisedBandwidth),
    ];
    let mut configs: Vec<ScenarioConfig> = vec![base(Mode::Static)];
    for &(_, k) in &kinds {
        let mut c = base(Mode::Dynamic);
        c.benefit = k;
        configs.push(c);
    }
    let reports = gnutella_reports(&opts, configs, em);
    let mut t = Table::new(
        "Ablation 1: benefit function (dynamic, hops=2)",
        &["Variant", "total hits", "total messages", "mean delay ms"],
    );
    row(&mut t, "static baseline", &reports[0]);
    for (i, &(name, _)) in kinds.iter().enumerate() {
        row(&mut t, name, &reports[i + 1]);
    }
    em.table(&t);
    opts.write_csv("ablation_benefit", &t);

    // --- 2. forward selection --------------------------------------------
    let policies = [
        ("flood (paper)", ForwardSelection::All),
        ("random-2", ForwardSelection::RandomK(2)),
        ("random-3", ForwardSelection::RandomK(3)),
        ("directed-bft-2", ForwardSelection::TopKBenefit(2)),
        ("directed-bft-3", ForwardSelection::TopKBenefit(3)),
    ];
    let mut configs: Vec<ScenarioConfig> = Vec::new();
    for &(_, p) in &policies {
        let mut c = base(Mode::Dynamic);
        c.forward = p;
        configs.push(c);
    }
    let reports = gnutella_reports(&opts, configs, em);
    let mut t = Table::new(
        "Ablation 2: forward selection (dynamic, hops=2)",
        &["Variant", "total hits", "total messages", "mean delay ms"],
    );
    for (i, &(name, _)) in policies.iter().enumerate() {
        row(&mut t, name, &reports[i]);
    }
    em.table(&t);
    opts.write_csv("ablation_forward", &t);

    // --- 3. invitation policy ---------------------------------------------
    let policies: Vec<(&str, InvitationPolicy)> = vec![
        ("always-accept (paper i)", InvitationPolicy::AlwaysAccept),
        ("benefit-gated (ii/stats)", InvitationPolicy::BenefitGated),
        (
            "summary-gated (ii/b)",
            InvitationPolicy::SummaryGated {
                min_similarity: 0.3,
            },
        ),
        (
            "trial 20min (ii/a)",
            InvitationPolicy::TrialPeriod {
                trial_millis: 20 * 60 * 1_000,
            },
        ),
    ];
    let mut configs: Vec<ScenarioConfig> = Vec::new();
    for &(_, p) in &policies {
        let mut c = base(Mode::Dynamic);
        c.invitation = p;
        configs.push(c);
    }
    let reports = gnutella_reports(&opts, configs, em);
    let mut t = Table::new(
        "Ablation 3: invitation policy (dynamic, hops=2)",
        &["Variant", "total hits", "total messages", "mean delay ms"],
    );
    for (i, (name, _)) in policies.iter().enumerate() {
        row(&mut t, name, &reports[i]);
    }
    em.table(&t);
    opts.write_csv("ablation_invitation", &t);

    // --- 4. benefit weight B: delay-class vs raw line rate -----------------
    let mut delay_weight = base(Mode::Dynamic);
    delay_weight.benefit = Benefit::BandwidthOverResults;
    let mut raw_weight = base(Mode::Dynamic);
    raw_weight.benefit = Benefit::RawBandwidthOverResults;
    let reports = gnutella_reports(&opts, vec![delay_weight, raw_weight], em);
    let mut t = Table::new(
        "Ablation 4: bandwidth weight in B/R (dynamic, hops=2)",
        &["Variant", "total hits", "total messages", "mean delay ms"],
    );
    row(&mut t, "delay-class 1:2:4.3 (default)", &reports[0]);
    row(&mut t, "raw line rate 1:27:179", &reports[1]);
    em.table(&t);
    opts.write_csv("ablation_bandwidth_weight", &t);

    // --- 5. swap cap: one exchange vs full-list replacement ----------------
    let mut one = base(Mode::Dynamic);
    one.max_swaps_per_reconfig = 1;
    let mut unbounded = base(Mode::Dynamic);
    unbounded.max_swaps_per_reconfig = usize::MAX;
    let reports = gnutella_reports(&opts, vec![one, unbounded], em);
    let mut t = Table::new(
        "Ablation 5: neighbor exchanges per reconfiguration (dynamic, hops=2)",
        &["Variant", "total hits", "total messages", "mean delay ms"],
    );
    row(&mut t, "one swap (paper observation)", &reports[0]);
    row(&mut t, "unbounded (literal Algo 5)", &reports[1]);
    em.table(&t);
    opts.write_csv("ablation_swap_cap", &t);

    // --- 6. statistics persistence across sessions --------------------------
    let mut persist = base(Mode::Dynamic);
    persist.persist_stats = true;
    let mut stateless = base(Mode::Dynamic);
    stateless.persist_stats = false;
    let reports = gnutella_reports(&opts, vec![persist, stateless], em);
    let mut t = Table::new(
        "Ablation 6: statistics persistence (dynamic, hops=2)",
        &["Variant", "total hits", "total messages", "mean delay ms"],
    );
    row(&mut t, "persist across sessions (default)", &reports[0]);
    row(&mut t, "stateless client", &reports[1]);
    em.table(&t);
    opts.write_csv("ablation_persistence", &t);

    // --- 7. duplicate-cache capacity ----------------------------------------
    let mut configs = Vec::new();
    let caps = [4usize, 64, 4_096];
    for &cap in &caps {
        let mut c = base(Mode::Dynamic);
        c.dup_cache_capacity = cap;
        configs.push(c);
    }
    let reports = gnutella_reports(&opts, configs, em);
    let mut t = Table::new(
        "Ablation 7: duplicate-cache capacity (dynamic, hops=2)",
        &["Capacity", "total hits", "total messages", "mean delay ms"],
    );
    for (i, &cap) in caps.iter().enumerate() {
        row(&mut t, &cap.to_string(), &reports[i]);
    }
    em.table(&t);
    opts.write_csv("ablation_dup_cache", &t);
}
