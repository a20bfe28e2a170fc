//! Run every paper experiment (Figs 1–3) plus the web-cache and PeerOlap
//! case studies and print a compact paper-vs-measured summary — the
//! source of EXPERIMENTS.md's numbers.
//!
//! Full paper scale by default (2 000 users, 96 h); pass `--scale`/`--hours`
//! to shrink.

use super::{shrink_peerolap, shrink_webcache, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use crate::run_all_with;
use ddr_gnutella::Mode;
use ddr_peerolap::{run_peerolap, OlapMode, PeerOlapConfig};
use ddr_stats::Table;
use ddr_webcache::{run_webcache, CacheMode, WebCacheConfig};

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone());

    // ---- Figures 1 & 2: hourly series at hops 2 and 4 --------------------
    for hops in [2u8, 4] {
        let configs = vec![
            opts.scenario(Mode::Static, hops),
            opts.scenario(Mode::Dynamic, hops),
        ];
        let reports = run_all_with(&opts, configs, em);
        let (s, d) = (&reports[0], &reports[1]);
        let fig = if hops == 2 { "Fig 1" } else { "Fig 2" };
        em.note(&format!(
            "{fig} (hops={hops}): hits/hour static={:.0} dynamic={:.0} ({:+.1}%) | msgs/hour static={:.0} dynamic={:.0} (ratio {:.2})",
            s.mean_hits_per_hour(),
            d.mean_hits_per_hour(),
            100.0 * (d.mean_hits_per_hour() / s.mean_hits_per_hour() - 1.0),
            s.mean_messages_per_hour(),
            d.mean_messages_per_hour(),
            d.mean_messages_per_hour() / s.mean_messages_per_hour(),
        ));
    }

    // ---- Figure 3(a): delay vs hop limit ----------------------------------
    let hops: Vec<u8> = vec![1, 2, 3, 4];
    let mut configs = Vec::new();
    for &h in &hops {
        configs.push(opts.scenario(Mode::Static, h));
        configs.push(opts.scenario(Mode::Dynamic, h));
    }
    let reports = run_all_with(&opts, configs, em);
    let mut t = Table::new(
        "Fig 3(a): first-result delay (ms) / total results",
        &[
            "Hops",
            "static delay",
            "static results",
            "dynamic delay",
            "dynamic results",
        ],
    );
    for (i, &h) in hops.iter().enumerate() {
        let s = &reports[2 * i];
        let d = &reports[2 * i + 1];
        t.row(vec![
            format!("{h}"),
            format!("{:.0}", s.mean_first_delay_ms()),
            format!("{:.0}", s.total_results()),
            format!("{:.0}", d.mean_first_delay_ms()),
            format!("{:.0}", d.total_results()),
        ]);
    }
    em.table(&t);

    // ---- Figure 3(b): threshold sweep --------------------------------------
    let thresholds: Vec<u32> = vec![1, 2, 4, 8, 16];
    let mut configs = vec![opts.scenario(Mode::Static, 2)];
    for &k in &thresholds {
        let mut c = opts.scenario(Mode::Dynamic, 2);
        c.reconfig_threshold = k;
        configs.push(c);
    }
    let reports = run_all_with(&opts, configs, em);
    let mut t = Table::new(
        "Fig 3(b): total hits vs reconfiguration threshold (hops=2)",
        &["K", "Gnutella", "Dynamic_Gnutella"],
    );
    for (i, &k) in thresholds.iter().enumerate() {
        t.row(vec![
            format!("{k}"),
            format!("{:.0}", reports[0].total_hits()),
            format!("{:.0}", reports[i + 1].total_hits()),
        ]);
    }
    em.table(&t);

    // ---- Web-cache case study ----------------------------------------------
    let mut t = Table::new(
        "Web-cache case study (pure asymmetric)",
        &[
            "Mode",
            "sibling hit %",
            "origin %",
            "latency ms",
            "same-group %",
        ],
    );
    for mode in [CacheMode::Static, CacheMode::Dynamic] {
        let mut cfg = WebCacheConfig::default_scenario(mode);
        if let Some(seed) = opts.seed {
            cfg.seed = seed;
        }
        if opts.smoke {
            shrink_webcache(&mut cfg);
        }
        let r = run_webcache(cfg);
        t.row(vec![
            r.label.to_string(),
            format!("{:.1}", 100.0 * r.neighbor_hit_ratio()),
            format!("{:.1}", 100.0 * r.origin_ratio()),
            format!("{:.0}", r.mean_latency_ms()),
            format!("{:.1}", 100.0 * r.same_group_fraction),
        ]);
    }
    em.table(&t);

    // ---- PeerOlap case study -------------------------------------------------
    let mut t = Table::new(
        "PeerOlap case study (bounded-incoming asymmetric)",
        &[
            "Mode",
            "peer chunk %",
            "warehouse %",
            "latency ms",
            "same-group %",
        ],
    );
    for mode in [OlapMode::Static, OlapMode::Dynamic] {
        let mut cfg = PeerOlapConfig::default_scenario(mode);
        if let Some(seed) = opts.seed {
            cfg.seed = seed;
        }
        if opts.smoke {
            shrink_peerolap(&mut cfg);
        }
        let r = run_peerolap(cfg);
        t.row(vec![
            r.label.to_string(),
            format!("{:.1}", 100.0 * r.peer_share()),
            format!("{:.1}", 100.0 * r.warehouse_share()),
            format!("{:.0}", r.mean_latency_ms()),
            format!("{:.1}", 100.0 * r.same_group_fraction),
        ]);
    }
    em.table(&t);
}
