//! Cross-crate integration tests asserting the *shapes* of every paper
//! figure on scaled scenarios (paper densities, 250 users, short
//! horizons). Full-scale numbers live in EXPERIMENTS.md; these tests
//! guard the qualitative claims against regressions.

use ddr_repro::gnutella::{run_scenario, Mode, ScenarioConfig};

fn cfg(mode: Mode, hops: u8, seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::scaled(mode, hops, 8, 24);
    c.seed = seed;
    c
}

/// Fig 1(a)+(b): at hops=2 the dynamic variant satisfies more queries
/// with fewer messages.
#[test]
fn fig1_shape_hops2() {
    let s = run_scenario(cfg(Mode::Static, 2, 5));
    let d = run_scenario(cfg(Mode::Dynamic, 2, 5));
    assert!(
        d.total_hits() > s.total_hits(),
        "hits: {} <= {}",
        d.total_hits(),
        s.total_hits()
    );
    assert!(
        d.total_messages() < s.total_messages(),
        "messages: {} >= {}",
        d.total_messages(),
        s.total_messages()
    );
}

/// Fig 2(b): at hops=4 the dynamic variant cuts message overhead
/// substantially (paper: ≈ 50 %; we require ≥ 15 % on the scaled run).
#[test]
fn fig2_shape_hops4() {
    let s = run_scenario(cfg(Mode::Static, 4, 5));
    let d = run_scenario(cfg(Mode::Dynamic, 4, 5));
    assert!(d.total_hits() >= s.total_hits() * 0.97, "dynamic lost hits");
    let ratio = d.total_messages() / s.total_messages();
    assert!(ratio < 0.85, "message ratio {ratio} not < 0.85");
}

/// Fig 3(a): delay grows with the hop limit for static; dynamic stays
/// below static wherever reconfiguration has room to act (hops ≥ 2);
/// total results grow with hops.
///
/// At hops = 1 a query only ever reaches direct neighbours, so the mean
/// first-result delay is dominated by single-hop RTT noise and the
/// static/dynamic gap is within noise (± a few %, sign varies by seed —
/// see EXPERIMENTS.md "Assertion recalibration"). We therefore assert
/// strict improvement at hops ≥ 2 and only near-parity (≤ 5 % worse) at
/// hops = 1.
#[test]
fn fig3a_shape_delay() {
    let mut static_delay = Vec::new();
    let mut dynamic_delay = Vec::new();
    let mut static_results = Vec::new();
    let hop_sweep = [1u8, 2, 4];
    for hops in hop_sweep {
        let s = run_scenario(cfg(Mode::Static, hops, 6));
        let d = run_scenario(cfg(Mode::Dynamic, hops, 6));
        static_delay.push(s.mean_first_delay_ms());
        dynamic_delay.push(d.mean_first_delay_ms());
        static_results.push(s.total_results());
    }
    assert!(
        static_delay.windows(2).all(|w| w[0] < w[1]),
        "static delay not increasing: {static_delay:?}"
    );
    for ((&hops, s), d) in hop_sweep.iter().zip(&static_delay).zip(&dynamic_delay) {
        if hops >= 2 {
            assert!(d < s, "hops={hops}: dynamic {d} >= static {s}");
        } else {
            assert!(
                *d < s * 1.05,
                "hops={hops}: dynamic {d} more than 5% above static {s}"
            );
        }
    }
    assert!(
        static_results.windows(2).all(|w| w[0] < w[1]),
        "results not increasing with hops: {static_results:?}"
    );
    // The dynamic delay curve is flatter: its rise over the sweep is
    // smaller than static's.
    let static_rise = static_delay.last().unwrap() - static_delay.first().unwrap();
    let dynamic_rise = dynamic_delay.last().unwrap() - dynamic_delay.first().unwrap();
    assert!(
        dynamic_rise < static_rise,
        "dynamic rise {dynamic_rise} not flatter than static {static_rise}"
    );
}

/// Fig 3(b): every reconfiguration threshold beats static, and the best
/// threshold is an interior point of the sweep (neither the most frantic
/// nor the most sluggish extreme).
#[test]
fn fig3b_shape_threshold() {
    let static_hits = run_scenario(cfg(Mode::Static, 2, 7)).total_hits();
    let ks = [1u32, 2, 4, 8, 16];
    let hits: Vec<f64> = ks
        .iter()
        .map(|&k| {
            let mut c = cfg(Mode::Dynamic, 2, 7);
            c.reconfig_threshold = k;
            run_scenario(c).total_hits()
        })
        .collect();
    for (k, h) in ks.iter().zip(&hits) {
        assert!(*h > static_hits, "K={k}: {h} <= static {static_hits}");
    }
    let best = hits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    assert!(
        best != 0,
        "K=1 (reconfigure on every request) should not be optimal: {hits:?}"
    );
}

/// Fig 3(b)'s decay at large K, reproduced under the isolated mechanism:
/// with the request-count threshold as the only update clock (no
/// logoff-triggered reconfiguration), sluggish thresholds decay toward
/// static — the paper's published shape (see EXPERIMENTS.md).
#[test]
fn fig3b_decay_appears_without_logoff_trigger() {
    let run_k = |k: u32| {
        let mut c = cfg(Mode::Dynamic, 2, 9);
        c.reconfig_threshold = k;
        c.reconfig_on_neighbor_loss = false;
        run_scenario(c).total_hits()
    };
    let k2 = run_k(2);
    let k32 = run_k(32);
    assert!(
        k32 < k2 * 0.97,
        "no decay under the K-only clock: K=32 {k32} vs K=2 {k2}"
    );
    let static_hits = run_scenario(cfg(Mode::Static, 2, 9)).total_hits();
    assert!(k32 > static_hits, "decay overshot below static");
}

/// The clustering mechanism itself: dynamic runs end with far more
/// same-favourite-category links than chance.
#[test]
fn dynamic_clusters_interests() {
    use ddr_repro::gnutella::scenario::run_scenario_with_world;
    let (_, sw) = run_scenario_with_world(cfg(Mode::Static, 2, 8));
    let (_, dw) = run_scenario_with_world(cfg(Mode::Dynamic, 2, 8));
    let fraction = |(same, total): (usize, usize)| same as f64 / total as f64;
    let s = fraction(sw.same_category_links());
    let d = fraction(dw.same_category_links());
    assert!(d > s * 2.0, "no clustering: dynamic {d} vs static {s}");
}
