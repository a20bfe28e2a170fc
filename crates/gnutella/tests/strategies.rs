//! Integration tests for the §2 search-cost techniques (Yang &
//! Garcia-Molina) wired into the case study: iterative deepening and
//! local indices, compared against plain BFS on the same workload.

use ddr_core::ForwardSelection;
use ddr_gnutella::config::SearchStrategy;
use ddr_gnutella::{run_scenario, Mode, RunReport, ScenarioConfig};

fn base(mode: Mode) -> ScenarioConfig {
    let mut c = ScenarioConfig::scaled(mode, 4, 8, 18);
    c.seed = 99;
    c
}

fn with_strategy(mode: Mode, strategy: SearchStrategy) -> RunReport {
    let mut c = base(mode);
    c.strategy = strategy;
    run_scenario(c)
}

#[test]
fn iterative_deepening_cuts_messages_at_small_hit_cost() {
    let bfs = with_strategy(Mode::Static, SearchStrategy::Bfs);
    // Depth policy [2, 4]: at this scaled density a depth-1 wave almost
    // never satisfies (direct neighbours only), so including it is pure
    // overhead and the message saving degenerates to seed noise. Starting
    // at depth 2 the saving is robust across seeds (see EXPERIMENTS.md,
    // "Assertion recalibration").
    let id = with_strategy(
        Mode::Static,
        SearchStrategy::IterativeDeepening { depths: vec![2, 4] },
    );
    // Queries satisfied at shallow depths never pay the deep flood.
    assert!(
        id.total_messages() < bfs.total_messages(),
        "iter-deep messages {} >= bfs {}",
        id.total_messages(),
        bfs.total_messages()
    );
    // The price is bounded: most hits survive (deep waves still run).
    assert!(
        id.total_hits() > bfs.total_hits() * 0.7,
        "iter-deep lost too many hits: {} vs {}",
        id.total_hits(),
        bfs.total_hits()
    );
    assert!(id.metrics.extra_waves > 0, "no deep wave ever launched");
}

#[test]
fn iterative_deepening_trades_delay_for_messages() {
    // Unsatisfied shallow waves add wave_timeout to the first-result
    // delay of deep hits, so mean delay must not improve.
    let bfs = with_strategy(Mode::Static, SearchStrategy::Bfs);
    let id = with_strategy(
        Mode::Static,
        SearchStrategy::IterativeDeepening { depths: vec![1, 4] },
    );
    assert!(
        id.mean_first_delay_ms() > bfs.mean_first_delay_ms(),
        "deepening cannot be faster than direct BFS: {} vs {}",
        id.mean_first_delay_ms(),
        bfs.mean_first_delay_ms()
    );
}

#[test]
fn local_indices_cut_messages_and_answer_from_index() {
    let bfs = with_strategy(Mode::Static, SearchStrategy::Bfs);
    let li = with_strategy(Mode::Static, SearchStrategy::LocalIndices { radius: 1 });
    assert!(
        li.total_messages() < bfs.total_messages() * 0.8,
        "local indices barely cut messages: {} vs {}",
        li.total_messages(),
        bfs.total_messages()
    );
    assert!(li.metrics.index_answers > 0, "index never answered");
    // Index answers compensate for the shorter flood: hits comparable.
    assert!(
        li.total_hits() > bfs.total_hits() * 0.6,
        "local indices lost too many hits: {} vs {}",
        li.total_hits(),
        bfs.total_hits()
    );
}

#[test]
fn strategies_compose_with_dynamic_reconfiguration() {
    // The techniques are "orthogonal to our methods": dynamic mode must
    // still beat its static counterpart under each strategy.
    for strategy in [
        SearchStrategy::IterativeDeepening {
            depths: vec![1, 2, 4],
        },
        SearchStrategy::LocalIndices { radius: 1 },
    ] {
        let s = with_strategy(Mode::Static, strategy.clone());
        let d = with_strategy(Mode::Dynamic, strategy.clone());
        assert!(
            d.total_hits() > s.total_hits() * 0.95,
            "{}: dynamic hits collapsed: {} vs {}",
            strategy.label(),
            d.total_hits(),
            s.total_hits()
        );
        assert!(d.metrics.runtime.updates > 0);
    }
}

#[test]
fn strategy_config_validation() {
    let mut c = base(Mode::Static);
    c.strategy = SearchStrategy::IterativeDeepening { depths: vec![] };
    assert!(c.validate().is_err());

    let mut c = base(Mode::Static);
    c.strategy = SearchStrategy::IterativeDeepening { depths: vec![2, 2] };
    assert!(c.validate().is_err());

    let mut c = base(Mode::Static);
    c.strategy = SearchStrategy::LocalIndices { radius: 0 };
    assert!(c.validate().is_err());

    let mut c = base(Mode::Static);
    c.strategy = SearchStrategy::LocalIndices { radius: 4 }; // == max_hops
    assert!(c.validate().is_err());
}

#[test]
fn single_depth_deepening_is_bfs_at_that_depth_in_static_mode() {
    // Metamorphic relation guarding the search seam: deepening with the
    // one-depth schedule `[h]` launches the flood BFS launches at
    // `max_hops = h` and has no deeper wave to relaunch, so hits and
    // messages must agree hour by hour — the wave-check → finalize path
    // against the query-timeout path.
    //
    // Static mode only. Under Dynamic the 2 s wave window finalises
    // before the 5 s query timeout, which changes which replies reach
    // the statistics, so reconfiguration legitimately diverges (−0.9 % …
    // +2.1 % messages over this grid). And only these two series: whole
    // digests differ even in static mode, because results arriving after
    // the wave window are not collected.
    for h in 1..=4u8 {
        for seed in 1..=3u64 {
            let run = |strategy: SearchStrategy| {
                let mut c = ScenarioConfig::scaled(Mode::Static, h, 10, 12);
                c.seed = seed;
                c.strategy = strategy;
                run_scenario(c).metrics
            };
            let bfs = run(SearchStrategy::Bfs);
            let deep = run(SearchStrategy::IterativeDeepening { depths: vec![h] });
            assert_eq!(deep.runtime.hits, bfs.runtime.hits, "h={h} seed={seed}");
            assert_eq!(
                deep.runtime.messages, bfs.runtime.messages,
                "h={h} seed={seed}"
            );
            assert_eq!(deep.extra_waves, 0, "h={h} seed={seed}");
        }
    }
}

#[test]
fn selective_forwarding_never_sends_more_than_flooding() {
    // Metamorphic relation (ROADMAP item 7): at equal TTL, forwarding to
    // at most two neighbours per hop cannot cost more messages than
    // forwarding to all of them — in either mode, although Dynamic
    // reconfigures differently under each selection. Measured ratio to
    // the flood: 0.30–0.51 over the 24 cells.
    for mode in [Mode::Static, Mode::Dynamic] {
        for hops in [2u8, 4] {
            for seed in 1..=3u64 {
                let run = |forward: ForwardSelection| {
                    let mut c = ScenarioConfig::scaled(mode, hops, 20, 6);
                    c.seed = seed;
                    c.forward = forward;
                    run_scenario(c).total_messages()
                };
                let flood = run(ForwardSelection::All);
                for selective in [
                    ForwardSelection::TopKBenefit(2),
                    ForwardSelection::RandomK(2),
                ] {
                    let sent = run(selective);
                    assert!(
                        sent <= flood,
                        "{mode:?} hops={hops} seed={seed} {selective:?}: {sent} > flood {flood}"
                    );
                }
            }
        }
    }
}

#[test]
fn strategy_runs_are_deterministic() {
    for strategy in [
        SearchStrategy::IterativeDeepening {
            depths: vec![1, 2, 4],
        },
        SearchStrategy::LocalIndices { radius: 1 },
    ] {
        let a = with_strategy(Mode::Dynamic, strategy.clone());
        let b = with_strategy(Mode::Dynamic, strategy);
        assert_eq!(a.total_hits(), b.total_hits());
        assert_eq!(a.total_messages(), b.total_messages());
        assert_eq!(a.metrics.extra_waves, b.metrics.extra_waves);
        assert_eq!(a.metrics.index_answers, b.metrics.index_answers);
    }
}
