//! Search-cost techniques comparison (paper §2: iterative deepening,
//! directed BFT and local indices "are orthogonal to our methods and can
//! be employed in our framework in order to further reduce the query
//! cost"). Runs each strategy under both static and dynamic modes at
//! hops = 4 (the regime where query cost dominates).

use super::{gnutella_reports, smoke_scale};
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::config::SearchStrategy;
use ddr_gnutella::{Mode, ScenarioConfig};
use ddr_stats::Table;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone().tuned(4, 48));

    let strategies: Vec<(&str, SearchStrategy)> = vec![
        ("bfs (paper)", SearchStrategy::Bfs),
        (
            "iter-deepening [1,2,4]",
            SearchStrategy::IterativeDeepening {
                depths: vec![1, 2, 4],
            },
        ),
        (
            "local-indices r=1",
            SearchStrategy::LocalIndices { radius: 1 },
        ),
        (
            "local-indices r=2",
            SearchStrategy::LocalIndices { radius: 2 },
        ),
        (
            "directed-bft k=3",
            SearchStrategy::Bfs, // forward-selection variant, set below
        ),
    ];

    let mut configs: Vec<ScenarioConfig> = Vec::new();
    for mode in [Mode::Static, Mode::Dynamic] {
        for (name, strat) in &strategies {
            let mut c = opts.scenario(mode, 4);
            c.strategy = strat.clone();
            if name.starts_with("directed-bft") {
                c.forward = ddr_core::ForwardSelection::TopKBenefit(3);
            }
            configs.push(c);
        }
    }
    let reports = gnutella_reports(&opts, configs, em);

    let mut t = Table::new(
        "Search-cost techniques at hops=4 (messages are the cost axis)",
        &[
            "Strategy",
            "Mode",
            "total hits",
            "total messages",
            "mean delay ms",
            "index answers",
            "extra waves",
        ],
    );
    for (m, mode) in [Mode::Static, Mode::Dynamic].iter().enumerate() {
        for (i, (name, _)) in strategies.iter().enumerate() {
            let r = &reports[m * strategies.len() + i];
            t.row(vec![
                name.to_string(),
                mode.label().to_string(),
                format!("{:.0}", r.total_hits()),
                format!("{:.0}", r.total_messages()),
                format!("{:.0}", r.mean_first_delay_ms()),
                format!("{}", r.metrics.index_answers),
                format!("{}", r.metrics.extra_waves),
            ]);
        }
    }
    em.table(&t);
    opts.write_csv("strategies_hops4", &t);
}
