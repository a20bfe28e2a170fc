//! The experiment registry: every figure, evaluation and ablation is a
//! named [`Experiment`] the `ddr` CLI (and the tests) can enumerate and
//! run.

use crate::emit::Emitter;
use crate::opts::ExpOptions;

/// One registered experiment: a name, a one-line description, and the
/// function that runs it against shared options and an output emitter.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Registry key: `ddr run <name>`.
    pub name: &'static str,
    /// One-line description shown by `ddr list`.
    pub description: &'static str,
    /// Entry point.
    pub run: fn(&ExpOptions, &mut Emitter),
    /// Whether the experiment runs at any `--shards` count. False for
    /// the web-cache and PeerOlap worlds (serial kernel only) and for
    /// `strategies`, whose local-indices rows need the full-range world;
    /// `ddr run` rejects `--shards` for those (exit 2) rather than let a
    /// typo masquerade as a parallel run.
    pub shardable: bool,
}

/// Every experiment, in presentation order (paper figures first, then
/// case-study evaluations, ablations and diagnostics, then the scenario
/// pack).
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "fig1",
            description: "Figure 1: hits & messages per hour, static vs dynamic, hops=2",
            run: crate::exps::fig1::run,
            shardable: true,
        },
        Experiment {
            name: "fig2",
            description: "Figure 2: hits & messages per hour, static vs dynamic, hops=4",
            run: crate::exps::fig2::run,
            shardable: true,
        },
        Experiment {
            name: "fig3a",
            description: "Figure 3(a): first-result delay and total results vs hop limit",
            run: crate::exps::fig3a::run,
            shardable: true,
        },
        Experiment {
            name: "fig3b",
            description: "Figure 3(b): total hits vs reconfiguration threshold K",
            run: crate::exps::fig3b::run,
            shardable: true,
        },
        Experiment {
            name: "fig3b_ablation",
            description: "Fig 3(b) mechanism ablation: adaptation channels vs K-sensitivity",
            run: crate::exps::fig3b_ablation::run,
            shardable: true,
        },
        Experiment {
            name: "webcache_eval",
            description: "Case study 2: cooperative web caching, static vs dynamic",
            run: crate::exps::webcache_eval::run,
            shardable: false,
        },
        Experiment {
            name: "peerolap_eval",
            description: "Case study 3: PeerOlap distributed OLAP caching, static vs dynamic",
            run: crate::exps::peerolap_eval::run,
            shardable: false,
        },
        Experiment {
            name: "ablations",
            description: "Design-choice ablations over the framework knobs (7 suites)",
            run: crate::exps::ablations::run,
            shardable: true,
        },
        Experiment {
            name: "strategies",
            description: "Search-cost techniques: BFS vs iterative deepening vs local indices",
            run: crate::exps::strategies::run,
            shardable: false,
        },
        Experiment {
            name: "diag",
            description: "Overlay diagnostics: clustering strength, statistics coverage",
            run: crate::exps::diag::run,
            shardable: true,
        },
        Experiment {
            name: "fairness",
            description: "Serving-load distribution and free-rider isolation",
            run: crate::exps::fairness::run,
            shardable: true,
        },
        Experiment {
            name: "flash_crowd",
            description:
                "Scenario pack: Zipf spike on one genre (ramp/hold/decay), invariant-checked",
            run: crate::exps::flash_crowd::run,
            shardable: true,
        },
        Experiment {
            name: "partition_heal",
            description:
                "Scenario pack: regional partition into islands, then heal; isolation proof",
            run: crate::exps::partition_heal::run,
            shardable: true,
        },
        Experiment {
            name: "heavy_churn",
            description: "Scenario pack: Pareto session/offline times at fixed means",
            run: crate::exps::heavy_churn::run,
            shardable: true,
        },
        Experiment {
            name: "free_riders",
            description: "Scenario pack: query-only nodes + liars advertising content they refuse",
            run: crate::exps::free_riders::run,
            shardable: true,
        },
        Experiment {
            name: "bandwidth_eras",
            description: "Scenario pack: dial-up-heavy vs fiber-heavy access-link censuses",
            run: crate::exps::bandwidth_eras::run,
            shardable: true,
        },
        Experiment {
            name: "exploration_sweep",
            description: "Exploration-frequency sweep on the web-cache case study",
            run: crate::exps::exploration_sweep::run,
            shardable: false,
        },
    ]
}

/// Look up one experiment by name.
pub fn find(name: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_resolves_known_and_rejects_unknown() {
        assert!(find("fig1").is_some());
        assert!(find("bandwidth_eras").is_some());
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn exactly_the_serial_world_experiments_and_strategies_are_unshardable() {
        let unshardable: Vec<&str> = registry()
            .iter()
            .filter(|e| !e.shardable)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            unshardable,
            vec![
                "webcache_eval",
                "peerolap_eval",
                "strategies",
                "exploration_sweep"
            ]
        );
        assert_eq!(registry().len(), 17);
    }
}
