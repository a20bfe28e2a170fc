//! # ddr-experiments — regenerating the paper's tables and figures
//!
//! Every figure, evaluation and ablation registers as a named
//! [`Experiment`] in the [`mod@registry`]; the single `ddr` binary drives
//! them (`ddr list`, `ddr run <name>...`, `ddr run --all`) — the one
//! entry point.
//!
//! Every experiment accepts the shared flag grammar ([`ExpOptions`];
//! `ddr run --help` prints it).
//!
//! Runs with the same options are bit-reproducible. Every experiment
//! reaches a kernel through one of the two runners in [`exps`];
//! independent runs in a sweep fan out across worker threads through
//! `ddr_sim::map_chunked`, each single-threaded and deterministic,
//! so parallelism never affects results — only wall-clock time.

pub mod cli;
pub mod emit;
pub mod exps;
pub mod opts;
pub mod registry;
pub mod serve;

pub use emit::Emitter;
pub use opts::{CliError, ExpOptions, USAGE};
pub use registry::{find, registry, Experiment};

use ddr_gnutella::RunReport;
use ddr_stats::Table;

/// The hourly-series table for one (static, dynamic) pair — the layout of
/// Figures 1 and 2: one row per reported hour, series side by side. The
/// paper samples every 15th hour starting at 12; we print the same rows
/// (and the CSV carries every hour).
pub fn hourly_figure_table(
    title: &str,
    metric: &str,
    stat: &RunReport,
    dyn_: &RunReport,
    every: usize,
) -> Table {
    let mut t = Table::new(
        title,
        &[
            "Hour",
            &format!("Gnutella {metric}"),
            &format!("Dynamic_Gnutella {metric}"),
        ],
    );
    let s = pick_series(stat, metric);
    let d = pick_series(dyn_, metric);
    let base = stat.window.from_hour as usize;
    for (i, (sv, dv)) in s.iter().zip(&d).enumerate() {
        if i % every == 0 {
            t.row(vec![
                format!("{}", base + i),
                format!("{sv:.0}"),
                format!("{dv:.0}"),
            ]);
        }
    }
    t
}

fn pick_series(r: &RunReport, metric: &str) -> Vec<f64> {
    match metric {
        "hits" => r.hits_series(),
        "messages" => r.messages_series(),
        other => panic!("unknown metric {other}"),
    }
}

/// The line `ddr run` logs before each experiment so logs identify the
/// run: the flags every experiment takes as given. It names no world
/// size, because each experiment sizes itself after this line (the
/// long suites' `tuned` defaults, the smoke clamp, the case studies'
/// own horizons).
pub fn banner(name: &str, opts: &ExpOptions) -> String {
    format!(
        "[{name}] seed={:?} smoke={} workers={}",
        opts.seed,
        opts.smoke,
        opts.workers()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exps::gnutella_reports;
    use ddr_gnutella::{Mode, ScenarioConfig};

    fn tiny(mode: Mode) -> ScenarioConfig {
        let mut c = ScenarioConfig::scaled(mode, 2, 20, 6);
        c.seed = 3;
        c
    }

    #[test]
    fn scenario_building_respects_options() {
        let opts = ExpOptions {
            scale: 10,
            hours: 12,
            seed: Some(99),
            ..ExpOptions::default()
        };
        let c = opts.scenario(Mode::Dynamic, 3);
        assert_eq!(c.workload.users, 200);
        assert_eq!(c.sim_hours, 12);
        assert_eq!(c.max_hops, 3);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn figure_table_shape() {
        let configs = vec![tiny(Mode::Static), tiny(Mode::Dynamic)];
        let r = gnutella_reports(&ExpOptions::default(), configs, &mut Emitter::capture());
        let t = hourly_figure_table("Fig X", "hits", &r[0], &r[1], 1);
        assert_eq!(
            t.len(),
            (r[0].window.to_hour - r[0].window.from_hour) as usize
        );
        assert!(t.render().contains("Dynamic_Gnutella"));
    }
}
