//! # ddr-experiments — regenerating the paper's tables and figures
//!
//! Every figure, evaluation and ablation registers as a named
//! [`Experiment`] in the [`mod@registry`]; the single `ddr` binary drives
//! them (`ddr list`, `ddr run <name>...`, `ddr run --all`) — the one
//! entry point.
//!
//! Every experiment accepts the shared flag grammar (see
//! [`ExpOptions`]):
//!
//! ```text
//! --scale N    divide users & songs by N (default 1 = paper scale: 2000 users)
//! --hours H    simulated horizon (default 96 = the paper's 4 days)
//! --seed S     root seed (default: the scenario default)
//! --csv DIR    also write CSV files into DIR
//! --json DIR   also write report JSON into DIR
//! --smoke      seconds-long CI configuration
//! ```
//!
//! Runs with the same options are bit-reproducible. Independent runs in a
//! sweep fan out across worker threads via the shared engine in
//! `ddr-harness` ([`ddr_harness::run_many`] / [`ddr_harness::Sweep`]);
//! each run is single-threaded and deterministic, so parallelism never
//! affects results — only wall-clock time.

pub mod cli;
pub mod emit;
pub mod exps;
pub mod opts;
pub mod registry;
pub mod serve;

pub use emit::Emitter;
pub use opts::{CliError, ExpOptions, PackOptions, USAGE};
pub use registry::{find, registry, Experiment};

use ddr_gnutella::{GnutellaScenario, RunReport, ScenarioConfig};
use ddr_harness::Scenario;
use ddr_sim::{EventLabel, World};
use ddr_stats::Table;
use ddr_telemetry::{
    JsonlMetrics, JsonlSink, KernelProfiler, MetricsRecorder, NullSink, TelemetryConfig, TraceSink,
};

/// Run every Gnutella configuration and return reports in input order,
/// with the telemetry options applied: a plain sweep fans out across
/// `opts.workers()` threads on the shared sweep engine; `--trace` swaps
/// in the JSONL-sink world (sampled query spans appended to one shared
/// file, each record carrying its run label), `--profile` runs under a
/// kernel probe and emits the dispatch/queue report afterwards,
/// `--metrics` samples an hourly timeline — in any combination. Reports
/// are bit-identical across all of them — telemetry only observes.
pub fn run_all_with(
    opts: &ExpOptions,
    configs: Vec<ScenarioConfig>,
    em: &mut Emitter,
) -> Vec<RunReport> {
    if opts.trace.is_some() {
        sweep_with::<JsonlSink>(opts, configs, em)
    } else {
        sweep_with::<NullSink>(opts, configs, em)
    }
}

fn sweep_with<T: TraceSink>(
    opts: &ExpOptions,
    configs: Vec<ScenarioConfig>,
    em: &mut Emitter,
) -> Vec<RunReport> {
    if !opts.profile && opts.metrics.is_none() {
        return ddr_harness::run_many::<GnutellaScenario<T>>(configs, opts.workers());
    }
    // One probe, one timeline file: observed sweeps run serially.
    let mut profiler = opts.profile.then(KernelProfiler::new);
    let reports = configs
        .into_iter()
        .map(|c| {
            let telemetry = c.telemetry.clone();
            run_observed::<GnutellaScenario<T>>(c, &telemetry, profiler.as_mut())
        })
        .collect();
    if let Some(p) = &profiler {
        em.note(&p.render());
    }
    reports
}

/// Run one serial-kernel scenario under whatever observers the options
/// asked for: a kernel probe when `profiler` is given (`--profile`), an
/// hourly metrics timeline into `telemetry.metrics_path` when that is
/// set (`--metrics`). The trace sink is the caller's choice of `S`. All
/// of it rides on `ddr_harness::run_with`, so the report is
/// bit-identical to a plain `run` — observers are a pure side channel.
pub(crate) fn run_observed<S: Scenario>(
    cfg: S::Config,
    telemetry: &TelemetryConfig,
    mut profiler: Option<&mut KernelProfiler>,
) -> S::Report
where
    <S::World as World>::Event: EventLabel,
{
    let mut recorder = telemetry
        .metrics_path
        .is_some()
        .then(|| MetricsRecorder::<JsonlMetrics>::new(telemetry));
    let (report, _world) = ddr_harness::run_with::<S>(
        cfg,
        |sim, until| match profiler.as_deref_mut() {
            Some(probe) => sim.run_probed(until, probe),
            None => sim.run(until),
        },
        |now, sim| {
            if let Some(rec) = &mut recorder {
                rec.sample_sim(now, sim);
            }
        },
    );
    if let Some(rec) = &mut recorder {
        rec.finish();
    }
    report
}

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

/// Banner line printed by each entry point so logs identify the run.
pub fn banner(name: &str, opts: &ExpOptions) {
    eprintln!(
        "[{name}] scale={} hours={} seed={:?} smoke={} workers={}",
        opts.scale,
        opts.hours,
        opts.seed,
        opts.smoke,
        opts.workers()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddr_gnutella::Mode;

    fn tiny(mode: Mode) -> ScenarioConfig {
        let mut c = ScenarioConfig::scaled(mode, 2, 20, 6);
        c.seed = 3;
        c
    }

    /// A plain (no observer flag) sweep on `threads` workers.
    fn plain(configs: Vec<ScenarioConfig>, threads: usize) -> Vec<RunReport> {
        let opts = ExpOptions {
            threads: Some(threads),
            ..ExpOptions::default()
        };
        run_all_with(&opts, configs, &mut Emitter::capture())
    }

    #[test]
    fn run_all_preserves_order_and_determinism() {
        let configs = vec![tiny(Mode::Static), tiny(Mode::Dynamic), tiny(Mode::Static)];
        let seq = plain(configs.clone(), 1);
        let par = plain(configs, 4);
        assert_eq!(seq.len(), 3);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.total_hits(), b.total_hits());
            assert_eq!(a.total_messages(), b.total_messages());
        }
        assert_eq!(seq[0].label, "Gnutella");
        assert_eq!(seq[1].label, "Dynamic_Gnutella");
    }

    #[test]
    fn run_all_empty_is_empty() {
        assert!(plain(vec![], 4).is_empty());
    }

    #[test]
    fn profiled_run_matches_plain_and_names_event_types() {
        let opts = ExpOptions {
            profile: true,
            ..ExpOptions::default()
        };
        let mut em = Emitter::capture();
        let configs = vec![tiny(Mode::Static), tiny(Mode::Dynamic)];
        let prof = run_all_with(&opts, configs.clone(), &mut em);
        let unprobed = plain(configs, 2);
        for (a, b) in prof.iter().zip(&unprobed) {
            assert_eq!(a.total_hits(), b.total_hits(), "probing changed the run");
            assert_eq!(a.total_messages(), b.total_messages());
        }
        let out = em.captured().unwrap();
        assert!(out.contains("QueryArrive"), "no per-event profile row");
        assert!(out.contains("occupancy"), "no queue-occupancy table");
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
        let r = plain(configs, 2);
        let t = hourly_figure_table("Fig X", "hits", &r[0], &r[1], 1);
        assert_eq!(
            t.len(),
            (r[0].window.to_hour - r[0].window.from_hour) as usize
        );
        assert!(t.render().contains("Dynamic_Gnutella"));
    }
}
