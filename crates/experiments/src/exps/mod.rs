//! One module per registered experiment. Each exposes
//! `run(&ExpOptions, &mut Emitter)` — the function the registry points
//! at — and nothing else; entry-point plumbing lives in [`crate::cli`].
//!
//! The only code in the crate that touches a kernel is here:
//! `gnutella_runs` and, under it and `case_study_runs`, the serial
//! driver `serial_runs`. An experiment file builds configurations,
//! calls a runner, and formats tables.

pub mod ablations;
pub mod bandwidth_eras;
pub mod diag;
pub mod exploration_sweep;
pub mod fairness;
pub mod fig1;
pub mod fig2;
pub mod fig3a;
pub mod fig3b;
pub mod fig3b_ablation;
pub mod flash_crowd;
pub mod free_riders;
pub mod heavy_churn;
pub mod partition_heal;
pub mod peerolap_eval;
pub mod strategies;
pub mod webcache_eval;

use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::{
    check_invariants, run_scenario_sharded, Census, GnutellaScenario, RoleCensus, RunReport,
    ScenarioConfig, ShardedRun,
};
use ddr_harness::Scenario;
use ddr_peerolap::{OlapMode, PeerOlapConfig};
use ddr_sim::{EventLabel, Partition, World};
use ddr_telemetry::{
    shard_profile_report, JsonlMetrics, JsonlSink, KernelProfiler, MetricsRecorder, NullSink,
    TelemetryConfig, TraceSink,
};
use ddr_webcache::{CacheMode, WebCacheConfig};

/// Smoke-mode clamp for Gnutella-based experiments: force a tiny world
/// (at most 100 users, at most 6 hours) so `ddr run --all --smoke`
/// finishes in seconds. No-op outside smoke mode.
pub(crate) fn smoke_scale(mut opts: ExpOptions) -> ExpOptions {
    if opts.smoke {
        opts.scale = opts.scale.max(20);
        opts.hours = opts.hours.min(6);
    }
    opts
}

/// Table cell: a class's mean overlay degree over its online members
/// (`-` if none is online).
pub(crate) fn degree_cell(role: &RoleCensus) -> String {
    role.mean_degree()
        .map_or_else(|| "-".into(), |d| format!("{d:.2}"))
}

/// (1) The one way to run Gnutella worlds: every configuration, reports
/// and censuses back in input order. Without `--shards` each run goes
/// through [`serial_runs`] (`--trace` swaps in the JSONL-sink world);
/// with `--shards N` through `run_scenario_sharded` over N node slices,
/// on [`shard_threads`] threads (`--metrics` rides in on
/// `config.telemetry`, `--profile` notes the per-shard breakdown and the
/// thread count actually used). Either way a run must pass
/// [`check_invariants`], which returns its [`Census`], before its worlds
/// are dropped — a violation aborts loudly instead of printing a quietly
/// wrong table — and reports are bit-identical across all of it.
pub(crate) fn gnutella_runs(
    opts: &ExpOptions,
    configs: Vec<ScenarioConfig>,
    em: &mut Emitter,
) -> Vec<(RunReport, Census)> {
    fn serial<T: TraceSink>(
        opts: &ExpOptions,
        configs: Vec<ScenarioConfig>,
        em: &mut Emitter,
    ) -> Vec<(RunReport, Census)> {
        serial_runs::<GnutellaScenario<T>, _>(
            opts,
            configs,
            |c| &c.telemetry,
            |report, world| {
                let census =
                    check_invariants(&report, &[world]).expect("scenario invariants violated");
                (report, census)
            },
            em,
        )
    }
    match opts.shards {
        None if opts.trace.is_some() => serial::<JsonlSink>(opts, configs, em),
        None => serial::<NullSink>(opts, configs, em),
        Some(shards) => {
            let workers = opts.workers();
            configs
                .into_iter()
                .map(|config| {
                    let slices = Partition::contiguous(config.workload.users, shards).shards();
                    let threads = shard_threads(workers, slices);
                    let ShardedRun {
                        report,
                        worlds,
                        profile,
                    } = run_scenario_sharded(config, shards, threads, opts.profile);
                    if let Some(p) = &profile {
                        em.note(&shard_profile_report(p, threads));
                    }
                    let census =
                        check_invariants(&report, &worlds).expect("scenario invariants violated");
                    (report, census)
                })
                .collect()
        }
    }
}

/// OS threads a sharded run over `slices` node slices uses when
/// `workers` are available (`--threads`, else one per core). The kernel's
/// thread-parallel mode is all or nothing — one thread per slice, two
/// barriers per 10 ms window — so it only pays when every slice gets a
/// worker of its own; short of that the single-threaded window loop runs
/// the same slices, bit-identically, without the barrier traffic.
fn shard_threads(workers: usize, slices: usize) -> usize {
    if workers >= slices {
        slices
    } else {
        1
    }
}

/// [`gnutella_runs`] for the experiments that only read reports.
pub(crate) fn gnutella_reports(
    opts: &ExpOptions,
    configs: Vec<ScenarioConfig>,
    em: &mut Emitter,
) -> Vec<RunReport> {
    gnutella_runs(opts, configs, em)
        .into_iter()
        .map(|(report, _)| report)
        .collect()
}

/// (2) The one way to run the web-cache and PeerOlap worlds: `S` is the
/// plain scenario, `J` its `JsonlSink` twin, chosen once by `--trace`.
/// Reports come back in input order; see [`serial_runs`] for what the
/// other observer flags do.
pub(crate) fn case_study_runs<S, J>(
    opts: &ExpOptions,
    configs: Vec<S::Config>,
    telemetry: fn(&S::Config) -> &TelemetryConfig,
    em: &mut Emitter,
) -> Vec<S::Report>
where
    S: Scenario,
    J: Scenario<Config = S::Config, Report = S::Report>,
    S::Config: Send + Sync,
    S::Report: Send,
    <S::World as World>::Event: EventLabel,
    <J::World as World>::Event: EventLabel,
{
    if opts.trace.is_some() {
        serial_runs::<J, _>(opts, configs, telemetry, |report, _| report, em)
    } else {
        serial_runs::<S, _>(opts, configs, telemetry, |report, _| report, em)
    }
}

/// The serial driver under the observer flags: run every configuration
/// through `ddr_harness::run_with`, hand each `(report, final world)` to
/// `finish` on the thread that ran it, and return the results in input
/// order. A plain batch fans out across `opts.workers()` threads on the
/// shared sweep engine; `--profile` runs under one kernel probe and notes
/// the dispatch/queue report afterwards, `--metrics` samples an hourly
/// timeline into `telemetry(config).metrics_path` — one probe, one
/// timeline file, so observed batches run in sequence. The trace sink is
/// the caller's choice of `S`. Observers are a pure side channel: results
/// are bit-identical across every combination.
fn serial_runs<S, R>(
    opts: &ExpOptions,
    configs: Vec<S::Config>,
    telemetry: fn(&S::Config) -> &TelemetryConfig,
    finish: fn(S::Report, S::World) -> R,
    em: &mut Emitter,
) -> Vec<R>
where
    S: Scenario,
    S::Config: Send + Sync,
    R: Send,
    <S::World as World>::Event: EventLabel,
{
    let run_one = |config: S::Config, mut profiler: Option<&mut KernelProfiler>| {
        let tel = telemetry(&config);
        let mut recorder = tel
            .metrics_path
            .is_some()
            .then(|| MetricsRecorder::<JsonlMetrics>::new(tel));
        let (report, world) = ddr_harness::run_with::<S>(
            config,
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
        finish(report, world)
    };
    if !opts.profile && opts.metrics.is_none() {
        return ddr_harness::run_many(configs, opts.workers(), |c| run_one(c, None));
    }
    let mut profiler = opts.profile.then(KernelProfiler::new);
    let results = configs
        .into_iter()
        .map(|c| run_one(c, profiler.as_mut()))
        .collect();
    if let Some(p) = &profiler {
        em.note(&p.render());
    }
    results
}

/// Order-sensitive fold of several run digests into the single `digest:`
/// line the scenario-pack experiments print.
pub(crate) fn fold_digests(reports: &[&RunReport]) -> u64 {
    reports
        .iter()
        .fold(0u64, |acc, r| acc.rotate_left(17) ^ r.digest())
}

/// `value` as a percentage change relative to `base` (for delta notes).
pub(crate) fn pct_delta(value: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (value / base - 1.0)
    }
}

/// The web-cache world under the shared options: horizon (`--hours`, or
/// 12 when not given), seed override, smoke shrink, telemetry stamped
/// with `run_label`.
pub(crate) fn webcache_config(
    opts: &ExpOptions,
    mode: CacheMode,
    run_label: &'static str,
) -> WebCacheConfig {
    let mut cfg = WebCacheConfig::default_scenario(mode);
    cfg.sim_hours = if opts.hours_explicit { opts.hours } else { 12 };
    cfg.warmup_hours = (cfg.sim_hours / 6).max(1);
    if let Some(s) = opts.seed {
        cfg.seed = s;
    }
    if opts.smoke {
        cfg.proxies = 16;
        cfg.groups = 4;
        cfg.pages_per_group = 2_000;
        cfg.global_pages = 2_000;
        cfg.cache_capacity = 300;
        cfg.sim_hours = cfg.sim_hours.min(4);
        cfg.warmup_hours = 1;
    }
    cfg.telemetry = opts.telemetry_for(run_label);
    cfg
}

/// The PeerOlap world under the shared options: horizon (`--hours`, or
/// 8 when not given), seed override, smoke shrink, telemetry stamped
/// with the mode's label.
pub(crate) fn peerolap_config(opts: &ExpOptions, mode: OlapMode) -> PeerOlapConfig {
    let mut cfg = PeerOlapConfig::default_scenario(mode);
    cfg.sim_hours = if opts.hours_explicit { opts.hours } else { 8 };
    cfg.warmup_hours = (cfg.sim_hours / 8).max(1);
    if let Some(s) = opts.seed {
        cfg.seed = s;
    }
    if opts.smoke {
        cfg.peers = 16;
        cfg.groups = 4;
        cfg.chunks_per_region = 1_024;
        cfg.cache_capacity = 256;
        cfg.sim_hours = cfg.sim_hours.min(4);
        cfg.warmup_hours = 1;
    }
    cfg.telemetry = opts.telemetry_for(mode.label());
    cfg
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

    fn runs(opts: &ExpOptions, configs: Vec<ScenarioConfig>) -> (Vec<(RunReport, Census)>, String) {
        let mut em = Emitter::capture();
        let runs = gnutella_runs(opts, configs, &mut em);
        let out = em.captured().expect("capture emitter").to_string();
        (runs, out)
    }

    /// A plain (no observer flag) sweep on `threads` workers.
    fn plain(configs: Vec<ScenarioConfig>, threads: usize) -> Vec<(RunReport, Census)> {
        let opts = ExpOptions {
            threads: Some(threads),
            ..ExpOptions::default()
        };
        runs(&opts, configs).0
    }

    #[test]
    fn sweep_preserves_order_and_determinism() {
        let configs = vec![tiny(Mode::Static), tiny(Mode::Dynamic), tiny(Mode::Static)];
        let seq = plain(configs.clone(), 1);
        let par = plain(configs, 4);
        assert_eq!(seq, par, "worker count changed a result");
        assert_eq!(seq.len(), 3);
        assert_eq!(seq[0].0.label, "Gnutella");
        assert_eq!(seq[1].0.label, "Dynamic_Gnutella");
        assert!(plain(vec![], 4).is_empty());
    }

    #[test]
    fn sharded_runs_go_parallel_only_with_a_worker_per_slice() {
        assert_eq!(shard_threads(2, 8), 1, "2 workers cannot cover 8 slices");
        assert_eq!(
            shard_threads(8, 4),
            4,
            "one thread per slice, not per worker"
        );
        assert_eq!(shard_threads(1, 4), 1, "--threads 1");
        assert_eq!(shard_threads(1, 1), 1);
    }

    #[test]
    fn profiled_run_matches_plain_and_names_event_types() {
        let configs = vec![tiny(Mode::Static), tiny(Mode::Dynamic)];
        let reference = plain(configs.clone(), 2);

        let profiled = ExpOptions {
            profile: true,
            ..ExpOptions::default()
        };
        let (runs_p, out) = runs(&profiled, configs);
        assert_eq!(runs_p, reference, "probing changed the run");
        assert!(out.contains("QueryArrive"), "no per-event profile row");
        assert!(out.contains("occupancy"), "no queue-occupancy table");
    }

    #[test]
    fn census_pools_roles_over_every_node() {
        let mut cfg = tiny(Mode::Dynamic);
        cfg.free_rider_fraction = 0.2;
        cfg.liar_fraction = 0.1;
        let users = cfg.workload.users;
        let (_, census) = plain(vec![cfg], 1).pop().expect("one run");
        assert_eq!(census.served.len(), users);
        let roles = [census.contributors, census.free_riders, census.liars];
        assert_eq!(roles.iter().map(|r| r.members).sum::<usize>(), users);
        assert!(
            census.contributors.online > 0 && census.free_riders.online + census.liars.online > 0
        );
        assert_eq!(
            census.contributors.served,
            census.served.iter().sum::<u64>()
        );
        assert!((0.0..=1.0).contains(&census.same_category_share()));
    }
}
