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
    check_invariants, run_scenario_sharded, GnutellaScenario, GnutellaWorld, RunReport,
    ScenarioConfig, ShardedRun,
};
use ddr_harness::Scenario;
use ddr_peerolap::{OlapMode, PeerOlapConfig};
use ddr_sim::{EventLabel, NodeId, Partition, World};
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

/// End-of-run tallies for one behavioural class of Gnutella nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct RoleEnd {
    /// Members online at the horizon.
    pub online: usize,
    /// Sum of the online members' overlay degrees.
    pub links: usize,
    /// Standing eviction memories (evictor, evictee) naming a member.
    pub evicted: usize,
    /// Results served by members over the whole run.
    pub served: f64,
}

impl RoleEnd {
    /// Table cell: mean overlay degree over the online members (`-` if
    /// none is online).
    pub fn degree_cell(&self) -> String {
        if self.online == 0 {
            return "-".into();
        }
        format!("{:.2}", self.links as f64 / self.online as f64)
    }
}

/// What `diag`, `fairness` and `free_riders` read off the final world,
/// pooled over every slice of the run so it is the same value at any
/// shard count. Computed inside [`gnutella_runs`]; the worlds themselves
/// never leave it.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct EndState {
    /// Fraction of overlay links whose endpoints share a favourite
    /// category (the interest-clustering measure).
    pub same_category_links: f64,
    /// Mean statistics entries per online peer.
    pub stats_per_peer: f64,
    /// Results served per node, in global node order.
    pub served: Vec<f64>,
    /// Nodes that are neither free-riders nor liars.
    pub contributors: RoleEnd,
    /// Query-only nodes.
    pub free_riders: RoleEnd,
    /// Nodes advertising content they refuse to serve (the world draws
    /// them from the non-free-rider population, so the classes are
    /// disjoint).
    pub liars: RoleEnd,
}

impl EndState {
    fn of<T: TraceSink>(worlds: &[GnutellaWorld<T>]) -> EndState {
        let mut end = EndState::default();
        let (mut links, mut same, mut stats) = (0usize, 0usize, 0usize);
        for w in worlds {
            let served = w.served_loads();
            for (k, &load) in served.iter().enumerate() {
                let node = NodeId::from_index(w.base() + k);
                let degree = w.neighbors_of(node).len();
                let role = if w.is_liar(node) {
                    &mut end.liars
                } else if w.is_free_rider(node) {
                    &mut end.free_riders
                } else {
                    &mut end.contributors
                };
                role.served += load;
                if w.is_online(node) {
                    role.online += 1;
                    role.links += degree;
                    stats += w.peer(node).rt.stats.len();
                }
            }
            let (on_liars, on_rest) = w.eviction_memory_split(|n| w.is_liar(n));
            let (on_frs, _) = w.eviction_memory_split(|n| w.is_free_rider(n));
            end.liars.evicted += on_liars;
            end.free_riders.evicted += on_frs;
            end.contributors.evicted += on_rest - on_frs;
            let (slice_same, slice_links) = w.same_category_links();
            same += slice_same;
            links += slice_links;
            end.served.extend(served);
        }
        let online = end.contributors.online + end.free_riders.online + end.liars.online;
        if links > 0 {
            end.same_category_links = same as f64 / links as f64;
        }
        if online > 0 {
            end.stats_per_peer = stats as f64 / online as f64;
        }
        end
    }
}

/// (1) The one way to run Gnutella worlds: every configuration, reports
/// and end states back in input order. Without `--shards` each run goes
/// through [`serial_runs`] (`--trace` swaps in the JSONL-sink world);
/// with `--shards N` through `run_scenario_sharded` over N node slices,
/// on [`shard_threads`] threads (`--metrics` rides in on
/// `config.telemetry`, `--profile` notes the per-shard breakdown and the
/// thread count actually used). Either way a run must pass
/// [`check_invariants`] before its worlds are dropped — a violation aborts
/// loudly instead of printing a quietly wrong table — and reports are
/// bit-identical across all of it.
pub(crate) fn gnutella_runs(
    opts: &ExpOptions,
    configs: Vec<ScenarioConfig>,
    em: &mut Emitter,
) -> Vec<(RunReport, EndState)> {
    fn checked<T: TraceSink>(
        report: RunReport,
        worlds: &[GnutellaWorld<T>],
    ) -> (RunReport, EndState) {
        if let Err(e) = check_invariants(&report, worlds) {
            panic!("scenario invariants violated: {e}");
        }
        let end = EndState::of(worlds);
        (report, end)
    }
    fn serial<T: TraceSink>(
        opts: &ExpOptions,
        configs: Vec<ScenarioConfig>,
        em: &mut Emitter,
    ) -> Vec<(RunReport, EndState)> {
        serial_runs::<GnutellaScenario<T>, _>(
            opts,
            configs,
            |c| &c.telemetry,
            |report, world| checked(report, &[world]),
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
                    checked(report, &worlds)
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

    fn runs(
        opts: &ExpOptions,
        configs: Vec<ScenarioConfig>,
    ) -> (Vec<(RunReport, EndState)>, String) {
        let mut em = Emitter::capture();
        let runs = gnutella_runs(opts, configs, &mut em);
        let out = em.captured().expect("capture emitter").to_string();
        (runs, out)
    }

    /// A plain (no observer flag) sweep on `threads` workers.
    fn plain(configs: Vec<ScenarioConfig>, threads: usize) -> Vec<(RunReport, EndState)> {
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
    fn end_state_pools_roles_over_every_node() {
        let mut cfg = tiny(Mode::Dynamic);
        cfg.free_rider_fraction = 0.2;
        cfg.liar_fraction = 0.1;
        let users = cfg.workload.users;
        let (_, end) = plain(vec![cfg], 1).pop().expect("one run");
        assert_eq!(end.served.len(), users);
        assert!(end.contributors.online > 0 && end.free_riders.online + end.liars.online > 0);
        assert_eq!(
            end.free_riders.served + end.liars.served,
            0.0,
            "a refuser served"
        );
        assert_eq!(end.contributors.served, end.served.iter().sum::<f64>());
        assert!((0.0..=1.0).contains(&end.same_category_links));
    }
}
