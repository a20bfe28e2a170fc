//! The six simulation workloads: one fresh-world repetition under a named
//! kernel variant, timed at the layer boundaries.
//!
//! Everything here goes through public API of the crates under test —
//! `Scenario::{build, prime, extract_report}`, `Simulation::{run,
//! run_probed}`, `ShardedSimulation::{run_parallel, enable_profiling,
//! profile}`, `GnutellaWorld::{build_sharded, collect_prime}`,
//! `check_invariants` — and the seed reaches them only inside the
//! generated `*Config`.

use crate::procfs::cpu_seconds;
use crate::relay::{self, RelayConfig, RelayWorld};
use crate::trace::{LabelProbe, Tracer};
use ddr_gnutella::{
    check_invariants, GnutellaScenario, GnutellaWorld, Metrics, Mode, RunReport, ScenarioConfig,
};
use ddr_harness::Scenario;
use ddr_peerolap::{OlapMode, PeerOlapConfig, PeerOlapReport, PeerOlapScenario};
use ddr_sim::{
    EventLabel, EventQueue, Partition, ShardProfile, ShardWorld, ShardedSimulation, SimDuration,
    SimTime, Simulation, World,
};
use ddr_telemetry::{JsonlMetrics, MetricsRecorder, NullSink, TelemetryConfig};
use ddr_webcache::{CacheMode, WebCacheConfig, WebCacheReport, WebCacheScenario};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;

/// Full-size workloads, or the seconds-long miniatures `--check` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Check,
}

/// Which event loop drives the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `Simulation::run`.
    Serial,
    /// `Simulation::run_probed` with the benchmark's [`LabelProbe`].
    Probed,
    /// `Simulation::run`, sampled hourly into a metrics timeline file.
    Metered,
    /// `ShardedSimulation::run_parallel` (`threads <= 1` is `run`).
    Sharded { shards: usize, threads: usize },
}

impl Kernel {
    pub const SHARDED1: Kernel = Kernel::Sharded {
        shards: 1,
        threads: 1,
    };
    pub const SHARDED2_T1: Kernel = Kernel::Sharded {
        shards: 2,
        threads: 1,
    };
    pub const SHARDED2_T2: Kernel = Kernel::Sharded {
        shards: 2,
        threads: 2,
    };

    /// Name used in metric names and spans.
    pub fn name(self) -> String {
        match self {
            Kernel::Serial => "serial".into(),
            Kernel::Probed => "probed".into(),
            Kernel::Metered => "metered".into(),
            Kernel::Sharded { shards: 1, .. } => "sharded1".into(),
            Kernel::Sharded { shards, threads } => format!("sharded{shards}_t{threads}"),
        }
    }
}

/// What one repetition measured. Timings are host seconds; `events`,
/// `peak_pending`, `ops` and `digest` are simulated statistics and must
/// repeat exactly.
#[derive(Debug, Clone)]
pub struct Rep {
    pub build_s: f64,
    pub prime_s: f64,
    pub run_s: f64,
    pub extract_s: f64,
    /// Process CPU (user + system) consumed inside the kernel's run call.
    pub cpu_run_s: f64,
    pub events: u64,
    /// Queue high-water mark; only the serial kernel exposes it.
    pub peak_pending: Option<usize>,
    /// User-level operations simulated (queries, requests, cascades).
    pub ops: u64,
    pub digest: u64,
    /// Diagnosis of the first failed correctness check, if any.
    pub failure: Option<String>,
    pub profile: Option<ShardProfile>,
}

impl Rep {
    /// A repetition that stopped after build and prime.
    fn setup_only(build_s: f64, prime_s: f64) -> Rep {
        Rep {
            build_s,
            prime_s,
            run_s: 0.0,
            extract_s: 0.0,
            cpu_run_s: 0.0,
            events: 0,
            peak_pending: None,
            ops: 0,
            digest: 0,
            failure: None,
            profile: None,
        }
    }

    pub fn setup_s(&self) -> f64 {
        self.build_s + self.prime_s
    }

    /// Rep start to extracted report: what a `ddr run` user waits for.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.prime_s + self.run_s + self.extract_s
    }
}

/// Per-repetition context: the span recorder, the handler probe, and
/// where side files (the metered variant's timeline) go.
pub struct RepCtx<'a> {
    pub tr: &'a mut Tracer,
    pub probe: &'a mut LabelProbe,
    pub out_dir: &'a Path,
    /// Stop after build and prime: an extra `setup_s` sample for worlds
    /// whose set-up is too short to time well once per repetition.
    pub setup_only: bool,
}

/// What the domain checks of one finished repetition found.
struct Verdict {
    ops: u64,
    digest: u64,
    failure: Option<String>,
}

/// One simulation workload.
pub trait SimWorkload {
    /// The kernel whose numbers are the end-to-end metrics.
    fn e2e_kernel(&self) -> Kernel;
    /// Every variant the traced run measures (the end-to-end one first).
    fn traced_kernels(&self) -> Vec<Kernel>;
    /// Prefix of this world's handler metrics (`gnutella`, …).
    fn world(&self) -> &'static str;
    /// Build a fresh world, run it to the horizon under `kernel`, extract
    /// and check the report.
    fn rep(&self, kernel: Kernel, ctx: &mut RepCtx<'_>) -> Rep;
}

/// Chunk boundaries of a run to `horizon`: one chunk untraced; traced,
/// one per simulated hour (the kernels are resumable at any horizon:
/// `run(h1); run(h2)` ≡ `run(h2)`).
fn chunks(horizon: SimTime, hourly: bool) -> Vec<SimTime> {
    let mut ends = Vec::new();
    if hourly {
        let mut hour = 1;
        while SimTime::from_hours(hour) < horizon {
            ends.push(SimTime::from_hours(hour));
            hour += 1;
        }
    }
    ends.push(horizon);
    ends
}

/// Host seconds and CPU seconds of one kernel run call.
struct RunTiming {
    run_s: f64,
    cpu_run_s: f64,
}

/// Simulated statistics of a finished kernel.
struct KernelStats {
    events: u64,
    peak_pending: Option<usize>,
    profile: Option<ShardProfile>,
}

impl Rep {
    /// Complete a repetition that went past set-up.
    fn finish(
        self,
        timing: RunTiming,
        extract_s: f64,
        stats: KernelStats,
        verdict: Verdict,
    ) -> Rep {
        Rep {
            run_s: timing.run_s,
            cpu_run_s: timing.cpu_run_s,
            extract_s,
            events: stats.events,
            peak_pending: stats.peak_pending,
            profile: stats.profile,
            ops: verdict.ops,
            digest: verdict.digest,
            failure: verdict.failure,
            ..self
        }
    }
}

/// Run a primed serial simulation to `horizon` under `kernel`.
fn drive_serial<W>(
    sim: &mut Simulation<W>,
    horizon: SimTime,
    kernel: Kernel,
    ctx: &mut RepCtx<'_>,
) -> RunTiming
where
    W: World,
    W::Event: EventLabel,
{
    let mut recorder = (kernel == Kernel::Metered).then(|| {
        MetricsRecorder::<JsonlMetrics>::new(&TelemetryConfig {
            metrics_path: Some(ctx.out_dir.join("metered.timeline.jsonl")),
            run_label: "benchmark",
            ..TelemetryConfig::default()
        })
    });
    let cpu0 = cpu_seconds();
    let span = ctx.tr.begin("run");
    for chunk_end in chunks(horizon, ctx.tr.enabled() || recorder.is_some()) {
        let hour = ctx.tr.begin("run.hour");
        if kernel == Kernel::Probed {
            sim.run_probed(chunk_end, ctx.probe);
            ctx.probe.end_hour();
        } else {
            sim.run(chunk_end);
        }
        if let Some(rec) = &mut recorder {
            rec.sample_sim(chunk_end, sim);
        }
        ctx.tr.end(hour);
    }
    let run_s = ctx.tr.end(span);
    let cpu_run_s = cpu_seconds() - cpu0;
    if let Some(mut rec) = recorder {
        rec.finish();
    }
    RunTiming { run_s, cpu_run_s }
}

/// Run a primed sharded simulation to `horizon` on `threads` threads.
fn drive_sharded<W>(
    sim: &mut ShardedSimulation<W>,
    horizon: SimTime,
    threads: usize,
    ctx: &mut RepCtx<'_>,
) -> RunTiming
where
    W: ShardWorld + Send,
    W::Event: Send,
{
    if ctx.tr.enabled() {
        sim.enable_profiling();
    }
    let cpu0 = cpu_seconds();
    let span = ctx.tr.begin("run");
    for chunk_end in chunks(horizon, ctx.tr.enabled()) {
        let hour = ctx.tr.begin("run.hour");
        sim.run_parallel(chunk_end, threads);
        ctx.tr.end(hour);
    }
    let run_s = ctx.tr.end(span);
    RunTiming {
        run_s,
        cpu_run_s: cpu_seconds() - cpu0,
    }
}

/// One repetition of harness scenario `S` on the serial kernel.
fn scenario_rep<S>(
    cfg: &S::Config,
    horizon: SimTime,
    kernel: Kernel,
    ctx: &mut RepCtx<'_>,
    verdict: impl FnOnce(&S::Report, &S::World) -> Verdict,
) -> Rep
where
    S: Scenario,
    <S::World as World>::Event: EventLabel,
{
    let window = S::window(cfg);
    let config = cfg.clone();

    let span = ctx.tr.begin("build");
    let mut world = S::build(config);
    let build_s = ctx.tr.end(span);

    let span = ctx.tr.begin("prime");
    let mut queue = EventQueue::with_capacity(S::capacity_hint(cfg));
    S::prime(&mut world, &mut queue);
    let mut sim = Simulation::with_queue(world, queue);
    let setup = Rep::setup_only(build_s, ctx.tr.end(span));
    if ctx.setup_only {
        return setup;
    }

    let timing = drive_serial(&mut sim, horizon, kernel, ctx);

    let span = ctx.tr.begin("extract_report");
    let report = S::extract_report(sim.world(), window);
    let extract_s = ctx.tr.end(span);

    let stats = KernelStats {
        events: sim.processed(),
        peak_pending: Some(sim.peak_pending()),
        profile: None,
    };
    setup.finish(timing, extract_s, stats, verdict(&report, sim.world()))
}

/// First non-finite value among named ratios, as a diagnosis.
fn first_non_finite(ratios: &[(&str, f64)]) -> Option<String> {
    ratios
        .iter()
        .find(|(_, v)| !v.is_finite())
        .map(|(name, v)| format!("{name} is not finite ({v})"))
}

/// Hash of a report's `Debug` rendering: the digest of the two worlds
/// whose reports carry no `digest()` of their own. `DefaultHasher::new()`
/// is keyed with constants, so equal renderings hash equal in every
/// process of one toolchain — all that agreement between runs needs.
fn debug_digest(report: &impl std::fmt::Debug) -> u64 {
    let mut hasher = DefaultHasher::new();
    format!("{report:?}").hash(&mut hasher);
    hasher.finish()
}

// ---- Gnutella worlds -------------------------------------------------

/// A Gnutella world at some population, churn rate and horizon.
pub struct Gnutella {
    cfg: ScenarioConfig,
    horizon: SimTime,
    e2e: Kernel,
    traced: Vec<Kernel>,
}

fn gnutella_verdict(report: &RunReport, worlds: &[GnutellaWorld<NullSink>]) -> Verdict {
    let failure = check_invariants(report, worlds).err().or_else(|| {
        first_non_finite(&[
            ("hit_ratio", report.hit_ratio()),
            ("mean_hits_per_hour", report.mean_hits_per_hour()),
            ("mean_messages_per_hour", report.mean_messages_per_hour()),
        ])
    });
    Verdict {
        ops: report.metrics.runtime.queries.total() as u64,
        digest: report.digest(),
        failure,
    }
}

impl Gnutella {
    fn sharded_rep(&self, shards: usize, threads: usize, ctx: &mut RepCtx<'_>) -> Rep {
        let config = self.cfg.clone();

        let span = ctx.tr.begin("build");
        let (mut worlds, partition, lookahead) =
            GnutellaWorld::<NullSink>::build_sharded(config, shards);
        let build_s = ctx.tr.end(span);

        // Initial events concatenated in shard (= global node) order, so
        // the kernel's insertion sequence matches the serial queue's.
        let span = ctx.tr.begin("prime");
        let mut prime = Vec::new();
        for w in &mut worlds {
            w.collect_prime(&mut prime);
        }
        let mut sim = ShardedSimulation::new(worlds, partition, lookahead);
        for (at, node, ev) in prime {
            sim.schedule_at(at, node, ev);
        }
        let setup = Rep::setup_only(build_s, ctx.tr.end(span));
        if ctx.setup_only {
            return setup;
        }

        let timing = drive_sharded(&mut sim, self.horizon, threads, ctx);

        let span = ctx.tr.begin("extract_report");
        let stats = KernelStats {
            events: sim.processed(),
            peak_pending: None,
            profile: sim.profile(),
        };
        let worlds = sim.into_worlds();
        let mut metrics = Metrics::new();
        for w in &worlds {
            metrics.merge(&w.metrics);
        }
        let report = RunReport {
            metrics,
            window: GnutellaScenario::<NullSink>::window(&self.cfg),
            label: self.cfg.mode.label(),
        };
        let extract_s = ctx.tr.end(span);

        setup.finish(timing, extract_s, stats, gnutella_verdict(&report, &worlds))
    }
}

impl SimWorkload for Gnutella {
    fn e2e_kernel(&self) -> Kernel {
        self.e2e
    }

    fn traced_kernels(&self) -> Vec<Kernel> {
        self.traced.clone()
    }

    fn world(&self) -> &'static str {
        "gnutella"
    }

    fn rep(&self, kernel: Kernel, ctx: &mut RepCtx<'_>) -> Rep {
        match kernel {
            Kernel::Sharded { shards, threads } => self.sharded_rep(shards, threads, ctx),
            _ => scenario_rep::<GnutellaScenario>(
                &self.cfg,
                self.horizon,
                kernel,
                ctx,
                |report, world| gnutella_verdict(report, std::slice::from_ref(world)),
            ),
        }
    }
}

/// The paper's Figure-1 configuration: Dynamic, hop limit 2, 2,000 users.
pub fn fig1_paper(seed: u64, size: Size) -> Gnutella {
    let (users, hours) = match size {
        Size::Full => (2_000, 12),
        Size::Check => (300, 3),
    };
    let mut cfg = ScenarioConfig::big_world(Mode::Dynamic, 2, users, hours);
    cfg.seed = seed;
    Gnutella {
        cfg,
        horizon: SimTime::from_hours(hours),
        e2e: Kernel::Serial,
        traced: vec![
            Kernel::Serial,
            Kernel::SHARDED1,
            Kernel::SHARDED2_T1,
            Kernel::Probed,
            Kernel::Metered,
        ],
    }
}

/// `fig1_paper` with sessions eight times shorter: membership and overlay
/// mutation (LinkRequest/LinkAck/Unlink/Toggle) rise beside the search
/// path.
pub fn churn_links(seed: u64, size: Size) -> Gnutella {
    let (users, hours) = match size {
        Size::Full => (2_000, 8),
        Size::Check => (300, 3),
    };
    let mut cfg = ScenarioConfig::big_world(Mode::Dynamic, 2, users, hours);
    cfg.seed = seed;
    let shorten = |d: SimDuration| SimDuration::from_millis(d.as_millis() / 8);
    cfg.workload.mean_online = shorten(cfg.workload.mean_online);
    cfg.workload.mean_offline = shorten(cfg.workload.mean_offline);
    Gnutella {
        cfg,
        horizon: SimTime::from_hours(hours),
        e2e: Kernel::Serial,
        traced: vec![Kernel::Serial, Kernel::Probed],
    }
}

/// 50,000 users on the sharded kernel at one shard: working set far past
/// the cache, a dozen events per lookahead window.
pub fn big_world_50k(seed: u64, size: Size) -> Gnutella {
    let (users, horizon) = match size {
        Size::Full => (50_000, SimTime::from_mins(30)),
        Size::Check => (2_000, SimTime::from_mins(30)),
    };
    // `big_world` wants warm-up plus measurement; the kernel is stopped
    // at `horizon`, short of the first full hour.
    let mut cfg = ScenarioConfig::big_world(Mode::Dynamic, 2, users, 2);
    cfg.seed = seed;
    Gnutella {
        cfg,
        horizon,
        e2e: Kernel::SHARDED1,
        traced: vec![
            Kernel::SHARDED1,
            Kernel::Serial,
            Kernel::SHARDED2_T1,
            Kernel::Probed,
        ],
    }
}

// ---- web cache and PeerOlap -------------------------------------------

/// A serial-kernel case study driven purely through its [`Scenario`].
pub struct Harness<S: Scenario> {
    cfg: S::Config,
    horizon: SimTime,
    world: &'static str,
    verdict: fn(&S::Report) -> Verdict,
}

impl<S> SimWorkload for Harness<S>
where
    S: Scenario,
    <S::World as World>::Event: EventLabel,
{
    fn e2e_kernel(&self) -> Kernel {
        Kernel::Serial
    }

    fn traced_kernels(&self) -> Vec<Kernel> {
        vec![Kernel::Serial, Kernel::Probed]
    }

    fn world(&self) -> &'static str {
        self.world
    }

    fn rep(&self, kernel: Kernel, ctx: &mut RepCtx<'_>) -> Rep {
        let verdict = self.verdict;
        scenario_rep::<S>(&self.cfg, self.horizon, kernel, ctx, |report, _| {
            verdict(report)
        })
    }
}

fn webcache_verdict(report: &WebCacheReport) -> Verdict {
    let m = &report.metrics;
    let requests = m.runtime.queries.total();
    let resolved = m.local_hits.total() + m.runtime.hits.total() + m.origin_fetches.total();
    let failure = if requests != resolved {
        Some(format!(
            "request conservation broken: {requests} requests != {} local + {} neighbor + {} origin",
            m.local_hits.total(),
            m.runtime.hits.total(),
            m.origin_fetches.total()
        ))
    } else {
        first_non_finite(&[
            ("local_hit_ratio", report.local_hit_ratio()),
            ("neighbor_hit_ratio", report.neighbor_hit_ratio()),
            ("origin_ratio", report.origin_ratio()),
            ("mean_latency_ms", report.mean_latency_ms()),
        ])
    };
    Verdict {
        ops: requests as u64,
        digest: debug_digest(report),
        failure,
    }
}

/// Cooperative proxy caching: LRU, Bloom digests, pure-asymmetric update.
pub fn webcache_64(seed: u64, size: Size) -> Harness<WebCacheScenario> {
    let mut cfg = WebCacheConfig::default_scenario(CacheMode::Dynamic);
    cfg.groups = 4;
    cfg.use_digests = true;
    cfg.warmup_hours = 1;
    cfg.seed = seed;
    match size {
        Size::Full => {
            cfg.proxies = 64;
            cfg.sim_hours = 8;
        }
        Size::Check => {
            cfg.proxies = 16;
            cfg.pages_per_group = 2_000;
            cfg.global_pages = 2_000;
            cfg.cache_capacity = 300;
            cfg.sim_hours = 3;
        }
    }
    Harness {
        horizon: SimTime::from_hours(cfg.sim_hours),
        cfg,
        world: "webcache",
        verdict: webcache_verdict,
    }
}

fn peerolap_verdict(report: &PeerOlapReport) -> Verdict {
    Verdict {
        ops: report.metrics.runtime.queries.total() as u64,
        digest: debug_digest(report),
        failure: first_non_finite(&[
            ("peer_share", report.peer_share()),
            ("warehouse_share", report.warehouse_share()),
            ("mean_latency_ms", report.mean_latency_ms()),
        ]),
    }
}

/// PeerOlap: chunk fan-out/fan-in and the warehouse cost model.
pub fn peerolap_48(seed: u64, size: Size) -> Harness<PeerOlapScenario> {
    let mut cfg = PeerOlapConfig::default_scenario(OlapMode::Dynamic);
    cfg.warmup_hours = 1;
    cfg.seed = seed;
    match size {
        Size::Full => {
            cfg.peers = 48;
            cfg.sim_hours = 6;
        }
        Size::Check => {
            cfg.peers = 16;
            cfg.groups = 4;
            cfg.chunks_per_region = 1_024;
            cfg.cache_capacity = 256;
            cfg.sim_hours = 3;
        }
    }
    Harness {
        horizon: SimTime::from_hours(cfg.sim_hours),
        cfg,
        world: "peerolap",
        verdict: peerolap_verdict,
    }
}

// ---- relay world -------------------------------------------------------

/// The kernel-only relay world; end to end on the sharded kernel at one
/// shard.
pub struct RelayKernel {
    cfg: RelayConfig,
}

/// Cascades die out within `hops × 33 ms`; `run_parallel` needs a finite
/// horizon, and any bound past that is "never".
const RELAY_HORIZON: SimTime = SimTime::from_hours(1);

impl RelayKernel {
    fn verdict(&self, events: u64, pending: usize, digest: u64) -> Verdict {
        let expected = self.cfg.expected_events();
        let failure = if pending != 0 {
            Some(format!(
                "{pending} events still pending: cascades did not drain"
            ))
        } else if events != expected {
            Some(format!("dispatched {events} events, expected {expected}"))
        } else {
            None
        };
        Verdict {
            ops: self.cfg.cascades(),
            digest,
            failure,
        }
    }
}

impl SimWorkload for RelayKernel {
    fn e2e_kernel(&self) -> Kernel {
        Kernel::SHARDED1
    }

    fn traced_kernels(&self) -> Vec<Kernel> {
        vec![
            Kernel::SHARDED1,
            Kernel::Serial,
            Kernel::SHARDED2_T1,
            Kernel::SHARDED2_T2,
            Kernel::Probed,
        ]
    }

    fn world(&self) -> &'static str {
        "relay"
    }

    fn rep(&self, kernel: Kernel, ctx: &mut RepCtx<'_>) -> Rep {
        let cfg = &self.cfg;
        match kernel {
            Kernel::Sharded { shards, threads } => {
                let span = ctx.tr.begin("build");
                let partition = Partition::contiguous(cfg.nodes, shards);
                let worlds = RelayWorld::sharded(cfg, &partition);
                let build_s = ctx.tr.end(span);

                let span = ctx.tr.begin("prime");
                let mut sim = relay::primed_sharded(cfg, worlds, partition);
                let setup = Rep::setup_only(build_s, ctx.tr.end(span));
                if ctx.setup_only {
                    return setup;
                }

                let timing = drive_sharded(&mut sim, RELAY_HORIZON, threads, ctx);

                let span = ctx.tr.begin("extract_report");
                let digest = relay::checksum(sim.worlds());
                let extract_s = ctx.tr.end(span);

                let stats = KernelStats {
                    events: sim.processed(),
                    peak_pending: None,
                    profile: sim.profile(),
                };
                let verdict = self.verdict(stats.events, sim.pending(), digest);
                setup.finish(timing, extract_s, stats, verdict)
            }
            _ => {
                let span = ctx.tr.begin("build");
                let world = RelayWorld::whole(cfg);
                let build_s = ctx.tr.end(span);

                let span = ctx.tr.begin("prime");
                let mut sim = Simulation::with_queue(world, relay::primed_queue(cfg));
                let setup = Rep::setup_only(build_s, ctx.tr.end(span));
                if ctx.setup_only {
                    return setup;
                }

                let timing = drive_serial(&mut sim, RELAY_HORIZON, kernel, ctx);

                let span = ctx.tr.begin("extract_report");
                let digest = relay::checksum([sim.world()]);
                let extract_s = ctx.tr.end(span);

                let stats = KernelStats {
                    events: sim.processed(),
                    peak_pending: Some(sim.peak_pending()),
                    profile: None,
                };
                let verdict = self.verdict(stats.events, sim.pending(), digest);
                setup.finish(timing, extract_s, stats, verdict)
            }
        }
    }
}

/// 65,536 nodes, degree 8, four cascades per node, ≈10M events.
pub fn relay_kernel(seed: u64, size: Size) -> RelayKernel {
    let (nodes, hops) = match size {
        Size::Full => (65_536, 37),
        Size::Check => (2_048, 8),
    };
    RelayKernel {
        cfg: RelayConfig { nodes, hops, seed },
    }
}

/// The simulation workload called `name`, if there is one.
pub fn by_name(name: &str, seed: u64, size: Size) -> Option<Box<dyn SimWorkload>> {
    Some(match name {
        "fig1_paper" => Box::new(fig1_paper(seed, size)),
        "churn_links" => Box::new(churn_links(seed, size)),
        "big_world_50k" => Box::new(big_world_50k(seed, size)),
        "relay_kernel" => Box::new(relay_kernel(seed, size)),
        "webcache_64" => Box::new(webcache_64(seed, size)),
        "peerolap_48" => Box::new(peerolap_48(seed, size)),
        _ => return None,
    })
}
