//! Scenario configuration for the Gnutella case study, defaulting to the
//! paper's §4.2/§4.3 settings.

pub use ddr_core::SearchStrategy;
use ddr_core::{ForwardSelection, InvitationPolicy, NodeStats};
use ddr_net::{BandwidthClass, ClassMix};
use ddr_sim::SimDuration;
use ddr_telemetry::TelemetryConfig;
use ddr_workload::WorkloadConfig;

/// A regional-partition window: for simulated hours `[from_hour, to_hour)`
/// the node population is split into `islands` contiguous index ranges and
/// every message crossing an island boundary is dropped at delivery time —
/// correlated link failure, not independent loss. Outside the window the
/// network heals and traffic flows normally again.
///
/// The gate is a pure function of `(sender, receiver, now, config)`, so it
/// commutes with sharding: the sharded kernel applies it identically and
/// digests stay parity-safe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// Number of islands the population splits into (≥ 2).
    pub islands: usize,
    /// Hour the partition begins.
    pub from_hour: u64,
    /// Hour the partition heals (exclusive).
    pub to_hour: u64,
}

impl PartitionWindow {
    /// The island a node index belongs to: contiguous equal-width ranges,
    /// matching `Partition::contiguous` in the sharded kernel so islands
    /// never straddle a shard boundary ambiguity.
    pub fn island_of(&self, node: usize, users: usize) -> usize {
        debug_assert!(node < users);
        (node * self.islands) / users
    }

    /// Whether the partition is active at millisecond timestamp `now_ms`.
    pub fn active_at_ms(&self, now_ms: u64) -> bool {
        let hour = now_ms / 3_600_000;
        (self.from_hour..self.to_hour).contains(&hour)
    }

    /// Sanity checks against a `users`-node world.
    pub fn validate(&self, users: usize, sim_hours: u64) -> Result<(), String> {
        if self.islands < 2 {
            return Err(format!(
                "partition needs >= 2 islands, got {}",
                self.islands
            ));
        }
        if self.islands > users {
            return Err(format!(
                "more islands ({}) than users ({users})",
                self.islands
            ));
        }
        if self.from_hour >= self.to_hour {
            return Err(format!(
                "partition window [{}, {}) is empty",
                self.from_hour, self.to_hour
            ));
        }
        if self.from_hour >= sim_hours {
            return Err(format!(
                "partition starts at hour {} but the run ends at {sim_hours}",
                self.from_hour
            ));
        }
        Ok(())
    }
}

/// Static baseline vs dynamic (framework) reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Vanilla Gnutella: random neighborhoods, random replacement on
    /// neighbor log-off, no statistics.
    Static,
    /// Algo 5: benefit-driven reconfiguration every `reconfig_threshold`
    /// requests, invitation/eviction protocol, log-off-triggered updates.
    Dynamic,
}

impl Mode {
    /// Label used in result tables ("Gnutella" vs "Dynamic_Gnutella", as
    /// in the paper's figures).
    pub fn label(self) -> &'static str {
        match self {
            Mode::Static => "Gnutella",
            Mode::Dynamic => "Dynamic_Gnutella",
        }
    }
}

/// Latency floor of [`Benefit::LatencyAware`] in ms, so a LAN-fast
/// neighbor does not divide by almost nothing.
const LATENCY_FLOOR_MS: f64 = 1.0;

/// The music case study's benefit function (paper §3.4: it "should
/// capture the general goals and characteristics of the system"): the
/// per-result [`score`](Self::score) folded into `NodeStats::benefit`
/// when a reply arrives, and the [`rank`](Self::rank) read when
/// neighbors are re-selected. Only the two `B / R` variants rank by the
/// folded Σ, so each variant is one distinct setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Benefit {
    /// The paper's choice: each result scores `B / R` (B = the
    /// responder's delay-class bandwidth weight, R = the results the
    /// query obtained: "the larger the results list, the lesser its
    /// significance"), ranked by the cumulative Σ.
    BandwidthOverResults,
    /// `B / R` with the *raw line-rate* weight (1 : 27 : 179) instead of
    /// the delay-class weight — ablation showing how an extreme `B`
    /// swamps the content-similarity signal.
    RawBandwidthOverResults,
    /// Result count only (ablation: ignores bandwidth and list size).
    Count,
    /// Results per second of observed latency (ablation; the web-caching
    /// candidate "the number of retrieved pages, combined with the
    /// end-to-end latency").
    LatencyAware,
    /// Advertised bandwidth class only, unknown classes last (ablation:
    /// neighbor selection driven purely by Ping-Pong data).
    AdvertisedBandwidth,
}

impl Benefit {
    /// Score one result: `bandwidth` is the responder's class, `results`
    /// the total result count of the query (≥ 1).
    pub fn score(self, bandwidth: BandwidthClass, results: usize) -> f64 {
        debug_assert!(results >= 1, "scored a result of a zero-result query");
        let weight = match self {
            Benefit::RawBandwidthOverResults => bandwidth.raw_rate_weight(),
            _ => bandwidth.benefit_weight(),
        };
        weight / results.max(1) as f64
    }

    /// The score ranking a node by its accumulated statistics; higher is
    /// better.
    pub fn rank(self, s: &NodeStats) -> f64 {
        match self {
            Benefit::BandwidthOverResults | Benefit::RawBandwidthOverResults => s.benefit,
            Benefit::Count => s.results as f64,
            Benefit::LatencyAware => {
                let lat = s.mean_latency_ms().unwrap_or(f64::INFINITY);
                s.results as f64 / (lat.max(LATENCY_FLOOR_MS) / 1_000.0)
            }
            Benefit::AdvertisedBandwidth => s.bandwidth.map_or(0.0, |b| b.benefit_weight()),
        }
    }
}

/// All parameters of one simulation run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// The synthetic workload (users, catalog, churn, query rate).
    pub workload: WorkloadConfig,
    /// Static baseline or dynamic framework.
    pub mode: Mode,
    /// Terminating condition: maximum hops per query (paper: 1–4).
    pub max_hops: u8,
    /// Reconfigure after this many issued requests (paper default: 2).
    pub reconfig_threshold: u32,
    /// Maximum neighbor exchanges per reconfiguration ("only one neighbor
    /// is exchanged during each reconfiguration", paper §4.3). `usize::MAX`
    /// disables the cap (full-list replacement, the literal Algo 5
    /// pseudo-code) — `ddr run ablations` (suite 5) compares the two.
    pub max_swaps_per_reconfig: usize,
    /// How long the initiator collects results before finalising a query.
    pub query_timeout: SimDuration,
    /// Recent-message list capacity (duplicate suppression).
    pub dup_cache_capacity: usize,
    /// Forward-target selection (paper: flood to all neighbors).
    pub forward: ForwardSelection,
    /// Search driver strategy (paper: plain BFS; the alternatives are the
    /// §2 techniques).
    pub strategy: SearchStrategy,
    /// Per-result score and ranking (paper: cumulative `B / R`).
    pub benefit: Benefit,
    /// Invitation handling (paper: always accept).
    pub invitation: InvitationPolicy,
    /// Keep a node's statistics store across its own offline periods
    /// (default `true`: the same user returns with the same static music
    /// preferences, so remembered benefit is still valid). `false` models
    /// a stateless 2003-era client that restarts cold each session
    /// (ablation; see EXPERIMENTS.md "Figure 3(b)").
    pub persist_stats: bool,
    /// Simulated horizon in hours (paper: 4 days = 96 h).
    pub sim_hours: u64,
    /// Hour from which metrics count ("results after the 12th hour, when
    /// the system has reached its steady-state").
    pub warmup_hours: u64,
    /// Trigger a reconfiguration when one of the node's neighbors logs
    /// off ("Neighbor log-offs trigger the update process", §4.1).
    /// Disabling it makes the request-count threshold K the *only* update
    /// clock — the ablation that reveals how much of the adaptation rate
    /// is K-independent (see EXPERIMENTS.md "Figure 3(b)").
    pub reconfig_on_neighbor_loss: bool,
    /// Fraction of users who are free-riders (§2: "a peer only requires,
    /// but refuses to provide any content"): they query like everyone
    /// else but never answer. Dynamic reconfiguration should starve them
    /// of neighbors (benefit 0 → evicted) — the `fairness` experiment
    /// measures exactly that.
    pub free_rider_fraction: f64,
    /// Fraction of users who are *liars*: they advertise full content
    /// summaries (so they look attractive to the statistics layer) but,
    /// like free-riders, refuse to serve. Drawn from the non-free-rider
    /// population. The benefit function must learn through observed
    /// answers that the advertisement is hollow — the `free_riders`
    /// scenario asserts it does.
    pub liar_fraction: f64,
    /// Optional regional partition-and-heal window (none in the paper).
    pub partition: Option<PartitionWindow>,
    /// Optional bandwidth-class mix override ("bandwidth eras"); `None`
    /// keeps the paper's uniform split, bit-identical to previous
    /// behaviour.
    pub bandwidth_mix: Option<ClassMix>,
    /// Root seed; a run is a pure function of `(config, seed)`.
    pub seed: u64,
    /// Trace output settings. Only consulted when the world is built with
    /// an enabled sink (`GnutellaWorld<JsonlSink>`); the default
    /// `NullSink` world ignores it entirely.
    pub telemetry: TelemetryConfig,
}

impl ScenarioConfig {
    /// The paper's experimental settings for the given mode and hop limit.
    pub fn paper(mode: Mode, max_hops: u8) -> Self {
        ScenarioConfig {
            workload: WorkloadConfig::paper(),
            mode,
            max_hops,
            reconfig_threshold: 2,
            max_swaps_per_reconfig: 1,
            query_timeout: SimDuration::from_secs(5),
            dup_cache_capacity: 4_096,
            forward: ForwardSelection::All,
            strategy: SearchStrategy::Bfs,
            benefit: Benefit::BandwidthOverResults,
            invitation: InvitationPolicy::AlwaysAccept,
            persist_stats: true,
            sim_hours: 96,
            warmup_hours: 12,
            reconfig_on_neighbor_loss: true,
            free_rider_fraction: 0.0,
            liar_fraction: 0.0,
            partition: None,
            bandwidth_mix: None,
            seed: 0xDD_2003,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// A proportionally scaled-down variant for tests and smoke runs (same
    /// densities, `scale`× fewer users/songs, shorter horizon).
    pub fn scaled(mode: Mode, max_hops: u8, scale: u32, sim_hours: u64) -> Self {
        let mut c = ScenarioConfig::paper(mode, max_hops);
        c.workload = ddr_workload::WorkloadConfig::paper_scaled(scale);
        c.sim_hours = sim_hours;
        c.warmup_hours = (sim_hours / 8).max(1);
        c
    }

    /// A large-world capacity configuration: the paper's catalog and
    /// per-user densities (library size, categories, churn, query rate)
    /// with the user count raised to `users` and a short horizon — the
    /// shape of the benchmark's `big_world_50k` workload.
    /// Unlike [`scaled`](Self::scaled), nothing shrinks: a 100k-user
    /// world carries 50× the paper's population against the same
    /// 200k-song catalog.
    ///
    /// # Panics
    /// Panics if `sim_hours < 2` (warmup needs one hour before it).
    pub fn big_world(mode: Mode, max_hops: u8, users: usize, sim_hours: u64) -> Self {
        assert!(sim_hours >= 2, "capacity runs need warmup + measurement");
        let mut c = ScenarioConfig::paper(mode, max_hops);
        c.workload.users = users;
        c.sim_hours = sim_hours;
        c.warmup_hours = 1;
        c
    }

    /// Validate the configuration, including the workload.
    pub fn validate(&self) -> Result<(), String> {
        self.workload.validate()?;
        if self.max_hops == 0 {
            return Err("max_hops must be >= 1".into());
        }
        if self.reconfig_threshold == 0 {
            return Err("reconfig_threshold must be >= 1".into());
        }
        if self.warmup_hours >= self.sim_hours {
            return Err(format!(
                "warmup ({}) must precede the horizon ({})",
                self.warmup_hours, self.sim_hours
            ));
        }
        if self.query_timeout == SimDuration::ZERO {
            return Err("query_timeout must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.free_rider_fraction) {
            return Err("free_rider_fraction out of [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.liar_fraction) {
            return Err("liar_fraction out of [0,1]".into());
        }
        if self.free_rider_fraction + self.liar_fraction > 1.0 {
            return Err(format!(
                "free riders ({}) + liars ({}) exceed the population",
                self.free_rider_fraction, self.liar_fraction
            ));
        }
        if let Some(p) = &self.partition {
            p.validate(self.workload.users, self.sim_hours)?;
        }
        if let Some(mix) = &self.bandwidth_mix {
            mix.validate()?;
        }
        self.strategy.validate(self.max_hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4_3() {
        let c = ScenarioConfig::paper(Mode::Dynamic, 2);
        assert_eq!(crate::peer::DEGREE, 4);
        assert_eq!(c.reconfig_threshold, 2);
        assert_eq!(c.max_hops, 2);
        assert_eq!(c.sim_hours, 96);
        assert_eq!(c.warmup_hours, 12);
        assert_eq!(c.forward, ForwardSelection::All);
        assert_eq!(c.benefit, Benefit::BandwidthOverResults);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(Mode::Static.label(), "Gnutella");
        assert_eq!(Mode::Dynamic.label(), "Dynamic_Gnutella");
    }

    #[test]
    fn scaled_keeps_validity() {
        let c = ScenarioConfig::scaled(Mode::Static, 4, 10, 24);
        assert_eq!(c.workload.users, 200);
        assert_eq!(c.warmup_hours, 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn big_world_keeps_paper_densities() {
        let c = ScenarioConfig::big_world(Mode::Dynamic, 2, 100_000, 2);
        assert_eq!(c.workload.users, 100_000);
        assert_eq!(c.workload.songs, 200_000);
        assert_eq!(c.workload.library_mean, 200.0);
        assert_eq!(c.sim_hours, 2);
        assert_eq!(c.warmup_hours, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerates() {
        let mut c = ScenarioConfig::paper(Mode::Static, 2);
        c.max_hops = 0;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Static, 2);
        c.warmup_hours = 96;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Static, 2);
        c.reconfig_threshold = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn partition_window_islands_and_activity() {
        let p = PartitionWindow {
            islands: 3,
            from_hour: 2,
            to_hour: 4,
        };
        assert!(p.validate(60, 6).is_ok());
        // Contiguous thirds of a 60-node world.
        assert_eq!(p.island_of(0, 60), 0);
        assert_eq!(p.island_of(19, 60), 0);
        assert_eq!(p.island_of(20, 60), 1);
        assert_eq!(p.island_of(39, 60), 1);
        assert_eq!(p.island_of(40, 60), 2);
        assert_eq!(p.island_of(59, 60), 2);
        // Active exactly over [2h, 4h).
        assert!(!p.active_at_ms(2 * 3_600_000 - 1));
        assert!(p.active_at_ms(2 * 3_600_000));
        assert!(p.active_at_ms(4 * 3_600_000 - 1));
        assert!(!p.active_at_ms(4 * 3_600_000));
    }

    #[test]
    fn validation_rejects_bad_pack_knobs() {
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.liar_fraction = 1.5;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.free_rider_fraction = 0.6;
        c.liar_fraction = 0.6;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.partition = Some(PartitionWindow {
            islands: 1,
            from_hour: 2,
            to_hour: 4,
        });
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.partition = Some(PartitionWindow {
            islands: 3,
            from_hour: 4,
            to_hour: 4,
        });
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.partition = Some(PartitionWindow {
            islands: 3,
            from_hour: 100,
            to_hour: 101,
        });
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.bandwidth_mix = Some(ClassMix {
            modem: 0.9,
            cable: 0.9,
            lan: 0.9,
        });
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.liar_fraction = 0.15;
        c.free_rider_fraction = 0.2;
        c.partition = Some(PartitionWindow {
            islands: 3,
            from_hour: 2,
            to_hour: 4,
        });
        c.bandwidth_mix = Some(ClassMix::dialup_era());
        assert!(c.validate().is_ok());
    }

    fn stats(results: u64, benefit: f64, lat_ms: f64, lat_n: u64) -> NodeStats {
        NodeStats {
            results,
            answered: results,
            benefit,
            last_update: ddr_sim::SimTime::ZERO,
            bandwidth: Some(BandwidthClass::Cable),
            latency_sum_ms: lat_ms * lat_n as f64,
            latency_count: lat_n,
        }
    }

    #[test]
    fn score_divides_by_results_and_scales_with_bandwidth() {
        for b in [
            Benefit::BandwidthOverResults,
            Benefit::RawBandwidthOverResults,
            Benefit::Count,
            Benefit::LatencyAware,
            Benefit::AdvertisedBandwidth,
        ] {
            let one = b.score(BandwidthClass::Lan, 1);
            let ten = b.score(BandwidthClass::Lan, 10);
            assert!((one / ten - 10.0).abs() < 1e-12, "{b:?}");
            assert!(b.score(BandwidthClass::Lan, 3) > b.score(BandwidthClass::Modem56K, 3));
        }
    }

    #[test]
    fn count_ranks_by_results() {
        let b = Benefit::Count;
        assert!(b.rank(&stats(10, 2.0, 100.0, 10)) > b.rank(&stats(1, 5.0, 100.0, 1)));
    }

    #[test]
    fn latency_aware_prefers_fast_nodes() {
        let b = Benefit::LatencyAware;
        let fast = stats(5, 0.0, 70.0, 5);
        let slow = stats(5, 0.0, 300.0, 5);
        assert!(b.rank(&fast) > b.rank(&slow));
        // equal latency → more results win
        assert!(b.rank(&stats(10, 0.0, 70.0, 10)) > b.rank(&fast));
        // no latency observation → 0
        assert_eq!(b.rank(&stats(3, 0.0, 0.0, 0)), 0.0);
    }

    #[test]
    fn advertised_bandwidth_unknown_ranks_last() {
        let b = Benefit::AdvertisedBandwidth;
        let mut unknown = stats(3, 3.0, 100.0, 3);
        unknown.bandwidth = None;
        assert!(b.rank(&stats(0, 0.0, 0.0, 0)) > b.rank(&unknown));
    }

    /// The fold's premise: the Σ of scores reaches only the `B / R`
    /// rankings, so the score of the other variants is never observed.
    #[test]
    fn only_the_b_over_r_variants_rank_by_the_folded_score() {
        let (low, high) = (stats(4, 1.0, 90.0, 4), stats(4, 7.0, 90.0, 4));
        for b in [
            Benefit::Count,
            Benefit::LatencyAware,
            Benefit::AdvertisedBandwidth,
        ] {
            assert_eq!(b.rank(&low), b.rank(&high), "{b:?} read the Σ");
        }
        for b in [
            Benefit::BandwidthOverResults,
            Benefit::RawBandwidthOverResults,
        ] {
            assert!(b.rank(&high) > b.rank(&low), "{b:?} ignored the Σ");
        }
        assert_ne!(
            Benefit::RawBandwidthOverResults.score(BandwidthClass::Lan, 2),
            Benefit::BandwidthOverResults.score(BandwidthClass::Lan, 2)
        );
    }
}
