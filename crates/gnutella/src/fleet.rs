//! The shape of a served fleet: [`NodeSetConfig`], the handful of knobs
//! `ddr serve` exposes, and the [`ScenarioConfig`] it stands for.
//!
//! There is one Gnutella protocol, [`GnutellaWorld`]'s. The `ddr-serve`
//! bus runs its slices on worker threads, so a fleet is nothing but a
//! scenario: static mode (the paper's §4.1 search core — flood with a hop
//! limit, duplicate suppression, holders reply straight to the initiator,
//! results collected until a timeout), every user online from t = 0, no
//! warm-up. The bus primes no `Toggle` and no `IssueQuery`: its load
//! generator's `OfferQuery` arrivals are the only source of events, so
//! membership and reconfiguration are present but never reached, by
//! configuration rather than by a second implementation.

use crate::config::{Mode, ScenarioConfig};
use crate::world::GnutellaWorld;
use ddr_sim::SimDuration;
use ddr_workload::WorkloadConfig;

/// Flood hop limit of a served fleet.
const MAX_HOPS: u8 = 2;

/// Configuration for a served fleet (the serve bus builds from this on
/// either clock).
#[derive(Debug, Clone)]
pub struct NodeSetConfig {
    /// Fleet size.
    pub nodes: usize,
    /// Collection window per query.
    pub query_timeout: SimDuration,
    /// Master seed (workload, topology, delays).
    pub seed: u64,
}

impl NodeSetConfig {
    /// A fleet of `nodes` seeded with `seed`, with a 10 s collection window.
    pub fn new(nodes: usize, seed: u64) -> Self {
        NodeSetConfig {
            nodes,
            query_timeout: SimDuration::from_millis(10_000),
            seed,
        }
    }

    /// The workload, scaled from the paper's densities: song space
    /// proportional to the fleet (floor one category's worth) so hit
    /// rates are population-size independent, libraries at paper size.
    /// Sessions average 2^53 ms (≈285,000 years) against 1 ms offline:
    /// 2^53 + 1 rounds to 2^53 in `f64`, so the initial online draw
    /// `mean_online / (mean_online + mean_offline)` is exactly 1.0 and
    /// every user is online at t = 0. The mean stays finite enough for
    /// dynamic mode's arithmetic — its recency window (twice the mean) and
    /// a drawn session added to `now` both fit `u64` milliseconds.
    pub fn workload(&self) -> WorkloadConfig {
        let base = WorkloadConfig::paper();
        let per_user_songs = base.songs as usize / base.users;
        let songs = ((self.nodes * per_user_songs) as u32).max(base.categories as u32 * 400) as f64;
        // Round up to a categories multiple (Catalog requires it).
        let per_cat = (songs / base.categories as f64).ceil() as u32;
        WorkloadConfig {
            users: self.nodes,
            songs: per_cat * base.categories as u32,
            mean_online: SimDuration::from_millis(1 << 53),
            mean_offline: SimDuration::from_millis(1),
            ..base
        }
    }

    /// The scenario this fleet is: static mode with the paper's degree, a
    /// `MAX_HOPS` hop limit, the fleet's collection window and seed, a
    /// 4,096-entry dup cache and no warm-up, over [`workload`](Self::workload).
    pub fn scenario(&self) -> ScenarioConfig {
        ScenarioConfig {
            workload: self.workload(),
            query_timeout: self.query_timeout,
            dup_cache_capacity: 4_096,
            warmup_hours: 0,
            seed: self.seed,
            ..ScenarioConfig::paper(Mode::Static, MAX_HOPS)
        }
    }
}

/// The fleet `cfg` describes, exactly as the serve bus builds it at one
/// shard: catalog, profiles, bandwidth classes and the random bootstrap
/// overlay, all deterministic in `(cfg, cfg.seed)`. Its dup caches are
/// bound by their capacity alone: on `ddr serve`'s wall clock a delivery
/// can run late, so no flood horizon holds.
pub fn build_nodes(cfg: &NodeSetConfig) -> GnutellaWorld {
    GnutellaWorld::new(cfg.scenario()).without_flood_horizon()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::DEGREE;
    use ddr_sim::NodeId;

    #[test]
    fn build_is_deterministic_online_and_connected() {
        let cfg = NodeSetConfig::new(64, 9);
        // Finite for dynamic mode: its recency window is twice the mean,
        // and an exponential draw from a 53-bit uniform stays under 37
        // means.
        let mean = cfg.workload().mean_online.as_millis();
        assert!(mean.checked_mul(64).is_some(), "mean session {mean} ms");
        let (a, b) = (build_nodes(&cfg), build_nodes(&cfg));
        assert_eq!(a.peers.len(), 64);
        for i in 0..64 {
            let node = NodeId::from_index(i);
            assert_eq!(a.neighbors_of(node), b.neighbors_of(node));
            let library = |w: &GnutellaWorld| w.own(node).profile.library().to_vec();
            assert_eq!(library(&a), library(&b));
            assert!(a.sessions[i].online, "node {i} offline at t = 0");
            // The random bootstrap fills almost everyone; nobody isolated,
            // nobody over the degree.
            let links = a.neighbors_of(node).len();
            assert!((1..=DEGREE).contains(&links), "node {i}: {links} links");
        }
    }
}
