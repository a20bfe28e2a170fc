//! Search policies (paper §3.2, Algo 1).
//!
//! Two orthogonal choices parameterise the generic search algorithm:
//!
//! * **where to forward** — "from the simple send-to-all approach to
//!   random, or history based selection" → [`ForwardSelection`];
//! * **how the initiator drives the search, and when it stops** — "a
//!   common threshold … is the maximum number of hops", plus Yang &
//!   Garcia-Molina's cost-cutting techniques (§2) → [`SearchStrategy`].
//!
//! Both are pure decision logic. [`SearchStrategy`] answers every
//! technique-dependent question a world asks — the TTL a query launches
//! with, the depth of the next wave, the index radius — as `Copy`
//! scalars, so the world's handlers never match on its variants and the
//! per-query path never clones the depth schedule.

use crate::stats_store::{NodeStats, StatsStore};
use ddr_sim::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Which outgoing neighbors receive a (forwarded) query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardSelection {
    /// Flood: send to every outgoing neighbor (Gnutella BFS; the paper's
    /// case study).
    All,
    /// Send to `k` uniformly random outgoing neighbors.
    RandomK(usize),
    /// Directed BFT: send to the `k` most beneficial outgoing neighbors
    /// according to the node's statistics; unknown nodes rank last but are
    /// still eligible (exploration pressure).
    TopKBenefit(usize),
}

/// Normalise a benefit value into a key safe for [`f64::total_cmp`]
/// ranking: `NaN` maps to `-∞` so a poisoned statistic deterministically
/// ranks *last* instead of destabilising the sort, and `-0.0` folds onto
/// `+0.0` (via `x + 0.0`) so the zero produced by "no statistics yet"
/// compares equal to a computed zero.
#[inline]
pub fn benefit_sort_key(x: f64) -> f64 {
    if x.is_nan() {
        f64::NEG_INFINITY
    } else {
        x + 0.0
    }
}

impl ForwardSelection {
    /// Select forward targets among `neighbors`, never including
    /// `exclude` (the node the query just arrived from — echoing a query
    /// straight back is always wasted). Directed BFT ranks by `rank`
    /// over the node's statistics.
    ///
    /// Allocates a fresh `Vec`; the event-loop hot path uses
    /// [`select_into`](Self::select_into) with a reused scratch buffer
    /// instead.
    pub fn select<R: Rng + ?Sized>(
        &self,
        neighbors: &[NodeId],
        exclude: Option<NodeId>,
        stats: &StatsStore,
        rank: impl Fn(&NodeStats) -> f64,
        rng: &mut R,
    ) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(neighbors.len());
        self.select_into(neighbors, exclude, stats, rank, rng, &mut out);
        out
    }

    /// Allocation-free variant of [`select`](Self::select): clears `out`
    /// and fills it with the chosen targets. Identical selection and
    /// ordering semantics.
    pub fn select_into<R: Rng + ?Sized>(
        &self,
        neighbors: &[NodeId],
        exclude: Option<NodeId>,
        stats: &StatsStore,
        rank: impl Fn(&NodeStats) -> f64,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        out.extend(neighbors.iter().copied().filter(|&n| Some(n) != exclude));
        match *self {
            ForwardSelection::All => {}
            ForwardSelection::RandomK(k) => {
                out.shuffle(rng);
                out.truncate(k);
            }
            ForwardSelection::TopKBenefit(k) => {
                // Deterministic ordering: benefit desc (NaN-safe via
                // total_cmp on normalised keys), id asc. Nodes with no
                // statistics score 0.
                out.sort_unstable_by(|&a, &b| {
                    let ba = stats.get(a).map(&rank).unwrap_or(0.0);
                    let bb = stats.get(b).map(&rank).unwrap_or(0.0);
                    benefit_sort_key(bb)
                        .total_cmp(&benefit_sort_key(ba))
                        .then(a.cmp(&b))
                });
                out.truncate(k);
            }
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            ForwardSelection::All => "flood".into(),
            ForwardSelection::RandomK(k) => format!("random-{k}"),
            ForwardSelection::TopKBenefit(k) => format!("directed-bft-{k}"),
        }
    }
}

/// How the initiator drives the search (paper §2: Yang & Garcia-Molina's
/// techniques "are orthogonal to our methods and can be employed in our
/// framework in order to further reduce the query cost").
///
/// The single owner of every technique-dependent decision: worlds call
/// the methods below and act on the scalars they return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Plain BFS flood to `max_hops` — the paper's case study.
    Bfs,
    /// Iterative deepening: successive BFS waves of increasing depth,
    /// stopping at the first wave that returns results. Each wave uses a
    /// fresh wire id (the simple restart variant), so satisfied shallow
    /// queries never pay for the deep flood.
    IterativeDeepening {
        /// Strictly increasing depth schedule (e.g. `[1, 2, 4]`).
        depths: Vec<u8>,
    },
    /// Local indices of radius `r`: every node answers on behalf of all
    /// peers within `r` hops, so queries start with `max_hops - r` TTL and
    /// terminate at the first index hit.
    LocalIndices {
        /// Index radius in hops.
        radius: u8,
    },
}

impl SearchStrategy {
    /// Label for tables.
    pub fn label(&self) -> String {
        match self {
            SearchStrategy::Bfs => "bfs".into(),
            SearchStrategy::IterativeDeepening { depths } => format!("iter-deep{depths:?}"),
            SearchStrategy::LocalIndices { radius } => format!("local-idx-r{radius}"),
        }
    }

    /// Check the strategy's own parameters against the hop limit it will
    /// run under.
    pub fn validate(&self, max_hops: u8) -> Result<(), String> {
        match self {
            SearchStrategy::Bfs => {}
            SearchStrategy::IterativeDeepening { depths } => {
                if depths.is_empty() {
                    return Err("iterative deepening needs at least one depth".into());
                }
                if !depths.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("depth schedule must strictly increase: {depths:?}"));
                }
            }
            SearchStrategy::LocalIndices { radius } => {
                if *radius == 0 {
                    return Err("local-index radius must be >= 1".into());
                }
                if *radius >= max_hops {
                    return Err(format!(
                        "index radius ({radius}) must be below max_hops ({max_hops})"
                    ));
                }
            }
        }
        Ok(())
    }

    /// TTL of a query's first flood under the hop limit `max_hops`: the
    /// limit itself for BFS, the first scheduled depth for deepening, and
    /// `max_hops - radius` (at least 1) for local indices — the last
    /// `radius` hops are covered by the indices at the frontier.
    ///
    /// # Panics
    /// Panics on an empty depth schedule ([`validate`](Self::validate)
    /// rejects it).
    pub fn launch_ttl(&self, max_hops: u8) -> u8 {
        match self {
            SearchStrategy::Bfs => max_hops,
            SearchStrategy::IterativeDeepening { depths } => depths[0],
            SearchStrategy::LocalIndices { radius } => max_hops.saturating_sub(*radius).max(1),
        }
    }

    /// The largest TTL any descriptor of one query carries under the hop
    /// limit `max_hops`: the limit itself for BFS, the last (deepest)
    /// scheduled depth for deepening, and the launch TTL for local
    /// indices (a relay forwards with one hop less, never more). A copy
    /// of a query crosses at most this many links, which is what bounds
    /// how long after its issue a copy can still arrive.
    ///
    /// # Panics
    /// Panics on an empty depth schedule ([`validate`](Self::validate)
    /// rejects it).
    pub fn max_ttl(&self, max_hops: u8) -> u8 {
        match self {
            SearchStrategy::IterativeDeepening { depths } => {
                *depths.last().expect("a validated schedule has a depth")
            }
            SearchStrategy::Bfs | SearchStrategy::LocalIndices { .. } => self.launch_ttl(max_hops),
        }
    }

    /// Depth of wave `wave` (0 = the launch), `None` once the schedule is
    /// exhausted — which for the single-shot strategies is every wave.
    pub fn wave_depth(&self, wave: usize) -> Option<u8> {
        match self {
            SearchStrategy::IterativeDeepening { depths } => depths.get(wave).copied(),
            SearchStrategy::Bfs | SearchStrategy::LocalIndices { .. } => None,
        }
    }

    /// Whether the initiator collects results wave by wave (a wave timer
    /// finalises or relaunches) instead of over one query timeout.
    pub fn collects_in_waves(&self) -> bool {
        matches!(self, SearchStrategy::IterativeDeepening { .. })
    }

    /// Radius of the per-node content index the strategy maintains, if it
    /// maintains one.
    pub fn index_radius(&self) -> Option<u8> {
        match self {
            SearchStrategy::LocalIndices { radius } => Some(*radius),
            SearchStrategy::Bfs | SearchStrategy::IterativeDeepening { .. } => None,
        }
    }

    /// Whether the strategy runs on a world split into any number of node
    /// slices. An index walks multi-hop neighborhoods, which needs every
    /// node's view in one place.
    pub fn runs_sharded(&self) -> bool {
        self.index_radius().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats_store::ReplyObservation;
    use ddr_net::BandwidthClass;
    use ddr_sim::SimTime;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cumulative(s: &NodeStats) -> f64 {
        s.benefit
    }

    fn neighbors() -> Vec<NodeId> {
        vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
    }

    fn stats_with_benefits(pairs: &[(u32, f64)]) -> StatsStore {
        let mut s = StatsStore::new();
        for &(n, b) in pairs {
            s.record_reply(ReplyObservation {
                from: NodeId(n),
                bandwidth: Some(BandwidthClass::Cable),
                score: b,
                latency_ms: 100.0,
                at: SimTime::ZERO,
            });
        }
        s
    }

    #[test]
    fn flood_selects_all_but_excluded() {
        let mut rng = SmallRng::seed_from_u64(1);
        let s = StatsStore::new();
        let sel =
            ForwardSelection::All.select(&neighbors(), Some(NodeId(2)), &s, cumulative, &mut rng);
        assert_eq!(sel, vec![NodeId(1), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn random_k_bounds_count_and_excludes() {
        let mut rng = SmallRng::seed_from_u64(2);
        let s = StatsStore::new();
        for _ in 0..50 {
            let sel = ForwardSelection::RandomK(2).select(
                &neighbors(),
                Some(NodeId(1)),
                &s,
                cumulative,
                &mut rng,
            );
            assert_eq!(sel.len(), 2);
            assert!(!sel.contains(&NodeId(1)));
        }
    }

    #[test]
    fn random_k_larger_than_pool_returns_all() {
        let mut rng = SmallRng::seed_from_u64(3);
        let s = StatsStore::new();
        let sel =
            ForwardSelection::RandomK(10).select(&neighbors(), None, &s, cumulative, &mut rng);
        assert_eq!(sel.len(), 4);
    }

    #[test]
    fn directed_bft_picks_highest_benefit() {
        let mut rng = SmallRng::seed_from_u64(4);
        let s = stats_with_benefits(&[(1, 0.5), (2, 9.0), (3, 3.0)]);
        let sel =
            ForwardSelection::TopKBenefit(2).select(&neighbors(), None, &s, cumulative, &mut rng);
        assert_eq!(sel, vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn directed_bft_ties_break_by_id() {
        let mut rng = SmallRng::seed_from_u64(5);
        let s = StatsStore::new(); // everyone scores 0
        let sel =
            ForwardSelection::TopKBenefit(2).select(&neighbors(), None, &s, cumulative, &mut rng);
        assert_eq!(sel, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn labels() {
        assert_eq!(ForwardSelection::All.label(), "flood");
        assert_eq!(ForwardSelection::RandomK(3).label(), "random-3");
        assert_eq!(ForwardSelection::TopKBenefit(2).label(), "directed-bft-2");
    }

    #[test]
    fn launch_ttl_per_strategy() {
        assert_eq!(SearchStrategy::Bfs.launch_ttl(4), 4);
        let deep = SearchStrategy::IterativeDeepening {
            depths: vec![1, 2, 4],
        };
        assert_eq!(deep.launch_ttl(4), 1);
        assert_eq!(SearchStrategy::LocalIndices { radius: 1 }.launch_ttl(4), 3);
        // The flood never launches dead, whatever the radius.
        assert_eq!(SearchStrategy::LocalIndices { radius: 3 }.launch_ttl(2), 1);
    }

    #[test]
    fn max_ttl_per_strategy() {
        assert_eq!(SearchStrategy::Bfs.max_ttl(4), 4);
        let deep = SearchStrategy::IterativeDeepening {
            depths: vec![1, 2, 4],
        };
        // The deepest wave, whatever the hop limit.
        assert_eq!(deep.max_ttl(2), 4);
        assert_eq!(SearchStrategy::LocalIndices { radius: 1 }.max_ttl(4), 3);
        assert_eq!(SearchStrategy::LocalIndices { radius: 3 }.max_ttl(2), 1);
    }

    #[test]
    fn deepening_schedule() {
        let deep = SearchStrategy::IterativeDeepening {
            depths: vec![1, 2, 4],
        };
        assert!(deep.collects_in_waves());
        assert_eq!(deep.wave_depth(0), Some(1));
        assert_eq!(deep.wave_depth(2), Some(4));
        assert_eq!(deep.wave_depth(3), None);
        for single_shot in [
            SearchStrategy::Bfs,
            SearchStrategy::LocalIndices { radius: 1 },
        ] {
            assert!(!single_shot.collects_in_waves());
            assert_eq!(single_shot.wave_depth(0), None);
        }
    }

    #[test]
    fn only_index_strategies_need_the_full_range() {
        let li = SearchStrategy::LocalIndices { radius: 2 };
        assert_eq!(li.index_radius(), Some(2));
        assert!(!li.runs_sharded());
        assert_eq!(SearchStrategy::Bfs.index_radius(), None);
        assert!(SearchStrategy::Bfs.runs_sharded());
        assert!(SearchStrategy::IterativeDeepening { depths: vec![2] }.runs_sharded());
    }

    #[test]
    fn validation_rejects_bad_schedules_and_radii() {
        assert!(SearchStrategy::Bfs.validate(1).is_ok());
        let deep = |depths: Vec<u8>| SearchStrategy::IterativeDeepening { depths };
        assert!(deep(vec![1, 2, 4]).validate(4).is_ok());
        assert!(deep(vec![]).validate(4).is_err());
        assert!(deep(vec![2, 2]).validate(4).is_err());
        assert!(SearchStrategy::LocalIndices { radius: 1 }
            .validate(4)
            .is_ok());
        assert!(SearchStrategy::LocalIndices { radius: 0 }
            .validate(4)
            .is_err());
        assert!(SearchStrategy::LocalIndices { radius: 4 }
            .validate(4)
            .is_err());
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(SearchStrategy::Bfs.label(), "bfs");
        assert_eq!(
            SearchStrategy::IterativeDeepening { depths: vec![2, 4] }.label(),
            "iter-deep[2, 4]"
        );
        assert_eq!(
            SearchStrategy::LocalIndices { radius: 1 }.label(),
            "local-idx-r1"
        );
    }
}
