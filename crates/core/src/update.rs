//! Neighbor-update algorithms (paper §3.4, Algos 3 & 4).
//!
//! Both algorithms share the same skeleton — *sort every known node by a
//! benefit function, keep the top `capacity`* — and differ in how changes
//! are enacted:
//!
//! * **asymmetric** ([`UpdatePlan::replan`] uncapped): the node just
//!   rewrites its outgoing list (safe because pure-asymmetric incoming
//!   lists accept everyone);
//! * **symmetric** ([`UpdatePlan`] consumed by a simulator): additions
//!   require an **invitation** round-trip and removals an **eviction**
//!   notice, so the plan lists both and the simulator plays the protocol.
//!   The invitee's side of the protocol is [`InvitationPolicy::decide`].

use crate::search::benefit_sort_key;
use crate::stats_store::{NodeStats, StatsStore};
use ddr_sim::NodeId;

/// The outcome of ranking candidates for a new neighborhood.
///
/// A plan is a set of reusable buffers: [`replan`](Self::replan) refills
/// them in place, so a caller that keeps one plan per world plans
/// without allocating once the buffers have grown to the largest
/// neighborhood seen.
#[derive(Debug, Clone, Default)]
pub struct UpdatePlan {
    /// Nodes entering the neighborhood (asymmetric: adopt directly;
    /// symmetric: send invitations), most beneficial first.
    pub add: Vec<NodeId>,
    /// Current neighbors leaving the neighborhood (symmetric: send
    /// eviction notices): the ineligible ones in neighbor-list order,
    /// then the outranked ones weakest first.
    pub evict: Vec<NodeId>,
    /// Current neighbors that stay.
    pub keep: Vec<NodeId>,
    /// Scratch: every eligible candidate with its ranking key.
    candidates: Vec<Candidate>,
}

/// One ranked candidate: its benefit key (see [`benefit_sort_key`]) and
/// whether it is a current neighbor.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    node: NodeId,
    key: f64,
    incumbent: bool,
}

impl UpdatePlan {
    /// Recompute the best neighborhood of size ≤ `capacity`, reached in at
    /// most `max_swaps` neighbor exchanges (`usize::MAX`: uncapped, Algo
    /// 3's plan), into this plan's buffers.
    ///
    /// Candidates are every node in `stats` passing `eligible` (used to
    /// filter offline nodes and the node itself) plus all eligible
    /// `current` neighbors, which hold no duplicates. Ranking is by
    /// `rank` descending with two paper-faithful refinements:
    ///
    /// * **incumbency tie-break** — on equal benefit a current neighbor
    ///   wins over a stranger, so neighborhoods don't churn on
    ///   zero-information ties (important when statistics are sparse, e.g.
    ///   just after login);
    /// * current neighbors that became ineligible (logged off) are always
    ///   evicted, regardless of the cap — keeping a dead neighbor is never
    ///   useful — so `evict` may exceed `max_swaps` by that amount.
    ///
    /// The cap keeps only the `max_swaps` most beneficial additions and
    /// only as many live evictions (weakest incumbents first) as capacity
    /// requires. The paper's case study observes that "only one neighbor
    /// is exchanged during each reconfiguration" (§4.3) — the cap models
    /// that damping, which also limits how much statistics-destroying
    /// eviction a single update can cause.
    pub fn replan(
        &mut self,
        current: &[NodeId],
        stats: &StatsStore,
        rank: impl Fn(&NodeStats) -> f64,
        capacity: usize,
        max_swaps: usize,
        eligible: impl Fn(NodeId) -> bool,
    ) {
        self.add.clear();
        self.evict.clear();
        self.keep.clear();
        let candidates = &mut self.candidates;
        candidates.clear();
        for (node, s) in stats.iter() {
            if eligible(node) {
                candidates.push(Candidate {
                    node,
                    key: benefit_sort_key(rank(s)),
                    incumbent: current.contains(&node),
                });
            }
        }
        for &node in current {
            if !eligible(node) {
                // Ineligible incumbents go unconditionally.
                self.evict.push(node);
            } else if stats.get(node).is_none() {
                candidates.push(Candidate {
                    node,
                    key: benefit_sort_key(0.0),
                    incumbent: true,
                });
            }
        }
        // Benefit desc (NaN-safe: NaN ranks last), incumbents first on
        // ties, then id for determinism. Every id is distinct, so this is
        // a total order and the unstable sort is deterministic.
        candidates.sort_unstable_by(|a, b| {
            b.key
                .total_cmp(&a.key)
                .then_with(|| b.incumbent.cmp(&a.incumbent))
                .then(a.node.cmp(&b.node))
        });
        let (selected, outranked) = candidates.split_at(capacity.min(candidates.len()));
        for c in selected {
            if c.incumbent {
                self.keep.push(c.node);
            } else if self.add.len() < max_swaps {
                self.add.push(c.node);
            }
        }
        // The outranked incumbents, read backwards, are the live eviction
        // candidates weakest first (benefit ascending, then id
        // descending: a poisoned incumbent goes first). Evict only as
        // many as the capped additions need room for; the rest stay.
        let live = outranked.iter().filter(|c| c.incumbent).count();
        let needed = (self.keep.len() + live + self.add.len()).saturating_sub(capacity);
        for (i, c) in outranked.iter().rev().filter(|c| c.incumbent).enumerate() {
            if i < needed {
                self.evict.push(c.node);
            } else {
                self.keep.push(c.node);
            }
        }
    }
}

/// How an invited node answers (paper §3.4's two cases).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InvitationPolicy {
    /// Case (i): "a node that receives an invitation always accepts it,
    /// possibly by evicting the least beneficial neighbor" — the music
    /// case study's choice.
    AlwaysAccept,
    /// Case (ii): accept only if the inviter's *known* benefit exceeds the
    /// weakest current neighbor's (nodes without statistics score 0; the
    /// paper's "temporary relationship" variant reduces to having some
    /// statistics available).
    BenefitGated,
    /// Case (ii) via "the exchange of summarized information, according
    /// to which the invitee can assess the potential benefit" (§3.4
    /// solution b): accept a full-list invitation only when the inviter's
    /// content summary is at least `min_similarity`-cosine-similar to the
    /// invitee's own. Missing summaries count as similarity 0.
    SummaryGated {
        /// Minimum cosine similarity between content summaries.
        min_similarity: f64,
    },
    /// Case (ii) via "the establishment of a temporary relationship in
    /// order to start exchanging search and exploration messages and
    /// gather statistics; the relationship will either become permanent
    /// or will terminate after a certain time threshold" (§3.4 solution
    /// a). The decision itself accepts like [`InvitationPolicy::AlwaysAccept`];
    /// the *simulator* schedules a trial-expiry check after
    /// `trial_millis` and unlinks the inviter if it accumulated no
    /// benefit by then.
    TrialPeriod {
        /// Trial length in virtual milliseconds.
        trial_millis: u64,
    },
}

impl InvitationPolicy {
    /// Decide an invitation to a node whose symmetric neighbor list
    /// `neighbors` is full, ranking the node's own statistics by `rank`:
    /// the incumbent to evict for `inviter`, or `None` to refuse. A node
    /// with a free slot takes the inviter without asking (see
    /// [`crate::runtime::link`]). `similarity` is the cosine similarity
    /// of the two nodes' content summaries; only
    /// [`InvitationPolicy::SummaryGated`] calls it, so no other policy
    /// builds a summary.
    pub fn decide(
        &self,
        inviter: NodeId,
        neighbors: &[NodeId],
        stats: &StatsStore,
        rank: impl Fn(&NodeStats) -> f64,
        similarity: impl FnOnce() -> f64,
    ) -> Option<NodeId> {
        debug_assert!(
            !neighbors.contains(&inviter),
            "invited by an existing neighbor"
        );
        // The weakest incumbent: lowest benefit, ties by highest id so the
        // choice is deterministic.
        let weakest = neighbors.iter().copied().min_by(|&a, &b| {
            let ba = stats.get(a).map(&rank).unwrap_or(0.0);
            let bb = stats.get(b).map(&rank).unwrap_or(0.0);
            // NaN-safe: a poisoned incumbent ranks weakest.
            benefit_sort_key(ba)
                .total_cmp(&benefit_sort_key(bb))
                .then(b.cmp(&a))
        })?;
        let accept = match self {
            InvitationPolicy::AlwaysAccept | InvitationPolicy::TrialPeriod { .. } => true,
            InvitationPolicy::BenefitGated => {
                let inviter_benefit = stats.get(inviter).map(&rank).unwrap_or(0.0);
                let weakest_benefit = stats.get(weakest).map(&rank).unwrap_or(0.0);
                inviter_benefit > weakest_benefit
            }
            InvitationPolicy::SummaryGated { min_similarity } => similarity() >= *min_similarity,
        };
        accept.then_some(weakest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats_store::ReplyObservation;
    use crate::summary::CategorySummary;
    use ddr_net::BandwidthClass;
    use ddr_sim::SimTime;

    fn cumulative(s: &NodeStats) -> f64 {
        s.benefit
    }

    fn store(pairs: &[(u32, f64)]) -> StatsStore {
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

    fn plan(
        current: &[NodeId],
        s: &StatsStore,
        capacity: usize,
        max_swaps: usize,
        eligible: impl Fn(NodeId) -> bool,
    ) -> UpdatePlan {
        let mut plan = UpdatePlan::default();
        plan.replan(current, s, cumulative, capacity, max_swaps, eligible);
        plan
    }

    #[test]
    fn selects_top_capacity_by_benefit() {
        let s = store(&[(1, 1.0), (2, 5.0), (3, 3.0), (4, 0.5)]);
        let plan = plan(&[], &s, 2, usize::MAX, |_| true);
        assert_eq!(plan.add, vec![NodeId(2), NodeId(3)]);
        assert!(plan.evict.is_empty());
        assert!(plan.keep.is_empty());
    }

    #[test]
    fn evicts_weaker_incumbents() {
        let s = store(&[(1, 1.0), (2, 5.0), (3, 3.0)]);
        let current = [NodeId(1), NodeId(4)]; // 4 has no stats → benefit 0
        let plan = plan(&current, &s, 2, usize::MAX, |_| true);
        assert_eq!(plan.add, vec![NodeId(2), NodeId(3)]);
        assert_eq!(plan.evict, vec![NodeId(4), NodeId(1)], "weakest first");
    }

    #[test]
    fn incumbents_win_zero_information_ties() {
        let s = store(&[(9, 0.0)]); // known but zero-benefit stranger
        let current = [NodeId(1)];
        let plan = plan(&current, &s, 1, usize::MAX, |_| true);
        assert!(
            plan.add.is_empty() && plan.evict.is_empty(),
            "stranger displaced an equal incumbent: {plan:?}"
        );
        assert_eq!(plan.keep, vec![NodeId(1)]);
    }

    #[test]
    fn offline_incumbents_always_evicted() {
        let s = store(&[(1, 10.0)]);
        let current = [NodeId(1)];
        let offline = NodeId(1);
        let plan = plan(&current, &s, 2, usize::MAX, |n| n != offline);
        assert_eq!(plan.evict, vec![NodeId(1)]);
        assert!(plan.keep.is_empty());
    }

    #[test]
    fn respects_capacity_with_keeps_and_adds() {
        let s = store(&[(1, 5.0), (2, 4.0), (3, 3.0), (4, 2.0)]);
        let current = [NodeId(3), NodeId(4)];
        let plan = plan(&current, &s, 3, usize::MAX, |_| true);
        assert_eq!(plan.add, vec![NodeId(1), NodeId(2)]);
        assert_eq!(plan.keep, vec![NodeId(3)]);
        assert_eq!(plan.evict, vec![NodeId(4)]);
        assert_eq!(plan.add.len() + plan.keep.len(), 3);
    }

    #[test]
    fn empty_stats_is_noop_for_incumbents() {
        let s = StatsStore::new();
        let current = [NodeId(1), NodeId(2)];
        let plan = plan(&current, &s, 2, usize::MAX, |_| true);
        assert!(plan.add.is_empty() && plan.evict.is_empty());
    }

    #[test]
    fn swap_cap_keeps_the_best_add_and_evicts_only_the_weakest() {
        let s = store(&[(1, 5.0), (2, 4.0), (3, 0.5), (4, 0.2)]);
        let current = [NodeId(3), NodeId(4)];
        // The uncapped plan at capacity 2 adds {1,2} and evicts {3,4}.
        assert_eq!(plan(&current, &s, 2, usize::MAX, |_| true).add.len(), 2);
        let limited = plan(&current, &s, 2, 1, |_| true);
        assert_eq!(limited.add, vec![NodeId(1)], "keeps only the best add");
        assert_eq!(limited.evict, vec![NodeId(4)], "evicts only the weakest");
        assert_eq!(limited.keep, vec![NodeId(3)]);
    }

    #[test]
    fn swap_cap_preserves_dead_evictions() {
        let s = store(&[(1, 5.0)]);
        let current = [NodeId(7), NodeId(8)]; // 7 offline, 8 alive no stats
        let limited = plan(&current, &s, 2, 1, |n| n != NodeId(7));
        assert_eq!(limited.evict, vec![NodeId(7)], "dead incumbent must go");
        assert_eq!(limited.add, vec![NodeId(1)]);
        // With 7 gone there is room: no need to evict the live incumbent 8.
        assert_eq!(limited.keep, vec![NodeId(8)]);
    }

    #[test]
    fn swap_cap_noop_passthrough() {
        let limited = plan(&[NodeId(1)], &StatsStore::new(), 2, 1, |_| true);
        assert!(limited.add.is_empty() && limited.evict.is_empty());
        assert_eq!(limited.keep, vec![NodeId(1)]);
    }

    /// The similarity every policy but the summary gate gets: asking for
    /// it fails the test, so no other policy builds a summary.
    fn unasked() -> f64 {
        panic!("only the summary-gated policy asks for a similarity")
    }

    #[test]
    fn always_accept_full_evicts_weakest() {
        let s = store(&[(1, 5.0), (2, 1.0), (3, 3.0), (4, 2.0)]);
        for policy in [
            InvitationPolicy::AlwaysAccept,
            InvitationPolicy::TrialPeriod { trial_millis: 1 },
        ] {
            let d = policy.decide(
                NodeId(9),
                &[NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
                &s,
                cumulative,
                unasked,
            );
            assert_eq!(d, Some(NodeId(2)), "{policy:?}");
        }
    }

    #[test]
    fn benefit_gated_rejects_unknown_inviter() {
        let s = store(&[(1, 5.0), (2, 1.0)]);
        let d = InvitationPolicy::BenefitGated.decide(
            NodeId(9), // unknown → benefit 0, weakest incumbent has 1.0
            &[NodeId(1), NodeId(2)],
            &s,
            cumulative,
            unasked,
        );
        assert_eq!(d, None);
    }

    #[test]
    fn benefit_gated_accepts_known_strong_inviter() {
        let s = store(&[(1, 5.0), (2, 1.0), (9, 3.0)]);
        let d = InvitationPolicy::BenefitGated.decide(
            NodeId(9),
            &[NodeId(1), NodeId(2)],
            &s,
            cumulative,
            unasked,
        );
        assert_eq!(d, Some(NodeId(2)));
    }

    #[test]
    fn summary_gated_accepts_similar_inviter() {
        let s = store(&[(1, 1.0), (2, 2.0)]);
        // Both profiles concentrated in category 0 → similarity ≈ 1.
        let items: Vec<ddr_sim::ItemId> = (0..10).map(|_| ddr_sim::ItemId(0)).collect();
        let mine = CategorySummary::build(&items, 3, |_| 0);
        let theirs = mine.clone();
        let d = InvitationPolicy::SummaryGated {
            min_similarity: 0.8,
        }
        .decide(NodeId(9), &[NodeId(1), NodeId(2)], &s, cumulative, || {
            theirs.similarity(&mine)
        });
        assert_eq!(d, Some(NodeId(1)));
    }

    #[test]
    fn summary_gated_rejects_dissimilar_inviter() {
        let s = store(&[(1, 1.0), (2, 2.0)]);
        let a_items = [ddr_sim::ItemId(0)];
        let b_items = [ddr_sim::ItemId(1)];
        let mine = CategorySummary::build(&a_items, 3, |i| i.0 as usize);
        let theirs = CategorySummary::build(&b_items, 3, |i| i.0 as usize);
        let d = InvitationPolicy::SummaryGated {
            min_similarity: 0.5,
        }
        .decide(NodeId(9), &[NodeId(1), NodeId(2)], &s, cumulative, || {
            theirs.similarity(&mine)
        });
        assert_eq!(d, None);
    }
}
