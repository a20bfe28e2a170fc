//! Property-based tests for the neighbor-update planner (Algos 3/4 core):
//! structure and optimality of every plan, and element-for-element
//! agreement with the allocating two-pass planner it replaced, kept below
//! as a test-only reference model.

use ddr_core::benefit::BenefitFunction;
use ddr_core::search::benefit_sort_key;
use ddr_core::stats_store::ReplyObservation;
use ddr_core::{CumulativeBenefit, StatsStore, UpdatePlan};
use ddr_net::BandwidthClass;
use ddr_sim::{NodeId, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The planner as two allocating passes: rank into a fresh plan, then cap
/// it. `replan` must agree with `limit_swaps(plan_asymmetric_update(..))`.
mod reference {
    use super::*;

    /// A plan as the reference builds it: `(add, evict, keep)`.
    pub type Plan = (Vec<NodeId>, Vec<NodeId>, Vec<NodeId>);

    fn ranked_by(
        stats: &StatsStore,
        benefit: &dyn BenefitFunction,
        eligible: &impl Fn(NodeId) -> bool,
    ) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = stats
            .iter()
            .filter(|&(n, _)| eligible(n))
            .map(|(n, s)| (n, benefit.benefit(s)))
            .collect();
        v.sort_unstable_by(|a, b| {
            benefit_sort_key(b.1)
                .total_cmp(&benefit_sort_key(a.1))
                .then(a.0.cmp(&b.0))
        });
        v
    }

    pub fn plan_asymmetric_update(
        current: &[NodeId],
        stats: &StatsStore,
        benefit: &dyn BenefitFunction,
        capacity: usize,
        eligible: impl Fn(NodeId) -> bool,
    ) -> Plan {
        let is_current = |n: NodeId| current.contains(&n);
        let mut candidates = ranked_by(stats, benefit, &eligible);
        for &n in current {
            if eligible(n) && stats.get(n).is_none() {
                candidates.push((n, 0.0));
            }
        }
        candidates.sort_unstable_by(|a, b| {
            benefit_sort_key(b.1)
                .total_cmp(&benefit_sort_key(a.1))
                .then_with(|| is_current(b.0).cmp(&is_current(a.0)))
                .then(a.0.cmp(&b.0))
        });
        candidates.dedup_by_key(|c| c.0);
        candidates.truncate(capacity);
        let selected: Vec<NodeId> = candidates.into_iter().map(|(n, _)| n).collect();
        let add = selected
            .iter()
            .copied()
            .filter(|&n| !is_current(n))
            .collect();
        let keep = selected
            .iter()
            .copied()
            .filter(|&n| is_current(n))
            .collect();
        let evict = current
            .iter()
            .copied()
            .filter(|n| !selected.contains(n))
            .collect();
        (add, evict, keep)
    }

    pub fn limit_swaps(
        (mut add, evict, mut keep): Plan,
        max_swaps: usize,
        capacity: usize,
        stats: &StatsStore,
        benefit: &dyn BenefitFunction,
        eligible: impl Fn(NodeId) -> bool,
    ) -> Plan {
        let (dead, mut alive): (Vec<NodeId>, Vec<NodeId>) =
            evict.into_iter().partition(|&n| !eligible(n));
        add.truncate(max_swaps);
        let needed = (keep.len() + alive.len() + add.len()).saturating_sub(capacity);
        let b = |n: NodeId| stats.get(n).map(|s| benefit.benefit(s)).unwrap_or(0.0);
        alive.sort_unstable_by(|&x, &y| {
            benefit_sort_key(b(x))
                .total_cmp(&benefit_sort_key(b(y)))
                .then(y.cmp(&x))
        });
        let cut = needed.min(alive.len());
        keep.extend_from_slice(&alive[cut..]);
        let mut out = dead;
        out.extend_from_slice(&alive[..cut]);
        (add, out, keep)
    }
}

/// One planner call's inputs.
#[derive(Debug, Clone)]
struct Case {
    known: Vec<(u32, f64)>,
    current: Vec<NodeId>,
    capacity: usize,
    max_swaps: usize,
    offline: BTreeSet<u32>,
}

impl Case {
    fn eligible(&self) -> impl Fn(NodeId) -> bool + '_ {
        |n| !self.offline.contains(&n.0)
    }

    fn reference(&self) -> reference::Plan {
        let stats = store_from(&self.known);
        let full = reference::plan_asymmetric_update(
            &self.current,
            &stats,
            &CumulativeBenefit,
            self.capacity,
            self.eligible(),
        );
        reference::limit_swaps(
            full,
            self.max_swaps,
            self.capacity,
            &stats,
            &CumulativeBenefit,
            self.eligible(),
        )
    }

    fn replan_into(&self, plan: &mut UpdatePlan) {
        let stats = store_from(&self.known);
        plan.replan(
            &self.current,
            &stats,
            &CumulativeBenefit,
            self.capacity,
            self.max_swaps,
            self.eligible(),
        );
    }
}

/// Benefit increments with NaN (poisons the node's sum) and exact ties.
fn score() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..100.0,
        0.0f64..100.0,
        Just(1.0),
        Just(0.0),
        Just(f64::NAN),
    ]
}

fn case() -> impl Strategy<Value = Case> {
    (
        (
            proptest::collection::vec((0u32..20, score()), 0..20),
            proptest::collection::btree_set(0u32..20, 0..6),
        ),
        1usize..=6,
        prop_oneof![0usize..=4, 0usize..=4, Just(usize::MAX)],
        proptest::collection::btree_set(0u32..20, 0..5),
    )
        .prop_map(|((known, current), capacity, max_swaps, offline)| Case {
            known,
            current: current.into_iter().map(NodeId).collect(),
            capacity,
            max_swaps,
            offline,
        })
}

fn store_from(pairs: &[(u32, f64)]) -> StatsStore {
    let mut s = StatsStore::new();
    for &(n, score) in pairs {
        s.record_reply(ReplyObservation {
            from: NodeId(n),
            bandwidth: Some(BandwidthClass::Cable),
            score,
            latency_ms: 100.0,
            at: SimTime::ZERO,
        });
    }
    s
}

fn plan(
    current: &[NodeId],
    stats: &StatsStore,
    capacity: usize,
    max_swaps: usize,
    eligible: impl Fn(NodeId) -> bool,
) -> UpdatePlan {
    let mut plan = UpdatePlan::default();
    plan.replan(
        current,
        stats,
        &CumulativeBenefit,
        capacity,
        max_swaps,
        eligible,
    );
    plan
}

fn sorted(v: &[NodeId]) -> Vec<NodeId> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// `add` and `evict` equal the reference element for element, `keep` as
/// a set; an uncapped plan's evictions are exactly the unranked ones.
fn assert_matches_reference(case: &Case, plan: &UpdatePlan) {
    let (add, evict, keep) = case.reference();
    prop_assert_eq!(&plan.add, &add, "add");
    prop_assert_eq!(&plan.evict, &evict, "evict");
    prop_assert_eq!(sorted(&plan.keep), sorted(&keep), "keep");
    if case.max_swaps == usize::MAX {
        let stats = store_from(&case.known);
        let (full_add, full_evict, _) = reference::plan_asymmetric_update(
            &case.current,
            &stats,
            &CumulativeBenefit,
            case.capacity,
            case.eligible(),
        );
        prop_assert_eq!(&plan.add, &full_add, "uncapped add");
        prop_assert_eq!(sorted(&plan.evict), sorted(&full_evict), "uncapped evict");
    }
}

proptest! {
    /// The in-place planner is the allocating pair, output for output.
    #[test]
    fn replan_equals_the_reference_pair(case in case()) {
        let mut plan = UpdatePlan::default();
        case.replan_into(&mut plan);
        assert_matches_reference(&case, &plan);
    }

    /// One plan reused across a call sequence leaves nothing stale behind.
    #[test]
    fn reused_plan_equals_the_reference_pair_every_call(
        cases in proptest::collection::vec(case(), 1..8),
    ) {
        let mut plan = UpdatePlan::default();
        for case in &cases {
            case.replan_into(&mut plan);
            assert_matches_reference(case, &plan);
        }
    }

    /// Structural invariants of every plan: selected set fits capacity,
    /// keep/evict partition the current list, adds are disjoint from it,
    /// no duplicates anywhere.
    #[test]
    fn plan_structure_invariants(
        known in proptest::collection::vec((0u32..20, 0.0f64..100.0), 0..20),
        current in proptest::collection::btree_set(0u32..20, 0..6),
        capacity in 1usize..6,
        offline in proptest::collection::btree_set(0u32..20, 0..5),
    ) {
        let stats = store_from(&known);
        let current: Vec<NodeId> = current.into_iter().map(NodeId).collect();
        let eligible = |n: NodeId| !offline.contains(&n.0);
        let plan = plan(&current, &stats, capacity, usize::MAX, eligible);

        // capacity respected
        prop_assert!(plan.add.len() + plan.keep.len() <= capacity);
        // keep ∪ evict == current, disjoint
        let ke: Vec<NodeId> = plan.keep.iter().chain(&plan.evict).copied().collect();
        prop_assert_eq!(sorted(&ke), sorted(&current), "keep+evict must partition current");
        for k in &plan.keep {
            prop_assert!(!plan.evict.contains(k));
        }
        // adds are new and eligible
        for a in &plan.add {
            prop_assert!(!current.contains(a), "added an incumbent");
            prop_assert!(eligible(*a), "added an ineligible node");
        }
        // kept nodes are eligible
        for k in &plan.keep {
            prop_assert!(eligible(*k), "kept an ineligible node");
        }
        // no duplicates in adds
        let set: std::collections::HashSet<_> = plan.add.iter().collect();
        prop_assert_eq!(set.len(), plan.add.len());
    }

    /// Optimality: every added node's benefit is ≥ every evicted
    /// *eligible* node's benefit (the planner never trades down).
    #[test]
    fn plan_never_trades_down(
        known in proptest::collection::vec((0u32..20, 0.0f64..100.0), 0..20),
        current in proptest::collection::btree_set(0u32..20, 0..6),
        capacity in 1usize..6,
    ) {
        let stats = store_from(&known);
        let current: Vec<NodeId> = current.into_iter().map(NodeId).collect();
        let plan = plan(&current, &stats, capacity, usize::MAX, |_| true);
        let benefit = |n: NodeId| stats.get(n).map(|s| s.benefit).unwrap_or(0.0);
        for a in &plan.add {
            for e in &plan.evict {
                prop_assert!(
                    benefit(*a) >= benefit(*e),
                    "added {:?} ({}) while evicting better {:?} ({})",
                    a, benefit(*a), e, benefit(*e)
                );
            }
        }
    }

    /// The swap cap: the capped plan's adds are a prefix of the uncapped
    /// plan's adds, live evictions never exceed what capacity demands,
    /// and the final occupancy fits.
    #[test]
    fn swap_cap_invariants(
        known in proptest::collection::vec((0u32..20, 0.0f64..100.0), 0..20),
        current in proptest::collection::btree_set(0u32..20, 0..6),
        capacity in 1usize..6,
        max_swaps in 0usize..4,
        offline in proptest::collection::btree_set(0u32..20, 0..5),
    ) {
        let stats = store_from(&known);
        let current: Vec<NodeId> = current.into_iter().map(NodeId).collect();
        let eligible = |n: NodeId| !offline.contains(&n.0);
        let full = plan(&current, &stats, capacity, usize::MAX, eligible);
        let limited = plan(&current, &stats, capacity, max_swaps, eligible);

        prop_assert!(limited.add.len() <= max_swaps);
        prop_assert_eq!(&limited.add[..], &full.add[..limited.add.len()], "adds must be a prefix");
        // dead incumbents always evicted
        for &n in &current {
            if !eligible(n) {
                prop_assert!(limited.evict.contains(&n), "dead incumbent {n} survived");
            }
        }
        // final occupancy fits capacity
        prop_assert!(limited.keep.len() + limited.add.len() <= capacity);
        // keep ∪ evict still partitions current
        let ke: Vec<NodeId> = limited.keep.iter().chain(&limited.evict).copied().collect();
        prop_assert_eq!(sorted(&ke), sorted(&current));
    }
}
