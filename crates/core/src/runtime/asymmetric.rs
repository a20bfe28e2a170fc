//! The asymmetric-overlay chassis: the shared books of every world whose
//! nodes rewrite their *outgoing* lists unilaterally (paper §3.1's pure
//! and bounded asymmetric regimes — cooperative web caches, PeerOlap).
//!
//! Those worlds differ in their domain (caches, request streams, the
//! request / chunk flow) but not in the overlay bookkeeping around it:
//! one outgoing [`NeighborList`] per node bootstrapped with random
//! targets, one world RNG for every draw that is not a node's own,
//! per-node delay-jitter streams, a random top-up
//! for under-filled lists, and the enactment of Algo 3 — plan from the
//! node's statistics, drop the evicted, adopt the added, top up.
//! [`AsymmetricOverlay`] owns exactly that, once; a world composes it by
//! value next to its per-node domain state, the way it composes
//! [`NodeRuntime`].
//!
//! The out-lists are the only neighbor book, as in the Gnutella world.
//! §3.1's consistency (`u ∈ out(v) ⇒ v ∈ in(u)`) holds by construction:
//! in(u) is *derived* from the out-lists, never stored beside them. The
//! one thing an incoming list would add is PeerOlap's bound on it, and
//! that is stored as a count per node: adopting a target whose count has
//! reached the bound is refused. The pure regime's bound is `None`, a
//! bound no count reaches, so both regimes take one path.
//!
//! Every world draw goes through the one stream named at
//! [`bootstrap`](AsymmetricOverlay::bootstrap), in call order, so a run
//! is a pure function of `(seed, call sequence)`.

use super::node::NodeRuntime;
use crate::update::UpdatePlan;
use ddr_net::NodeDelayStream;
use ddr_overlay::NeighborList;
use ddr_sim::{NodeId, RngFactory, SimDuration};
use ddr_stats::RuntimeMetrics;
use rand::rngs::SmallRng;
use rand::Rng;

/// Random draws one top-up may spend per node of the overlay before it
/// gives up on a list it cannot fill (every other node is at its
/// in-degree bound). Never reached in a satisfiable overlay: filling a
/// slot takes about one draw.
const REFILL_DRAWS_PER_NODE: usize = 100;

/// Overlay, world RNG and delay streams of an asymmetric world.
#[derive(Debug)]
pub struct AsymmetricOverlay {
    /// Each node's outgoing list, bounded by the out-degree.
    out: Vec<NeighborList>,
    /// How many outgoing lists name each node: its in-degree.
    in_degree: Vec<usize>,
    /// The in-degree bound; `usize::MAX` in the pure regime.
    in_capacity: usize,
    rng: SmallRng,
    /// Per-node delay-jitter streams (`net.delay` keyed by node): a
    /// node's delay sequence depends only on `(seed, node)`, never on
    /// other nodes' traffic.
    delays: Vec<NodeDelayStream>,
    out_degree: usize,
    /// Reused by every [`update_neighbors`](Self::update_neighbors).
    plan: UpdatePlan,
}

impl AsymmetricOverlay {
    /// An overlay of `nodes` nodes, every outgoing list topped up
    /// to `out_degree` random targets. `in_capacity` bounds how many
    /// outgoing lists may name one node (bounded asymmetric, the PeerOlap
    /// case); `None` leaves it unbounded (pure asymmetric, the web-cache
    /// case), so unilateral outgoing changes never fail on the target's
    /// side. `stream_label` names the world RNG stream, which feeds the
    /// bootstrap first and every later world draw after.
    pub fn bootstrap(
        nodes: usize,
        out_degree: usize,
        in_capacity: Option<usize>,
        rngs: &RngFactory,
        stream_label: &str,
    ) -> Self {
        let mut overlay = AsymmetricOverlay {
            out: vec![NeighborList::with_capacity(out_degree); nodes],
            in_degree: vec![0; nodes],
            in_capacity: in_capacity.unwrap_or(usize::MAX),
            rng: rngs.stream(stream_label, 0),
            delays: (0..nodes)
                .map(|p| NodeDelayStream::new(rngs, NodeId::from_index(p)))
                .collect(),
            out_degree,
            plan: UpdatePlan::default(),
        };
        for p in 0..nodes {
            overlay.refill(NodeId::from_index(p));
        }
        overlay
    }

    /// Outgoing neighbors of `node`.
    #[inline]
    pub fn out(&self, node: NodeId) -> &NeighborList {
        &self.out[node.index()]
    }

    /// `to` joins `from`'s outgoing list unless it is already there, the
    /// list is full, or `to`'s in-degree has reached the bound.
    fn adopt(&mut self, from: NodeId, to: NodeId) -> bool {
        debug_assert_ne!(from, to, "self-links are not meaningful in the overlay");
        if self.in_degree[to.index()] >= self.in_capacity || !self.out[from.index()].add(to) {
            return false;
        }
        self.in_degree[to.index()] += 1;
        true
    }

    /// Remove `to` from `from`'s outgoing list; returns whether it was there.
    fn drop_link(&mut self, from: NodeId, to: NodeId) -> bool {
        let had = self.out[from.index()].remove(to);
        if had {
            self.in_degree[to.index()] -= 1;
        }
        had
    }

    /// A uniformly random node (possibly the asker).
    pub fn random_node(&mut self) -> NodeId {
        NodeId::from_index(self.rng.gen_range(0..self.out.len()))
    }

    /// `base` scaled by a factor from `[1 - spread, 1 + spread)` drawn
    /// from `node`'s own jitter stream, at least 1 ms.
    pub fn jittered(&mut self, node: NodeId, base: SimDuration, spread: f64) -> SimDuration {
        let f = self.delays[node.index()].jitter(1.0 - spread, 1.0 + spread);
        SimDuration::from_millis(((base.as_millis() as f64) * f).round().max(1.0) as u64)
    }

    /// Top `node`'s outgoing list up to the out-degree with random other
    /// nodes. A refused adoption (duplicate, or the target's in-degree is
    /// at its bound) just costs a draw; the draw budget ends the attempt
    /// when no slot can be filled.
    pub fn refill(&mut self, node: NodeId) {
        for _ in 0..REFILL_DRAWS_PER_NODE * self.out.len() {
            if self.out[node.index()].len() >= self.out_degree {
                break;
            }
            let q = self.random_node();
            if q != node {
                self.adopt(node, q);
            }
        }
    }

    /// Algo 3 (asymmetric neighbor update), ranking by the cumulative
    /// [`NodeStats::benefit`](crate::NodeStats::benefit):
    /// restart `rt`'s update clock, re-select `node`'s outgoing list from
    /// `rt`'s statistics over the other nodes, drop the evicted, adopt
    /// the added, and [`refill`](Self::refill) what stayed empty (sparse
    /// statistics, refused adoptions). Counts the update and every edge
    /// changed into `metrics`; returns how many adoptions were refused
    /// because the target's in-degree was at its bound.
    pub fn update_neighbors(
        &mut self,
        node: NodeId,
        rt: &mut NodeRuntime,
        metrics: &mut RuntimeMetrics,
    ) -> u64 {
        rt.clock.reset();
        metrics.updates += 1;
        self.plan.replan(
            self.out[node.index()].as_slice(),
            &rt.stats,
            |s| s.benefit,
            self.out_degree,
            usize::MAX,
            |m| m != node,
        );
        let plan = std::mem::take(&mut self.plan);
        let mut refused = 0;
        for &e in &plan.evict {
            if self.drop_link(node, e) {
                metrics.edges_changed += 1;
            }
        }
        for &a in &plan.add {
            if self.adopt(node, a) {
                metrics.edges_changed += 1;
            } else {
                refused += 1;
            }
        }
        self.plan = plan;
        self.refill(node);
        refused
    }

    /// Fraction of outgoing edges whose two ends `group_of` maps to the
    /// same group — the clustering measure dynamic mode is expected to
    /// raise (0 for an edgeless overlay).
    pub fn same_group_edge_fraction(&self, group_of: impl Fn(NodeId) -> u32) -> f64 {
        let (mut same, mut total) = (0usize, 0usize);
        for (p, list) in self.out.iter().enumerate() {
            let me = NodeId::from_index(p);
            for q in list {
                total += 1;
                same += usize::from(group_of(q) == group_of(me));
            }
        }
        if total == 0 {
            0.0
        } else {
            same as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats_store::ReplyObservation;
    use ddr_sim::SimTime;
    use proptest::prelude::*;

    fn overlay(nodes: usize, out: usize, inc: Option<usize>) -> AsymmetricOverlay {
        AsymmetricOverlay::bootstrap(nodes, out, inc, &RngFactory::new(11), "test.world")
    }

    /// A bootstrapped overlay with every link removed again.
    fn edgeless(nodes: usize, out: usize, inc: Option<usize>) -> AsymmetricOverlay {
        let mut o = overlay(nodes, out, inc);
        for list in &mut o.out {
            list.drain();
        }
        o.in_degree.fill(0);
        o
    }

    fn link(o: &mut AsymmetricOverlay, from: u32, to: u32) {
        assert!(o.adopt(NodeId(from), NodeId(to)), "room for {from} -> {to}");
    }

    fn observe(rt: &mut NodeRuntime, from: u32, score: f64) {
        rt.stats.record_reply(ReplyObservation {
            from: NodeId(from),
            bandwidth: None,
            score,
            latency_ms: 10.0,
            at: SimTime::ZERO,
        });
    }

    fn out_of(o: &AsymmetricOverlay, node: u32) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = o.out(NodeId(node)).iter().collect();
        out.sort_unstable();
        out
    }

    /// The chassis books, checked from the out-lists alone: every list
    /// within the out-degree, free of self-links and duplicates, and each
    /// node's stored in-degree equal to the number of lists naming it and
    /// within the bound.
    fn check_books(o: &AsymmetricOverlay) {
        let mut named = vec![0usize; o.out.len()];
        for (p, list) in o.out.iter().enumerate() {
            let me = NodeId::from_index(p);
            assert!(list.len() <= o.out_degree, "{me} lists {:?}", list);
            for (i, q) in list.iter().enumerate() {
                assert!(
                    q != me && !list.as_slice()[..i].contains(&q),
                    "{me} lists {q} twice or itself"
                );
                named[q.index()] += 1;
            }
        }
        assert_eq!(o.in_degree, named, "stored in-degrees against a recount");
        assert!(
            named.iter().all(|&d| d <= o.in_capacity),
            "past the bound: {named:?}"
        );
    }

    #[test]
    fn bootstrap_fills_every_list_within_both_bounds() {
        // The web-cache and PeerOlap default shapes.
        for (nodes, inc) in [(64, None), (48, Some(6))] {
            let o = overlay(nodes, 3, inc);
            check_books(&o);
            for p in 0..nodes {
                let n = NodeId::from_index(p);
                assert_eq!(o.out(n).len(), 3, "{inc:?}: node {p} under-filled");
            }
        }
    }

    #[test]
    fn refused_adoption_is_counted_and_the_top_up_moves_on() {
        let mut o = edgeless(4, 1, Some(1));
        link(&mut o, 1, 2);
        let mut rt = NodeRuntime::new(5);
        observe(&mut rt, 2, 9.0); // the best candidate is at its in-degree bound
        let mut metrics = RuntimeMetrics::new();
        let refused = o.update_neighbors(NodeId(0), &mut rt, &mut metrics);
        assert_eq!(refused, 1);
        assert_eq!(o.out(NodeId(0)).len(), 1, "the top-up found another node");
        assert!(!o.out(NodeId(0)).contains(NodeId(2)));
        assert_eq!((metrics.updates, metrics.edges_changed), (1, 0));
        check_books(&o);
    }

    #[test]
    fn update_evicts_the_weakest_incumbent_and_never_adopts_itself() {
        let mut o = edgeless(5, 2, None);
        link(&mut o, 0, 1);
        link(&mut o, 0, 2);
        let mut rt = NodeRuntime::new(5);
        observe(&mut rt, 0, 100.0); // self: never eligible
        observe(&mut rt, 1, 50.0); // strong incumbent: kept
        observe(&mut rt, 4, 9.0); // strong stranger: adopted
        observe(&mut rt, 3, 5.0); // outranked stranger; incumbent 2 has no score
        rt.clock.tick();
        let mut metrics = RuntimeMetrics::new();
        let refused = o.update_neighbors(NodeId(0), &mut rt, &mut metrics);
        assert_eq!(refused, 0);
        assert_eq!(out_of(&o, 0), vec![NodeId(1), NodeId(4)]);
        assert_eq!((metrics.updates, metrics.edges_changed), (1, 2));
        assert_eq!(rt.clock.count(), 0, "an executed update restarts the clock");
    }

    #[test]
    fn refill_terminates_when_every_target_is_at_its_bound() {
        let mut o = edgeless(3, 1, Some(1));
        link(&mut o, 1, 2);
        link(&mut o, 2, 1);
        o.refill(NodeId(0));
        assert!(o.out(NodeId(0)).is_empty(), "no target had room");
        check_books(&o);
    }

    #[test]
    fn same_group_fraction_counts_edges_not_nodes() {
        let mut o = edgeless(4, 2, None);
        assert_eq!(o.same_group_edge_fraction(|n| n.0 % 2), 0.0);
        for (from, to) in [(0, 2), (0, 1), (1, 3), (2, 3)] {
            link(&mut o, from, to);
        }
        assert_eq!(o.same_group_edge_fraction(|n| n.0 % 2), 0.5);
    }

    const N: u32 = 8;

    #[derive(Debug, Clone)]
    enum Op {
        Refill(u32),
        /// Record `(from, score)` replies at the node, then run Algo 3.
        Update(u32, Vec<(u32, f64)>),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..N).prop_map(Op::Refill),
            (0..N, proptest::collection::vec((0..N, 0.0f64..10.0), 0..4))
                .prop_map(|(a, replies)| Op::Update(a, replies)),
        ]
    }

    proptest! {
        /// Any sequence of the chassis' mutations keeps its books: the
        /// out-lists bounded, self-free and duplicate-free, the stored
        /// in-degrees equal to a recount of the out-lists and within the
        /// bound. In the pure regime (`None`) and in bounded ones, where a
        /// target at its bound refuses adoption; from a bootstrapped
        /// overlay and from an edgeless one, where the top-ups build the
        /// lists.
        #[test]
        fn books_hold_under_any_ops(
            ops in proptest::collection::vec(op(), 0..60),
            out_degree in 1usize..5,
            // 0 draws the pure regime, 1..5 a bounded one.
            in_capacity in (0usize..5).prop_map(|c| (c > 0).then_some(c)),
            start_edgeless in any::<bool>(),
        ) {
            let mut o = if start_edgeless {
                edgeless(N as usize, out_degree, in_capacity)
            } else {
                overlay(N as usize, out_degree, in_capacity)
            };
            let mut rts: Vec<NodeRuntime> = (0..N).map(|_| NodeRuntime::new(1)).collect();
            let mut metrics = RuntimeMetrics::new();
            check_books(&o);
            for op in ops {
                match op {
                    Op::Refill(a) => o.refill(NodeId(a)),
                    Op::Update(a, replies) => {
                        let rt = &mut rts[a as usize];
                        for (from, score) in replies {
                            observe(rt, from, score);
                        }
                        o.update_neighbors(NodeId(a), rt, &mut metrics);
                    }
                }
                check_books(&o);
            }
        }
    }
}
