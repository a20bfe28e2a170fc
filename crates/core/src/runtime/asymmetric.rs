//! The asymmetric-overlay chassis: the shared books of every world whose
//! nodes rewrite their *outgoing* lists unilaterally (paper §3.1's pure
//! and bounded asymmetric regimes — cooperative web caches, PeerOlap).
//!
//! Those worlds differ in their domain (caches, request streams, the
//! request / chunk flow) but not in the overlay bookkeeping around it:
//! one outgoing [`NeighborList`] per node bootstrapped with random
//! targets, who is present right now, one world RNG for every draw that
//! is not a node's own, per-node delay-jitter streams, a random top-up
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
/// gives up on a list it cannot fill (every eligible target is at its
/// in-degree bound, or too few nodes are present). Never reached in a
/// satisfiable overlay: filling a slot takes about one draw.
const REFILL_DRAWS_PER_NODE: usize = 100;

/// Overlay, presence, world RNG and delay streams of an asymmetric world.
#[derive(Debug)]
pub struct AsymmetricOverlay {
    /// Each node's outgoing list, bounded by the out-degree.
    out: Vec<NeighborList>,
    /// How many outgoing lists name each node: its in-degree.
    in_degree: Vec<usize>,
    /// The in-degree bound; `usize::MAX` in the pure regime.
    in_capacity: usize,
    present: Vec<bool>,
    present_count: usize,
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
    /// An overlay of `nodes` present nodes, every outgoing list topped up
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
            present: vec![true; nodes],
            present_count: nodes,
            rng: rngs.stream(stream_label, 0),
            delays: (0..nodes)
                .map(|p| NodeDelayStream::new(rngs, NodeId::from_index(p)))
                .collect(),
            out_degree,
            plan: UpdatePlan::default(),
        };
        for p in 0..nodes {
            overlay.refill(NodeId::from_index(p), false);
        }
        overlay
    }

    /// Outgoing neighbors of `node`.
    #[inline]
    pub fn out(&self, node: NodeId) -> &NeighborList {
        &self.out[node.index()]
    }

    /// Whether `node` is currently present.
    #[inline]
    pub fn is_present(&self, node: NodeId) -> bool {
        self.present[node.index()]
    }

    /// How many nodes are currently present.
    pub fn present_count(&self) -> usize {
        self.present_count
    }

    /// Flip `node` between present and absent; returns the new state.
    /// Links are left alone — a world whose departures tear them down
    /// calls [`isolate`](Self::isolate).
    pub fn toggle(&mut self, node: NodeId) -> bool {
        let now_present = !self.present[node.index()];
        self.present[node.index()] = now_present;
        if now_present {
            self.present_count += 1;
        } else {
            self.present_count -= 1;
        }
        now_present
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

    /// Remove every link touching `node`: its own outgoing list, then its
    /// entry in every other one. The scan visits every list, but it runs
    /// only on departures, and order-preserving removal leaves each list
    /// the same whatever the visit order.
    pub fn isolate(&mut self, node: NodeId) {
        for n in self.out[node.index()].drain() {
            self.in_degree[n.index()] -= 1;
        }
        for list in &mut self.out {
            if list.remove(node) {
                self.in_degree[node.index()] -= 1;
            }
        }
    }

    /// A uniformly random node (present or not; possibly the asker).
    pub fn random_node(&mut self) -> NodeId {
        NodeId::from_index(self.rng.gen_range(0..self.present.len()))
    }

    /// An exponential duration with the given mean, at least 1 ms.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        let u: f64 = 1.0 - self.rng.gen::<f64>();
        SimDuration::from_millis(((-(mean.as_millis() as f64)) * u.ln()).max(1.0) as u64)
    }

    /// `base` scaled by a factor from `[1 - spread, 1 + spread)` drawn
    /// from `node`'s own jitter stream, at least 1 ms.
    pub fn jittered(&mut self, node: NodeId, base: SimDuration, spread: f64) -> SimDuration {
        let f = self.delays[node.index()].jitter(1.0 - spread, 1.0 + spread);
        SimDuration::from_millis(((base.as_millis() as f64) * f).round().max(1.0) as u64)
    }

    /// Top `node`'s outgoing list up to the out-degree with random other
    /// nodes — only present ones when `present_only`. A refused adoption
    /// (duplicate, or the target's in-degree is at its bound) just costs
    /// a draw; the draw budget ends the attempt when no slot can be filled.
    pub fn refill(&mut self, node: NodeId, present_only: bool) {
        for _ in 0..REFILL_DRAWS_PER_NODE * self.present.len() {
            if self.out[node.index()].len() >= self.out_degree {
                break;
            }
            let q = self.random_node();
            if q != node && (!present_only || self.present[q.index()]) {
                self.adopt(node, q);
            }
        }
    }

    /// Algo 3 (asymmetric neighbor update), ranking by the cumulative
    /// [`NodeStats::benefit`](crate::NodeStats::benefit):
    /// restart `rt`'s update clock, re-select `node`'s outgoing list from
    /// `rt`'s statistics over the present nodes, drop the evicted, adopt
    /// the added, and [`refill`](Self::refill) what stayed empty (sparse
    /// statistics, refused adoptions). Counts the update and every edge
    /// changed into `metrics`; returns how many adoptions were refused
    /// because the target's in-degree was at its bound.
    pub fn update_neighbors(
        &mut self,
        node: NodeId,
        rt: &mut NodeRuntime,
        metrics: &mut RuntimeMetrics,
        refill_present_only: bool,
    ) -> u64 {
        rt.clock.reset();
        metrics.record_update();
        let present = &self.present;
        self.plan.replan(
            self.out[node.index()].as_slice(),
            &rt.stats,
            |s| s.benefit,
            self.out_degree,
            usize::MAX,
            |m| m != node && present[m.index()],
        );
        let plan = std::mem::take(&mut self.plan);
        let mut refused = 0;
        for &e in &plan.evict {
            if self.drop_link(node, e) {
                metrics.record_edges_changed(1);
            }
        }
        for &a in &plan.add {
            if self.adopt(node, a) {
                metrics.record_edges_changed(1);
            } else {
                refused += 1;
            }
        }
        self.plan = plan;
        self.refill(node, refill_present_only);
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
        for p in 0..nodes {
            o.isolate(NodeId::from_index(p));
        }
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
            assert_eq!(o.present_count(), nodes);
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
        let refused = o.update_neighbors(NodeId(0), &mut rt, &mut metrics, true);
        assert_eq!(refused, 1);
        assert_eq!(o.out(NodeId(0)).len(), 1, "the top-up found another node");
        assert!(!o.out(NodeId(0)).contains(NodeId(2)));
        assert_eq!((metrics.updates, metrics.edges_changed), (1, 0));
        check_books(&o);
    }

    #[test]
    fn update_evicts_absent_incumbents_and_adopts_only_present_others() {
        let mut o = edgeless(5, 2, None);
        link(&mut o, 0, 1);
        link(&mut o, 0, 2);
        assert!(!o.toggle(NodeId(1)), "incumbent 1 leaves");
        assert!(!o.toggle(NodeId(4)), "candidate 4 leaves");
        let mut rt = NodeRuntime::new(5);
        observe(&mut rt, 0, 100.0); // self: never eligible
        observe(&mut rt, 1, 50.0); // absent incumbent: evicted whatever it scored
        observe(&mut rt, 4, 9.0); // absent stranger: never adopted
        observe(&mut rt, 3, 5.0);
        rt.clock.tick();
        let mut metrics = RuntimeMetrics::new();
        let refused = o.update_neighbors(NodeId(0), &mut rt, &mut metrics, true);
        assert_eq!(refused, 0);
        assert_eq!(out_of(&o, 0), vec![NodeId(2), NodeId(3)]);
        assert_eq!((metrics.updates, metrics.edges_changed), (1, 2));
        assert_eq!(rt.clock.count(), 0, "an executed update restarts the clock");
    }

    #[test]
    fn refill_present_only_skips_absent_nodes() {
        // Out-degree 3 of 4 nodes: node 0 can only fill up with 1, 2 and 3.
        let mut o = edgeless(4, 3, None);
        o.toggle(NodeId(3));
        o.refill(NodeId(0), true);
        assert_eq!(
            out_of(&o, 0),
            vec![NodeId(1), NodeId(2)],
            "a slot stays empty"
        );
        o.refill(NodeId(0), false);
        assert_eq!(out_of(&o, 0), vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn refill_terminates_when_every_target_is_at_its_bound() {
        let mut o = edgeless(3, 1, Some(1));
        link(&mut o, 1, 2);
        link(&mut o, 2, 1);
        o.refill(NodeId(0), false);
        assert!(o.out(NodeId(0)).is_empty(), "no target had room");
        check_books(&o);
    }

    #[test]
    fn isolate_removes_the_node_from_every_list_in_order() {
        let mut o = edgeless(5, 3, Some(3));
        for (from, to) in [(0, 1), (0, 2), (3, 4), (3, 0), (3, 1), (4, 0), (1, 0)] {
            link(&mut o, from, to);
        }
        o.isolate(NodeId(0));
        assert!(o.out(NodeId(0)).is_empty());
        assert_eq!(o.out(NodeId(3)).as_slice(), &[NodeId(4), NodeId(1)]);
        assert!(o.out(NodeId(4)).is_empty() && o.out(NodeId(1)).is_empty());
        assert_eq!(o.in_degree, vec![0, 1, 0, 0, 1]);
        check_books(&o);
    }

    #[test]
    fn present_count_tracks_repeated_toggles() {
        let mut o = overlay(8, 2, None);
        for _ in 0..200 {
            let node = o.random_node();
            let was = o.is_present(node);
            assert_eq!(o.toggle(node), !was);
            let counted = (0..8)
                .filter(|&p| o.is_present(NodeId::from_index(p)))
                .count();
            assert_eq!(o.present_count(), counted);
        }
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
        Toggle(u32),
        Isolate(u32),
        Refill(u32, bool),
        /// Record `(from, score)` replies at the node, then run Algo 3.
        Update(u32, Vec<(u32, f64)>),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..N).prop_map(Op::Toggle),
            (0..N).prop_map(Op::Isolate),
            (0..N, any::<bool>()).prop_map(|(a, present_only)| Op::Refill(a, present_only)),
            (0..N, proptest::collection::vec((0..N, 0.0f64..10.0), 0..4))
                .prop_map(|(a, replies)| Op::Update(a, replies)),
        ]
    }

    proptest! {
        /// Any sequence of the chassis' mutations keeps its books: the
        /// out-lists bounded, self-free and duplicate-free, the stored
        /// in-degrees equal to a recount of the out-lists and within the
        /// bound, and an isolated node named nowhere. In the pure regime
        /// (`None`) and in bounded ones, where a target at its bound
        /// refuses adoption.
        #[test]
        fn books_hold_under_any_ops(
            ops in proptest::collection::vec(op(), 0..60),
            out_degree in 1usize..5,
            // 0 draws the pure regime, 1..5 a bounded one.
            in_capacity in (0usize..5).prop_map(|c| (c > 0).then_some(c)),
        ) {
            let mut o = overlay(N as usize, out_degree, in_capacity);
            let mut rts: Vec<NodeRuntime> = (0..N).map(|_| NodeRuntime::new(1)).collect();
            let mut metrics = RuntimeMetrics::new();
            check_books(&o);
            for op in ops {
                match op {
                    Op::Toggle(a) => {
                        o.toggle(NodeId(a));
                    }
                    Op::Isolate(a) => {
                        o.isolate(NodeId(a));
                        prop_assert!(o.out(NodeId(a)).is_empty());
                        for list in &o.out {
                            prop_assert!(!list.contains(NodeId(a)), "{} still named", a);
                        }
                    }
                    Op::Refill(a, present_only) => o.refill(NodeId(a), present_only),
                    Op::Update(a, replies) => {
                        let rt = &mut rts[a as usize];
                        for (from, score) in replies {
                            observe(rt, from, score);
                        }
                        o.update_neighbors(NodeId(a), rt, &mut metrics, true);
                    }
                }
                check_books(&o);
            }
        }
    }
}
