//! The asymmetric-overlay chassis: the shared books of every world whose
//! nodes rewrite their *outgoing* lists unilaterally (paper §3.1's pure
//! and bounded asymmetric regimes — cooperative web caches, PeerOlap).
//!
//! Those worlds differ in their domain (caches, request streams, the
//! request / chunk flow) but not in the overlay bookkeeping around it:
//! a global [`Topology`] bootstrapped with random outgoing lists, who is
//! present right now, one world RNG for every draw that is not a node's
//! own, per-node delay-jitter streams, a random top-up for under-filled
//! lists, and the enactment of Algo 3 — plan from the node's statistics,
//! drop the evicted, adopt the added, top up. [`AsymmetricOverlay`] owns
//! exactly that, once; a world composes it by value next to its per-node
//! domain state, the way it composes [`NodeRuntime`].
//!
//! Every world draw goes through the one stream named at
//! [`bootstrap`](AsymmetricOverlay::bootstrap), in call order, so a run
//! is a pure function of `(seed, call sequence)`.

use super::node::NodeRuntime;
use crate::benefit::CumulativeBenefit;
use crate::update::plan_asymmetric_update;
use ddr_net::NodeDelayStream;
use ddr_overlay::{NeighborList, RelationKind, Topology};
use ddr_sim::{NodeId, RngFactory, SimDuration};
use ddr_stats::RuntimeMetrics;
use rand::rngs::SmallRng;
use rand::Rng;

/// Random draws one top-up may spend per node of the overlay before it
/// gives up on a list it cannot fill (every eligible target's incoming
/// list is full, or too few nodes are present). Never reached in a
/// satisfiable overlay: filling a slot takes about one draw.
const REFILL_DRAWS_PER_NODE: usize = 100;

/// Overlay, presence, world RNG and delay streams of an asymmetric world.
#[derive(Debug)]
pub struct AsymmetricOverlay {
    topology: Topology,
    present: Vec<bool>,
    present_count: usize,
    rng: SmallRng,
    /// Per-node delay-jitter streams (`net.delay` keyed by node): a
    /// node's delay sequence depends only on `(seed, node)`, never on
    /// other nodes' traffic.
    delays: Vec<NodeDelayStream>,
    out_degree: usize,
}

impl AsymmetricOverlay {
    /// An overlay of `nodes` present nodes under `relation`, every
    /// outgoing list topped up to `out_degree` random targets.
    /// `in_capacity` bounds the incoming lists (ignored under
    /// [`RelationKind::PureAsymmetric`]); `stream_label` names the world
    /// RNG stream, which feeds the bootstrap first and every later world
    /// draw after.
    pub fn bootstrap(
        nodes: usize,
        relation: RelationKind,
        out_degree: usize,
        in_capacity: usize,
        rngs: &RngFactory,
        stream_label: &str,
    ) -> Self {
        let mut overlay = AsymmetricOverlay {
            topology: Topology::new(nodes, relation, out_degree, in_capacity),
            present: vec![true; nodes],
            present_count: nodes,
            rng: rngs.stream(stream_label, 0),
            delays: (0..nodes)
                .map(|p| NodeDelayStream::new(rngs, NodeId::from_index(p)))
                .collect(),
            out_degree,
        };
        for p in 0..nodes {
            overlay.refill(NodeId::from_index(p), false);
        }
        overlay
    }

    /// Outgoing neighbors of `node`.
    #[inline]
    pub fn out(&self, node: NodeId) -> &NeighborList {
        self.topology.out(node)
    }

    /// The whole overlay, for invariant checks.
    pub fn topology(&self) -> &Topology {
        &self.topology
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

    /// Remove every link touching `node`.
    pub fn isolate(&mut self, node: NodeId) {
        self.topology.isolate(node);
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
    /// nodes — only present ones when `present_only`. A refused edge
    /// (duplicate, or the target's incoming list is full) just costs a
    /// draw; the draw budget ends the attempt when no slot can be filled.
    pub fn refill(&mut self, node: NodeId, present_only: bool) {
        for _ in 0..REFILL_DRAWS_PER_NODE * self.present.len() {
            if self.topology.out(node).len() >= self.out_degree {
                break;
            }
            let q = self.random_node();
            if q != node && (!present_only || self.present[q.index()]) {
                let _ = self.topology.add_edge(node, q);
            }
        }
    }

    /// Algo 3 (asymmetric neighbor update) under [`CumulativeBenefit`]:
    /// restart `rt`'s update clock, re-select `node`'s outgoing list from
    /// `rt`'s statistics over the present nodes, drop the evicted, adopt
    /// the added, and [`refill`](Self::refill) what stayed empty (sparse
    /// statistics, refused adoptions). Counts the update and every edge
    /// changed into `metrics`; returns how many adoptions were refused
    /// because the target's incoming list was full.
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
        let plan = plan_asymmetric_update(
            self.topology.out(node).as_slice(),
            &rt.stats,
            &CumulativeBenefit,
            self.out_degree,
            |m| m != node && present[m.index()],
        );
        let mut refused = 0;
        for &e in &plan.evict {
            if self.topology.remove_edge(node, e) {
                metrics.record_edges_changed(1);
            }
        }
        for &a in &plan.add {
            match self.topology.add_edge(node, a) {
                Ok(()) => metrics.record_edges_changed(1),
                Err(_) => refused += 1,
            }
        }
        self.refill(node, refill_present_only);
        refused
    }

    /// Fraction of outgoing edges whose two ends `group_of` maps to the
    /// same group — the clustering measure dynamic mode is expected to
    /// raise (0 for an edgeless overlay).
    pub fn same_group_edge_fraction(&self, group_of: impl Fn(NodeId) -> u32) -> f64 {
        let (mut same, mut total) = (0usize, 0usize);
        for p in 0..self.present.len() {
            let me = NodeId::from_index(p);
            for q in self.topology.out(me).iter() {
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

    fn overlay(nodes: usize, relation: RelationKind, out: usize, inc: usize) -> AsymmetricOverlay {
        AsymmetricOverlay::bootstrap(
            nodes,
            relation,
            out,
            inc,
            &RngFactory::new(11),
            "test.world",
        )
    }

    /// A bootstrapped overlay with every link removed again.
    fn edgeless(nodes: usize, relation: RelationKind, out: usize, inc: usize) -> AsymmetricOverlay {
        let mut o = overlay(nodes, relation, out, inc);
        for p in 0..nodes {
            o.isolate(NodeId::from_index(p));
        }
        o
    }

    fn link(o: &mut AsymmetricOverlay, from: u32, to: u32) {
        o.topology
            .add_edge(NodeId(from), NodeId(to))
            .expect("room in both lists");
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

    #[test]
    fn bootstrap_fills_every_list_consistently_under_both_relations() {
        // The web-cache and PeerOlap default shapes.
        for (nodes, relation, inc) in [
            (64, RelationKind::PureAsymmetric, 0),
            (48, RelationKind::Asymmetric, 6),
        ] {
            let o = overlay(nodes, relation, 3, inc);
            assert!(o.topology().check_consistency().is_empty(), "{relation:?}");
            assert_eq!(o.present_count(), nodes);
            for p in 0..nodes {
                let n = NodeId::from_index(p);
                assert_eq!(o.out(n).len(), 3, "{relation:?}: node {p} under-filled");
                if relation == RelationKind::Asymmetric {
                    assert!(o.topology().inc(n).len() <= inc);
                }
            }
        }
    }

    #[test]
    fn refused_adoption_is_counted_and_the_top_up_moves_on() {
        let mut o = edgeless(4, RelationKind::Asymmetric, 1, 1);
        link(&mut o, 1, 2);
        let mut rt = NodeRuntime::new(5);
        observe(&mut rt, 2, 9.0); // the best candidate's incoming list is full
        let mut metrics = RuntimeMetrics::new();
        let refused = o.update_neighbors(NodeId(0), &mut rt, &mut metrics, true);
        assert_eq!(refused, 1);
        assert_eq!(o.out(NodeId(0)).len(), 1, "the top-up found another node");
        assert!(!o.out(NodeId(0)).contains(NodeId(2)));
        assert_eq!((metrics.updates, metrics.edges_changed), (1, 0));
        assert!(o.topology().check_consistency().is_empty());
    }

    #[test]
    fn update_evicts_absent_incumbents_and_adopts_only_present_others() {
        let mut o = edgeless(5, RelationKind::PureAsymmetric, 2, 0);
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
        let mut o = edgeless(4, RelationKind::PureAsymmetric, 3, 0);
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
    fn refill_terminates_when_every_incoming_list_is_full() {
        let mut o = edgeless(3, RelationKind::Asymmetric, 1, 1);
        link(&mut o, 1, 2);
        link(&mut o, 2, 1);
        o.refill(NodeId(0), false);
        assert!(o.out(NodeId(0)).is_empty(), "no incoming slot was free");
        assert!(o.topology().check_consistency().is_empty());
    }

    #[test]
    fn present_count_tracks_repeated_toggles() {
        let mut o = overlay(8, RelationKind::PureAsymmetric, 2, 0);
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
        let mut o = edgeless(4, RelationKind::PureAsymmetric, 2, 0);
        assert_eq!(o.same_group_edge_fraction(|n| n.0 % 2), 0.0);
        for (from, to) in [(0, 2), (0, 1), (1, 3), (2, 3)] {
            link(&mut o, from, to);
        }
        assert_eq!(o.same_group_edge_fraction(|n| n.0 % 2), 0.5);
    }
}
