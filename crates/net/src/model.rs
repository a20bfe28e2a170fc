//! The assembled per-run network model: one bandwidth class per node plus
//! the pairwise delay sampler.

use crate::bandwidth::{BandwidthClass, ClassMix};
use crate::latency::DelayModel;
use ddr_sim::{NodeId, RngFactory, SimDuration};
use rand::rngs::SmallRng;
use rand::Rng;

/// A per-node deterministic delay-sampling stream.
///
/// Derived from the run's [`RngFactory`] under the `"net.delay"` label
/// keyed by node index, so the delay sequence a node draws depends only on
/// `(root seed, node)` — never on how many delays *other* nodes sampled.
/// This is what lets sharded worlds sample network delays with no shared
/// RNG: each node (and therefore each shard, which owns a contiguous node
/// range) carries its own stream.
#[derive(Debug, Clone)]
pub struct NodeDelayStream {
    rng: SmallRng,
}

impl NodeDelayStream {
    /// The stream for `node` under `rngs`.
    pub fn new(rngs: &RngFactory, node: NodeId) -> Self {
        NodeDelayStream {
            rng: rngs.stream("net.delay", node.index() as u64),
        }
    }

    /// A multiplicative jitter factor drawn uniformly from `[lo, hi)` —
    /// for worlds that scale a base delay instead of sampling the
    /// class-pair model (webcache, peerolap).
    pub fn jitter(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }
}

/// Immutable network description for a simulation run.
///
/// Construction draws every node's bandwidth class from the run's seeded
/// RNG; afterwards the model is read-only and can be shared by reference
/// across worker threads in parameter sweeps.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    classes: Vec<BandwidthClass>,
    delays: DelayModel,
}

impl NetworkModel {
    /// Build a model for `n` nodes with uniformly-sampled classes (the
    /// paper's setting) and paper-default delays.
    pub fn paper(n: usize, rngs: &RngFactory) -> Self {
        let mut rng = rngs.stream("net.classes", 0);
        let classes = (0..n)
            .map(|_| BandwidthClass::sample_uniform(&mut rng))
            .collect();
        NetworkModel {
            classes,
            delays: DelayModel::paper(),
        }
    }

    /// Build a model for `n` nodes with classes drawn from `mix` instead
    /// of the paper's uniform split — the "bandwidth era" scenarios.
    /// Draws from the same `"net.classes"` stream as [`Self::paper`] (and
    /// `ClassMix::uniform()` consumes the RNG differently than
    /// `sample_uniform`, so a uniform mix is statistically but not
    /// bit-identical to `paper`; era scenarios always pass an explicit
    /// mix, never `None`-as-uniform through this path).
    pub fn paper_with_mix(n: usize, rngs: &RngFactory, mix: ClassMix) -> Self {
        let mut rng = rngs.stream("net.classes", 0);
        let classes = (0..n).map(|_| mix.sample(&mut rng)).collect();
        NetworkModel {
            classes,
            delays: DelayModel::paper(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the network is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Bandwidth class of `node`.
    #[inline]
    pub fn class(&self, node: NodeId) -> BandwidthClass {
        self.classes[node.index()]
    }

    /// Sample the one-way delay for a message `from → to` from the
    /// sender's own per-node stream: no shared RNG, so handlers stay
    /// shard-local.
    #[inline]
    pub fn one_way_delay_for(
        &self,
        stream: &mut NodeDelayStream,
        from: NodeId,
        to: NodeId,
    ) -> SimDuration {
        self.delays
            .sample(&mut stream.rng, self.class(from), self.class(to))
    }

    /// The smallest delay the sampler can return for any pair — the
    /// natural conservative-kernel lookahead for worlds driven by this
    /// model (see [`DelayModel::min_delay`]).
    pub fn min_delay(&self) -> SimDuration {
        self.delays.min_delay()
    }

    /// Class census `(modem, cable, lan)` — used by tests and run banners.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for &cls in &self.classes {
            match cls {
                BandwidthClass::Modem56K => c.0 += 1,
                BandwidthClass::Cable => c.1 += 1,
                BandwidthClass::Lan => c.2 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_census_roughly_even() {
        let rngs = RngFactory::new(11);
        let net = NetworkModel::paper(3_000, &rngs);
        let (m, c, l) = net.census();
        assert_eq!(m + c + l, 3_000);
        for share in [m, c, l] {
            assert!((850..=1_150).contains(&share), "skewed census: {m}/{c}/{l}");
        }
    }

    #[test]
    fn era_mix_skews_census() {
        let rngs = RngFactory::new(11);
        let dialup = NetworkModel::paper_with_mix(3_000, &rngs, ClassMix::dialup_era());
        let (m, _, l) = dialup.census();
        assert!(m > 1_900 && l < 300, "dialup census {:?}", dialup.census());
        let fiber = NetworkModel::paper_with_mix(3_000, &rngs, ClassMix::fiber_era());
        let (m, _, l) = fiber.census();
        assert!(l > 1_900 && m < 300, "fiber census {:?}", fiber.census());
        // Same seed + same mix → same classes.
        let again = NetworkModel::paper_with_mix(3_000, &rngs, ClassMix::fiber_era());
        for i in 0..3_000 {
            assert_eq!(fiber.class(NodeId(i as u32)), again.class(NodeId(i as u32)));
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let rngs = RngFactory::new(5);
        let a = NetworkModel::paper(100, &rngs);
        let b = NetworkModel::paper(100, &rngs);
        for i in 0..100 {
            assert_eq!(a.class(NodeId(i)), b.class(NodeId(i)));
        }
    }

    #[test]
    fn sampled_delay_within_bounds() {
        let net = NetworkModel::paper(4, &RngFactory::new(3));
        let pair = DelayModel::paper().pair_params(net.class(NodeId(0)), net.class(NodeId(3)));
        let mut stream = NodeDelayStream::new(&RngFactory::new(3), NodeId(0));
        for _ in 0..5_000 {
            let d = net
                .one_way_delay_for(&mut stream, NodeId(0), NodeId(3))
                .as_millis() as f64;
            assert!((pair.lo()..=pair.hi()).contains(&d));
        }
    }

    #[test]
    fn node_streams_are_deterministic_and_independent() {
        let rngs = RngFactory::new(17);
        let net = NetworkModel::paper(8, &rngs);
        let draw = |s: &mut NodeDelayStream| {
            (0..16)
                .map(|_| net.one_way_delay_for(s, NodeId(2), NodeId(5)).as_millis())
                .collect::<Vec<_>>()
        };
        let mut a = NodeDelayStream::new(&rngs, NodeId(2));
        let mut b = NodeDelayStream::new(&rngs, NodeId(2));
        let first = draw(&mut a);
        assert_eq!(first, draw(&mut b), "same (seed, node) → same stream");
        // Burning another node's stream must not perturb node 2's stream.
        let mut c = NodeDelayStream::new(&rngs, NodeId(2));
        let mut other = NodeDelayStream::new(&rngs, NodeId(3));
        draw(&mut other);
        assert_eq!(first, draw(&mut c));
        for _ in 0..5_000 {
            let d = net.one_way_delay_for(&mut a, NodeId(0), NodeId(1));
            assert!(d >= net.min_delay());
        }
    }

    #[test]
    fn jitter_in_range() {
        let rngs = RngFactory::new(3);
        let mut s = NodeDelayStream::new(&rngs, NodeId(0));
        for _ in 0..1_000 {
            let j = s.jitter(0.8, 1.2);
            assert!((0.8..1.2).contains(&j));
        }
    }
}
