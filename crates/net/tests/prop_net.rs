//! Property-based tests for the network model.

use ddr_net::{BandwidthClass, DelayModel, NetworkModel};
use ddr_sim::{NodeId, RngFactory};
use proptest::prelude::*;

fn class_strategy() -> impl Strategy<Value = BandwidthClass> {
    prop_oneof![
        Just(BandwidthClass::Modem56K),
        Just(BandwidthClass::Cable),
        Just(BandwidthClass::Lan),
    ]
}

proptest! {
    /// Every sampled delay lies within the truncation interval of the
    /// pair's governing (slower) class.
    #[test]
    fn delays_respect_truncation(
        a in class_strategy(),
        b in class_strategy(),
        seed in any::<u64>(),
    ) {
        let model = DelayModel::paper();
        let p = model.pair_params(a, b);
        let mut rng = RngFactory::new(seed).stream("prop", 0);
        for _ in 0..200 {
            let d = model.sample(&mut rng, a, b).as_millis() as f64;
            prop_assert!(d >= p.lo() - 0.5 && d <= p.hi() + 0.5, "delay {d} outside [{}, {}]", p.lo(), p.hi());
        }
    }

    /// The governing class is commutative: delay(a,b) and delay(b,a) have
    /// identical parameters.
    #[test]
    fn pair_params_commute(a in class_strategy(), b in class_strategy()) {
        let model = DelayModel::paper();
        prop_assert_eq!(model.pair_params(a, b), model.pair_params(b, a));
        prop_assert_eq!(model.mean(a, b), model.mean(b, a));
    }

    /// Network construction is a pure function of the seed.
    #[test]
    fn network_model_deterministic(seed in any::<u64>(), n in 1usize..200) {
        let f = RngFactory::new(seed);
        let x = NetworkModel::paper(n, &f);
        let y = NetworkModel::paper(n, &f);
        for i in 0..n {
            prop_assert_eq!(x.class(NodeId::from_index(i)), y.class(NodeId::from_index(i)));
        }
        let (m, c, l) = x.census();
        prop_assert_eq!(m + c + l, n);
    }
}
