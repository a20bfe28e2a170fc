//! Property-based tests over the cross-crate invariants: overlay
//! consistency under arbitrary operation sequences, statistics-merge
//! algebra, and LRU/dup-cache behaviour under arbitrary workloads.

use ddr_repro::core::DupCache;
use ddr_repro::overlay::Topology;
use ddr_repro::sim::{ItemId, NodeId, QueryId};
use ddr_repro::stats::{BucketSeries, Histogram, RunningStats};
use ddr_repro::webcache::LruCache;
use proptest::prelude::*;

const N: u32 = 12;

#[derive(Debug, Clone)]
enum TopoOp {
    Link(u32, u32),
    Unlink(u32, u32),
    Isolate(u32),
}

fn topo_op() -> impl Strategy<Value = TopoOp> {
    prop_oneof![
        (0..N, 0..N).prop_map(|(a, b)| TopoOp::Link(a, b)),
        (0..N, 0..N).prop_map(|(a, b)| TopoOp::Unlink(a, b)),
        (0..N).prop_map(TopoOp::Isolate),
    ]
}

proptest! {
    /// Any sequence of directed add/remove/isolate operations preserves
    /// the §3.1 consistency invariant and both list bounds, in the pure
    /// regime (`None`: unbounded incoming lists) and the bounded one,
    /// where a full incoming list makes `add_edge` roll its first half back.
    #[test]
    fn asymmetric_topology_consistent_under_any_ops(
        ops in proptest::collection::vec(topo_op(), 0..200),
        out_degree in 1usize..5,
        // 0 draws the pure regime, 1..5 a bounded one.
        in_capacity in (0usize..5).prop_map(|c| (c > 0).then_some(c)),
    ) {
        let mut t = Topology::new(N as usize, out_degree, in_capacity);
        for op in ops {
            match op {
                TopoOp::Link(a, b) if a != b => {
                    let _ = t.add_edge(NodeId(a), NodeId(b));
                }
                TopoOp::Unlink(a, b) if a != b => {
                    let _ = t.remove_edge(NodeId(a), NodeId(b));
                }
                TopoOp::Isolate(a) => t.isolate(NodeId(a)),
                _ => {}
            }
            prop_assert!(t.check_consistency().is_empty());
            for i in 0..N {
                prop_assert!(t.out(NodeId(i)).len() <= out_degree);
                prop_assert!(t.inc(NodeId(i)).len() <= in_capacity.unwrap_or(usize::MAX));
            }
        }
    }

    /// RunningStats: merging shards equals sequential accumulation, for
    /// any split point.
    #[test]
    fn running_stats_merge_associative(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..split] {
            a.record(x);
        }
        for &x in &xs[split..] {
            b.record(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        prop_assert!((a.variance() - whole.variance()).abs()
            <= 1e-6 * whole.variance().abs().max(1.0));
    }

    /// BucketSeries merge is equivalent to interleaved accumulation.
    #[test]
    fn bucket_series_merge_equivalent(
        adds in proptest::collection::vec((0usize..50, 0.0f64..100.0), 0..100),
        split in 0usize..100,
    ) {
        let split = split.min(adds.len());
        let mut whole = BucketSeries::new();
        for &(b, v) in &adds {
            whole.add(b, v);
        }
        let mut x = BucketSeries::new();
        let mut y = BucketSeries::new();
        for &(b, v) in &adds[..split] {
            x.add(b, v);
        }
        for &(b, v) in &adds[split..] {
            y.add(b, v);
        }
        x.merge(&y);
        for b in 0..50 {
            prop_assert!((x.get(b) - whole.get(b)).abs() < 1e-9);
        }
    }

    /// Histogram quantiles are monotone in q and total counts add up.
    #[test]
    fn histogram_quantiles_monotone(
        xs in proptest::collection::vec(0.0f64..5_000.0, 1..200),
    ) {
        let mut h = Histogram::new(100.0, 40);
        for &x in &xs {
            h.record(x);
        }
        prop_assert_eq!(h.count(), xs.len() as u64);
        let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let vals: Vec<f64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {vals:?}");
        }
        let bucket_total: u64 = h.buckets().iter().sum::<u64>() + h.overflow();
        prop_assert_eq!(bucket_total, h.count());
    }

    /// DupCache: a second sighting within the window is always reported
    /// duplicate; the cache never exceeds capacity.
    #[test]
    fn dup_cache_window_semantics(
        ids in proptest::collection::vec(0u64..60, 1..300),
        cap in 1usize..64,
    ) {
        let mut cache = DupCache::new(cap);
        let mut window: std::collections::VecDeque<u64> = Default::default();
        for id in ids {
            let fresh = cache.first_sighting(QueryId(id));
            let expected_fresh = !window.contains(&id);
            prop_assert_eq!(fresh, expected_fresh, "id {} window {:?}", id, window);
            if expected_fresh {
                if window.len() == cap {
                    window.pop_front();
                }
                window.push_back(id);
            }
            prop_assert!(cache.len() <= cap);
        }
    }

    /// LRU model check against a reference implementation.
    #[test]
    fn lru_matches_reference_model(
        ops in proptest::collection::vec((0u32..40, any::<bool>()), 1..300),
        cap in 1usize..16,
    ) {
        let mut lru = LruCache::new(cap);
        // reference: Vec with MRU at the front
        let mut model: Vec<u32> = Vec::new();
        for (id, is_insert) in ops {
            if is_insert {
                lru.insert(ItemId(id));
                if let Some(pos) = model.iter().position(|&x| x == id) {
                    model.remove(pos);
                } else if model.len() == cap {
                    model.pop();
                }
                model.insert(0, id);
            } else {
                let hit = lru.touch(ItemId(id));
                let model_hit = model.contains(&id);
                prop_assert_eq!(hit, model_hit);
                if let Some(pos) = model.iter().position(|&x| x == id) {
                    model.remove(pos);
                    model.insert(0, id);
                }
            }
            let got: Vec<u32> = lru.iter().map(|i| i.0).collect();
            prop_assert_eq!(&got, &model, "LRU order diverged");
        }
    }
}
