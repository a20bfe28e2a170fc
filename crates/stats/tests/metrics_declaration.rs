//! The contract of a `metrics!` declaration, on a toy record with one
//! field of every kind: `merge` folds every field, `counters()` names
//! exactly the `u64` and series fields in declaration order with a
//! nested record flattened, serialisation follows declaration order,
//! and every field starts from its zero.

use ddr_stats::{BucketSeries, Histogram, RunningStats};
use serde::Serialize;

ddr_stats::metrics! {
    /// A record nested inside [`Toy`].
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct Inner {
        /// Messages sent.
        pub sent: u64,
        /// Backlog per hour.
        pub backlog: BucketSeries,
    }
}

ddr_stats::metrics! {
    /// One field of every kind a metrics record holds.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct Toy {
        /// Requests per hour.
        pub requests: BucketSeries,
        /// Request latency.
        pub latency: RunningStats,
        /// A nested record.
        pub inner: Inner,
        /// Latency histogram, 10 ms buckets.
        pub latency_hist: Histogram = Histogram::new(10.0, 4),
        /// Requests refused.
        pub refused: u64,
    }
}

/// A toy with every field touched: `k` requests in hour `k`, latencies
/// `10k` and `10k + 5`, `k` sends, `k` refusals.
fn toy(k: usize) -> Toy {
    let mut t = Toy::new();
    t.requests.add(k, k as f64);
    for ms in [10.0 * k as f64, 10.0 * k as f64 + 5.0] {
        t.latency.record(ms);
        t.latency_hist.record(ms);
    }
    t.inner.sent = k as u64;
    t.inner.backlog.incr(k);
    t.refused = k as u64;
    t
}

#[test]
fn merge_combines_every_field() {
    let mut a = toy(1);
    a.merge(&toy(2));
    assert_eq!((a.requests.get(1), a.requests.get(2)), (1.0, 2.0));
    assert_eq!(a.latency.count(), 4);
    assert_eq!((a.latency.min(), a.latency.max()), (10.0, 25.0));
    assert_eq!(a.inner.sent, 3);
    assert_eq!(a.inner.backlog.total(), 2.0);
    assert_eq!(a.latency_hist.buckets(), &[0, 2, 2, 0]);
    assert_eq!(a.refused, 3);
}

#[test]
fn counters_name_the_counting_fields_in_declaration_order() {
    let counters: Vec<_> = toy(3).counters().collect();
    assert_eq!(
        counters,
        [("requests", 3), ("sent", 3), ("backlog", 1), ("refused", 3)]
    );
}

#[test]
fn serialised_field_order_is_declaration_order() {
    let json = serde_json::to_string(&Toy::new()).unwrap();
    let at = |key: &str| {
        json.find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("{key} missing from {json}"))
    };
    let keys = ["requests", "latency", "inner", "latency_hist", "refused"];
    let positions: Vec<usize> = keys.iter().map(|k| at(k)).collect();
    assert!(positions.windows(2).all(|w| w[0] < w[1]), "{json}");
    assert!(at("sent") < at("backlog"), "{json}");
}

#[test]
fn every_field_starts_from_its_zero() {
    let zero = Toy::default();
    assert_eq!(zero, Toy::new());
    assert_eq!(zero.latency, RunningStats::new());
    assert_eq!(zero.latency_hist, Histogram::new(10.0, 4));
    assert_eq!(zero.counters().map(|(_, v)| v).sum::<u64>(), 0);
}

#[test]
fn running_stats_default_is_the_empty_value() {
    assert_eq!(RunningStats::default(), RunningStats::new());
    let mut s = RunningStats::default();
    for ms in [40.0, 90.0, 55.0] {
        s.record(ms);
    }
    assert_eq!((s.min(), s.max()), (40.0, 90.0));
}
