//! Bucketed time series (the paper's per-hour reporting).

use serde::{Deserialize, Serialize};

/// A series of non-negative counts accumulated into integer buckets
/// (bucket = simulated hour in the experiments). Buckets grow on demand.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BucketSeries {
    buckets: Vec<f64>,
}

impl BucketSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `amount` to `bucket`, growing as needed.
    pub fn add(&mut self, bucket: usize, amount: f64) {
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, 0.0);
        }
        self.buckets[bucket] += amount;
    }

    /// Increment `bucket` by one.
    pub fn incr(&mut self, bucket: usize) {
        self.add(bucket, 1.0);
    }

    /// Value of `bucket` (0 for untouched/out-of-range buckets).
    pub fn get(&self, bucket: usize) -> f64 {
        self.buckets.get(bucket).copied().unwrap_or(0.0)
    }

    /// Number of allocated buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether no bucket was ever touched.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Sum over `[from, to)`, treating missing buckets as zero.
    pub fn window_sum(&self, from: usize, to: usize) -> f64 {
        (from..to).map(|b| self.get(b)).sum()
    }

    /// Mean over `[from, to)`.
    pub fn window_mean(&self, from: usize, to: usize) -> f64 {
        if to <= from {
            return 0.0;
        }
        self.window_sum(from, to) / (to - from) as f64
    }

    /// Total across all buckets.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// The values of `[from, to)` as a dense vector.
    pub fn window(&self, from: usize, to: usize) -> Vec<f64> {
        (from..to).map(|b| self.get(b)).collect()
    }

    /// Merge another series bucket-wise (for combining per-thread shards).
    pub fn merge(&mut self, other: &BucketSeries) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0.0);
        }
        for (b, v) in other.buckets.iter().enumerate() {
            self.buckets[b] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_on_demand() {
        let mut s = BucketSeries::new();
        s.incr(5);
        assert_eq!(s.len(), 6);
        assert_eq!(s.get(5), 1.0);
        assert_eq!(s.get(4), 0.0);
        assert_eq!(s.get(100), 0.0);
    }

    #[test]
    fn window_operations() {
        let mut s = BucketSeries::new();
        for h in 0..10 {
            s.add(h, h as f64);
        }
        assert_eq!(s.window_sum(2, 5), 2.0 + 3.0 + 4.0);
        assert_eq!(s.window_mean(2, 5), 3.0);
        assert_eq!(s.window_mean(5, 5), 0.0);
        assert_eq!(s.total(), 45.0);
        assert_eq!(s.window(8, 12), vec![8.0, 9.0, 0.0, 0.0]);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = BucketSeries::new();
        a.add(0, 1.0);
        a.add(2, 2.0);
        let mut b = BucketSeries::new();
        b.add(2, 3.0);
        b.add(4, 5.0);
        a.merge(&b);
        assert_eq!(a.get(0), 1.0);
        assert_eq!(a.get(2), 5.0);
        assert_eq!(a.get(4), 5.0);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn serde_roundtrip() {
        let mut s = BucketSeries::new();
        s.add(1, 2.5);
        let json = serde_json::to_string(&s).unwrap();
        let back: BucketSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
