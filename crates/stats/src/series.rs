//! Bucketed time series (the paper's per-hour reporting).

use serde::Serialize;

/// A series of non-negative counts accumulated into integer buckets
/// (bucket = simulated hour in the experiments). Buckets grow on demand.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
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

    /// Total across all buckets.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
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
}
