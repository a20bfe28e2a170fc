//! Scalar summaries: running moments and fixed-width histograms with
//! percentile queries. Back the Fig 3(a) delay measurements.

use serde::Serialize;

/// Running mean/variance/min/max over exact component sums.
///
/// Deliberately *not* Welford: the accumulator keeps `(n, Σx, Σx²)`,
/// whose merge is component-wise addition. All samples recorded in this
/// codebase are integer-valued (milliseconds, hop counts), so every
/// partial sum is exactly representable below 2⁵³ and **merging shard
/// accumulators is bit-identical to sequential accumulation in any
/// order** — the property the sharded kernel's report merge relies on.
/// (Welford's `(mean, m2)` carries rounding that depends on visit
/// order, which would break sharded == serial parity.)
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunningStats {
    n: u64,
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningStats {
    /// An empty accumulator: `min` starts at `+∞` and `max` at `-∞`, so
    /// the first recorded value sets both.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.sumsq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            let mean = self.sum / self.n as f64;
            (self.sumsq / self.n as f64 - mean * mean).max(0.0)
        }
    }

    /// Minimum (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator (parallel-sweep / shard combination).
    /// Component-wise sum addition: exact, and therefore bit-identical
    /// to sequential accumulation for integer-valued samples. The empty
    /// value is the identity: zero sums, `min` `+∞`, `max` `-∞`.
    pub fn merge(&mut self, other: &RunningStats) {
        self.n += other.n;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-width histogram over `[0, width * bins)`; out-of-range samples go
/// to the overflow bucket. Supports approximate percentiles (bucket upper
/// bound of the first bucket reaching the target rank).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// `bins` buckets of `width` each.
    ///
    /// # Panics
    /// Panics if `width <= 0` or `bins == 0`.
    pub fn new(width: f64, bins: usize) -> Self {
        assert!(width > 0.0 && bins > 0);
        Histogram {
            width,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
        }
    }

    /// Record a sample (negatives clamp to bucket 0).
    pub fn record(&mut self, x: f64) {
        let idx = (x.max(0.0) / self.width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1): upper bound of the bucket
    /// containing the rank, `inf` if the rank falls into overflow, NaN when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (i + 1) as f64 * self.width;
            }
        }
        f64::INFINITY
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Merge another histogram with identical geometry.
    ///
    /// # Panics
    /// Panics on mismatched width or bin count.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "histogram width mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.record(3.0);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(100.0, 20); // 0..2000 in 100ms buckets
        for ms in [50.0, 150.0, 150.0, 350.0] {
            h.record(ms);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.quantile(0.5), 200.0); // 2nd sample in bucket [100,200)
        assert_eq!(h.quantile(1.0), 400.0);
    }

    #[test]
    fn histogram_overflow() {
        let mut h = Histogram::new(10.0, 2);
        h.record(1_000.0);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn histogram_negative_clamps() {
        let mut h = Histogram::new(10.0, 2);
        h.record(-5.0);
        assert_eq!(h.buckets()[0], 1);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(10.0, 4);
        let mut b = Histogram::new(10.0, 4);
        a.record(5.0);
        b.record(15.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets(), &[1, 1, 0, 0]);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn histogram_merge_geometry_checked() {
        let mut a = Histogram::new(10.0, 4);
        let b = Histogram::new(20.0, 4);
        a.merge(&b);
    }

    #[test]
    fn empty_histogram_quantile_nan() {
        let h = Histogram::new(1.0, 1);
        assert!(h.quantile(0.5).is_nan());
    }
}
