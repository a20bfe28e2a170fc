//! Measurement windows over bucketed series.
//!
//! Every case study reports over the same half-open hour range
//! `[from_hour, to_hour)` — the simulated horizon minus a warm-up prefix.
//! Before this type existed, each report struct re-implemented the
//! window-sum / window-ratio arithmetic by hand; [`MeasurementWindow`]
//! is that arithmetic written once, so domain reports shrink to thin
//! views over their [`BucketSeries`] (mirroring what `RuntimeMetrics`
//! did for the raw counters).

use crate::series::BucketSeries;
use serde::Serialize;

/// Divide `num` by `den`, returning `0.0` for an empty (zero or negative)
/// denominator instead of `NaN`/`inf`.
///
/// This is the single divide-by-zero guard behind every report-ratio
/// accessor (`hit_ratio`, `origin_ratio`, `peer_share`, …); the guards it
/// replaced were a mix of `x / d.max(1.0)` and explicit `if d == 0.0`
/// branches, which agree whenever the denominator is an event count
/// (always integral), so consolidating on this form is behaviour-
/// preserving for every pinned output.
#[inline]
pub fn safe_ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The half-open hour range `[from_hour, to_hour)` a run reports over.
///
/// Constructed by the scenario harness from `(warmup_hours, sim_hours)`
/// and embedded in every run report; all report accessors delegate their
/// windowed arithmetic here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MeasurementWindow {
    /// First measured hour (inclusive) — the warm-up boundary.
    pub from_hour: u64,
    /// Horizon hour (exclusive).
    pub to_hour: u64,
}

impl MeasurementWindow {
    /// Window over `[from_hour, to_hour)`.
    pub fn new(from_hour: u64, to_hour: u64) -> Self {
        MeasurementWindow { from_hour, to_hour }
    }

    /// Number of measured hours (0 for empty/inverted windows).
    pub fn hours(&self) -> u64 {
        self.to_hour.saturating_sub(self.from_hour)
    }

    /// The window's hours as bucket indices.
    fn buckets(&self) -> std::ops::Range<usize> {
        self.from_hour as usize..self.to_hour as usize
    }

    /// Sum of `series` over the window, missing buckets read as zero.
    pub fn sum(&self, series: &BucketSeries) -> f64 {
        self.buckets().map(|b| series.get(b)).sum()
    }

    /// Mean per measured hour of `series` over the window (0 for an
    /// empty window).
    pub fn mean_per_hour(&self, series: &BucketSeries) -> f64 {
        match self.hours() {
            0 => 0.0,
            hours => self.sum(series) / hours as f64,
        }
    }

    /// Dense per-hour values of `series` over the window.
    pub fn series(&self, series: &BucketSeries) -> Vec<f64> {
        self.buckets().map(|b| series.get(b)).collect()
    }

    /// Windowed `num / den` with the [`safe_ratio`] zero-denominator guard.
    pub fn ratio(&self, num: &BucketSeries, den: &BucketSeries) -> f64 {
        safe_ratio(self.sum(num), self.sum(den))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[(usize, f64)]) -> BucketSeries {
        let mut s = BucketSeries::new();
        for &(b, v) in values {
            s.add(b, v);
        }
        s
    }

    #[test]
    fn safe_ratio_guards_zero() {
        assert_eq!(safe_ratio(5.0, 2.0), 2.5);
        assert_eq!(safe_ratio(5.0, 0.0), 0.0);
        assert_eq!(safe_ratio(0.0, 0.0), 0.0);
        assert_eq!(safe_ratio(5.0, -1.0), 0.0);
    }

    #[test]
    fn window_excludes_warmup() {
        let s = series(&[(0, 100.0), (2, 10.0), (3, 20.0)]);
        let w = MeasurementWindow::new(2, 4);
        assert_eq!(w.hours(), 2);
        assert_eq!(w.sum(&s), 30.0);
        assert_eq!(w.mean_per_hour(&s), 15.0);
        assert_eq!(w.series(&s), vec![10.0, 20.0]);
    }

    #[test]
    fn window_operations() {
        let s = series(&(0..10).map(|h| (h, h as f64)).collect::<Vec<_>>());
        assert_eq!(MeasurementWindow::new(2, 5).sum(&s), 2.0 + 3.0 + 4.0);
        assert_eq!(MeasurementWindow::new(2, 5).mean_per_hour(&s), 3.0);
        assert_eq!(MeasurementWindow::new(5, 5).mean_per_hour(&s), 0.0);
        assert_eq!(s.total(), 45.0);
        let tail = MeasurementWindow::new(8, 12).series(&s);
        assert_eq!(tail, vec![8.0, 9.0, 0.0, 0.0]);
    }

    #[test]
    fn ratio_is_windowed_and_guarded() {
        let hits = series(&[(1, 5.0), (2, 10.0)]);
        let queries = series(&[(1, 50.0), (2, 40.0)]);
        let w = MeasurementWindow::new(2, 3);
        assert_eq!(w.ratio(&hits, &queries), 0.25);
        let empty = MeasurementWindow::new(5, 9);
        assert_eq!(empty.ratio(&hits, &queries), 0.0);
    }

    #[test]
    fn degenerate_window_is_safe() {
        let s = series(&[(1, 1.0)]);
        let w = MeasurementWindow::new(4, 4);
        assert_eq!(w.hours(), 0);
        assert_eq!(w.sum(&s), 0.0);
        assert_eq!(w.mean_per_hour(&s), 0.0);
        let inverted = MeasurementWindow::new(4, 2);
        assert_eq!(inverted.hours(), 0);
    }
}
