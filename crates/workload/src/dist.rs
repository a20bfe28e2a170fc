//! Distribution samplers used by the synthetic workload.
//!
//! All samplers take `&mut impl Rng` so callers control stream identity
//! (see `ddr_sim::RngFactory`); none keep mutable state of their own, so a
//! single instance can be shared across threads in parameter sweeps.

use ddr_sim::rng::standard_normal;
use rand::Rng;

/// Zipf distribution over ranks `0..n` with exponent θ:
/// `P(rank = k) ∝ 1 / (k+1)^θ`.
///
/// Sampling is inverse-CDF via binary search on a precomputed table —
/// O(n) construction, O(log n) per sample, exact (no rejection).
///
/// ```
/// use ddr_workload::Zipf;
/// use ddr_sim::RngFactory;
///
/// let z = Zipf::new(1_000, 0.9);
/// assert!(z.pmf(0) > z.pmf(100), "head ranks carry more mass");
/// let mut rng = RngFactory::new(1).stream("demo", 0);
/// let rank = z.sample(&mut rng);
/// assert!(rank < 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    /// cdf[k] = P(rank <= k); cdf[n-1] == 1.0 (up to fp rounding, forced).
    cdf: Vec<f64>,
    theta: f64,
}

impl Zipf {
    /// Build a Zipf(θ) sampler over `n` ranks.
    ///
    /// # Panics
    /// Panics if `n == 0` or θ is negative/non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over an empty domain");
        assert!(theta.is_finite() && theta >= 0.0, "invalid theta: {theta}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Defend the binary search against fp rounding at the top end.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf, theta }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the domain is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The exponent θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draw a rank in `0..n`; rank 0 is the most popular.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First index with cdf[i] >= u.
        self.cdf.partition_point(|&c| c < u)
    }

    /// Draw `k` *distinct* ranks (popularity-weighted sampling without
    /// replacement, by rejection) and hand them to `emit` in ascending
    /// order. `k` must not exceed the domain size. `marks` is scratch — a
    /// rank bitset the routine clears and sizes itself, so a caller
    /// drawing many sets (six per user profile) allocates it once.
    ///
    /// Rejection is efficient here because the workload draws ≪ n ranks
    /// per category (≈ 100 of 4 000); a safety valve falls back to filling
    /// with the lowest unused ranks if rejection stalls (possible only for
    /// extreme θ where the head dominates).
    pub fn sample_distinct<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        k: usize,
        marks: &mut Vec<u64>,
        mut emit: impl FnMut(usize),
    ) {
        assert!(
            k <= self.len(),
            "cannot draw {k} distinct of {}",
            self.len()
        );
        marks.clear();
        marks.resize(self.len().div_ceil(64), 0);
        // Whether `r` was unmarked; marks it either way.
        let mut mark = |r: usize| {
            let (word, bit) = (&mut marks[r / 64], 1u64 << (r % 64));
            let fresh = *word & bit == 0;
            *word |= bit;
            fresh
        };
        let mut chosen = 0usize;
        let mut stall = 0usize;
        let stall_limit = 50 * k.max(8);
        while chosen < k {
            if mark(self.sample(rng)) {
                chosen += 1;
                stall = 0;
            } else {
                stall += 1;
                if stall > stall_limit {
                    // Fill deterministically with the most popular unused
                    // ranks; hit only under degenerate θ.
                    for r in 0..self.len() {
                        if chosen == k {
                            break;
                        }
                        chosen += mark(r) as usize;
                    }
                }
            }
        }
        for (w, &word) in marks.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                emit(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// Gaussian(μ, σ) truncated to `[lo, hi]` by clamping (the workload uses
/// it for library sizes, where the tails are irrelevant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedGaussian {
    pub mean: f64,
    pub std: f64,
    pub lo: f64,
    pub hi: f64,
}

impl TruncatedGaussian {
    /// Construct; panics if the interval is empty or σ < 0.
    pub fn new(mean: f64, std: f64, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        assert!(std >= 0.0, "negative std");
        TruncatedGaussian { mean, std, lo, hi }
    }

    /// One sample (Box–Muller + clamp).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z = standard_normal(rng);
        (self.mean + z * self.std).clamp(self.lo, self.hi)
    }

    /// One sample rounded to the nearest non-negative integer.
    pub fn sample_count<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sample(rng).round().max(0.0) as usize
    }
}

/// Exponential distribution with the given mean (inverse-CDF sampling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Construct from the mean (must be positive and finite).
    pub fn from_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        Exponential { mean }
    }

    /// The configured mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// One sample (non-negative).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u in (0, 1]: avoids ln(0).
        let u: f64 = 1.0 - rng.gen::<f64>();
        -self.mean * u.ln()
    }
}

/// Pareto (power-law) distribution with tail exponent `shape` (α) and the
/// given mean — the heavy-tailed alternative to [`Exponential`] for churn
/// session lengths (`ChurnModel::Pareto`). Sampling is inverse-CDF:
/// `x = scale · u^(-1/α)`, so every draw is ≥ `scale` and the survival
/// function is `P(X > x) = (scale / x)^α`.
///
/// Requires `shape > 1` so the mean exists; for `1 < shape ≤ 2` the
/// variance is infinite, which is exactly the regime measured session
/// lengths live in — a few marathon sessions dominate the total online
/// time while the median session is *shorter* than the exponential's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Construct from the desired mean and tail exponent. The scale is
    /// derived as `mean · (shape − 1) / shape` so `E[X] = mean` exactly.
    ///
    /// # Panics
    /// Panics unless `mean > 0` and `shape > 1` (both finite).
    pub fn from_mean(mean: f64, shape: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        assert!(
            shape.is_finite() && shape > 1.0,
            "shape must exceed 1 for a finite mean: {shape}"
        );
        Pareto {
            scale: mean * (shape - 1.0) / shape,
            shape,
        }
    }

    /// The configured mean `scale · α / (α − 1)`.
    pub fn mean(&self) -> f64 {
        self.scale * self.shape / (self.shape - 1.0)
    }

    /// The tail exponent α.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The minimum value every sample is bounded below by.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The median `scale · 2^(1/α)` — unlike the sample mean, a stable
    /// statistic under the infinite-variance regime, which is what the
    /// seed-sensitivity tests pin.
    pub fn median(&self) -> f64 {
        self.scale * 2f64.powf(1.0 / self.shape)
    }

    /// One sample (always ≥ `scale`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u in (0, 1]: avoids the u = 0 pole.
        let u: f64 = 1.0 - rng.gen::<f64>();
        self.scale * u.powf(-1.0 / self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_cdf_monotone_and_normalised() {
        let z = Zipf::new(1_000, 0.9);
        let mut prev = 0.0;
        for k in 0..z.len() {
            let c = prev + z.pmf(k);
            assert!(z.pmf(k) > 0.0);
            assert!(c >= prev);
            prev = c;
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_head_dominates() {
        let z = Zipf::new(4_000, 0.9);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(100));
        // rank-0 mass for n=4000, θ=0.9 is a few permil, far above uniform
        assert!(z.pmf(0) > 10.0 / 4_000.0);
    }

    #[test]
    fn zipf_sampling_matches_pmf_roughly() {
        let z = Zipf::new(100, 0.9);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 200_000;
        let mut counts = vec![0u32; 100];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - z.pmf(0)).abs() < 0.01, "rank0 {f0} vs {}", z.pmf(0));
        // Monotonic-ish on the head
        assert!(counts[0] > counts[10]);
        assert!(counts[1] > counts[50]);
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_distinct_is_strictly_ascending_and_right_size() {
        let z = Zipf::new(4_000, 0.9);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut picks = Vec::new();
        z.sample_distinct(&mut rng, 100, &mut Vec::new(), |r| picks.push(r));
        assert_eq!(picks.len(), 100);
        assert!(picks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn zipf_distinct_full_domain_reuses_dirty_marks() {
        let z = Zipf::new(16, 1.2);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut marks = vec![!0u64; 9];
        let mut picks = Vec::new();
        z.sample_distinct(&mut rng, 16, &mut marks, |r| picks.push(r));
        assert_eq!(picks, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn zipf_empty_panics() {
        let _ = Zipf::new(0, 0.9);
    }

    #[test]
    fn gaussian_respects_bounds_and_mean() {
        let g = TruncatedGaussian::new(200.0, 50.0, 1.0, 400.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = g.sample(&mut rng);
            assert!((1.0..=400.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((195.0..205.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn gaussian_count_is_nonnegative_integerised() {
        let g = TruncatedGaussian::new(2.0, 5.0, -10.0, 10.0);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..1_000 {
            let _c: usize = g.sample_count(&mut rng); // must not panic/underflow
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let e = Exponential::from_mean(3.0 * 3_600.0);
        let mut rng = SmallRng::seed_from_u64(6);
        let n = 100_000;
        let mean = (0..n).map(|_| e.sample(&mut rng)).sum::<f64>() / n as f64;
        let rel = (mean - e.mean()).abs() / e.mean();
        assert!(rel < 0.02, "relative error {rel}");
    }

    #[test]
    fn exponential_nonnegative() {
        let e = Exponential::from_mean(1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(e.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid mean")]
    fn exponential_rejects_zero_mean() {
        let _ = Exponential::from_mean(0.0);
    }

    #[test]
    fn pareto_scale_and_median_follow_from_mean() {
        let p = Pareto::from_mean(3.0, 1.5);
        assert!((p.scale() - 1.0).abs() < 1e-12);
        assert!((p.mean() - 3.0).abs() < 1e-12);
        assert!((p.median() - 2f64.powf(2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn pareto_samples_bounded_below_by_scale() {
        let p = Pareto::from_mean(3.0, 1.5);
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..10_000 {
            assert!(p.sample(&mut rng) >= p.scale());
        }
    }

    #[test]
    fn pareto_median_converges_despite_infinite_variance() {
        // The sample mean is useless at α = 1.5 (infinite variance); the
        // median is the stable statistic the churn seed-sensitivity test
        // also pins.
        let p = Pareto::from_mean(3.0, 1.5);
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 100_000;
        let mut xs: Vec<f64> = (0..n).map(|_| p.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[n / 2];
        let rel = (med - p.median()).abs() / p.median();
        assert!(rel < 0.02, "median {med} vs {}, rel {rel}", p.median());
    }

    #[test]
    fn pareto_is_seed_stable_across_16_seeds() {
        // Seed-sensitivity bounds for the ChurnModel::Pareto draws
        // (EXPERIMENTS.md, "Assertion recalibration"): at shape 1.5 the
        // variance is infinite, so the sample mean wanders and only the
        // median and fixed-threshold tail mass are pinned tightly.
        // Analytic values for mean 3.0 h, shape 1.5: scale = 1.0,
        // median = 2^(2/3) ≈ 1.587, P(X > 9.0) = (1/9)^1.5 ≈ 0.037.
        let p = Pareto::from_mean(3.0, 1.5);
        let n = 50_000;
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut xs: Vec<f64> = (0..n).map(|_| p.sample(&mut rng)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let tail = xs.iter().filter(|&&x| x > 3.0 * p.mean()).count() as f64 / n as f64;
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let med = xs[n / 2];
            let rel = (med - p.median()).abs() / p.median();
            assert!(rel < 0.03, "seed {seed}: median {med} off by {rel}");
            assert!(
                (0.02..=0.06).contains(&tail),
                "seed {seed}: tail mass {tail} outside [0.02, 0.06]"
            );
            assert!(
                (2.0..=5.0).contains(&mean),
                "seed {seed}: sample mean {mean} outside the (wide) [2, 5] band"
            );
        }
    }

    #[test]
    fn pareto_tail_is_heavier_than_exponential() {
        // Same mean 3.0; P(X > 30) is (1/30)^1.5 ≈ 6e-3 for the Pareto
        // and e^{-10} ≈ 4.5e-5 for the exponential — two orders apart.
        let p = Pareto::from_mean(3.0, 1.5);
        let e = Exponential::from_mean(3.0);
        let mut rng = SmallRng::seed_from_u64(10);
        let n = 200_000;
        let p_tail = (0..n).filter(|_| p.sample(&mut rng) > 30.0).count();
        let e_tail = (0..n).filter(|_| e.sample(&mut rng) > 30.0).count();
        assert!(
            p_tail > 20 * (e_tail + 1),
            "pareto tail {p_tail} vs exponential {e_tail}"
        );
    }

    #[test]
    #[should_panic(expected = "shape must exceed 1")]
    fn pareto_rejects_shape_at_most_one() {
        let _ = Pareto::from_mean(3.0, 1.0);
    }
}
