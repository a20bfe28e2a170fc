//! One-way delay sampling (paper §4.2).
//!
//! "The mean value of the one-way delay between two users is governed by
//! the slowest user, and is equal to 300ms, 150ms and 70ms, respectively.
//! The standard deviation is set to 20ms for all cases, and values are
//! restricted in the interval [·]." We truncate to `mean ± 3σ` (see crate
//! docs for the substitution rationale).

use crate::bandwidth::BandwidthClass;
use ddr_sim::rng::standard_normal;
use ddr_sim::SimDuration;
use rand::Rng;

/// Mean/σ/truncation parameters for one bandwidth class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyParams {
    /// Mean one-way delay in milliseconds.
    pub mean_ms: f64,
    /// Standard deviation in milliseconds.
    pub std_ms: f64,
    /// Truncation half-width in standard deviations.
    pub clamp_sigmas: f64,
}

impl LatencyParams {
    /// Paper defaults for a class.
    pub const fn paper_default(class: BandwidthClass) -> LatencyParams {
        let mean_ms = match class {
            BandwidthClass::Modem56K => 300.0,
            BandwidthClass::Cable => 150.0,
            BandwidthClass::Lan => 70.0,
        };
        LatencyParams {
            mean_ms,
            std_ms: 20.0,
            clamp_sigmas: 3.0,
        }
    }

    /// Lower truncation bound in ms.
    pub fn lo(&self) -> f64 {
        (self.mean_ms - self.clamp_sigmas * self.std_ms).max(0.0)
    }

    /// Upper truncation bound in ms.
    pub fn hi(&self) -> f64 {
        self.mean_ms + self.clamp_sigmas * self.std_ms
    }
}

/// Samples one-way delays for node pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayModel {
    params: [LatencyParams; 3],
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel::paper()
    }
}

impl DelayModel {
    /// The paper's parameters (300/150/70 ms ± 20 ms).
    pub fn paper() -> Self {
        DelayModel {
            params: [
                LatencyParams::paper_default(BandwidthClass::Modem56K),
                LatencyParams::paper_default(BandwidthClass::Cable),
                LatencyParams::paper_default(BandwidthClass::Lan),
            ],
        }
    }

    /// Parameters governing a pair: the slower endpoint decides.
    pub fn pair_params(&self, a: BandwidthClass, b: BandwidthClass) -> LatencyParams {
        let class = a.slower(b);
        self.params[match class {
            BandwidthClass::Modem56K => 0,
            BandwidthClass::Cable => 1,
            BandwidthClass::Lan => 2,
        }]
    }

    /// Sample a one-way delay for a message between classes `a` and `b`.
    ///
    /// Standard-normal variates come from the Box–Muller transform;
    /// out-of-interval samples are clamped to the truncation bounds (the
    /// tail mass outside ±3σ is 0.27 %, so clamping rather than rejecting
    /// distorts the distribution negligibly while staying O(1)).
    pub fn sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        a: BandwidthClass,
        b: BandwidthClass,
    ) -> SimDuration {
        let p = self.pair_params(a, b);
        let z = standard_normal(rng);
        let ms = (p.mean_ms + z * p.std_ms).clamp(p.lo(), p.hi());
        SimDuration::from_millis(ms.round() as u64)
    }

    /// The mean delay for a class pair, for analytic checks and expected-
    /// value baselines.
    pub fn mean(&self, a: BandwidthClass, b: BandwidthClass) -> SimDuration {
        SimDuration::from_millis(self.pair_params(a, b).mean_ms.round() as u64)
    }

    /// The smallest delay `sample` can ever return, over all class pairs.
    /// This is the natural lookahead for conservative parallel simulation:
    /// every sampled network delay is ≥ this bound.
    pub fn min_delay(&self) -> SimDuration {
        let lo = self
            .params
            .iter()
            .map(|p| p.lo())
            .fold(f64::INFINITY, f64::min);
        SimDuration::from_millis(lo.floor() as u64)
    }

    /// The largest delay `sample` can ever return, over all class pairs:
    /// the bound that makes a flood's duration finite (a descriptor of
    /// TTL `t` reaches every node it ever reaches within `t` of these).
    pub fn max_delay(&self) -> SimDuration {
        let hi = self.params.iter().map(|p| p.hi()).fold(0.0, f64::max);
        SimDuration::from_millis(hi.ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pair_governed_by_slower() {
        let m = DelayModel::paper();
        assert_eq!(
            m.pair_params(BandwidthClass::Lan, BandwidthClass::Modem56K)
                .mean_ms,
            300.0
        );
        assert_eq!(
            m.pair_params(BandwidthClass::Lan, BandwidthClass::Cable)
                .mean_ms,
            150.0
        );
        assert_eq!(
            m.pair_params(BandwidthClass::Lan, BandwidthClass::Lan)
                .mean_ms,
            70.0
        );
    }

    #[test]
    fn samples_respect_truncation() {
        let m = DelayModel::paper();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20_000 {
            let d = m
                .sample(&mut rng, BandwidthClass::Modem56K, BandwidthClass::Lan)
                .as_millis();
            assert!((240..=360).contains(&d), "out of ±3σ: {d}");
        }
    }

    #[test]
    fn sample_mean_close_to_nominal() {
        let m = DelayModel::paper();
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 50_000;
        let sum: u64 = (0..n)
            .map(|_| {
                m.sample(&mut rng, BandwidthClass::Cable, BandwidthClass::Cable)
                    .as_millis()
            })
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((148.0..152.0).contains(&mean), "mean drifted: {mean}");
    }

    #[test]
    fn sample_std_close_to_nominal() {
        let m = DelayModel::paper();
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 50_000usize;
        let xs: Vec<f64> = (0..n)
            .map(|_| {
                m.sample(&mut rng, BandwidthClass::Lan, BandwidthClass::Lan)
                    .as_millis() as f64
            })
            .collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let std = var.sqrt();
        // truncation + rounding shrink σ slightly below 20
        assert!((17.0..22.0).contains(&std), "std drifted: {std}");
    }

    #[test]
    fn lo_never_negative() {
        let p = LatencyParams {
            mean_ms: 10.0,
            std_ms: 20.0,
            clamp_sigmas: 3.0,
        };
        assert_eq!(p.lo(), 0.0);
    }

    #[test]
    fn min_delay_is_lan_floor() {
        let m = DelayModel::paper();
        // LAN: 70 − 3·20 = 10 ms is the tightest truncation bound.
        assert_eq!(m.min_delay().as_millis(), 10);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let d = m.sample(&mut rng, BandwidthClass::Lan, BandwidthClass::Lan);
            assert!(d >= m.min_delay());
        }
    }

    #[test]
    fn max_delay_is_never_exceeded() {
        let m = DelayModel::paper();
        // Modem: 300 + 3·20 = 360 ms is the loosest truncation bound.
        assert_eq!(m.max_delay().as_millis(), 360);
        let classes = [
            BandwidthClass::Modem56K,
            BandwidthClass::Cable,
            BandwidthClass::Lan,
        ];
        let mut rng = SmallRng::seed_from_u64(8);
        for a in classes {
            for b in classes {
                for _ in 0..10_000 {
                    assert!(m.sample(&mut rng, a, b) <= m.max_delay(), "{a:?} -> {b:?}");
                }
            }
        }
    }

    #[test]
    fn mean_accessor_matches_params() {
        let m = DelayModel::paper();
        assert_eq!(
            m.mean(BandwidthClass::Modem56K, BandwidthClass::Lan)
                .as_millis(),
            300
        );
    }
}
