//! Bandwidth classes (paper §4.2: "we randomly split the users into 3
//! categories, according to their connection bandwidth; each user is
//! equally likely to be connected through a 56K modem, a cable modem or a
//! LAN").

use rand::Rng;

/// A node's access-link class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BandwidthClass {
    /// 56 kbit/s dial-up modem — slowest class, mean one-way delay 300 ms.
    Modem56K,
    /// Cable modem — mean one-way delay 150 ms.
    Cable,
    /// LAN connection — fastest class, mean one-way delay 70 ms.
    Lan,
}

impl BandwidthClass {
    /// All classes, slowest first.
    pub const ALL: [BandwidthClass; 3] = [
        BandwidthClass::Modem56K,
        BandwidthClass::Cable,
        BandwidthClass::Lan,
    ];

    /// Nominal link rate in kbit/s. Used by the paper's benefit function
    /// `B / R` (B = "the bandwidth of the answering link") and by the
    /// download-time model.
    #[inline]
    pub const fn kbps(self) -> u32 {
        match self {
            BandwidthClass::Modem56K => 56,
            BandwidthClass::Cable => 1_500,
            BandwidthClass::Lan => 10_000,
        }
    }

    /// The benefit weight `B` in the paper's `B / R` score, normalised so
    /// the slowest class is 1.0.
    ///
    /// Operationalised through the class's mean one-way delay
    /// (300/150/70 ms → 1 : 2 : 4.3) rather than the raw link rate: the
    /// raw 56 k : 1.5 M : 10 M ratio (1 : 27 : 179) would let bandwidth
    /// utterly dominate the content-similarity signal, and what a
    /// downloading user actually experiences is bounded by end-to-end
    /// delay classes, not the nominal line rate. The raw-rate variant is
    /// available as [`BandwidthClass::raw_rate_weight`] and compared in
    /// `ddr run ablations` (suite 4).
    #[inline]
    pub fn benefit_weight(self) -> f64 {
        match self {
            BandwidthClass::Modem56K => 1.0,
            BandwidthClass::Cable => 2.0,
            BandwidthClass::Lan => 300.0 / 70.0,
        }
    }

    /// The raw line-rate benefit weight (1 : 26.8 : 178.6) — ablation
    /// alternative to [`BandwidthClass::benefit_weight`].
    #[inline]
    pub fn raw_rate_weight(self) -> f64 {
        self.kbps() as f64 / BandwidthClass::Modem56K.kbps() as f64
    }

    /// The slower of two classes — the paper says the delay between two
    /// users "is governed by the slowest user".
    #[inline]
    pub fn slower(self, other: BandwidthClass) -> BandwidthClass {
        self.min(other)
    }

    /// Sample a class uniformly (each equally likely, per the paper).
    pub fn sample_uniform<R: Rng + ?Sized>(rng: &mut R) -> BandwidthClass {
        Self::ALL[rng.gen_range(0..Self::ALL.len())]
    }

    /// Short label for tables and traces.
    pub const fn label(self) -> &'static str {
        match self {
            BandwidthClass::Modem56K => "56K",
            BandwidthClass::Cable => "cable",
            BandwidthClass::Lan => "LAN",
        }
    }
}

/// A weighted mix over the three bandwidth classes — the "bandwidth era"
/// knob of the adversarial scenario pack. The paper's uniform 1/3 split
/// models 2003; the eras dial the population back to dial-up dominance or
/// forward to fibre dominance while keeping the delay model itself fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// Probability of [`BandwidthClass::Modem56K`].
    pub modem: f64,
    /// Probability of [`BandwidthClass::Cable`].
    pub cable: f64,
    /// Probability of [`BandwidthClass::Lan`].
    pub lan: f64,
}

impl ClassMix {
    /// The paper's uniform split.
    pub fn uniform() -> Self {
        ClassMix {
            modem: 1.0 / 3.0,
            cable: 1.0 / 3.0,
            lan: 1.0 / 3.0,
        }
    }

    /// A dial-up-dominated population (early-network era).
    pub fn dialup_era() -> Self {
        ClassMix {
            modem: 0.70,
            cable: 0.25,
            lan: 0.05,
        }
    }

    /// A fibre/LAN-dominated population (modern era).
    pub fn fiber_era() -> Self {
        ClassMix {
            modem: 0.05,
            cable: 0.25,
            lan: 0.70,
        }
    }

    /// Check the weights form a probability distribution.
    pub fn validate(&self) -> Result<(), String> {
        for (name, w) in [
            ("modem", self.modem),
            ("cable", self.cable),
            ("lan", self.lan),
        ] {
            if !w.is_finite() || !(0.0..=1.0).contains(&w) {
                return Err(format!("class mix {name} weight {w} out of [0,1]"));
            }
        }
        let sum = self.modem + self.cable + self.lan;
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("class mix weights sum to {sum}, expected 1"));
        }
        Ok(())
    }

    /// Sample one class by inverse CDF (modem, then cable, then LAN).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> BandwidthClass {
        let u: f64 = rng.gen();
        if u < self.modem {
            BandwidthClass::Modem56K
        } else if u < self.modem + self.cable {
            BandwidthClass::Cable
        } else {
            BandwidthClass::Lan
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ordering_is_slow_to_fast() {
        assert!(BandwidthClass::Modem56K < BandwidthClass::Cable);
        assert!(BandwidthClass::Cable < BandwidthClass::Lan);
    }

    #[test]
    fn slower_picks_minimum() {
        assert_eq!(
            BandwidthClass::Lan.slower(BandwidthClass::Modem56K),
            BandwidthClass::Modem56K
        );
        assert_eq!(
            BandwidthClass::Cable.slower(BandwidthClass::Lan),
            BandwidthClass::Cable
        );
        assert_eq!(
            BandwidthClass::Lan.slower(BandwidthClass::Lan),
            BandwidthClass::Lan
        );
    }

    #[test]
    fn benefit_weights_increase_with_speed() {
        assert_eq!(BandwidthClass::Modem56K.benefit_weight(), 1.0);
        assert!(BandwidthClass::Cable.benefit_weight() > 1.0);
        assert!(BandwidthClass::Lan.benefit_weight() > BandwidthClass::Cable.benefit_weight());
        // ... and stay mild enough not to swamp content similarity.
        assert!(BandwidthClass::Lan.benefit_weight() < 10.0);
    }

    #[test]
    fn raw_rate_weights_match_line_rates() {
        assert_eq!(BandwidthClass::Modem56K.raw_rate_weight(), 1.0);
        assert!((BandwidthClass::Cable.raw_rate_weight() - 1_500.0 / 56.0).abs() < 1e-9);
        assert!((BandwidthClass::Lan.raw_rate_weight() - 10_000.0 / 56.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            match BandwidthClass::sample_uniform(&mut rng) {
                BandwidthClass::Modem56K => counts[0] += 1,
                BandwidthClass::Cable => counts[1] += 1,
                BandwidthClass::Lan => counts[2] += 1,
            }
        }
        for &c in &counts {
            // each should be near 10_000 (±5 %)
            assert!((9_500..=10_500).contains(&c), "skewed counts: {counts:?}");
        }
    }

    #[test]
    fn class_mix_eras_sample_to_their_weights() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        for (mix, expect_modem) in [
            (ClassMix::dialup_era(), 0.70),
            (ClassMix::fiber_era(), 0.05),
            (ClassMix::uniform(), 1.0 / 3.0),
        ] {
            assert!(mix.validate().is_ok());
            let n = 30_000;
            let modems = (0..n)
                .filter(|_| mix.sample(&mut rng) == BandwidthClass::Modem56K)
                .count();
            let frac = modems as f64 / n as f64;
            assert!(
                (frac - expect_modem).abs() < 0.02,
                "modem share {frac} vs {expect_modem} for {mix:?}"
            );
        }
    }

    #[test]
    fn class_mix_validate_rejects_bad_weights() {
        let bad = ClassMix {
            modem: 0.5,
            cable: 0.5,
            lan: 0.5,
        };
        assert!(bad.validate().is_err());
        let negative = ClassMix {
            modem: -0.1,
            cable: 0.6,
            lan: 0.5,
        };
        assert!(negative.validate().is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BandwidthClass::Modem56K.label(), "56K");
        assert_eq!(BandwidthClass::Cable.label(), "cable");
        assert_eq!(BandwidthClass::Lan.label(), "LAN");
    }
}
