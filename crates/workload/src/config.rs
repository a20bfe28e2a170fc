//! Workload configuration with the paper's defaults (§4.2) and knobs for
//! sensitivity experiments.

use ddr_sim::SimDuration;

/// Which family of distributions the churn renewal process draws session
/// and offline lengths from. The paper uses exponential draws (§4.2); the
/// adversarial scenario pack swaps in Pareto draws with the *same means*
/// so heavy tails are the only variable under test.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ChurnModel {
    /// Memoryless sessions — the paper's model and the default.
    #[default]
    Exponential,
    /// Pareto sessions with tail exponent `shape` (must be > 1 so the
    /// configured means stay meaningful). `shape` in (1, 2] gives the
    /// infinite-variance regime measured in deployed file-sharing
    /// networks: most sessions are short, a few marathon sessions carry
    /// most of the online time.
    Pareto {
        /// Tail exponent α applied to both online and offline draws.
        shape: f64,
    },
}

/// A flash-crowd event: for a window of simulated time, a slice of every
/// user's queries is redirected onto one category with a sharper-than-
/// nominal Zipf exponent, modelling "everyone suddenly wants the new
/// album". Intensity follows a trapezoid: linear ramp up, flat hold,
/// linear decay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Index of the spiked category (must be < `categories`).
    pub category: u16,
    /// Hour (since simulation start) the ramp begins.
    pub start_hour: f64,
    /// Ramp-up duration in hours (0 ⇒ step onset).
    pub ramp_hours: f64,
    /// Plateau duration in hours at peak intensity.
    pub hold_hours: f64,
    /// Decay duration in hours back to zero (0 ⇒ step offset).
    pub decay_hours: f64,
    /// Peak fraction of queries redirected to the spiked category
    /// (in [0, 1]; the remainder follows the user's normal mix).
    pub peak_weight: f64,
    /// Zipf exponent used *within* the spiked category during the event —
    /// typically sharper than the nominal θ so the crowd piles onto a
    /// handful of items.
    pub spike_theta: f64,
}

impl FlashCrowd {
    /// Trapezoid intensity in [0, `peak_weight`] at fractional `hour`.
    pub fn intensity(&self, hour: f64) -> f64 {
        let t = hour - self.start_hour;
        if t < 0.0 {
            return 0.0;
        }
        let ramp_end = self.ramp_hours;
        let hold_end = ramp_end + self.hold_hours;
        let decay_end = hold_end + self.decay_hours;
        let shape = if t < ramp_end {
            t / self.ramp_hours
        } else if t < hold_end {
            1.0
        } else if t < decay_end {
            (decay_end - t) / self.decay_hours
        } else {
            0.0
        };
        shape * self.peak_weight
    }

    /// Sanity-check against a workload with `categories` genres.
    pub fn validate(&self, categories: u16) -> Result<(), String> {
        if self.category >= categories {
            return Err(format!(
                "flash crowd category {} out of range (have {categories})",
                self.category
            ));
        }
        if !(0.0..=1.0).contains(&self.peak_weight) {
            return Err(format!(
                "flash crowd peak_weight {} out of [0,1]",
                self.peak_weight
            ));
        }
        for (name, v) in [
            ("start_hour", self.start_hour),
            ("ramp_hours", self.ramp_hours),
            ("hold_hours", self.hold_hours),
            ("decay_hours", self.decay_hours),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "flash crowd {name} must be finite and >= 0, got {v}"
                ));
            }
        }
        if self.spike_theta <= 0.0 || !self.spike_theta.is_finite() {
            return Err(format!(
                "flash crowd spike_theta must be positive, got {}",
                self.spike_theta
            ));
        }
        Ok(())
    }
}

/// All workload parameters for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of users (paper: 2 000).
    pub users: usize,
    /// Distinct songs in the search space (paper: 200 000).
    pub songs: u32,
    /// Music categories/genres (paper: 50).
    pub categories: u16,
    /// Zipf exponent for both song popularity and user-to-category
    /// assignment (paper: 0.9).
    pub theta: f64,
    /// Mean library size (paper: Gaussian mean 200).
    pub library_mean: f64,
    /// Library size standard deviation (paper: 50).
    pub library_std: f64,
    /// Fraction of a library (and of queries) devoted to the favourite
    /// category (paper: 50 %).
    pub favorite_fraction: f64,
    /// Number of secondary categories per user (paper: 5, at 10 % each).
    pub secondary_categories: usize,
    /// Mean online-session length (paper: exponential, 3 h).
    pub mean_online: SimDuration,
    /// Mean offline period (paper: exponential, 3 h).
    pub mean_offline: SimDuration,
    /// Mean time between queries while online. The paper states users
    /// query "with the same frequency" but omits the rate; this default is
    /// calibrated so static-Gnutella hits/messages land in the paper's
    /// reported per-hour ranges (see EXPERIMENTS.md "Calibration").
    pub mean_query_interval: SimDuration,
    /// Session/offline length distribution family (paper: exponential).
    pub churn_model: ChurnModel,
    /// Optional flash-crowd query spike (none in the paper's figures).
    pub flash_crowd: Option<FlashCrowd>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::paper()
    }
}

impl WorkloadConfig {
    /// The paper's settings.
    pub fn paper() -> Self {
        WorkloadConfig {
            users: 2_000,
            songs: 200_000,
            categories: 50,
            theta: 0.9,
            library_mean: 200.0,
            library_std: 50.0,
            favorite_fraction: 0.5,
            secondary_categories: 5,
            mean_online: SimDuration::from_hours(3),
            mean_offline: SimDuration::from_hours(3),
            mean_query_interval: SimDuration::from_mins(6),
            churn_model: ChurnModel::Exponential,
            flash_crowd: None,
        }
    }

    /// A proportionally scaled-down configuration for tests and benches:
    /// `scale` divides users and songs, keeping densities (library size,
    /// categories, rates) identical so protocol behaviour is preserved.
    ///
    /// At deep scales (beyond ~20, where a paper-sized library would no
    /// longer fit inside one scaled-down category and sampling without
    /// replacement would be impossible) the per-user library shrinks
    /// proportionally so the configuration stays valid. Those scales are
    /// for smoke tests only; measurement runs use scale ≤ 20, where the
    /// library is untouched.
    ///
    /// # Panics
    /// Panics where [`try_paper_scaled`](Self::try_paper_scaled) errs.
    pub fn paper_scaled(scale: u32) -> Self {
        Self::try_paper_scaled(scale)
            .unwrap_or_else(|e| panic!("no paper workload at scale {scale}: {e}"))
    }

    /// [`paper_scaled`](Self::paper_scaled), or why there is no such
    /// workload: `scale` must divide the user and song counts, and the
    /// result must [`validate`](Self::validate) (songs divisible by
    /// categories, room for a library).
    pub fn try_paper_scaled(scale: u32) -> Result<Self, String> {
        let base = WorkloadConfig::paper();
        if scale == 0
            || !base.users.is_multiple_of(scale as usize)
            || !base.songs.is_multiple_of(scale)
        {
            return Err(format!(
                "{scale} does not divide {} users and {} songs",
                base.users, base.songs
            ));
        }
        let mut c = WorkloadConfig {
            users: base.users / scale as usize,
            songs: base.songs / scale,
            ..base
        };
        // Keep the validity invariant from `validate`: the favourite share
        // of the largest plausible library must fit in one category.
        let per_cat = (c.songs / c.categories as u32) as f64;
        let max_fav = (c.library_mean + 4.0 * c.library_std) * c.favorite_fraction;
        if max_fav > per_cat {
            let shrink = per_cat / max_fav;
            c.library_mean *= shrink;
            c.library_std *= shrink;
        }
        c.validate()?;
        Ok(c)
    }

    /// The interval `[lo, hi]` library sizes are clamped to: at least one
    /// song per drawn category so every slice is non-empty, and capped so
    /// the favourite share always fits within one category.
    pub fn library_bounds(&self) -> (f64, f64) {
        let per_cat = (self.songs / self.categories as u32) as f64;
        let lo = (self.secondary_categories + 1) as f64;
        let hi = (per_cat / self.favorite_fraction.max(0.05))
            .min(self.library_mean + 4.0 * self.library_std);
        (lo, hi)
    }

    /// Validate internal consistency; returns a description of the first
    /// violated constraint. Called by scenario builders before running.
    pub fn validate(&self) -> Result<(), String> {
        if self.users == 0 {
            return Err("users must be positive".into());
        }
        if self.songs == 0 || self.categories == 0 {
            return Err("songs and categories must be positive".into());
        }
        if !self.songs.is_multiple_of(self.categories as u32) {
            return Err(format!(
                "songs ({}) must divide evenly into categories ({})",
                self.songs, self.categories
            ));
        }
        if !(0.0..=1.0).contains(&self.favorite_fraction) {
            return Err(format!(
                "favorite_fraction {} out of [0,1]",
                self.favorite_fraction
            ));
        }
        if self.secondary_categories + 1 > self.categories as usize {
            return Err(format!(
                "need {} categories but have {}",
                self.secondary_categories + 1,
                self.categories
            ));
        }
        if self.library_mean <= 0.0 {
            return Err("library_mean must be positive".into());
        }
        let per_cat = (self.songs / self.categories as u32) as f64;
        // The favourite share of the largest plausible library must fit in
        // one category (sampling is without replacement).
        let max_lib = self.library_mean + 4.0 * self.library_std;
        if max_lib * self.favorite_fraction > per_cat {
            return Err(format!(
                "libraries too large for category size ({} > {per_cat})",
                max_lib * self.favorite_fraction
            ));
        }
        let (lo, hi) = self.library_bounds();
        if lo > hi {
            return Err(format!(
                "a library holds at most {hi} songs, fewer than one from each of its {lo} categories"
            ));
        }
        if self.mean_query_interval == SimDuration::ZERO {
            return Err("mean_query_interval must be positive".into());
        }
        if let ChurnModel::Pareto { shape } = self.churn_model {
            if !shape.is_finite() || shape <= 1.0 {
                return Err(format!(
                    "Pareto churn shape must exceed 1 for finite means, got {shape}"
                ));
            }
        }
        if let Some(fc) = &self.flash_crowd {
            fc.validate(self.categories)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4_2() {
        let c = WorkloadConfig::paper();
        assert_eq!(c.users, 2_000);
        assert_eq!(c.songs, 200_000);
        assert_eq!(c.categories, 50);
        assert_eq!(c.theta, 0.9);
        assert_eq!(c.library_mean, 200.0);
        assert_eq!(c.library_std, 50.0);
        assert_eq!(c.favorite_fraction, 0.5);
        assert_eq!(c.secondary_categories, 5);
        assert_eq!(c.mean_online, SimDuration::from_hours(3));
        assert_eq!(c.mean_offline, SimDuration::from_hours(3));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaled_config_preserves_densities() {
        let c = WorkloadConfig::paper_scaled(10);
        assert_eq!(c.users, 200);
        assert_eq!(c.songs, 20_000);
        assert_eq!(c.categories, 50);
        assert_eq!(c.library_mean, 200.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scales_without_a_valid_workload_are_errors_not_panics() {
        for scale in [2, 4, 5, 8, 10, 16, 20, 25, 40, 50, 80, 100, 1000] {
            let c = WorkloadConfig::try_paper_scaled(scale);
            assert_eq!(c.map(|c| c.users), Ok(2_000 / scale as usize));
        }
        // 0; non-divisors of 2,000 users; 2000 divides everything but
        // leaves 2 songs per category — no room for a 6-category library.
        for scale in [0, 3, 7, 32, 2000, 2001] {
            let err = WorkloadConfig::try_paper_scaled(scale);
            assert!(err.is_err(), "scale {scale} accepted: {err:?}");
        }
    }

    #[test]
    fn validate_catches_bad_division() {
        let c = WorkloadConfig {
            songs: 100_001,
            ..WorkloadConfig::paper()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_catches_too_few_categories() {
        let c = WorkloadConfig {
            categories: 5,
            songs: 200_000,
            ..WorkloadConfig::paper()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_catches_oversized_libraries() {
        let c = WorkloadConfig {
            library_mean: 10_000.0,
            ..WorkloadConfig::paper()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_pareto_shape() {
        let c = WorkloadConfig {
            churn_model: ChurnModel::Pareto { shape: 1.0 },
            ..WorkloadConfig::paper()
        };
        assert!(c.validate().is_err());
        let ok = WorkloadConfig {
            churn_model: ChurnModel::Pareto { shape: 1.5 },
            ..WorkloadConfig::paper()
        };
        assert!(ok.validate().is_ok());
    }

    fn crowd() -> FlashCrowd {
        FlashCrowd {
            category: 3,
            start_hour: 2.0,
            ramp_hours: 1.0,
            hold_hours: 2.0,
            decay_hours: 1.0,
            peak_weight: 0.8,
            spike_theta: 1.2,
        }
    }

    #[test]
    fn flash_crowd_intensity_is_a_trapezoid() {
        let fc = crowd();
        assert_eq!(fc.intensity(0.0), 0.0);
        assert_eq!(fc.intensity(1.9), 0.0);
        assert!((fc.intensity(2.5) - 0.4).abs() < 1e-12); // mid-ramp
        assert!((fc.intensity(3.0) - 0.8).abs() < 1e-12); // plateau start
        assert!((fc.intensity(4.9) - 0.8).abs() < 1e-12); // plateau end
        assert!((fc.intensity(5.5) - 0.4).abs() < 1e-12); // mid-decay
        assert_eq!(fc.intensity(6.0), 0.0);
        assert_eq!(fc.intensity(10.0), 0.0);
    }

    #[test]
    fn flash_crowd_step_edges_do_not_divide_by_zero() {
        let fc = FlashCrowd {
            ramp_hours: 0.0,
            decay_hours: 0.0,
            ..crowd()
        };
        assert_eq!(fc.intensity(1.9), 0.0);
        assert!((fc.intensity(2.0) - 0.8).abs() < 1e-12);
        assert!((fc.intensity(3.9) - 0.8).abs() < 1e-12);
        assert_eq!(fc.intensity(4.0), 0.0);
    }

    #[test]
    fn validate_catches_bad_flash_crowd() {
        for bad in [
            FlashCrowd {
                category: 50,
                ..crowd()
            },
            FlashCrowd {
                peak_weight: 1.5,
                ..crowd()
            },
            FlashCrowd {
                ramp_hours: -1.0,
                ..crowd()
            },
            FlashCrowd {
                spike_theta: 0.0,
                ..crowd()
            },
        ] {
            let c = WorkloadConfig {
                flash_crowd: Some(bad),
                ..WorkloadConfig::paper()
            };
            assert!(c.validate().is_err(), "accepted {bad:?}");
        }
        let ok = WorkloadConfig {
            flash_crowd: Some(crowd()),
            ..WorkloadConfig::paper()
        };
        assert!(ok.validate().is_ok());
    }
}
