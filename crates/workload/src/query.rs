//! Query generation (paper §4.2): while online, each user issues queries
//! with exponentially-distributed inter-arrival times; the queried category
//! follows the user's preference mix and the song follows within-category
//! popularity. Each query requests exactly one song.

use crate::catalog::{Catalog, CategoryId};
use crate::config::{FlashCrowd, WorkloadConfig};
use crate::dist::Exponential;
use crate::profile::UserProfile;
use ddr_sim::{ItemId, RngFactory, SimDuration};
use rand::rngs::SmallRng;
use rand::Rng;

/// Per-user query stream.
#[derive(Debug)]
pub struct QueryGenerator {
    interval: Exponential,
    favorite_fraction: f64,
    /// The crowd's window and category; its popularity curve is the
    /// world's one table in the [`Catalog`].
    flash: Option<FlashCrowd>,
    rng: SmallRng,
}

impl QueryGenerator {
    /// Create the stream for `user`.
    pub fn new(config: &WorkloadConfig, rngs: &RngFactory, user: u64) -> Self {
        QueryGenerator {
            interval: Exponential::from_mean(config.mean_query_interval.as_millis() as f64),
            favorite_fraction: config.favorite_fraction,
            flash: config.flash_crowd,
            rng: rngs.stream("query", user),
        }
    }

    /// Time until this user's next query.
    pub fn next_interval(&mut self) -> SimDuration {
        SimDuration::from_millis(self.interval.sample(&mut self.rng).max(1.0) as u64)
    }

    /// Draw the next query target for `profile`, skipping songs already in
    /// the local library: a user searches the network for content they do
    /// *not* have (local hits would trivially satisfy Algo 1's "satisfied
    /// locally" branch and never enter the network).
    pub fn next_target(&mut self, catalog: &Catalog, profile: &UserProfile) -> ItemId {
        // Resampling bound: libraries hold ≈ 100 of 4 000 songs per drawn
        // category, so a local hit happens ≲ 15 % of the time (popular
        // songs overlap more); 64 attempts make a forever-loop practically
        // and, via the fallback, formally impossible.
        for _ in 0..64 {
            let cat = profile.sample_preferred_category(&mut self.rng, self.favorite_fraction);
            let item = catalog.sample_song(&mut self.rng, cat);
            if !profile.has(item) {
                return item;
            }
        }
        // Fallback: least popular song of the favourite category — all but
        // guaranteed absent from the library.
        catalog.item_at(profile.favorite, catalog.per_category() - 1)
    }

    /// Draw the next query target for `profile` at fractional `hour` since
    /// simulation start. With no flash crowd configured — or outside the
    /// crowd's window — this consumes exactly the same RNG draws as
    /// [`next_target`](Self::next_target), so benign runs are bit-identical
    /// whether callers pass the clock or not. Inside the window, each query
    /// is redirected to the spiked category with probability equal to the
    /// trapezoid intensity, and the song is drawn from the sharper
    /// `spike_theta` popularity curve — `catalog` must then come from
    /// [`Catalog::for_workload`], which builds that curve once per world.
    pub fn next_target_at(
        &mut self,
        catalog: &Catalog,
        profile: &UserProfile,
        hour: f64,
    ) -> ItemId {
        let Some(flash) = self.flash else {
            return self.next_target(catalog, profile);
        };
        let w = flash.intensity(hour);
        if w <= 0.0 {
            return self.next_target(catalog, profile);
        }
        for _ in 0..64 {
            let item = if self.rng.gen::<f64>() < w {
                catalog.sample_spiked_song(&mut self.rng, CategoryId(flash.category))
            } else {
                let cat = profile.sample_preferred_category(&mut self.rng, self.favorite_fraction);
                catalog.sample_song(&mut self.rng, cat)
            };
            if !profile.has(item) {
                return item;
            }
        }
        catalog.item_at(profile.favorite, catalog.per_category() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::generate_profiles;

    fn setup() -> (WorkloadConfig, Catalog, Vec<UserProfile>, RngFactory) {
        let cfg = WorkloadConfig {
            users: 50,
            songs: 10_000,
            categories: 50,
            ..WorkloadConfig::paper()
        };
        let cat = Catalog::new(cfg.songs, cfg.categories, cfg.theta);
        let rngs = RngFactory::new(42);
        let profiles = generate_profiles(&cfg, &cat, &rngs);
        (cfg, cat, profiles, rngs)
    }

    #[test]
    fn intervals_have_configured_mean() {
        let (cfg, _, _, rngs) = setup();
        let mut q = QueryGenerator::new(&cfg, &rngs, 0);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| q.next_interval().as_millis()).sum();
        let mean = sum as f64 / n as f64;
        let expected = cfg.mean_query_interval.as_millis() as f64;
        assert!(
            (mean - expected).abs() / expected < 0.03,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn targets_avoid_local_library() {
        let (cfg, cat, profiles, rngs) = setup();
        let p = &profiles[3];
        let mut q = QueryGenerator::new(&cfg, &rngs, 3);
        for _ in 0..2_000 {
            let t = q.next_target(&cat, p);
            assert!(!p.has(t), "queried a locally stored song {t}");
        }
    }

    #[test]
    fn targets_follow_preference_mix() {
        // Paper-density catalog (4 000 songs/category): libraries then hold
        // only ~2.5 % of a category, so skip-local barely biases the mix.
        let cfg = WorkloadConfig {
            users: 20,
            ..WorkloadConfig::paper()
        };
        let cat = Catalog::new(cfg.songs, cfg.categories, cfg.theta);
        let rngs = RngFactory::new(42);
        let profiles = generate_profiles(&cfg, &cat, &rngs);
        let p = &profiles[0];
        let mut q = QueryGenerator::new(&cfg, &rngs, 0);
        let n = 10_000;
        let mut fav = 0;
        for _ in 0..n {
            let t = q.next_target(&cat, p);
            let c = cat.category_of(t);
            assert!(c == p.favorite || p.secondary.contains(&c));
            if c == p.favorite {
                fav += 1;
            }
        }
        let frac = fav as f64 / n as f64;
        // Nominal 50 %; skip-local resampling shifts it slightly because
        // the favourite category holds more of the library.
        assert!((0.42..0.58).contains(&frac), "favourite share {frac}");
    }

    #[test]
    fn next_target_at_matches_next_target_without_a_crowd() {
        let (cfg, cat, profiles, rngs) = setup();
        let mut a = QueryGenerator::new(&cfg, &rngs, 4);
        let mut b = QueryGenerator::new(&cfg, &rngs, 4);
        for i in 0..500 {
            assert_eq!(
                a.next_target(&cat, &profiles[4]),
                b.next_target_at(&cat, &profiles[4], i as f64 * 0.01),
            );
        }
    }

    fn crowd_cfg() -> WorkloadConfig {
        let (cfg, ..) = setup();
        WorkloadConfig {
            flash_crowd: Some(crate::config::FlashCrowd {
                category: 7,
                start_hour: 2.0,
                ramp_hours: 0.5,
                hold_hours: 2.0,
                decay_hours: 0.5,
                peak_weight: 0.9,
                spike_theta: 1.2,
            }),
            ..cfg
        }
    }

    #[test]
    fn next_target_at_outside_window_matches_benign_draws() {
        let (cfg, cat, profiles, rngs) = setup();
        let crowd_cfg = crowd_cfg();
        let mut benign = QueryGenerator::new(&cfg, &rngs, 4);
        let mut crowded = QueryGenerator::new(&crowd_cfg, &rngs, 4);
        // Before the spike and after it dies out, identical draw sequence.
        for _ in 0..300 {
            assert_eq!(
                benign.next_target(&cat, &profiles[4]),
                crowded.next_target_at(&cat, &profiles[4], 1.5),
            );
        }
        for _ in 0..300 {
            assert_eq!(
                benign.next_target(&cat, &profiles[4]),
                crowded.next_target_at(&cat, &profiles[4], 8.0),
            );
        }
    }

    #[test]
    fn flash_crowd_redirects_queries_at_peak() {
        let (_, _, profiles, rngs) = setup();
        let cfg = crowd_cfg();
        let cat = Catalog::for_workload(&cfg);
        let p = &profiles[2];
        let spiked = CategoryId(7);
        assert_ne!(p.favorite, spiked, "test profile must not favour the spike");
        let mut q = QueryGenerator::new(&cfg, &rngs, 2);
        let n = 4_000;
        let hits = (0..n)
            .filter(|_| cat.category_of(q.next_target_at(&cat, p, 3.0)) == spiked)
            .count();
        let frac = hits as f64 / n as f64;
        // Peak weight 0.9; skip-local resampling moves it only slightly.
        assert!((0.8..0.97).contains(&frac), "spiked share {frac}");
    }

    #[test]
    fn generator_is_deterministic() {
        let (cfg, cat, profiles, rngs) = setup();
        let mut a = QueryGenerator::new(&cfg, &rngs, 7);
        let mut b = QueryGenerator::new(&cfg, &rngs, 7);
        for _ in 0..200 {
            assert_eq!(a.next_interval(), b.next_interval());
            assert_eq!(
                a.next_target(&cat, &profiles[7]),
                b.next_target(&cat, &profiles[7])
            );
        }
    }
}
