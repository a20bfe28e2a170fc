//! The song catalog: 200 000 distinct songs equally divided into 50
//! categories, with Zipf(0.9) within-category popularity (paper §4.2).
//!
//! Items are numbered so category `c` owns the contiguous id range
//! `[c * per_cat, (c+1) * per_cat)` and the *rank within the category* is
//! the offset: `ItemId(c * per_cat + rank)` where rank 0 is the category's
//! most popular song. This makes rank↔id conversion free.

use crate::config::WorkloadConfig;
use crate::dist::Zipf;
use ddr_sim::ItemId;
use rand::Rng;

/// Index of a music category (genre).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CategoryId(pub u16);

impl CategoryId {
    /// As a dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// The immutable catalog shared by the whole simulation.
#[derive(Debug, Clone)]
pub struct Catalog {
    songs: u32,
    categories: u16,
    per_category: u32,
    /// Popularity of songs within a category (all categories share the
    /// same distribution shape, per the paper).
    song_zipf: Zipf,
    /// Popularity of categories for user-assignment (Zipf over categories).
    category_zipf: Zipf,
    /// The sharper within-category curve queries follow while a flash
    /// crowd is active (`FlashCrowd::spike_theta`); `None` for a workload
    /// without one. One table per world: every user's
    /// [`crate::QueryGenerator`] reads this one.
    spike_zipf: Option<Zipf>,
}

impl Catalog {
    /// Build a catalog; `songs` must divide evenly into `categories`
    /// ("these songs are equally divided into 50 categories").
    ///
    /// # Panics
    /// Panics on zero sizes or uneven division.
    pub fn new(songs: u32, categories: u16, theta: f64) -> Self {
        assert!(songs > 0 && categories > 0);
        assert_eq!(
            songs % categories as u32,
            0,
            "songs ({songs}) must divide evenly into categories ({categories})"
        );
        let per_category = songs / categories as u32;
        Catalog {
            songs,
            categories,
            per_category,
            song_zipf: Zipf::new(per_category as usize, theta),
            category_zipf: Zipf::new(categories as usize, theta),
            spike_zipf: None,
        }
    }

    /// The catalog of `config`, with the flash-crowd spike table when the
    /// workload has a crowd — what a world hands its query generators.
    pub fn for_workload(config: &WorkloadConfig) -> Self {
        let mut catalog = Catalog::new(config.songs, config.categories, config.theta);
        catalog.spike_zipf = config
            .flash_crowd
            .map(|crowd| Zipf::new(catalog.per_category as usize, crowd.spike_theta));
        catalog
    }

    /// The paper's catalog: 200 000 songs, 50 categories, θ = 0.9.
    pub fn paper() -> Self {
        Catalog::new(200_000, 50, 0.9)
    }

    /// Total number of songs.
    pub fn songs(&self) -> u32 {
        self.songs
    }

    /// Number of categories.
    pub fn categories(&self) -> u16 {
        self.categories
    }

    /// Songs per category.
    pub fn per_category(&self) -> u32 {
        self.per_category
    }

    /// Category owning `item`.
    #[inline]
    pub fn category_of(&self, item: ItemId) -> CategoryId {
        debug_assert!(item.0 < self.songs);
        CategoryId((item.0 / self.per_category) as u16)
    }

    /// The item at `rank` within `category`.
    #[inline]
    pub fn item_at(&self, category: CategoryId, rank: u32) -> ItemId {
        debug_assert!(category.0 < self.categories);
        debug_assert!(rank < self.per_category);
        ItemId(category.0 as u32 * self.per_category + rank)
    }

    /// Sample a song from `category` by popularity.
    pub fn sample_song<R: Rng + ?Sized>(&self, rng: &mut R, category: CategoryId) -> ItemId {
        let rank = self.song_zipf.sample(rng) as u32;
        self.item_at(category, rank)
    }

    /// Sample a song from `category` by the flash-crowd popularity curve.
    ///
    /// # Panics
    /// Panics unless the catalog came from [`Catalog::for_workload`] with
    /// a crowd configured — a generator with a crowd met a catalog
    /// without one, which is a wiring bug in the world.
    pub fn sample_spiked_song<R: Rng + ?Sized>(&self, rng: &mut R, category: CategoryId) -> ItemId {
        let spike = self
            .spike_zipf
            .as_ref()
            .expect("catalog built without the flash-crowd spike table");
        self.item_at(category, spike.sample(rng) as u32)
    }

    /// Sample a category by popularity (user-to-category assignment).
    pub fn sample_category<R: Rng + ?Sized>(&self, rng: &mut R) -> CategoryId {
        CategoryId(self.category_zipf.sample(rng) as u16)
    }

    /// Fill `out` with distinct songs from `category`, drawn by
    /// popularity and written in ascending id order. `marks` is the
    /// reusable scratch of [`Zipf::sample_distinct`].
    pub fn sample_distinct_songs<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        category: CategoryId,
        marks: &mut Vec<u64>,
        out: &mut [ItemId],
    ) {
        let mut slots = out.iter_mut();
        self.song_zipf
            .sample_distinct(rng, slots.len(), marks, |rank| {
                *slots.next().expect("one rank per slot") = self.item_at(category, rank as u32);
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn paper_catalog_dimensions() {
        let c = Catalog::paper();
        assert_eq!(c.songs(), 200_000);
        assert_eq!(c.categories(), 50);
        assert_eq!(c.per_category(), 4_000);
    }

    #[test]
    fn id_rank_roundtrip() {
        let c = Catalog::new(1_000, 10, 0.9);
        for cat in 0..10u16 {
            for rank in [0u32, 1, 50, 99] {
                let item = c.item_at(CategoryId(cat), rank);
                assert_eq!(c.category_of(item), CategoryId(cat));
                assert_eq!(item.0 % c.per_category(), rank);
            }
        }
    }

    #[test]
    fn category_ranges_are_contiguous_and_disjoint() {
        let c = Catalog::new(100, 4, 0.9);
        let mut seen = std::collections::HashSet::new();
        for cat in 0..4u16 {
            for rank in 0..25u32 {
                assert!(seen.insert(c.item_at(CategoryId(cat), rank)));
            }
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_division_panics() {
        let _ = Catalog::new(101, 10, 0.9);
    }

    #[test]
    fn sampled_songs_stay_in_category() {
        let c = Catalog::paper();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1_000 {
            let cat = c.sample_category(&mut rng);
            let song = c.sample_song(&mut rng, cat);
            assert_eq!(c.category_of(song), cat);
        }
    }

    #[test]
    fn popular_songs_sampled_more() {
        let c = Catalog::paper();
        let mut rng = SmallRng::seed_from_u64(2);
        let cat = CategoryId(3);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            let song = c.sample_song(&mut rng, cat);
            if song.0 % c.per_category() < 40 {
                head += 1;
            }
        }
        // With θ=0.9 over 4 000 ranks the top-1 % of ranks carries far more
        // than 1 % of the mass.
        assert!(head as f64 / n as f64 > 0.05, "head share {head}/{n}");
    }

    #[test]
    fn distinct_songs_unique_and_in_category() {
        let c = Catalog::paper();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut songs = [ItemId(0); 100];
        c.sample_distinct_songs(&mut rng, CategoryId(7), &mut Vec::new(), &mut songs);
        assert!(songs.windows(2).all(|w| w[0] < w[1]));
        for &s in &songs {
            assert_eq!(c.category_of(s), CategoryId(7));
        }
    }
}
