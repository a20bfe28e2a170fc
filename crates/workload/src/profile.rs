//! Per-user profiles: favourite/secondary categories and music libraries
//! (paper §4.2).
//!
//! "Each user has a favorite category (e.g., rock), and 50% of his songs
//! belong to this category. The other 50% of the songs are selected from 5
//! other random categories (with a 10% contribution from each category).
//! The selection of the individual songs is based on the popularity of the
//! song inside its category. … The assignment of users into categories is
//! also performed according to Zipf's law with parameter θ = 0.9."

use crate::catalog::{Catalog, CategoryId};
use crate::config::WorkloadConfig;
use crate::dist::TruncatedGaussian;
use ddr_sim::parallelism::MIN_CHUNK;
use ddr_sim::{default_workers, map_chunked, ItemId, NodeId, RngFactory};
use rand::seq::SliceRandom;
use rand::Rng;

/// Cache-line blocks in the per-profile membership prefilter (see
/// [`UserProfile::has`]): 4 × 512 bits = 2048 bits total.
const FILTER_BLOCKS: usize = 4;
/// Bits per block (one 64-byte cache line).
const BLOCK_BITS: u64 = 512;

/// One 64-byte-aligned filter block. The alignment guarantees a probe
/// never straddles two cache lines: both hash bits of an item live in
/// the same block (a *blocked* Bloom filter), so a membership test
/// touches exactly one line of filter state.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct FilterBlock([u64; 8]);

/// Stream-free mixer for filter bit positions (splitmix64 finalizer over
/// the item id). Must stay a pure function of the item: the filter is
/// rebuilt from the library alone and never consumes generator state.
#[inline]
fn filter_mix(item: ItemId) -> u64 {
    let mut z = (item.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One user's static profile: preferences plus library contents.
#[derive(Debug, Clone)]
pub struct UserProfile {
    /// The user's id.
    pub node: NodeId,
    /// Favourite category (50 % of library and queries).
    pub favorite: CategoryId,
    /// The other categories this user draws from (10 % each).
    pub secondary: Vec<CategoryId>,
    /// Library contents, sorted by id for binary-search membership tests.
    library: Vec<ItemId>,
    /// Two-hash blocked Bloom prefilter over `library`. Almost every
    /// membership probe in a simulation is a miss (a ~200-song library
    /// against a 200 000-song catalog), and the filter answers those
    /// definitively without walking the binary search's cache-missy
    /// probe sequence — touching a single cache line, since both hash
    /// bits of an item fall in one 64-byte block. False positives (~3 %
    /// at ~50 entries per 512-bit block) fall through to the exact
    /// search, so `has` is bit-for-bit unchanged.
    filter: [FilterBlock; FILTER_BLOCKS],
}

impl UserProfile {
    /// Build a profile, deriving the prefilter from the (sorted) library.
    fn from_parts(
        node: NodeId,
        favorite: CategoryId,
        secondary: Vec<CategoryId>,
        library: Vec<ItemId>,
    ) -> Self {
        let mut filter = [FilterBlock::default(); FILTER_BLOCKS];
        for &item in &library {
            let h = filter_mix(item);
            let block = &mut filter[(h >> 60) as usize & (FILTER_BLOCKS - 1)];
            let b1 = h & (BLOCK_BITS - 1);
            let b2 = (h >> 32) & (BLOCK_BITS - 1);
            block.0[(b1 >> 6) as usize] |= 1 << (b1 & 63);
            block.0[(b2 >> 6) as usize] |= 1 << (b2 & 63);
        }
        UserProfile {
            node,
            favorite,
            secondary,
            library,
            filter,
        }
    }
    /// Number of songs in the library.
    pub fn library_size(&self) -> usize {
        self.library.len()
    }

    /// Whether the user stores `item` locally.
    #[inline]
    pub fn has(&self, item: ItemId) -> bool {
        // Blocked Bloom prefilter: a clear bit proves absence; only
        // (rare) positives pay for the exact binary search.
        let h = filter_mix(item);
        let block = &self.filter[(h >> 60) as usize & (FILTER_BLOCKS - 1)];
        let b1 = h & (BLOCK_BITS - 1);
        if block.0[(b1 >> 6) as usize] & (1 << (b1 & 63)) == 0 {
            return false;
        }
        let b2 = (h >> 32) & (BLOCK_BITS - 1);
        if block.0[(b2 >> 6) as usize] & (1 << (b2 & 63)) == 0 {
            return false;
        }
        self.library.binary_search(&item).is_ok()
    }

    /// Address of the filter cache line a [`UserProfile::has`] probe for
    /// `item` will touch, for software prefetching by event-loop drivers
    /// (the line is selected by a pure hash of the item, so it is known
    /// as soon as the query descriptor is, well before dispatch).
    #[inline]
    pub fn probe_addr(&self, item: ItemId) -> *const u8 {
        let h = filter_mix(item);
        let block = &self.filter[(h >> 60) as usize & (FILTER_BLOCKS - 1)];
        block as *const FilterBlock as *const u8
    }

    /// Library contents (sorted by id).
    pub fn library(&self) -> &[ItemId] {
        &self.library
    }

    /// Category sampled according to this user's preference mix: the
    /// favourite with probability `favorite_fraction`, otherwise uniform
    /// over the secondary categories ("the category in which a query falls
    /// matches the distribution of the user's preferences").
    pub fn sample_preferred_category<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        favorite_fraction: f64,
    ) -> CategoryId {
        if self.secondary.is_empty() || rng.gen::<f64>() < favorite_fraction {
            self.favorite
        } else {
            self.secondary[rng.gen_range(0..self.secondary.len())]
        }
    }
}

/// Generate all user profiles for a run on [`default_workers`] threads
/// (see [`generate_profiles_on`]).
pub fn generate_profiles(
    config: &WorkloadConfig,
    catalog: &Catalog,
    rngs: &RngFactory,
) -> Vec<UserProfile> {
    generate_profiles_on(config, catalog, rngs, default_workers())
}

/// Generate all user profiles for a run on at most `workers` threads, in
/// chunks of [`MIN_CHUNK`] users ([`map_chunked`]). Deterministic in `(config, rngs)`: each
/// user draws from its own `("profile", user)` stream and the per-chunk
/// scratch (the rank bitset and the category shuffle buffer) is
/// overwritten before every read, so the profiles are the same at any
/// worker count.
pub fn generate_profiles_on(
    config: &WorkloadConfig,
    catalog: &Catalog,
    rngs: &RngFactory,
    workers: usize,
) -> Vec<UserProfile> {
    config.validate().expect("invalid workload config");
    let (lo, hi) = config.library_bounds();
    let lib_dist = TruncatedGaussian::new(config.library_mean, config.library_std, lo, hi);

    // Per chunk: the rank bitset every distinct draw shares, and the
    // buffer the secondary categories are shuffled in.
    let scratch = || {
        (
            Vec::new(),
            Vec::with_capacity(catalog.categories() as usize),
        )
    };
    let users = config.users;
    map_chunked(users, workers, MIN_CHUNK, scratch, |(marks, pool), i| {
        let mut rng = rngs.stream("profile", i as u64);
        let favorite = catalog.sample_category(&mut rng);

        // 5 other *random* categories, distinct from the favourite and
        // from each other (uniform choice: the paper says "random", not
        // popularity-weighted).
        pool.clear();
        pool.extend((0..catalog.categories()).filter(|&c| c != favorite.0));
        pool.shuffle(&mut rng);
        let secondary: Vec<CategoryId> = pool
            .iter()
            .take(config.secondary_categories)
            .map(|&c| CategoryId(c))
            .collect();

        let total = lib_dist
            .sample_count(&mut rng)
            .max(config.secondary_categories + 1);
        let favorite_count =
            ((total as f64 * config.favorite_fraction).round() as usize).min(total);
        let per_secondary = if secondary.is_empty() {
            0
        } else {
            (total - favorite_count) / secondary.len()
        };

        // A category owns a contiguous id range and a run comes out
        // ascending, so the sorted library is the runs laid end to
        // end in category order: each run is drawn (favourite first,
        // as ever) straight into the place its category's rank among
        // the drawn ones gives it, and nothing is sorted.
        let mut library = vec![ItemId(0); favorite_count + per_secondary * secondary.len()];
        let runs = std::iter::once((favorite, favorite_count))
            .chain(secondary.iter().map(|&cat| (cat, per_secondary)));
        for (cat, count) in runs {
            let start = if favorite < cat { favorite_count } else { 0 }
                + per_secondary * secondary.iter().filter(|&&c| c < cat).count();
            let run = &mut library[start..start + count];
            catalog.sample_distinct_songs(&mut rng, cat, marks, run);
        }
        debug_assert!(library.windows(2).all(|w| w[0] < w[1]));

        UserProfile::from_parts(NodeId::from_index(i), favorite, secondary, library)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_setup() -> (WorkloadConfig, Catalog) {
        let cfg = WorkloadConfig {
            users: 100,
            songs: 10_000,
            categories: 50,
            ..WorkloadConfig::paper()
        };
        let cat = Catalog::new(cfg.songs, cfg.categories, cfg.theta);
        (cfg, cat)
    }

    #[test]
    fn profiles_are_deterministic() {
        let (cfg, cat) = small_setup();
        let rngs = RngFactory::new(77);
        let a = generate_profiles(&cfg, &cat, &rngs);
        let b = generate_profiles(&cfg, &cat, &rngs);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.favorite, pb.favorite);
            assert_eq!(pa.library(), pb.library());
        }
    }

    #[test]
    fn library_composition_follows_fractions() {
        let (cfg, cat) = small_setup();
        let rngs = RngFactory::new(1);
        let profiles = generate_profiles(&cfg, &cat, &rngs);
        for p in &profiles {
            let fav_count = p
                .library()
                .iter()
                .filter(|&&i| cat.category_of(i) == p.favorite)
                .count();
            let frac = fav_count as f64 / p.library_size() as f64;
            // 50 % ± rounding slack (integer division of the remainder)
            assert!(
                (0.40..=0.62).contains(&frac),
                "favourite fraction {frac} for {}",
                p.node
            );
            // all non-favourite songs belong to the declared secondaries
            for &i in p.library() {
                let c = cat.category_of(i);
                assert!(c == p.favorite || p.secondary.contains(&c));
            }
        }
    }

    #[test]
    fn library_sizes_cluster_around_mean() {
        let (cfg, cat) = small_setup();
        let rngs = RngFactory::new(2);
        let profiles = generate_profiles(&cfg, &cat, &rngs);
        let mean =
            profiles.iter().map(|p| p.library_size()).sum::<usize>() as f64 / profiles.len() as f64;
        assert!((170.0..230.0).contains(&mean), "mean library size {mean}");
    }

    #[test]
    fn secondary_categories_distinct_and_exclude_favorite() {
        let (cfg, cat) = small_setup();
        let rngs = RngFactory::new(3);
        for p in generate_profiles(&cfg, &cat, &rngs) {
            assert_eq!(p.secondary.len(), cfg.secondary_categories);
            let set: std::collections::HashSet<_> = p.secondary.iter().collect();
            assert_eq!(set.len(), p.secondary.len());
            assert!(!p.secondary.contains(&p.favorite));
        }
    }

    #[test]
    fn membership_test_agrees_with_library() {
        let (cfg, cat) = small_setup();
        let rngs = RngFactory::new(4);
        let profiles = generate_profiles(&cfg, &cat, &rngs);
        let p = &profiles[0];
        for &item in p.library().iter().take(20) {
            assert!(p.has(item));
        }
        // An item from a category the user doesn't draw from is absent.
        let foreign = (0..cfg.categories)
            .map(CategoryId)
            .find(|c| *c != p.favorite && !p.secondary.contains(c))
            .unwrap();
        assert!(!p.has(cat.item_at(foreign, 0)));
    }

    #[test]
    fn preferred_category_mix_matches_fractions() {
        let (cfg, cat) = small_setup();
        let rngs = RngFactory::new(5);
        let profiles = generate_profiles(&cfg, &cat, &rngs);
        let p = &profiles[0];
        let mut rng = rngs.stream("test", 0);
        let n = 20_000;
        let fav = (0..n)
            .filter(|_| p.sample_preferred_category(&mut rng, 0.5) == p.favorite)
            .count();
        let frac = fav as f64 / n as f64;
        assert!((0.47..0.53).contains(&frac), "favourite query share {frac}");
    }

    #[test]
    fn paper_scale_totals_match_abstract_numbers() {
        // Full-scale generation: ~400k copies of 200k distinct songs.
        let cfg = WorkloadConfig::paper();
        let cat = Catalog::paper();
        let rngs = RngFactory::new(7);
        let profiles = generate_profiles(&cfg, &cat, &rngs);
        let copies: usize = profiles.iter().map(|p| p.library_size()).sum();
        assert!(
            (380_000..=420_000).contains(&copies),
            "total copies {copies} should be ≈ 400 000"
        );
    }
}
