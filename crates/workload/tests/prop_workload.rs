//! Property-based tests for workload generation invariants.

use ddr_sim::parallelism::MIN_CHUNK;
use ddr_sim::{ItemId, RngFactory};
use ddr_workload::{
    generate_profiles, generate_profiles_on, Catalog, CategoryId, TruncatedGaussian,
    WorkloadConfig, Zipf,
};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// The hash-set formulation `Zipf::sample_distinct` replaced, kept as the
/// executable model: ranks in draw order, and whether rejection stalled
/// into the lowest-unused-ranks fallback.
fn sample_distinct_model<R: Rng + ?Sized>(z: &Zipf, rng: &mut R, k: usize) -> (Vec<usize>, bool) {
    let mut chosen = HashSet::new();
    let mut out = Vec::with_capacity(k);
    let mut stall = 0usize;
    let mut fell_back = false;
    let stall_limit = 50 * k.max(8);
    while out.len() < k {
        let r = z.sample(rng);
        if chosen.insert(r) {
            out.push(r);
            stall = 0;
        } else {
            stall += 1;
            if stall > stall_limit {
                fell_back = true;
                for r in 0..z.len() {
                    if out.len() == k {
                        break;
                    }
                    if chosen.insert(r) {
                        out.push(r);
                    }
                }
            }
        }
    }
    (out, fell_back)
}

/// `generate_profiles` as it was before the libraries were drawn in
/// place: one hash-set draw per category, concatenated, then sorted.
fn libraries_by_sort(
    cfg: &WorkloadConfig,
    catalog: &Catalog,
    rngs: &RngFactory,
) -> Vec<Vec<ItemId>> {
    let (lo, hi) = cfg.library_bounds();
    let lib_dist = TruncatedGaussian::new(cfg.library_mean, cfg.library_std, lo, hi);
    let song_zipf = Zipf::new(catalog.per_category() as usize, cfg.theta);
    (0..cfg.users)
        .map(|i| {
            let mut rng = rngs.stream("profile", i as u64);
            let favorite = catalog.sample_category(&mut rng);
            let mut pool: Vec<u16> = (0..catalog.categories())
                .filter(|&c| c != favorite.0)
                .collect();
            pool.shuffle(&mut rng);
            pool.truncate(cfg.secondary_categories);
            let total = lib_dist
                .sample_count(&mut rng)
                .max(cfg.secondary_categories + 1);
            let favorite_count =
                ((total as f64 * cfg.favorite_fraction).round() as usize).min(total);
            let per_secondary = (total - favorite_count)
                .checked_div(pool.len())
                .unwrap_or(0);
            let runs = std::iter::once((favorite, favorite_count))
                .chain(pool.iter().map(|&c| (CategoryId(c), per_secondary)));
            let mut library = Vec::with_capacity(total);
            for (cat, count) in runs {
                let (ranks, _) = sample_distinct_model(&song_zipf, &mut rng, count);
                library.extend(ranks.into_iter().map(|r| catalog.item_at(cat, r as u32)));
            }
            library.sort_unstable();
            library
        })
        .collect()
}

/// Every library equals the sort-based formulation's, at paper density
/// (a library holds ≈ 2.5 % of a category), in a small catalog where
/// the favourite run takes half its category and rejection works hard,
/// and in a population that straddles chunk boundaries, at 1, 2 and 3
/// workers.
#[test]
fn libraries_equal_the_sort_based_formulation() {
    let paper = WorkloadConfig {
        users: 40,
        ..WorkloadConfig::paper()
    };
    let dense = WorkloadConfig {
        users: 40,
        songs: 10_000,
        ..WorkloadConfig::paper()
    };
    let straddle = WorkloadConfig {
        users: 2 * MIN_CHUNK + 3,
        ..WorkloadConfig::paper()
    };
    let seeds = [7, 51, 0xD15C0];
    for (cfg, seeds) in [
        (paper, &seeds[..]),
        (dense, &seeds[..]),
        (straddle, &seeds[..1]),
    ] {
        let catalog = Catalog::new(cfg.songs, cfg.categories, cfg.theta);
        for &seed in seeds {
            let rngs = RngFactory::new(seed);
            let expect = libraries_by_sort(&cfg, &catalog, &rngs);
            for workers in [1, 2, 3] {
                let got = generate_profiles_on(&cfg, &catalog, &rngs, workers);
                assert_eq!(got.len(), expect.len());
                for (p, want) in got.iter().zip(&expect) {
                    assert_eq!(
                        p.library(),
                        &want[..],
                        "seed {seed}, workers {workers}, user {}",
                        p.node
                    );
                }
            }
        }
    }
}

/// At θ = 4 rank 0 carries 92 % of the mass: drawing the whole domain
/// must go through the stall fallback, in the model and in the routine.
#[test]
fn distinct_draw_stall_fallback_matches_the_model() {
    let z = Zipf::new(64, 4.0);
    let mut model_rng = RngFactory::new(9).stream("zipf", 0);
    let mut rng = RngFactory::new(9).stream("zipf", 0);
    let (mut want, fell_back) = sample_distinct_model(&z, &mut model_rng, 64);
    assert!(fell_back, "the case is meant to stall");
    want.sort_unstable();
    let mut got = Vec::new();
    z.sample_distinct(&mut rng, 64, &mut Vec::new(), |r| got.push(r));
    assert_eq!(got, want);
    assert_eq!(rng.gen::<u64>(), model_rng.gen::<u64>());
}

proptest! {
    /// Zipf PMFs are positive, non-increasing in rank, and sum to 1.
    #[test]
    fn zipf_pmf_well_formed(n in 1usize..2_000, theta in 0.0f64..2.0) {
        let z = Zipf::new(n, theta);
        let mut total = 0.0;
        let mut prev = f64::INFINITY;
        for k in 0..n {
            let p = z.pmf(k);
            prop_assert!(p > 0.0);
            prop_assert!(p <= prev + 1e-12, "pmf increased at rank {k}");
            prev = p;
            total += p;
        }
        prop_assert!((total - 1.0).abs() < 1e-6, "pmf sums to {total}");
    }

    /// Samples always land in the domain.
    #[test]
    fn zipf_sampling_in_domain(n in 1usize..500, theta in 0.0f64..1.5, seed in any::<u64>()) {
        let z = Zipf::new(n, theta);
        let mut rng = RngFactory::new(seed).stream("zipf", 0);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// The bitset distinct draw against the hash-set model: the same rank
    /// set, emitted strictly ascending, from the same draws — the RNG is
    /// left in the same state — whatever the scratch held before, and
    /// through the stall fallback (θ = 4 with `k` near `n`).
    #[test]
    fn distinct_draw_matches_hash_set_model(
        n in 1usize..500,
        theta in prop_oneof![0.0f64..1.5, Just(4.0)],
        seed in any::<u64>(),
        k_frac in 0.0f64..1.1,
        stale in any::<u64>(),
    ) {
        let z = Zipf::new(n, theta);
        let k = ((n as f64 * k_frac) as usize).min(n);
        let mut model_rng = RngFactory::new(seed).stream("zipf", 0);
        let mut rng = RngFactory::new(seed).stream("zipf", 0);
        let (mut want, _) = sample_distinct_model(&z, &mut model_rng, k);
        want.sort_unstable();
        let mut marks = vec![stale; 3];
        let mut got = Vec::new();
        z.sample_distinct(&mut rng, k, &mut marks, |r| got.push(r));
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "not strictly ascending");
        prop_assert_eq!(got, want);
        prop_assert_eq!(rng.gen::<u64>(), model_rng.gen::<u64>());
    }

    /// Generated profiles always satisfy the structural invariants for
    /// any valid scaled configuration.
    #[test]
    fn profiles_structurally_valid(seed in any::<u64>(), users in 1usize..40) {
        let cfg = WorkloadConfig {
            users,
            songs: 50_000,
            categories: 50,
            ..WorkloadConfig::paper()
        };
        prop_assume!(cfg.validate().is_ok());
        let catalog = Catalog::new(cfg.songs, cfg.categories, cfg.theta);
        let rngs = RngFactory::new(seed);
        let profiles = generate_profiles(&cfg, &catalog, &rngs);
        prop_assert_eq!(profiles.len(), users);
        for p in &profiles {
            // library sorted, unique, non-empty
            prop_assert!(p.library_size() > 0);
            prop_assert!(p.library().windows(2).all(|w| w[0] < w[1]));
            // secondaries distinct and exclude the favourite
            prop_assert_eq!(p.secondary.len(), cfg.secondary_categories);
            prop_assert!(!p.secondary.contains(&p.favorite));
            // every song belongs to a declared category
            for &item in p.library() {
                let c = catalog.category_of(item);
                prop_assert!(c == p.favorite || p.secondary.contains(&c));
            }
        }
    }
}
