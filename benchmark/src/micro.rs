//! Micro-operations timed around single public functions of the lower
//! layers. They do not depend on the workload — every traced run times
//! the same operations on inputs derived from the seed — so a layer that
//! got slower shows here even when its share of a whole world is small.

use crate::stats::median;
use crate::trace::Tracer;
use ddr_core::DupCache;
use ddr_sim::rng::splitmix64;
use ddr_sim::{EventQueue, ItemId, QueryId, RngFactory, SimDuration};
use ddr_webcache::{BloomFilter, LruCache};
use ddr_workload::{generate_profiles, Catalog, QueryGenerator, WorkloadConfig};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per micro-op; the median batch is reported.
const BATCHES: usize = 5;

/// Per-layer micro-op results, by metric name.
pub struct MicroOps {
    pub queue_hold_ns_d1k: f64,
    pub queue_hold_ns_d100k: f64,
    pub queue_overflow_share: f64,
    pub dup_cache_first_sighting_ns: f64,
    pub lru_touch_insert_ns: f64,
    pub digest_contains_ns: f64,
    pub next_target_ns: f64,
}

/// Median over [`BATCHES`] of the wall nanoseconds per operation of
/// `batch`, which performs `ops` operations per call.
fn ns_per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// The hold model's delay: 10–320 ms ahead, one draw in a hundred hours
/// ahead (the far tail that lands in the calendar queue's overflow heap).
fn hold_delay(state: &mut u64) -> SimDuration {
    let r = splitmix64(state);
    if r.is_multiple_of(100) {
        SimDuration::from_hours(1 + (r >> 8) % 6)
    } else {
        SimDuration::from_millis(10 + (r >> 8) % 311)
    }
}

/// Classic hold model on [`EventQueue`] at a steady `depth`: pop one,
/// schedule one. Returns `(ns per hold, overflow share of pending)`.
fn queue_hold(depth: usize, holds: usize, seed: u64) -> (f64, f64) {
    let mut state = seed ^ depth as u64;
    let mut queue: EventQueue<u32> = EventQueue::with_capacity(depth);
    for i in 0..depth {
        queue.schedule_in(hold_delay(&mut state), i as u32);
    }
    let ns = ns_per_op(holds, || {
        for _ in 0..holds {
            let (_, ev) = queue.pop().expect("hold model never drains");
            queue.schedule_in(hold_delay(&mut state), black_box(ev));
        }
    });
    (ns, queue.overflow_len() as f64 / queue.len() as f64)
}

/// `DupCache::first_sighting` on a 4,096-entry cache, one id in ten a
/// repeat of a recent one.
fn dup_cache_first_sighting(seed: u64) -> f64 {
    const OPS: usize = 1 << 20;
    let mut state = seed;
    let mut next_fresh = 0u64;
    let ids: Vec<QueryId> = (0..OPS)
        .map(|_| {
            let r = splitmix64(&mut state);
            if r.is_multiple_of(10) && next_fresh > 64 {
                QueryId(next_fresh - 1 - (r >> 8) % 64)
            } else {
                next_fresh += 1;
                QueryId(next_fresh - 1)
            }
        })
        .collect();
    let mut cache = DupCache::new(4_096);
    ns_per_op(OPS, || {
        let mut fresh = 0u64;
        for &id in &ids {
            fresh += cache.first_sighting(id) as u64;
        }
        black_box(fresh);
        cache.clear();
    })
}

/// `LruCache::touch`, then `insert` on a miss: the proxy's request path.
/// Pages are uniform over four times the capacity, so three in four miss.
fn lru_touch_insert(seed: u64) -> f64 {
    const OPS: usize = 1 << 20;
    const CAPACITY: usize = 2_500;
    let mut state = seed;
    let pages: Vec<ItemId> = (0..OPS)
        .map(|_| ItemId::from_index((splitmix64(&mut state) % (4 * CAPACITY as u64)) as usize))
        .collect();
    let mut cache = LruCache::new(CAPACITY);
    ns_per_op(OPS, || {
        for &page in &pages {
            if !cache.touch(page) {
                black_box(cache.insert(page));
            }
        }
    })
}

/// `BloomFilter::contains` on a digest of 2,500 pages at 10 bits each,
/// half the probes present.
fn digest_contains(seed: u64) -> f64 {
    const OPS: usize = 1 << 20;
    const ITEMS: usize = 2_500;
    let digest = BloomFilter::from_items((0..ITEMS).map(ItemId::from_index), ITEMS, 10);
    let mut state = seed;
    let probes: Vec<ItemId> = (0..OPS)
        .map(|_| ItemId::from_index((splitmix64(&mut state) % (2 * ITEMS as u64)) as usize))
        .collect();
    ns_per_op(OPS, || {
        let mut positives = 0u64;
        for &page in &probes {
            positives += digest.contains(page) as u64;
        }
        black_box(positives);
    })
}

/// `QueryGenerator::next_target` against the paper's catalog, cycling
/// over 64 user profiles.
fn next_target(seed: u64) -> f64 {
    const OPS: usize = 1 << 18;
    let workload = WorkloadConfig {
        users: 64,
        ..WorkloadConfig::paper()
    };
    let rngs = RngFactory::new(seed);
    let catalog = Catalog::new(workload.songs, workload.categories, workload.theta);
    let profiles = generate_profiles(&workload, &catalog, &rngs);
    let mut generators: Vec<QueryGenerator> = (0..workload.users as u64)
        .map(|u| QueryGenerator::new(&workload, &rngs, u))
        .collect();
    ns_per_op(OPS, || {
        for i in 0..OPS {
            let u = i % profiles.len();
            black_box(generators[u].next_target(&catalog, &profiles[u]));
        }
    })
}

/// Time every micro-op once, each under its own span.
pub fn run(seed: u64, tr: &mut Tracer) -> MicroOps {
    fn spanned<T>(tr: &mut Tracer, name: &str, op: impl FnOnce() -> T) -> T {
        let span = tr.begin(name);
        let out = op();
        tr.end(span);
        out
    }
    let (queue_hold_ns_d1k, _) = spanned(tr, "micro.queue_hold_d1k", || {
        queue_hold(1_000, 1 << 20, seed)
    });
    let (queue_hold_ns_d100k, queue_overflow_share) = spanned(tr, "micro.queue_hold_d100k", || {
        queue_hold(100_000, 1 << 20, seed)
    });
    MicroOps {
        queue_hold_ns_d1k,
        queue_hold_ns_d100k,
        queue_overflow_share,
        dup_cache_first_sighting_ns: spanned(tr, "micro.dup_cache_first_sighting", || {
            dup_cache_first_sighting(seed)
        }),
        lru_touch_insert_ns: spanned(tr, "micro.lru_touch_insert", || lru_touch_insert(seed)),
        digest_contains_ns: spanned(tr, "micro.digest_contains", || digest_contains(seed)),
        next_target_ns: spanned(tr, "micro.next_target", || next_target(seed)),
    }
}
