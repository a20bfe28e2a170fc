//! The data cube: chunk space, per-chunk processing costs, and the query
//! generator.
//!
//! Chunks are the unit of caching and exchange (PeerOlap decomposes each
//! OLAP query into chunks and "broadcasts the request for the chunks in a
//! similar fashion as Gnutella"). A query asks for a *run* of consecutive
//! chunks anchored at a Zipf-popular position in one cube region —
//! modelling range aggregations over adjacent cells. Every chunk set a
//! query's messages carry is a subset of that run, so it travels as one
//! [`ChunkSet`]: a `Copy` bit mask, no heap buffer.

use crate::config::PeerOlapConfig;
use ddr_sim::{ItemId, RngFactory, SimDuration};
use ddr_workload::{Exponential, Zipf};
use rand::rngs::SmallRng;
use rand::Rng;
use std::ops::{BitAnd, BitOr, Sub};

/// Probability a query targets the peer's own region.
const REGION_AFFINITY: f64 = 0.7;
/// Zipf exponent of chunk popularity within a region.
const THETA: f64 = 0.9;
/// Longest chunk run one query asks for; a query's length is uniform on
/// `1..=MAX_QUERY_CHUNKS`, clamped to its region.
const MAX_QUERY_CHUNKS: usize = 16;
// A query's run must fit `ChunkSet`'s mask.
const _: () = assert!(MAX_QUERY_CHUNKS <= u16::BITS as usize);

/// Warehouse processing time for one chunk, in milliseconds: a
/// deterministic pseudo-random value in `[50, 500)` derived from the
/// chunk id, so every component of the simulation agrees on costs
/// without a shared table.
pub fn chunk_processing_ms(chunk: ItemId) -> u64 {
    let mut s = chunk.0 as u64 ^ 0xA076_1D64_78BD_642F;
    50 + ddr_sim::rng::splitmix64(&mut s) % 450
}

/// Geometry of the chunk space.
#[derive(Debug, Clone)]
pub struct CubeSpace {
    chunks_per_region: u32,
    regions: u32,
    anchor_zipf: Zipf,
}

impl CubeSpace {
    /// Build from the scenario config.
    pub fn new(config: &PeerOlapConfig) -> Self {
        CubeSpace {
            chunks_per_region: config.chunks_per_region,
            regions: config.groups as u32,
            anchor_zipf: Zipf::new(config.chunks_per_region as usize, THETA),
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> u32 {
        self.regions
    }

    /// Chunks per region.
    pub fn chunks_per_region(&self) -> u32 {
        self.chunks_per_region
    }

    /// The chunk at `offset` within `region`.
    pub fn chunk(&self, region: u32, offset: u32) -> ItemId {
        debug_assert!(region < self.regions && offset < self.chunks_per_region);
        ItemId(region * self.chunks_per_region + offset)
    }
}

/// A set of chunks within one run of consecutive chunk ids: bit `k` of
/// `mask` stands for chunk `first + k`.
///
/// Every set derived from one query (what the initiator still wants, what a
/// peer holds, what travels on, what has arrived) keeps the query's
/// `first`, so the set operators are plain mask arithmetic; combining sets
/// of two different runs is a logic error (checked in debug builds).
/// Iteration is ascending, the order of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSet {
    /// The run's first chunk (bit 0).
    pub first: ItemId,
    /// Which chunks of the run are in the set.
    pub mask: u16,
}

impl ChunkSet {
    /// All `len` chunks from `first` on.
    pub fn run(first: ItemId, len: u32) -> Self {
        debug_assert!(
            len <= u16::BITS,
            "a run of {len} chunks does not fit the mask"
        );
        ChunkSet {
            first,
            mask: ((1u32 << len) - 1) as u16,
        }
    }

    /// Whether no chunk is in the set.
    pub fn is_empty(self) -> bool {
        self.mask == 0
    }

    /// Number of chunks in the set.
    pub fn len(self) -> u32 {
        self.mask.count_ones()
    }

    /// The chunks, in ascending order.
    pub fn iter(self) -> impl Iterator<Item = ItemId> {
        let mut mask = self.mask;
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let k = mask.trailing_zeros();
            mask &= mask - 1;
            Some(ItemId(self.first.0 + k))
        })
    }

    /// The chunks for which `keep` holds, asked in ascending order (so a
    /// `keep` with side effects, such as an LRU touch, sees the run's order).
    pub fn filter(self, mut keep: impl FnMut(ItemId) -> bool) -> Self {
        let mut mask = 0;
        for c in self.iter() {
            if keep(c) {
                mask |= 1 << (c.0 - self.first.0);
            }
        }
        ChunkSet { mask, ..self }
    }

    /// Total warehouse processing time of the set's chunks, in ms.
    pub fn processing_ms(self) -> u64 {
        self.iter().map(chunk_processing_ms).sum()
    }

    fn with_mask(self, other: Self, mask: u16) -> Self {
        debug_assert_eq!(self.first, other.first, "chunk sets of two runs");
        ChunkSet { mask, ..self }
    }
}

/// Intersection.
impl BitAnd for ChunkSet {
    type Output = ChunkSet;
    fn bitand(self, other: Self) -> Self {
        self.with_mask(other, self.mask & other.mask)
    }
}

/// Union.
impl BitOr for ChunkSet {
    type Output = ChunkSet;
    fn bitor(self, other: Self) -> Self {
        self.with_mask(other, self.mask | other.mask)
    }
}

/// Difference: the chunks of `self` not in `other`.
impl Sub for ChunkSet {
    type Output = ChunkSet;
    fn sub(self, other: Self) -> Self {
        self.with_mask(other, self.mask & !other.mask)
    }
}

/// Per-peer query stream.
#[derive(Debug)]
pub struct OlapQueryStream {
    group: u32,
    interval: Exponential,
    rng: SmallRng,
}

impl OlapQueryStream {
    /// Build the stream for `peer` (groups assigned round-robin).
    pub fn new(config: &PeerOlapConfig, rngs: &RngFactory, peer: usize) -> Self {
        OlapQueryStream {
            group: (peer % config.groups) as u32,
            interval: Exponential::from_mean(config.mean_query_interval.as_millis() as f64),
            rng: rngs.stream("peerolap.queries", peer as u64),
        }
    }

    /// This peer's workload group.
    pub fn group(&self) -> u32 {
        self.group
    }

    /// Time until this peer's next query.
    pub fn next_interval(&mut self) -> SimDuration {
        SimDuration::from_millis(self.interval.sample(&mut self.rng).max(1.0) as u64)
    }

    /// Generate the next query: a run of consecutive chunks within one
    /// region.
    pub fn next_query(&mut self, space: &CubeSpace) -> ChunkSet {
        let region = if self.rng.gen::<f64>() < REGION_AFFINITY || space.regions() == 1 {
            self.group
        } else {
            // uniform over the other regions
            let mut r = self.rng.gen_range(0..space.regions() - 1);
            if r >= self.group {
                r += 1;
            }
            r
        };
        let len = self.rng.gen_range(1..=MAX_QUERY_CHUNKS) as u32;
        let anchor = space.anchor_zipf.sample(&mut self.rng) as u32;
        let start = anchor.min(space.chunks_per_region().saturating_sub(len));
        ChunkSet::run(
            space.chunk(region, start),
            len.min(space.chunks_per_region()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OlapMode;

    fn setup() -> (PeerOlapConfig, CubeSpace, RngFactory) {
        let c = PeerOlapConfig::default_scenario(OlapMode::Dynamic);
        let s = CubeSpace::new(&c);
        (c, s, RngFactory::new(3))
    }

    #[test]
    fn processing_costs_deterministic_and_in_range() {
        for i in 0..10_000 {
            let ms = chunk_processing_ms(ItemId(i));
            assert!((50..500).contains(&ms), "cost {ms} out of range");
            assert_eq!(ms, chunk_processing_ms(ItemId(i)));
        }
        // ... and not constant
        let distinct: std::collections::HashSet<u64> =
            (0..100).map(|i| chunk_processing_ms(ItemId(i))).collect();
        assert!(distinct.len() > 10);
    }

    #[test]
    fn chunks_stay_in_their_region() {
        let (_, s, rngs) = setup();
        let mut q = OlapQueryStream::new(
            &PeerOlapConfig::default_scenario(OlapMode::Static),
            &rngs,
            5,
        );
        for _ in 0..2_000 {
            let query = q.next_query(&s);
            assert!(!query.is_empty());
            assert!(query.len() as usize <= MAX_QUERY_CHUNKS);
            let region = query.first.0 / s.chunks_per_region();
            for c in query.iter() {
                assert_eq!(c.0 / s.chunks_per_region(), region, "crossed a region");
            }
            // consecutive run from `first`
            let chunks: Vec<_> = query.iter().collect();
            assert_eq!(chunks[0], query.first);
            for w in chunks.windows(2) {
                assert_eq!(w[1].0, w[0].0 + 1);
            }
        }
    }

    #[test]
    fn affinity_controls_region_mix() {
        let (c, s, rngs) = setup();
        let mut q = OlapQueryStream::new(&c, &rngs, 0);
        let n = 10_000;
        let own = (0..n)
            .filter(|_| q.next_query(&s).first.0 / s.chunks_per_region() == q.group())
            .count();
        let frac = own as f64 / n as f64;
        assert!((0.66..0.74).contains(&frac), "own-region share {frac}");
    }

    #[test]
    fn query_runs_clamp_at_region_end() {
        let (c, s, rngs) = setup();
        // A region shorter than the longest run exercises the clamp.
        let mut small = c.clone();
        small.chunks_per_region = 8;
        let space = CubeSpace::new(&small);
        let mut q = OlapQueryStream::new(&small, &rngs, 1);
        for _ in 0..500 {
            let query = q.next_query(&space);
            assert!(query.len() <= 8);
            let region = query.first.0 / space.chunks_per_region();
            let last = query.iter().last().unwrap();
            assert_eq!(last.0 / space.chunks_per_region(), region);
        }
        let _ = s;
    }
}
