//! The data cube: chunk space, per-chunk processing costs, and the query
//! generator.
//!
//! Chunks are the unit of caching and exchange (PeerOlap decomposes each
//! OLAP query into chunks and "broadcasts the request for the chunks in a
//! similar fashion as Gnutella"). A query asks for a *run* of consecutive
//! chunks anchored at a Zipf-popular position in one cube region —
//! modelling range aggregations over adjacent cells.

use crate::config::PeerOlapConfig;
use ddr_sim::{ItemId, RngFactory, SimDuration};
use ddr_workload::{Exponential, Zipf};
use rand::rngs::SmallRng;
use rand::Rng;

/// Probability a query targets the peer's own region.
const REGION_AFFINITY: f64 = 0.7;
/// Zipf exponent of chunk popularity within a region.
const THETA: f64 = 0.9;
/// Longest chunk run one query asks for; a query's length is uniform on
/// `1..=MAX_QUERY_CHUNKS`, clamped to its region.
const MAX_QUERY_CHUNKS: usize = 16;

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

    /// Which region owns `chunk`.
    pub fn region_of(&self, chunk: ItemId) -> u32 {
        chunk.0 / self.chunks_per_region
    }
}

/// The shape of one generated query: a chunk run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryShape {
    /// The requested chunks (consecutive, within one region).
    pub chunks: Vec<ItemId>,
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

    /// Generate the next query.
    pub fn next_query(&mut self, space: &CubeSpace) -> QueryShape {
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
        let chunks = (start..start + len.min(space.chunks_per_region()))
            .map(|o| space.chunk(region, o))
            .collect();
        QueryShape { chunks }
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
            let shape = q.next_query(&s);
            assert!(!shape.chunks.is_empty());
            assert!(shape.chunks.len() <= MAX_QUERY_CHUNKS);
            let region = s.region_of(shape.chunks[0]);
            for &c in &shape.chunks {
                assert_eq!(s.region_of(c), region, "query crossed a region");
            }
            // consecutive run
            for w in shape.chunks.windows(2) {
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
            .filter(|_| s.region_of(q.next_query(&s).chunks[0]) == q.group())
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
            let shape = q.next_query(&space);
            assert!(shape.chunks.len() <= 8);
            let region = space.region_of(shape.chunks[0]);
            assert_eq!(space.region_of(*shape.chunks.last().unwrap()), region);
        }
        let _ = s;
    }
}
