//! Request streams for the web-cache scenario.
//!
//! The page universe is laid out as `groups` disjoint regions of
//! `pages_per_group` pages each, followed by one global region. A proxy in
//! group `g` draws from region `g` with probability `GROUP_AFFINITY` and
//! from the global region otherwise, both Zipf-distributed — so proxies of
//! the same group develop overlapping cache contents, the overlap that
//! makes them beneficial neighbors for each other.

use crate::config::WebCacheConfig;
use ddr_sim::{ItemId, RngFactory, SimDuration};
use ddr_workload::{Exponential, Zipf};
use rand::rngs::SmallRng;
use rand::Rng;

/// Probability a request targets the proxy's group region (the rest
/// target the global region).
const GROUP_AFFINITY: f64 = 0.5;
/// Zipf exponent of page popularity in both regions.
const THETA: f64 = 0.9;

/// Page-universe geometry plus the shared popularity distributions.
#[derive(Debug, Clone)]
pub struct PageSpace {
    pages_per_group: u32,
    groups: u32,
    group_zipf: Zipf,
    global_zipf: Zipf,
}

impl PageSpace {
    /// Build from the scenario config.
    pub fn new(config: &WebCacheConfig) -> Self {
        PageSpace {
            pages_per_group: config.pages_per_group,
            groups: config.groups as u32,
            group_zipf: Zipf::new(config.pages_per_group as usize, THETA),
            global_zipf: Zipf::new(config.global_pages as usize, THETA),
        }
    }

    /// The page at `rank` within group `g`'s region.
    pub fn group_page(&self, g: u32, rank: u32) -> ItemId {
        debug_assert!(g < self.groups && rank < self.pages_per_group);
        ItemId(g * self.pages_per_group + rank)
    }

    /// The page at `rank` within the global region.
    pub fn global_page(&self, rank: u32) -> ItemId {
        ItemId(self.groups * self.pages_per_group + rank)
    }

    /// Which group region contains `page` (`None` for global pages).
    pub fn group_of(&self, page: ItemId) -> Option<u32> {
        let boundary = self.groups * self.pages_per_group;
        (page.0 < boundary).then(|| page.0 / self.pages_per_group)
    }
}

/// One proxy's request stream.
#[derive(Debug)]
pub struct RequestStream {
    group: u32,
    interval: Exponential,
    rng: SmallRng,
}

impl RequestStream {
    /// Build the stream for `proxy`, assigned to its group round-robin.
    pub fn new(config: &WebCacheConfig, rngs: &RngFactory, proxy: usize) -> Self {
        RequestStream {
            group: (proxy % config.groups) as u32,
            interval: Exponential::from_mean(config.mean_request_interval.as_millis() as f64),
            rng: rngs.stream("webcache.requests", proxy as u64),
        }
    }

    /// This proxy's interest group.
    pub fn group(&self) -> u32 {
        self.group
    }

    /// Time until this proxy's next request.
    pub fn next_interval(&mut self) -> SimDuration {
        SimDuration::from_millis(self.interval.sample(&mut self.rng).max(1.0) as u64)
    }

    /// The next requested page.
    pub fn next_page(&mut self, space: &PageSpace) -> ItemId {
        if self.rng.gen::<f64>() < GROUP_AFFINITY {
            let rank = space.group_zipf.sample(&mut self.rng) as u32;
            space.group_page(self.group, rank)
        } else {
            let rank = space.global_zipf.sample(&mut self.rng) as u32;
            space.global_page(rank)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheMode;

    fn setup() -> (WebCacheConfig, PageSpace, RngFactory) {
        let c = WebCacheConfig::default_scenario(CacheMode::Dynamic);
        let s = PageSpace::new(&c);
        (c, s, RngFactory::new(5))
    }

    #[test]
    fn page_regions_are_disjoint() {
        let (c, s, _) = setup();
        let g0 = s.group_page(0, c.pages_per_group - 1);
        let g1 = s.group_page(1, 0);
        assert_ne!(g0, g1);
        assert_eq!(s.group_of(g0), Some(0));
        assert_eq!(s.group_of(g1), Some(1));
        let glob = s.global_page(0);
        assert_eq!(s.group_of(glob), None);
        assert_eq!(glob.0, c.groups as u32 * c.pages_per_group);
    }

    #[test]
    fn groups_assigned_round_robin() {
        let (c, _, rngs) = setup();
        for p in 0..c.proxies {
            let stream = RequestStream::new(&c, &rngs, p);
            assert_eq!(stream.group(), (p % c.groups) as u32);
        }
    }

    #[test]
    fn affinity_mix_matches_the_constant() {
        let (c, s, rngs) = setup();
        let mut stream = RequestStream::new(&c, &rngs, 0);
        let n = 20_000;
        let own = (0..n)
            .filter(|_| s.group_of(stream.next_page(&s)) == Some(stream.group()))
            .count();
        let frac = own as f64 / n as f64;
        assert!((0.47..0.53).contains(&frac), "own-group share {frac}");
    }

    #[test]
    fn requests_never_target_other_groups() {
        let (c, s, rngs) = setup();
        let mut stream = RequestStream::new(&c, &rngs, 3);
        for _ in 0..5_000 {
            let page = stream.next_page(&s);
            match s.group_of(page) {
                None => {}
                Some(g) => assert_eq!(g, stream.group()),
            }
        }
    }

    #[test]
    fn intervals_positive_with_configured_mean() {
        let (c, _, rngs) = setup();
        let mut stream = RequestStream::new(&c, &rngs, 1);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| stream.next_interval().as_millis()).sum();
        let mean = sum as f64 / n as f64;
        let expect = c.mean_request_interval.as_millis() as f64;
        assert!((mean - expect).abs() / expect < 0.05, "mean {mean}");
    }
}
