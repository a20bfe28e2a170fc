//! Configuration of the cooperative web-cache scenario.

use crate::world::OUT_DEGREE;
use ddr_sim::SimDuration;
use ddr_telemetry::TelemetryConfig;

/// Static (random, fixed) vs dynamic (framework-managed) neighborhoods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Fixed random outgoing neighbors chosen at startup.
    Static,
    /// Exploration (Algo 2) + asymmetric neighbor update (Algo 3) with a
    /// latency-aware benefit function.
    Dynamic,
}

impl CacheMode {
    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            CacheMode::Static => "Static_Squid",
            CacheMode::Dynamic => "Dynamic_Squid",
        }
    }
}

/// All knobs of the web-cache simulation. What no caller varies — delays,
/// affinity, Zipf exponent, out-degree, probe fan-out, miss history,
/// update threshold, digest density — is a constant beside its use in
/// `world.rs` / `traffic.rs` (DESIGN.md §5).
#[derive(Debug, Clone)]
pub struct WebCacheConfig {
    /// Number of cooperating proxies.
    pub proxies: usize,
    /// Interest groups (proxies in a group share a hot page region).
    pub groups: usize,
    /// Distinct pages per group region.
    pub pages_per_group: u32,
    /// Distinct pages in the globally-popular region.
    pub global_pages: u32,
    /// LRU capacity per proxy, in pages.
    pub cache_capacity: usize,
    /// Mean inter-request time per proxy.
    pub mean_request_interval: SimDuration,
    /// Requests between exploration rounds (dynamic mode).
    pub explore_every: u32,
    /// Guide sibling queries with Bloom-filter cache digests (Squid's
    /// cache-digest mechanism, referenced in paper §1): on a local miss,
    /// only neighbors whose digest claims the page are queried.
    pub use_digests: bool,
    /// How often each proxy republishes its digest (staleness knob).
    pub digest_refresh: SimDuration,
    /// Simulated horizon.
    pub sim_hours: u64,
    /// Hours excluded from reported metrics (cache warm-up).
    pub warmup_hours: u64,
    /// Root seed.
    pub seed: u64,
    /// Mode under test.
    pub mode: CacheMode,
    /// Trace output settings; consulted only by worlds built with an
    /// enabled sink (`WebCacheWorld<JsonlSink>`).
    pub telemetry: TelemetryConfig,
}

impl WebCacheConfig {
    /// A default scenario sized so group structure matters: 64 proxies in
    /// 8 groups, caches hold 1/8 of a group region, origin ~8× more
    /// expensive than a sibling.
    pub fn default_scenario(mode: CacheMode) -> Self {
        WebCacheConfig {
            proxies: 64,
            groups: 8,
            pages_per_group: 20_000,
            global_pages: 20_000,
            cache_capacity: 2_500,
            mean_request_interval: SimDuration::from_millis(2_000),
            explore_every: 50,
            use_digests: false,
            digest_refresh: SimDuration::from_mins(10),
            sim_hours: 12,
            warmup_hours: 2,
            seed: 0x5A11D,
            mode,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.proxies == 0 || self.groups == 0 {
            return Err("proxies and groups must be positive".into());
        }
        if self.proxies < self.groups {
            return Err("need at least one proxy per group".into());
        }
        if OUT_DEGREE >= self.proxies {
            return Err("the out-degree must leave non-neighbors to explore".into());
        }
        if self.warmup_hours >= self.sim_hours {
            return Err("warmup must precede the horizon".into());
        }
        if self.pages_per_group == 0 || self.global_pages == 0 {
            return Err("page regions must be non-empty".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(WebCacheConfig::default_scenario(CacheMode::Dynamic)
            .validate()
            .is_ok());
    }

    #[test]
    fn labels() {
        assert_eq!(CacheMode::Static.label(), "Static_Squid");
        assert_eq!(CacheMode::Dynamic.label(), "Dynamic_Squid");
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = WebCacheConfig::default_scenario(CacheMode::Static);
        (c.proxies, c.groups) = (OUT_DEGREE, 1);
        let err = c.validate().expect_err("every proxy is a neighbor");
        assert!(err.contains("non-neighbor"), "{err}");
        let mut c = WebCacheConfig::default_scenario(CacheMode::Static);
        c.groups = 100;
        assert!(c.validate().is_err());
        let mut c = WebCacheConfig::default_scenario(CacheMode::Static);
        c.warmup_hours = 12;
        assert!(c.validate().is_err());
    }
}
