//! Configuration of the PeerOlap-style scenario.

use crate::world::OUT_DEGREE;
use ddr_sim::SimDuration;
use ddr_telemetry::TelemetryConfig;

/// Static random neighborhoods vs framework-managed reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OlapMode {
    /// Fixed random outgoing neighbors.
    Static,
    /// Asymmetric neighbor updates driven by the processing-time benefit.
    Dynamic,
}

impl OlapMode {
    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            OlapMode::Static => "Static_PeerOlap",
            OlapMode::Dynamic => "Dynamic_PeerOlap",
        }
    }
}

/// All knobs of the PeerOlap simulation. What no caller varies — delays,
/// the P2P timeout, the hop limit, out-degree, in-capacity, affinity, Zipf
/// exponent, query length, update threshold — is a constant beside its use
/// in `world.rs` / `cube.rs` (DESIGN.md §5).
#[derive(Debug, Clone)]
pub struct PeerOlapConfig {
    /// Number of peers.
    pub peers: usize,
    /// Workload groups (peers in a group analyse the same cube region).
    pub groups: usize,
    /// Chunks per group region of the cube.
    pub chunks_per_region: u32,
    /// Chunk-cache capacity per peer.
    pub cache_capacity: usize,
    /// Mean inter-query time per peer.
    pub mean_query_interval: SimDuration,
    /// Simulated horizon.
    pub sim_hours: u64,
    /// Warm-up hours excluded from metrics.
    pub warmup_hours: u64,
    /// Root seed.
    pub seed: u64,
    /// Mode under test.
    pub mode: OlapMode,
    /// Trace output settings; consulted only by worlds built with an
    /// enabled sink (`PeerOlapWorld<JsonlSink>`).
    pub telemetry: TelemetryConfig,
}

impl PeerOlapConfig {
    /// Default scenario: 48 peers in 6 workload groups over a cube of
    /// 6 × 8 192 chunks; caches hold a quarter of a region.
    pub fn default_scenario(mode: OlapMode) -> Self {
        PeerOlapConfig {
            peers: 48,
            groups: 6,
            chunks_per_region: 8_192,
            cache_capacity: 2_048,
            mean_query_interval: SimDuration::from_millis(4_000),
            sim_hours: 8,
            warmup_hours: 1,
            seed: 0x01AF,
            mode,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Total chunks in the cube.
    pub fn total_chunks(&self) -> u32 {
        self.groups as u32 * self.chunks_per_region
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.peers == 0 || self.groups == 0 || self.peers < self.groups {
            return Err("need at least one peer per group".into());
        }
        if OUT_DEGREE >= self.peers {
            return Err("the out-degree must leave a non-neighbor".into());
        }
        if self.warmup_hours >= self.sim_hours {
            return Err("warmup must precede the horizon".into());
        }
        if self.chunks_per_region == 0 {
            return Err("regions must be non-empty".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        for mode in [OlapMode::Static, OlapMode::Dynamic] {
            let c = PeerOlapConfig::default_scenario(mode);
            assert!(c.validate().is_ok());
            assert_eq!(c.total_chunks(), 6 * 8_192);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(OlapMode::Static.label(), "Static_PeerOlap");
        assert_eq!(OlapMode::Dynamic.label(), "Dynamic_PeerOlap");
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = PeerOlapConfig::default_scenario(OlapMode::Static);
        (c.peers, c.groups) = (OUT_DEGREE, 1);
        let err = c.validate().expect_err("every peer is a neighbor");
        assert!(err.contains("non-neighbor"), "{err}");

        let mut c = PeerOlapConfig::default_scenario(OlapMode::Static);
        c.groups = 100;
        assert!(c.validate().is_err());
    }
}
