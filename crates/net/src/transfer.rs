//! Content-transfer (download) time model.
//!
//! The paper's search experiments only involve query/reply messages (delay
//! oracle in [`crate::latency`]); actual file downloads matter for the
//! benefit function's motivation ("a user will prefer to download a song
//! from a node with high bandwidth"). This model quantifies that: the
//! transfer time of a file is its size divided by the bottleneck link rate,
//! plus one one-way delay for the request. It backs the delay-aware
//! ablations (`ddr run ablations`).

use crate::bandwidth::BandwidthClass;
use ddr_sim::SimDuration;

/// Deterministic transfer-time model (no jitter; jitter belongs to the
/// delay oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferModel {
    /// Protocol overhead factor in percent (TCP/HTTP framing); 0 = ideal.
    pub overhead_pct: u8,
}

impl Default for TransferModel {
    fn default() -> Self {
        // ~12 % overhead is a common rule of thumb for TCP over lossy links.
        TransferModel { overhead_pct: 12 }
    }
}

impl TransferModel {
    /// An ideal model with no protocol overhead.
    pub const fn ideal() -> Self {
        TransferModel { overhead_pct: 0 }
    }

    /// Effective bottleneck rate for a pair, in bytes per second.
    pub fn bottleneck_bytes_per_sec(&self, a: BandwidthClass, b: BandwidthClass) -> f64 {
        let kbps = a.slower(b).kbps() as f64;
        let raw = kbps * 1_000.0 / 8.0;
        raw * (1.0 - self.overhead_pct as f64 / 100.0)
    }

    /// Time to move `bytes` from `from` to `to`.
    pub fn transfer_time(
        &self,
        bytes: u64,
        from: BandwidthClass,
        to: BandwidthClass,
    ) -> SimDuration {
        let rate = self.bottleneck_bytes_per_sec(from, to);
        SimDuration::from_secs_f64(bytes as f64 / rate)
    }
}

/// Typical MP3 size used by examples/ablations: ~4 MiB.
pub const TYPICAL_SONG_BYTES: u64 = 4 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_pair_transfers_faster() {
        let m = TransferModel::ideal();
        let slow = m.transfer_time(1_000_000, BandwidthClass::Modem56K, BandwidthClass::Lan);
        let fast = m.transfer_time(1_000_000, BandwidthClass::Lan, BandwidthClass::Lan);
        assert!(fast < slow);
    }

    #[test]
    fn ideal_modem_rate_is_7k_bytes_per_sec() {
        let m = TransferModel::ideal();
        let rate = m.bottleneck_bytes_per_sec(BandwidthClass::Modem56K, BandwidthClass::Modem56K);
        assert!((rate - 7_000.0).abs() < 1e-9);
        // 7 kB over a 56K link ideal = 1 s
        assert_eq!(
            m.transfer_time(7_000, BandwidthClass::Modem56K, BandwidthClass::Cable)
                .as_millis(),
            1_000
        );
    }

    #[test]
    fn overhead_slows_transfers() {
        let ideal = TransferModel::ideal();
        let real = TransferModel::default();
        let b = TYPICAL_SONG_BYTES;
        assert!(
            real.transfer_time(b, BandwidthClass::Cable, BandwidthClass::Cable)
                > ideal.transfer_time(b, BandwidthClass::Cable, BandwidthClass::Cable)
        );
    }

    #[test]
    fn zero_bytes_is_instant() {
        let m = TransferModel::default();
        assert_eq!(
            m.transfer_time(0, BandwidthClass::Lan, BandwidthClass::Lan),
            SimDuration::ZERO
        );
    }

    #[test]
    fn song_download_times_are_plausible() {
        // 4 MiB over ideal 56K ≈ 600 s; over LAN ≈ 3.4 s.
        let m = TransferModel::ideal();
        let modem = m
            .transfer_time(
                TYPICAL_SONG_BYTES,
                BandwidthClass::Modem56K,
                BandwidthClass::Lan,
            )
            .as_secs_f64();
        let lan = m
            .transfer_time(TYPICAL_SONG_BYTES, BandwidthClass::Lan, BandwidthClass::Lan)
            .as_secs_f64();
        assert!((550.0..650.0).contains(&modem), "modem: {modem}");
        assert!((3.0..4.0).contains(&lan), "lan: {lan}");
    }
}
