//! # ddr-serve — the real-time backend for Gnutella fleets
//!
//! The discrete-event simulator answers "what would the paper's
//! protocol do over six virtual hours"; this crate answers "how many
//! queries per second does the same protocol sustain on this hardware".
//! There is one protocol: [`bus`] runs [`ddr_gnutella::GnutellaWorld`]
//! slices — the handlers both simulation kernels run — through the one
//! engine port, `ddr_core::runtime::Port` (`now` + `send`): contiguous
//! node ranges on worker threads, bounded channels between shards, a
//! timing wheel of pending deliveries per shard (one FIFO list per
//! millisecond), a wall-clock [`bus::WallClock`], and a self-pacing load
//! generator offering queries at a target rate. It reports
//! queries/sec/core, hit rate and p50/p99 first-result latency; query
//! spans come from the slice's own `QueryTracer` on a one-shard traced
//! run, so `ddr inspect` reads serve traces exactly like sim traces.
//!
//! Wall-clock scheduling makes [`run_gnutella`] non-deterministic
//! (arrival interleavings vary run to run). [`run_deterministic`] steps
//! the same one-shard bus on a virtual millisecond clock instead, a pure
//! function of the config whose final `Metrics` equal the sharded
//! kernel's at one shard (`tests/parity.rs`). See
//! EXPERIMENTS.md "Serve-backend determinism".

pub mod bus;
mod monitor;
mod wheel;

pub use bus::{
    drain_deadline, run_deterministic, run_gnutella, run_gnutella_traced, ServeConfig, ServeReport,
    WallClock,
};

/// Percentile over an unsorted sample set (nearest-rank); `None` when
/// empty. The bus's first-result latency figures, on either clock.
pub(crate) fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize - 1;
    Some(samples[rank.min(samples.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_nearest_rank() {
        let mut s = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&mut s, 50.0), Some(20.0));
        assert_eq!(percentile(&mut s, 99.0), Some(40.0));
        assert_eq!(percentile([].as_mut_slice(), 50.0), None);
        let mut one = vec![7.0];
        assert_eq!(percentile(&mut one, 99.0), Some(7.0));
    }
}
