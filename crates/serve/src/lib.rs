//! # ddr-serve — the real-time backend for standalone-node fleets
//!
//! The discrete-event simulator answers "what would the paper's
//! protocol do over six virtual hours"; this crate answers "how many
//! queries per second does the same per-node state machine sustain on
//! this hardware". Both drive the identical
//! [`ddr_gnutella::GnutellaNode`] through the one engine port,
//! `ddr_core::runtime::Port` (`now` + `send`):
//!
//! * [`sim_backend`] — a single-threaded, deterministic driver over the
//!   calendar-queue DES (`EnvelopePort`). Pure function of
//!   `(config, seed)`; the sim/serve parity test pins the two backends
//!   against each other with it.
//! * [`bus`] — the production-shaped engine: nodes sharded across
//!   worker threads by `node_id % shards`, bounded channels between
//!   shards, a timing wheel of pending deliveries per shard (one FIFO
//!   list per millisecond), a wall-clock [`bus::WallClock`],
//!   and a self-pacing load generator injecting queries at a target
//!   rate. Reports queries/sec/core, hit rate and p50/p99 first-result
//!   latency; completed query spans go through `ddr-telemetry`'s
//!   `QueryTracer`, so `ddr inspect` reads serve traces exactly like
//!   sim traces.
//!
//! Wall-clock scheduling makes the bus non-deterministic (arrival
//! interleavings vary run to run); see EXPERIMENTS.md "Serve-backend
//! determinism" for what is and is not reproducible.

pub mod bus;
pub mod monitor;
pub mod sim_backend;
mod wheel;

pub use bus::{run_gnutella, run_gnutella_traced, ServeConfig, ServeReport, WallClock};
pub use monitor::MonitorShared;
pub use sim_backend::{run_deterministic, SimFleetReport};

/// Percentile over an unsorted sample set (nearest-rank); `None` when
/// empty. Shared by both backends' latency reporting.
pub(crate) fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
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
