//! # ddr-harness — one driver loop for every framework instantiation
//!
//! The paper's thesis is that Search / Exploration / Update form a
//! *general* framework instantiated per repository type (§3, §5). This
//! crate is that claim applied to our own simulation stack: every case
//! study (Gnutella music sharing, cooperative web caches, PeerOlap) used
//! to hand-roll the same prime → run → report loop; now each one is a
//! [`Scenario`] implementation and the single generic driver
//! [`run`] / [`run_with`] owns the loop (queue sizing, in-place
//! priming, hour-by-hour advance to the horizon, outcome check, report
//! extraction). `run_with` takes *how to advance* (plain or probed) and
//! *what to do at each hour* (metrics sampling) as closures, so probing
//! and sampling compose instead of each needing a driver of its own.
//!
//! Adding a new instantiation therefore means writing a
//! [`ddr_sim::World`] plus a `Scenario` impl — not a fourth copy of the
//! driver. (Host-time measurement is not done here: `benchmark/` times
//! the same `Scenario` methods at the layer boundaries.)
//!
//! A sweep of such runs maps its configurations through
//! [`ddr_sim::map_chunked`], the one data-parallel map.

pub mod scenario;

pub use scenario::{run, run_with, Scenario};
