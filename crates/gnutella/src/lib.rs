//! # ddr-gnutella — the paper's case study (§4): adaptive content-sharing
//!
//! A full discrete-event simulation of music sharing among Gnutella
//! end-users, in two modes:
//!
//! * **Static** (the baseline): neighbors are chosen uniformly at random at
//!   login and replaced randomly only when a neighbor logs off — vanilla
//!   Gnutella.
//! * **Dynamic** (the framework instantiation, Algo 5): every node keeps
//!   per-node statistics, scores each obtained result `B / R`, and every
//!   `reconfig_threshold` requests rebuilds its neighborhood from the most
//!   beneficial nodes via the symmetric invitation/eviction protocol.
//!
//! The simulation reproduces all of §4.1's design decisions: symmetric
//! relations, no directory information, combined search + exploration
//! (responders reply straight to the initiator and do not forward),
//! duplicate suppression via recent-message lists, always-accept
//! invitations with least-beneficial eviction, stats reset on eviction,
//! reconfiguration-counter resets to damp cascades, and log-off-triggered
//! updates.
//!
//! Entry point: [`scenario::run_scenario`] — a pure function of
//! [`config::ScenarioConfig`] (including the seed) returning a
//! [`metrics::RunReport`]. What the final overlay holds (each role's
//! degree, evictions and results served, the same-category link share)
//! is read once, by [`check_invariants`], into the [`Census`] it returns.
//! The `ddr-serve` bus runs the same [`GnutellaWorld`] slices under
//! wall-clock load; [`fleet`] is the shape it builds them from.

pub mod config;
pub mod events;
pub mod fleet;
pub mod hosts;
pub mod invariants;
mod membership;
pub mod metrics;
pub mod peer;
mod reconfigure;
pub mod scenario;
mod search;
pub mod sharded;
pub mod world;

pub use config::{Benefit, Mode, PartitionWindow, ScenarioConfig};
pub use fleet::{build_nodes, NodeSetConfig};
pub use hosts::HostCache;
pub use invariants::{check_invariants, Census, RoleCensus};
pub use metrics::{Metrics, RunReport};
pub use peer::QueryOutcome;
pub use scenario::{run_scenario, GnutellaScenario};
pub use sharded::{run_scenario_sharded, ShardedRun};
pub use world::GnutellaWorld;
