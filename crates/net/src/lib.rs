//! # ddr-net — network model for the distributed-repository simulations
//!
//! Implements the paper's network assumptions (§4.2):
//!
//! * Every node is connected through one of three **bandwidth classes** —
//!   56K modem, cable modem, or LAN — each equally likely.
//! * The **one-way delay** between two nodes is governed by the *slower*
//!   endpoint: mean 300 ms (modem), 150 ms (cable) or 70 ms (LAN), with a
//!   standard deviation of 20 ms, truncated to `mean ± 3σ` (the paper
//!   restricts values to an interval whose bounds the scanned text garbles;
//!   ±3σ keeps > 99.7 % of the mass and guarantees positivity — recorded as
//!   a substitution in DESIGN.md).
//! * Query replies carry the responder's bandwidth class, mirroring the
//!   Gnutella Ping-Pong protocol, which is what the paper's benefit
//!   function `B / R` consumes.
//!
//! The model is a *sampled delay oracle*, not a packet simulator: each
//! message transmission independently draws a delay for the (sender,
//! receiver) class pair. That matches the paper's level of abstraction —
//! it models end-to-end latency distributions, not queueing.

pub mod bandwidth;
pub mod latency;
pub mod model;

pub use bandwidth::{BandwidthClass, ClassMix};
pub use latency::{DelayModel, LatencyParams};
pub use model::{NetworkModel, NodeDelayStream};
