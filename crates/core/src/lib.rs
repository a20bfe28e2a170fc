//! # ddr-core — the general framework for searching distributed data repositories
//!
//! This crate is the paper's primary contribution (Bakiras, Kalnis,
//! Loukopoulos & Ng, IPDPS 2003), implemented as a library of *policy
//! components* that case-study simulators compose:
//!
//! | Paper element | Module |
//! |---|---|
//! | §3.2 Search (Algo 1): forward-target selection, and the search strategy that sets the terminating condition (launch TTL, deepening waves, index radius) | [`search`] |
//! | §3.3 Exploration (Algo 2): a world that explores counts requests on its own [`ReconfigClock`]; what it probes is its own business | [`runtime`] |
//! | §3.4 Neighbor update (Algo 3, asymmetric): the plan, and its one enactment for the web-cache and PeerOlap worlds | [`update`], [`runtime::asymmetric`] |
//! | §3.4 Neighbor update (Algo 4, symmetric invitation/eviction): the plan and the invitation verdict, and the link handshake's transitions over a node's book | [`update`], [`runtime::link`] |
//! | Benefit: each case study defines its own (music `B/R` in `ddr-gnutella`, web-cache latency, OLAP processing time); the planners rank by the caller's `rank` closure over [`NodeStats`] | [`search`], [`update`] |
//! | Per-node statistics "for both the neighboring and the non-neighboring nodes that were encountered" | [`stats_store`] |
//! | "each node keeps a list of recent messages" (duplicate suppression) | [`dup_cache`] |
//! | §2 orthogonal techniques (Yang & Garcia-Molina): iterative deepening, directed BFT, local indices | [`search`], [`local_index`] |
//! | Framework runtime: node plumbing shared by every simulator (asymmetric-overlay chassis, per-node bundle, link handshake book, reconfig clock) | [`runtime`] |
//!
//! The components are **pure decision logic** — they never touch the event
//! queue. A simulator (see `ddr-gnutella`, `ddr-webcache`) owns message
//! delivery and timing, and calls into this crate to decide *where to
//! forward*, *when to stop*, *whom to invite* and *whom to evict*. That
//! split keeps the framework reusable across the paper's very different
//! instantiations (music sharing, web caching, P2P OLAP) and makes every
//! policy unit-testable without a simulation harness.

pub mod dup_cache;
pub mod local_index;
pub mod query;
pub mod runtime;
pub mod search;
pub mod stats_store;
pub mod summary;
pub mod update;

pub use dup_cache::DupCache;
pub use local_index::LocalIndex;
pub use query::QueryDescriptor;
pub use runtime::{AsymmetricOverlay, NodeRuntime, Port, ReconfigClock};
pub use search::{ForwardSelection, SearchStrategy};
pub use stats_store::{NodeStats, StatsStore};
pub use summary::CategorySummary;
pub use update::{InvitationPolicy, UpdatePlan};
