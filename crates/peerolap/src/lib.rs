//! # ddr-peerolap — case study 3: distributed OLAP-result caching
//!
//! The paper's third named instantiation (§2, §5): PeerOlap, "a P2P
//! system for data warehousing applications … a large distributed cache
//! for OLAP results", where "unlike Gnutella, PeerOlap employs a set of
//! heuristics in order to limit the number of peers that are accessed"
//! and "the dominating cost is the query processing time" (§3.4).
//!
//! This simulation exercises the framework pieces the other two case
//! studies do not:
//!
//! * **multi-item queries** — an OLAP query decomposes into a set of
//!   *chunks*; peers return the subset they cache, so results are
//!   partial and a query has many concurrent servers;
//! * **the bounded-incoming asymmetric regime** (§3.1's general
//!   asymmetric case): incoming lists have finite capacity, so adopting a
//!   new outgoing neighbor can be *refused* (the target's incoming list
//!   is full) — the contention the pure-asymmetric case studies never see;
//! * **a processing-time benefit**: a chunk served by a peer saves the
//!   warehouse's per-chunk computation, so the per-reply score is the
//!   total processing time saved (not result counts or bandwidth);
//! * **request narrowing** (the PeerOlap heuristic flavour): forwarded
//!   chunk requests carry only the chunks still missing at the forwarder,
//!   shrinking fan-out at every hop.
//!
//! The warehouse is always available (the "alternative repository" of
//! §3.2), so the search is limited — two hops — and the metric that
//! matters is how much computation the peer network absorbs.

pub mod config;
pub mod cube;
pub mod scenario;
pub mod world;

pub use config::{OlapMode, PeerOlapConfig};
pub use cube::{chunk_processing_ms, ChunkSet, CubeSpace};
pub use scenario::{run_peerolap, PeerOlapReport, PeerOlapScenario};
pub use world::PeerOlapWorld;
