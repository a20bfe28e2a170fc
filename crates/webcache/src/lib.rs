//! # ddr-webcache — case study 2: cooperative web-proxy caching
//!
//! The paper's motivating *asymmetric* scenario (§1, §3.1): Squid-style
//! cooperative proxies. "When a local miss occurs at some proxy, the proxy
//! searches its neighbors for the missing page in order to avoid the delay
//! of fetching the page from the corresponding server." Relations are
//! **pure asymmetric** — a proxy picks whose caches it queries based
//! solely on its own criteria, and incoming lists accept everyone — so
//! neighbor updates are unilateral (Algo 3) and need no invitation
//! protocol.
//!
//! The instantiation exercises the framework pieces the Gnutella case
//! study does not:
//!
//! * **separate exploration** (Algo 2): every N requests, content probes
//!   against random non-neighbor proxies, whose summarized replies (overlap with
//!   the prober's recent misses) feed the statistics store;
//! * **asymmetric neighbor update** (Algo 3), planned by
//!   [`ddr_core::UpdatePlan::replan`] and enacted by the shared
//!   [`ddr_core::runtime::AsymmetricOverlay`];
//! * a **latency-aware benefit** ("the number of retrieved pages, combined
//!   with the end-to-end latency, is a good candidate for benefit, since
//!   page size plays little role");
//! * an alternative repository — the origin web server — which is why
//!   Squid-style search stops after 1 hop (§3.2).
//!
//! The workload is synthetic (no churn, evolving LRU cache contents):
//! proxies belong to interest groups; a request targets the group's page
//! region half of the time, a global region otherwise, both Zipf(0.9).
//! Grouped proxies therefore profit from finding each other — exactly the
//! clustering pressure dynamic reconfiguration is supposed to exploit.

pub mod config;
pub mod digest;
pub mod lru;
pub mod scenario;
pub mod traffic;
pub mod world;

pub use config::{CacheMode, WebCacheConfig};
pub use digest::BloomFilter;
pub use lru::LruCache;
pub use scenario::{run_webcache, WebCacheReport, WebCacheScenario};
pub use world::WebCacheWorld;
