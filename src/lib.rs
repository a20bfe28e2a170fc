//! # ddr-repro — workspace façade
//!
//! Re-exports the public API of every crate in the reproduction of
//! *"A General Framework for Searching in Distributed Data Repositories"*
//! (Bakiras, Kalnis, Loukopoulos & Ng, IPDPS 2003), so examples and
//! downstream users can depend on one crate:
//!
//! ```
//! use ddr_repro::gnutella::{run_scenario, Mode, ScenarioConfig};
//!
//! let mut cfg = ScenarioConfig::scaled(Mode::Dynamic, 2, 20, 4);
//! cfg.seed = 1;
//! let report = run_scenario(cfg);
//! assert!(report.total_hits() >= 0.0);
//! ```
//!
//! Crate map (see DESIGN.md for the full inventory):
//!
//! * [`sim`] — deterministic discrete-event kernel
//! * [`net`] — bandwidth classes + latency model (paper §4.2)
//! * [`workload`] — Zipf catalogs, user libraries, churn, query streams
//! * [`overlay`] — the capacity-bounded per-node neighbor list
//! * [`core`] — **the framework**: search / exploration / neighbor-update
//!   policies (paper §3, Algos 1–4), plus the shared framework runtime
//!   (`runtime`: asymmetric-overlay chassis, per-node bundle, link
//!   handshake book, reconfiguration clock)
//! * [`gnutella`] — case study 1: static vs dynamic Gnutella (paper §4)
//! * [`webcache`] — case study 2: cooperative proxy caching (asymmetric)
//! * [`peerolap`] — case study 3: distributed OLAP-result caching
//! * [`stats`] — series/histograms/tables used by the harness, the
//!   `metrics!` declaration every metrics record is written with, and
//!   the shared `RuntimeMetrics` recorder all case studies embed, plus
//!   `MeasurementWindow`/`safe_ratio` (the windowed-report helpers)
//! * [`harness`] — the `Scenario` trait, the one prime → run → extract
//!   driver every case study runs through (`run` / `run_with`); sweeps
//!   of its runs map through [`sim::map_chunked`], the one data-parallel
//!   map
//! * [`telemetry`] — zero-cost-when-off observability: query-lifecycle
//!   span tracing (JSONL), kernel profiling, and the trace summarizer
//!   behind `ddr inspect`

pub use ddr_core as core;
pub use ddr_gnutella as gnutella;
pub use ddr_harness as harness;
pub use ddr_net as net;
pub use ddr_overlay as overlay;
pub use ddr_peerolap as peerolap;
pub use ddr_sim as sim;
pub use ddr_stats as stats;
pub use ddr_telemetry as telemetry;
pub use ddr_webcache as webcache;
pub use ddr_workload as workload;
