//! # ddr-stats — metrics toolkit for the experiment harness
//!
//! The paper reports three kinds of measurements:
//!
//! * **hourly series** — "the total number of queries that were satisfied
//!   during each one-hour interval" (Figs 1–2) → [`BucketSeries`];
//! * **scalar summaries with dispersion** — "the average delay observed
//!   from the moment a query is issued … until the first result arrives"
//!   (Fig 3a) → [`RunningStats`] / [`Histogram`];
//! * **sweep tables** — total hits vs a parameter (Fig 3b) → [`Table`].
//!
//! Everything here is simulation-agnostic (no `ddr-sim` dependency): time
//! enters as a plain bucket index, so the same toolkit serves unit tests,
//! case studies and the bench harness. All types serialise with `serde`
//! for CSV/JSON export.

pub mod declare;
pub mod histogram;
pub mod load;
pub mod recorder;
pub mod series;
pub mod table;
pub mod window;

pub use declare::MetricField;
pub use histogram::{Histogram, RunningStats};
pub use load::{gini, top_share};
pub use recorder::RuntimeMetrics;
pub use series::BucketSeries;
pub use table::Table;
pub use window::{safe_ratio, MeasurementWindow};
