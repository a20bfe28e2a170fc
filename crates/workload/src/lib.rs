//! # ddr-workload — synthetic workload for the music-sharing case study
//!
//! Implements the paper's synthetic dataset (§4.2) from scratch:
//!
//! * a search space of **200 000 distinct songs** equally divided into
//!   **50 categories** (music genres);
//! * **Zipf(θ = 0.9)** popularity of songs *within* each category, and
//!   Zipf(θ = 0.9) assignment of *users* to favourite categories;
//! * per-user libraries of **Gaussian(μ = 200, σ = 50)** songs, 50 % drawn
//!   from the favourite category and 10 % from each of 5 other random
//!   categories, selected by within-category popularity;
//! * **exponential(mean 3 h)** online/offline churn, giving ≈ half the
//!   population online in steady state;
//! * queries whose category follows the user's preference mix (50 %
//!   favourite) and whose song follows within-category popularity.
//!
//! Distribution samplers (Zipf via precomputed CDF + binary search,
//! truncated Gaussian via Box–Muller, exponential via inverse CDF) are
//! implemented locally — see DESIGN.md §6 for the dependency rationale.

pub mod catalog;
pub mod churn;
pub mod config;
pub mod dist;
pub mod profile;
pub mod query;

pub use catalog::{Catalog, CategoryId};
pub use churn::ChurnProcess;
pub use config::{ChurnModel, FlashCrowd, WorkloadConfig};
pub use dist::{Exponential, Pareto, TruncatedGaussian, Zipf};
pub use profile::{generate_profiles, generate_profiles_on, UserProfile};
pub use query::QueryGenerator;
