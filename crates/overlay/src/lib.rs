//! # ddr-overlay — neighbor-list structures and overlay topology
//!
//! Implements the paper's §3.1 "Neighbor Relations" machinery:
//!
//! * every repository keeps an **outgoing** list `L_o` (where it forwards
//!   its own requests) and an **incoming** list `L_i` (whom it accepts
//!   requests from), both capacity-bounded;
//! * the network is **consistent** iff `u ∈ out(v) ⇒ v ∈ in(u)` — the
//!   invariant every mutation helper here preserves and
//!   [`Topology::check_consistency`] verifies;
//! * the regimes a world runs: **pure asymmetric** (incoming capacity = n,
//!   so unilateral outgoing changes can never break consistency — the
//!   web-cache case), **asymmetric** (both lists bounded — PeerOlap) and
//!   **symmetric** (`L_o = L_i`, changes need pairwise agreement — the
//!   Gnutella case).

pub mod neighbors;
pub mod relation;
pub mod topology;

pub use neighbors::{NeighborList, INLINE_NEIGHBORS};
pub use relation::RelationKind;
pub use topology::{ConsistencyError, Topology};
