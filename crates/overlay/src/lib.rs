//! # ddr-overlay — neighbor-list structures and overlay topology
//!
//! Implements the paper's §3.1 "Neighbor Relations" machinery:
//!
//! * every repository keeps an **outgoing** list `L_o` (where it forwards
//!   its own requests) and an **incoming** list `L_i` (whom it accepts
//!   requests from), each a capacity-bounded [`NeighborList`];
//! * the network is **consistent** iff `u ∈ out(v) ⇒ v ∈ in(u)` — the
//!   invariant every [`Topology`] mutation helper preserves and
//!   [`Topology::check_consistency`] verifies;
//! * [`Topology`] keeps the global books of the two asymmetric regimes:
//!   **pure asymmetric** (unbounded incoming lists, so unilateral outgoing
//!   changes can never break consistency — the web-cache case) and
//!   **bounded asymmetric** (both lists bounded — PeerOlap). The
//!   **symmetric** regime (`L_o = L_i`, changes need pairwise agreement —
//!   the Gnutella case) has no global books: each Gnutella node keeps one
//!   `NeighborList` view and the endpoints agree by message
//!   (`ddr-gnutella`'s membership handshakes).

pub mod neighbors;
pub mod topology;

pub use neighbors::{NeighborList, INLINE_NEIGHBORS};
pub use topology::{ConsistencyError, Topology};
