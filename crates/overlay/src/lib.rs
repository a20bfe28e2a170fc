//! # ddr-overlay — the per-node neighbor list
//!
//! Implements the storage behind the paper's §3.1 "Neighbor Relations":
//! every repository keeps its neighbors in a capacity-bounded
//! [`NeighborList`], and each world holds one per node.
//!
//! * **Symmetric** (`L_o = L_i`, changes need pairwise agreement — the
//!   Gnutella case): one list per node, and the endpoints agree by
//!   message (`ddr-gnutella`'s membership handshakes).
//! * **Pure asymmetric** (the web-cache case) and **bounded asymmetric**
//!   (PeerOlap): one *outgoing* list per node, rewritten unilaterally
//!   (`ddr_core::runtime::AsymmetricOverlay`).
//!
//! The network is **consistent** iff `u ∈ out(v) ⇒ v ∈ in(u)`. No world
//! stores an incoming list, so this holds by construction: in(u) is
//! derived from the out-lists. The only incoming-side state is
//! PeerOlap's bound, which the chassis keeps as one in-degree count per
//! node.

pub mod neighbors;

pub use neighbors::{NeighborList, INLINE_NEIGHBORS};
