//! # Framework runtime — the node plumbing every case study shares
//!
//! The paper presents search, exploration and neighbour update as
//! *reusable* modules, but a simulator also needs a lot of per-node
//! plumbing that is equally generic and was, before this layer existed,
//! re-implemented by hand in each case-study world:
//!
//! | Concern | Type | Replaces |
//! |---|---|---|
//! | Shared books of an asymmetric world: overlay + random bootstrap, in-degree counts, world RNG, delay-jitter streams, top-up, and the enactment of Algo 3 | [`AsymmetricOverlay`] | the webcache/peerolap `topology` / `rng` / `delays` fields and their hand-written `update_neighbors` |
//! | Per-node framework bundle (stats, dup-cache, reconfig clock) | [`NodeRuntime`] | ad-hoc `{stats, seen, requests_since_*}` fields on `PeerState` / `ProxyState` / `OlapPeer` |
//! | Algo 4's link handshake: a node's view, reservations and refusal memory as one borrowed book, and the transitions its fill requests and invitations share | [`LinkBook`] | the Gnutella handlers' direct edits of `neighbors` / `pending_invites` / `evicted`, twice over |
//! | Threshold-K request clock: the reconfiguration trigger with invitation damping, and the web cache's exploration trigger | [`ReconfigClock`] | bare `u32` counters compared against config in three places |
//!
//! The worlds keep their domain state (caches, pending queries, workload
//! generators) and compose it with a [`NodeRuntime`]. Framework-level
//! events (a query issued, a remote hit, messages sent, a
//! reconfiguration executed) are recorded by writing the shared
//! [`ddr_stats::RuntimeMetrics`] recorder's fields directly. The
//! recorder, like each world's own record, is declared once with
//! [`ddr_stats::metrics!`]: a field's declaration is the one place its
//! counter is named for the metrics timeline, so every world's timeline
//! carries the same six framework counters.
//!
//! A second split sits *under* the worlds: [`port`] defines the
//! engine/node boundary — one trait, [`Port`], `now` + `send`. Every
//! world's handlers are written against it, so Gnutella's run unchanged
//! under both simulation kernels and the real-time `ddr-serve` bus.

pub mod asymmetric;
pub mod link;
pub mod node;
pub mod port;
pub mod reconfig;

pub use asymmetric::AsymmetricOverlay;
pub use link::LinkBook;
pub use node::NodeRuntime;
pub use port::Port;
pub use reconfig::ReconfigClock;
