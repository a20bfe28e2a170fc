//! The event alphabet of the Gnutella simulation.

use ddr_core::QueryDescriptor;
use ddr_net::BandwidthClass;
use ddr_sim::{EventLabel, NodeId, QueryId};

/// Everything that can happen in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GnutellaEvent {
    /// Churn toggle: the node flips online/offline (exactly one pending
    /// toggle exists per node at all times).
    Toggle { node: NodeId },
    /// The node's user issues their next query. `session` guards against
    /// stale events from a previous online session.
    IssueQuery { node: NodeId, session: u32 },
    /// An open-loop arrival (the serve bus's load generator): the node
    /// launches a query now, if online, and schedules no successor.
    OfferQuery { node: NodeId },
    /// A query message arrives at `to`, sent by `from`.
    QueryArrive {
        to: NodeId,
        from: NodeId,
        desc: QueryDescriptor,
    },
    /// A result reply reaches the query's initiator. Carries the
    /// responder's bandwidth class (the Ping-Pong information channel the
    /// paper's benefit function relies on): the class the initiator
    /// scores the result by, `B / R`, and records in its statistics.
    ReplyArrive {
        to: NodeId,
        from: NodeId,
        query: QueryId,
        bandwidth: BandwidthClass,
        /// Overlay distance (hops) from the initiator to the responder.
        hops: u8,
    },
    /// The initiator stops collecting results for `query` and finalises
    /// statistics/metrics.
    QueryFinalize { node: NodeId, query: QueryId },
    /// A neighborhood invitation (Algo 5) arrives at `to` from `from`.
    InviteArrive { to: NodeId, from: NodeId },
    /// The invitee's answer to an invitation travels back to the inviter.
    /// Releases the inviter's reserved slot; on `accepted` the inviter
    /// mirrors the link in its own neighbor view.
    InviteReply {
        to: NodeId,
        from: NodeId,
        accepted: bool,
    },
    /// An eviction notice (Algo 5) arrives at `to` from `from`: `to`
    /// drops `from` from its own neighbor view.
    EvictArrive { to: NodeId, from: NodeId },
    /// Symmetric-link handshake: `from` asks `to` to become a neighbor
    /// (join/rewire). The receiver commits first and answers `LinkAck`.
    LinkRequest { to: NodeId, from: NodeId },
    /// Answer to a `LinkRequest`. On `accepted` the requester mirrors the
    /// link; either way the requester's reserved slot is released.
    LinkAck {
        to: NodeId,
        from: NodeId,
        accepted: bool,
    },
    /// One side dropped the link (logoff, repair, refusal cleanup); the
    /// receiver removes `from` from its own neighbor view.
    Unlink { to: NodeId, from: NodeId },
    /// Iterative deepening: the collection window of `wave` for `query`
    /// at the initiating `node` has elapsed — finalise or relaunch deeper.
    WaveCheck {
        node: NodeId,
        query: QueryId,
        wave: u8,
    },
    /// Local indices: periodic rebuild of `node`'s radius-r index.
    /// `session` guards against stale events from earlier sessions.
    IndexRefresh { node: NodeId, session: u32 },
    /// Trial-relationship expiry (§3.4 solution a): `node` evaluates
    /// whether the provisionally-accepted `peer` earned its slot.
    TrialExpire {
        node: NodeId,
        peer: NodeId,
        session: u32,
    },
}

impl EventLabel for GnutellaEvent {
    fn label(&self) -> &'static str {
        match self {
            GnutellaEvent::Toggle { .. } => "Toggle",
            GnutellaEvent::IssueQuery { .. } => "IssueQuery",
            GnutellaEvent::OfferQuery { .. } => "OfferQuery",
            GnutellaEvent::QueryArrive { .. } => "QueryArrive",
            GnutellaEvent::ReplyArrive { .. } => "ReplyArrive",
            GnutellaEvent::QueryFinalize { .. } => "QueryFinalize",
            GnutellaEvent::InviteArrive { .. } => "InviteArrive",
            GnutellaEvent::InviteReply { .. } => "InviteReply",
            GnutellaEvent::EvictArrive { .. } => "EvictArrive",
            GnutellaEvent::LinkRequest { .. } => "LinkRequest",
            GnutellaEvent::LinkAck { .. } => "LinkAck",
            GnutellaEvent::Unlink { .. } => "Unlink",
            GnutellaEvent::WaveCheck { .. } => "WaveCheck",
            GnutellaEvent::IndexRefresh { .. } => "IndexRefresh",
            GnutellaEvent::TrialExpire { .. } => "TrialExpire",
        }
    }
}

impl GnutellaEvent {
    /// The node the event is addressed to — decides shard routing (in both
    /// the sharded kernel and the serve bus) and which node's state a
    /// handler may touch.
    pub fn target(&self) -> NodeId {
        match *self {
            GnutellaEvent::Toggle { node }
            | GnutellaEvent::IssueQuery { node, .. }
            | GnutellaEvent::OfferQuery { node }
            | GnutellaEvent::QueryFinalize { node, .. }
            | GnutellaEvent::WaveCheck { node, .. }
            | GnutellaEvent::IndexRefresh { node, .. }
            | GnutellaEvent::TrialExpire { node, .. } => node,
            GnutellaEvent::QueryArrive { to, .. }
            | GnutellaEvent::ReplyArrive { to, .. }
            | GnutellaEvent::InviteArrive { to, .. }
            | GnutellaEvent::InviteReply { to, .. }
            | GnutellaEvent::EvictArrive { to, .. }
            | GnutellaEvent::LinkRequest { to, .. }
            | GnutellaEvent::LinkAck { to, .. }
            | GnutellaEvent::Unlink { to, .. } => to,
        }
    }

    /// The node a message event was sent *by* — `None` for self events
    /// (timers, arrivals), which never cross a partition boundary. Used by
    /// the regional-partition gate in `dispatch`.
    pub(crate) fn source(&self) -> Option<NodeId> {
        match *self {
            GnutellaEvent::QueryArrive { from, .. }
            | GnutellaEvent::ReplyArrive { from, .. }
            | GnutellaEvent::InviteArrive { from, .. }
            | GnutellaEvent::InviteReply { from, .. }
            | GnutellaEvent::EvictArrive { from, .. }
            | GnutellaEvent::LinkRequest { from, .. }
            | GnutellaEvent::LinkAck { from, .. }
            | GnutellaEvent::Unlink { from, .. } => Some(from),
            GnutellaEvent::Toggle { .. }
            | GnutellaEvent::IssueQuery { .. }
            | GnutellaEvent::OfferQuery { .. }
            | GnutellaEvent::QueryFinalize { .. }
            | GnutellaEvent::WaveCheck { .. }
            | GnutellaEvent::IndexRefresh { .. }
            | GnutellaEvent::TrialExpire { .. } => None,
        }
    }
}
