//! Algo 4's link handshake as pure transitions over one node's book.
//!
//! A symmetric link takes two messages: the opener reserves a slot and
//! sends a request, the receiver commits first and answers, and the
//! opener settles the answer in its own view. The fill request and the
//! invitation (Algo 5 `Process_Invitation`) share every rule of it but
//! one — what a full node does with a newcomer — which the caller gives
//! as the `make_room` verdict. A step edits only the book; liveness,
//! rankings, statistics, refill campaigns and the sends stay with the
//! caller, which enacts the returned [`Effect`].

use ddr_overlay::NeighborList;
use ddr_sim::{FastHashSet, NodeId};

/// One node's view, the slots it reserved for answers in flight, and the
/// refusal memory of peers it evicted, borrowed from wherever its world
/// keeps them.
pub struct LinkBook<'a> {
    view: &'a mut NeighborList,
    reserved: &'a mut u32,
    refused: &'a mut FastHashSet<NodeId>,
}

/// What reaches a book from a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// `from` asks to link: a fill request or an invitation.
    Request { from: NodeId },
    /// `from` answered a handshake this node opened.
    Answer { from: NodeId, accepted: bool },
}

/// What a step leaves the caller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// A request refused unheard (the node is offline or remembers the
    /// sender), or a refusing answer: answer a request no.
    Refused,
    /// A request heard but given no room: answer no.
    Declined,
    /// The sender already was a neighbor: answer a request yes.
    Kept,
    /// The sender took a slot: answer a request yes. `evicted` left the
    /// view to make room; its eviction notice goes out before the answer.
    Linked { evicted: Option<NodeId> },
    /// An accepted answer this node cannot hold (offline, or full with no
    /// room made): send the answerer an `Unlink`.
    Unlink,
}

impl Effect {
    /// Whether the answer to a request is yes.
    pub fn accepted(self) -> bool {
        matches!(self, Effect::Kept | Effect::Linked { .. })
    }
}

impl<'a> LinkBook<'a> {
    /// A book over a node's view, reservations and refusal memory.
    pub fn new(
        view: &'a mut NeighborList,
        reserved: &'a mut u32,
        refused: &'a mut FastHashSet<NodeId>,
    ) -> Self {
        LinkBook {
            view,
            reserved,
            refused,
        }
    }

    /// Reserve a slot for the answer to a handshake this node opens.
    pub fn open(&mut self) {
        *self.reserved += 1;
    }

    /// Slots free below `target` once reservations are counted.
    pub fn free(&self, target: usize) -> usize {
        target.saturating_sub(self.view.len() + *self.reserved as usize)
    }

    /// Whether this node may dial `peer`: not linked, and not evicted.
    pub fn may_dial(&self, peer: NodeId) -> bool {
        !self.view.contains(peer) && !self.refused.contains(&peer)
    }

    /// Drop `victim` from the view, remembering it when `remember`;
    /// returns whether the view held it. The caller sends the notice.
    pub fn evict(&mut self, victim: NodeId, remember: bool) -> bool {
        let held = self.view.remove(victim);
        if held && remember {
            self.refused.insert(victim);
        }
        held
    }

    /// Apply one message. An answer first releases one reservation.
    /// Reservations do not hold slots against requests: a reserved answer
    /// that finds the view full makes room or is repaired with an
    /// `Unlink`, so refusing eagerly would only starve the overlay. A
    /// full view evicts the incumbent `make_room` names, if any; an
    /// opener remembers whom it swaps out (its own plan judged it), a
    /// receiver does not.
    pub fn step(
        &mut self,
        message: Message,
        online: bool,
        make_room: impl FnOnce(&[NodeId]) -> Option<NodeId>,
    ) -> Effect {
        let (from, opener) = match message {
            Message::Request { from } if !online || self.refused.contains(&from) => {
                return Effect::Refused;
            }
            Message::Request { from } => (from, false),
            Message::Answer { from, accepted } => {
                *self.reserved = self.reserved.saturating_sub(1);
                match (accepted, online) {
                    (false, _) => return Effect::Refused,
                    (true, false) => return Effect::Unlink,
                    (true, true) => (from, true),
                }
            }
        };
        if self.view.contains(from) {
            return Effect::Kept;
        }
        if self.view.add(from) {
            return Effect::Linked { evicted: None };
        }
        match make_room(self.view.as_slice()) {
            Some(victim) if self.evict(victim, opener) => {
                let added = self.view.add(from);
                debug_assert!(added, "an eviction frees the slot");
                Effect::Linked {
                    evicted: Some(victim),
                }
            }
            _ if opener => Effect::Unlink,
            _ => Effect::Declined,
        }
    }
}
