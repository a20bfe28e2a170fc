//! The link handshake's transitions (`ddr_core::runtime::link`): every
//! single step over a small state space, and three scripted handshakes
//! across several books delivered by hand, after which every pair of
//! views must agree.

use ddr_core::runtime::link::{Effect, LinkBook, Message};
use ddr_overlay::NeighborList;
use ddr_sim::{FastHashSet, NodeId};
use std::cell::Cell;

const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);
const C: NodeId = NodeId(2);
const D: NodeId = NodeId(3);

/// One node's columns, as a world keeps them.
#[derive(Clone)]
struct Node {
    view: NeighborList,
    reserved: u32,
    refused: FastHashSet<NodeId>,
    online: bool,
}

impl Node {
    fn new(capacity: usize, view: &[NodeId]) -> Self {
        let mut list = NeighborList::with_capacity(capacity);
        for &m in view {
            assert!(list.add(m));
        }
        Node {
            view: list,
            reserved: 0,
            refused: FastHashSet::default(),
            online: true,
        }
    }

    fn book(&mut self) -> LinkBook<'_> {
        LinkBook::new(&mut self.view, &mut self.reserved, &mut self.refused)
    }

    fn step(
        &mut self,
        message: Message,
        make_room: impl FnOnce(&[NodeId]) -> Option<NodeId>,
    ) -> Effect {
        let online = self.online;
        self.book().step(message, online, make_room)
    }
}

/// Every view `A` can hold over the ids `B` and `C`, in every order.
fn views(capacity: usize) -> Vec<Vec<NodeId>> {
    let all = vec![vec![], vec![B], vec![C], vec![B, C], vec![C, B]];
    all.into_iter().filter(|v| v.len() <= capacity).collect()
}

#[test]
fn every_single_step_keeps_the_book_consistent() {
    let (mut steps, mut consulted, mut evictions) = (0, 0, 0);
    // Capacity 2 is the paper-shaped case; at capacity 2 a full view of
    // A already holds both possible senders, so capacity 1 is what
    // reaches `make_room` and the eviction path.
    for capacity in [1, 2] {
        for view in views(capacity) {
            for reserved in 0..=2u32 {
                for refused in [vec![], vec![B], vec![C], vec![B, C]] {
                    for online in [false, true] {
                        let mut before = Node::new(capacity, &view);
                        before.reserved = reserved;
                        before.refused.extend(refused.iter().copied());
                        before.online = online;
                        for from in [B, C] {
                            for message in [
                                Message::Request { from },
                                Message::Answer {
                                    from,
                                    accepted: true,
                                },
                                Message::Answer {
                                    from,
                                    accepted: false,
                                },
                            ] {
                                for verdict in [None, Some(A), Some(B), Some(C)] {
                                    let asked = Cell::new(false);
                                    let mut after = before.clone();
                                    let effect = after.step(message, |incumbents| {
                                        assert_eq!(incumbents, before.view.as_slice());
                                        asked.set(true);
                                        verdict
                                    });
                                    let asked = asked.get();
                                    check_step(capacity, &before, &after, message, effect, asked);
                                    steps += 1;
                                    consulted += usize::from(asked);
                                    evictions += usize::from(matches!(
                                        effect,
                                        Effect::Linked { evicted: Some(_) }
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(steps, (3 + 5) * 3 * 4 * 2 * 2 * 3 * 4);
    assert!(consulted > 0 && evictions > 0, "{consulted} {evictions}");
}

fn check_step(
    capacity: usize,
    before: &Node,
    after: &Node,
    message: Message,
    effect: Effect,
    asked: bool,
) {
    let ctx = format!(
        "{:?} reserved {} refused {:?} online {} | {message:?} -> {effect:?}",
        before.view, before.reserved, before.refused, before.online
    );
    let view = after.view.as_slice();
    // Capacity, no self-link, no duplicate.
    assert!(view.len() <= capacity, "{ctx}");
    assert!(!view.contains(&A), "{ctx}");
    for (i, m) in view.iter().enumerate() {
        assert!(!view[..i].contains(m), "{ctx}");
    }
    let from = match message {
        Message::Request { from } | Message::Answer { from, .. } => from,
    };
    match message {
        Message::Request { .. } => {
            assert_eq!(after.reserved, before.reserved, "{ctx}");
            assert_ne!(effect, Effect::Unlink, "{ctx}");
            if before.refused.contains(&from) || !before.online {
                // A remembered sender is never admitted, and an offline
                // node does not hear.
                assert_eq!(effect, Effect::Refused, "{ctx}");
            }
        }
        Message::Answer { accepted, .. } => {
            // A reply releases exactly one reservation (none when none
            // is left: see ROADMAP item 6 on replies from an earlier
            // session).
            assert_eq!(after.reserved, before.reserved.saturating_sub(1), "{ctx}");
            assert_ne!(effect, Effect::Declined, "{ctx}");
            if !accepted {
                assert_eq!(effect, Effect::Refused, "{ctx}");
            } else if !view.contains(&from) {
                // A mirror that cannot hold the link repairs it.
                assert_eq!(effect, Effect::Unlink, "{ctx}");
            }
        }
    }
    if effect.accepted() {
        assert!(view.contains(&from), "{ctx}");
    }
    // `make_room` is asked only by a full, live view about a newcomer.
    if asked {
        assert!(
            before.view.is_full() && !before.view.contains(from),
            "{ctx}"
        );
        assert!(before.online, "{ctx}");
    }
    // The view changes exactly as the effect says, order kept.
    let mut expect: Vec<NodeId> = before.view.as_slice().to_vec();
    let mut refused = before.refused.clone();
    match effect {
        Effect::Linked { evicted } => {
            if let Some(v) = evicted {
                assert!(asked && expect.contains(&v), "{ctx}");
                expect.retain(|&m| m != v);
                if matches!(message, Message::Answer { .. }) {
                    // An opener remembers whom it swaps out.
                    refused.insert(v);
                }
            }
            assert!(!before.view.contains(from), "{ctx}");
            expect.push(from);
        }
        Effect::Kept => assert!(before.view.contains(from), "{ctx}"),
        Effect::Refused | Effect::Declined | Effect::Unlink => {}
    }
    assert_eq!(view, expect.as_slice(), "{ctx}");
    assert_eq!(after.refused, refused, "{ctx}");
}

/// What travels between books: a request, an answer, or a dropped link
/// (an eviction notice or an `Unlink`).
#[derive(Debug, Clone, Copy)]
enum Wire {
    Request {
        to: NodeId,
        from: NodeId,
    },
    Answer {
        to: NodeId,
        from: NodeId,
        accepted: bool,
    },
    Dropped {
        to: NodeId,
        from: NodeId,
    },
}

/// Deliver one message and return, in order, the messages its effect
/// sends. `make_room` stands in for every node's verdict.
fn deliver(
    nodes: &mut [Node],
    wire: Wire,
    make_room: fn(&[NodeId]) -> Option<NodeId>,
) -> Vec<Wire> {
    let (to, effect) = match wire {
        Wire::Dropped { to, from } => {
            nodes[to.index()].view.remove(from);
            return vec![];
        }
        Wire::Request { to, from } => (
            to,
            nodes[to.index()].step(Message::Request { from }, make_room),
        ),
        Wire::Answer { to, from, accepted } => (
            to,
            nodes[to.index()].step(Message::Answer { from, accepted }, make_room),
        ),
    };
    let mut sent = vec![];
    if let Effect::Linked { evicted: Some(v) } = effect {
        sent.push(Wire::Dropped { to: v, from: to });
    }
    match wire {
        Wire::Request { from, .. } => sent.push(Wire::Answer {
            to: from,
            from: to,
            accepted: effect.accepted(),
        }),
        Wire::Answer { from, .. } if effect == Effect::Unlink => {
            sent.push(Wire::Dropped { to: from, from: to })
        }
        _ => {}
    }
    sent
}

/// `from` opens a handshake with `to`.
fn open(nodes: &mut [Node], from: NodeId, to: NodeId) -> Wire {
    nodes[from.index()].book().open();
    Wire::Request { to, from }
}

/// Every link is held at both ends, and every reservation is released.
fn assert_agree(nodes: &[Node]) {
    for (i, n) in nodes.iter().enumerate() {
        let me = NodeId::from_index(i);
        assert_eq!(n.reserved, 0, "{me:?} still reserves a slot");
        for m in n.view.iter() {
            assert!(
                nodes[m.index()].view.contains(me),
                "{me:?} -> {m:?} is not mirrored"
            );
        }
    }
}

fn first(view: &[NodeId]) -> Option<NodeId> {
    view.first().copied()
}

fn none(_: &[NodeId]) -> Option<NodeId> {
    None
}

#[test]
fn an_accepted_fill_links_both_ends() {
    let mut nodes = vec![Node::new(2, &[]), Node::new(2, &[])];
    let request = open(&mut nodes, A, B);
    let [answer] = deliver(&mut nodes, request, none)[..] else {
        panic!("one answer");
    };
    assert!(deliver(&mut nodes, answer, none).is_empty());
    assert_eq!(nodes[A.index()].view.as_slice(), [B]);
    assert_eq!(nodes[B.index()].view.as_slice(), [A]);
    assert_agree(&nodes);
}

#[test]
fn an_invitation_to_a_full_node_evicts_its_weakest_neighbor() {
    // B is full with C and D; A invites it, and B's policy names C.
    let mut nodes = vec![
        Node::new(2, &[]),
        Node::new(2, &[C, D]),
        Node::new(2, &[B]),
        Node::new(2, &[B]),
    ];
    let invite = open(&mut nodes, A, B);
    let sent = deliver(&mut nodes, invite, first);
    assert!(
        matches!(
            sent[..],
            [
                Wire::Dropped { to: C, from: B },
                Wire::Answer {
                    to: A,
                    accepted: true,
                    ..
                }
            ]
        ),
        "{sent:?}"
    );
    for wire in sent {
        assert!(deliver(&mut nodes, wire, none).is_empty());
    }
    assert_eq!(nodes[B.index()].view.as_slice(), [D, A]);
    assert!(
        nodes[C.index()].view.is_empty(),
        "the victim dropped the link"
    );
    assert!(
        nodes[B.index()].refused.is_empty(),
        "a receiver does not remember"
    );
    assert_agree(&nodes);
}

#[test]
fn an_accepted_answer_to_an_opener_that_filled_meanwhile() {
    // A (capacity 1) asks B, and before B's yes arrives it admits C.
    for (make_room, kept) in [(none as fn(&[NodeId]) -> Option<NodeId>, C), (first, B)] {
        let mut nodes = vec![Node::new(1, &[]), Node::new(1, &[]), Node::new(1, &[])];
        let to_b = open(&mut nodes, A, B);
        let to_a = open(&mut nodes, C, A);
        let mut flight = deliver(&mut nodes, to_a, none);
        assert_eq!(nodes[A.index()].view.as_slice(), [C]);
        flight.extend(deliver(&mut nodes, to_b, none));
        // Deliver in send order until the overlay is quiet; the answer
        // from B finds A full, and A either repairs or swaps C out.
        while !flight.is_empty() {
            let wire = flight.remove(0);
            let verdict = if matches!(wire, Wire::Answer { to: A, .. }) {
                make_room
            } else {
                none
            };
            flight.extend(deliver(&mut nodes, wire, verdict));
        }
        assert_eq!(nodes[A.index()].view.as_slice(), [kept]);
        assert_eq!(nodes[A.index()].refused.contains(&C), kept == B);
        assert_agree(&nodes);
    }
}
