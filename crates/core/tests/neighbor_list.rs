//! `ddr_overlay::NeighborList` against a `Vec<NodeId>` model: random add /
//! remove / contains / drain sequences at every capacity the inline
//! buffer holds, with return values, order and `is_full` compared after
//! every step; a wider capacity is refused; the struct's size is pinned.

use ddr_overlay::{NeighborList, INLINE_NEIGHBORS};
use ddr_sim::NodeId;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Add(u32),
    Remove(u32),
    Contains(u32),
    Drain,
}

/// Ids drawn from a range a little wider than the widest list, so adds
/// hit duplicates, full lists and fresh ids alike; adds are drawn twice
/// as often as the rest, so lists fill up between drains.
fn op() -> impl Strategy<Value = Op> {
    let id = 0u32..(INLINE_NEIGHBORS as u32 + 4);
    prop_oneof![
        id.clone().prop_map(Op::Add),
        id.clone().prop_map(Op::Add),
        id.clone().prop_map(Op::Remove),
        id.prop_map(Op::Contains),
        Just(Op::Drain),
    ]
}

/// Run `ops` on a list of `capacity` and on the model, comparing every
/// return value and the whole state after each step.
fn check_against_the_model(capacity: usize, ops: &[Op]) {
    let mut list = NeighborList::with_capacity(capacity);
    let mut model: Vec<NodeId> = Vec::new();
    for &op in ops {
        let at = |step: &str| format!("capacity {capacity}, {op:?}: {step}");
        match op {
            Op::Add(i) => {
                let n = NodeId(i);
                let fits = !model.contains(&n) && model.len() < capacity;
                if fits {
                    model.push(n);
                }
                assert_eq!(list.add(n), fits, "{}", at("add"));
            }
            Op::Remove(i) => {
                let n = NodeId(i);
                let found = model.iter().position(|&m| m == n);
                if let Some(k) = found {
                    model.remove(k);
                }
                assert_eq!(list.remove(n), found.is_some(), "{}", at("remove"));
            }
            Op::Contains(i) => {
                let n = NodeId(i);
                assert_eq!(list.contains(n), model.contains(&n), "{}", at("contains"));
            }
            Op::Drain => {
                let former = list.drain();
                assert_eq!(former.as_slice(), model.as_slice(), "{}", at("drained"));
                model.clear();
            }
        }
        assert_eq!(list.as_slice(), model.as_slice(), "{}", at("order"));
        assert!(list.iter().eq(model.iter().copied()), "{}", at("iter"));
        assert_eq!(list.len(), model.len(), "{}", at("len"));
        assert_eq!(list.is_empty(), model.is_empty(), "{}", at("is_empty"));
        assert_eq!(list.is_full(), model.len() == capacity, "{}", at("is_full"));
    }
}

proptest! {
    #[test]
    fn matches_a_vec_model_at_every_capacity(
        ops in proptest::collection::vec(op(), 0..80),
    ) {
        for capacity in 1..=INLINE_NEIGHBORS {
            check_against_the_model(capacity, &ops);
        }
    }
}

#[test]
#[should_panic(expected = "exceeds INLINE_NEIGHBORS")]
fn a_capacity_past_the_inline_buffer_is_refused() {
    NeighborList::with_capacity(INLINE_NEIGHBORS + 1);
}

/// Eight 4-byte ids, a length and a capacity byte, padded to the ids'
/// alignment: the spill representation took 48 bytes.
#[test]
fn the_list_is_its_inline_buffer() {
    assert_eq!(std::mem::size_of::<NeighborList>(), 36);
}
