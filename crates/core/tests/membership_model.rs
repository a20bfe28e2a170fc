//! Model-based test for [`ddr_core::runtime::Membership`].
//!
//! The dense swap-remove set is checked operation-by-operation against a
//! `BTreeSet<u32>` reference model: every `add`/`remove`/`set` must
//! report the same state change the model reports, and `contains`/`len`
//! must agree after each step. The generator biases node ids into a
//! small universe so removals frequently hit the *last* slot of the
//! dense list — the aliasing case where `swap_remove` pops the element
//! it was about to reposition (a classic off-by-one in this data
//! structure; see `swap_remove_last_element_aliasing` in the unit
//! tests).

use ddr_core::runtime::Membership;
use ddr_sim::NodeId;
use proptest::prelude::*;
use std::collections::BTreeSet;

const UNIVERSE: u32 = 12;

/// Apply one scripted operation to both implementations and check that
/// they observe the same state transition.
fn apply(m: &mut Membership, model: &mut BTreeSet<u32>, op: u8, node: u32) -> Result<(), String> {
    let id = NodeId(node);
    match op {
        0 => {
            let got = m.add(id);
            let want = model.insert(node);
            if got != want {
                return Err(format!("add({node}): membership {got}, model {want}"));
            }
        }
        1 => {
            let got = m.remove(id);
            let want = model.remove(&node);
            if got != want {
                return Err(format!("remove({node}): membership {got}, model {want}"));
            }
        }
        _ => {
            let online = op.is_multiple_of(2); // ops 2/3 exercise both toggle directions
            let got = m.set(id, online);
            let want = if online {
                model.insert(node)
            } else {
                model.remove(&node)
            };
            if got != want {
                return Err(format!(
                    "set({node}, {online}): membership {got}, model {want}"
                ));
            }
        }
    }
    Ok(())
}

/// Full-state agreement: size, membership queries, iteration contents.
fn check_agreement(m: &Membership, model: &BTreeSet<u32>, universe: u32) -> Result<(), String> {
    if m.len() != model.len() {
        return Err(format!(
            "len: membership {}, model {}",
            m.len(),
            model.len()
        ));
    }
    if m.is_empty() != model.is_empty() {
        return Err("is_empty disagrees with model".into());
    }
    for n in 0..universe {
        if m.contains(NodeId(n)) != model.contains(&n) {
            return Err(format!("contains({n}) disagrees with model"));
        }
    }
    let mut listed: Vec<u32> = m.iter().map(|id| id.0).collect();
    listed.sort_unstable();
    let wanted: Vec<u32> = model.iter().copied().collect();
    if listed != wanted {
        return Err(format!("iter contents {listed:?} != model {wanted:?}"));
    }
    Ok(())
}

proptest! {
    /// Random op sequences starting from the empty set.
    #[test]
    fn membership_matches_btreeset_model(
        ops in proptest::collection::vec((0u8..4, 0u32..UNIVERSE), 1..96),
    ) {
        let mut m = Membership::new(UNIVERSE as usize);
        let mut model = BTreeSet::new();
        for (i, &(op, node)) in ops.iter().enumerate() {
            if let Err(e) = apply(&mut m, &mut model, op, node) {
                prop_assert!(false, "step {i} ({op},{node}): {e}\nhistory: {:?}", &ops[..=i]);
            }
            if let Err(e) = check_agreement(&m, &model, UNIVERSE) {
                prop_assert!(false, "after step {i} ({op},{node}): {e}\nhistory: {:?}", &ops[..=i]);
            }
        }
    }

    /// Same property starting from the fully-online set (the webcache /
    /// PeerOlap bootstrap), so early removals immediately exercise
    /// swap-remove repositioning against a full dense list.
    #[test]
    fn membership_matches_model_from_all_online(
        ops in proptest::collection::vec((0u8..4, 0u32..UNIVERSE), 1..96),
    ) {
        let mut m = Membership::all_online(UNIVERSE as usize);
        let mut model: BTreeSet<u32> = (0..UNIVERSE).collect();
        prop_assert!(check_agreement(&m, &model, UNIVERSE).is_ok(), "all_online bootstrap broken");
        for (i, &(op, node)) in ops.iter().enumerate() {
            if let Err(e) = apply(&mut m, &mut model, op, node) {
                prop_assert!(false, "step {i} ({op},{node}): {e}\nhistory: {:?}", &ops[..=i]);
            }
            if let Err(e) = check_agreement(&m, &model, UNIVERSE) {
                prop_assert!(false, "after step {i} ({op},{node}): {e}\nhistory: {:?}", &ops[..=i]);
            }
        }
    }
}

/// Deterministic script for the aliasing hazard: removing the node that
/// currently sits in the *last* dense slot must not corrupt the position
/// index of any other node. (A buggy swap-remove writes the popped
/// node's stale position back into `pos`.)
#[test]
fn scripted_last_slot_removals_stay_consistent() {
    let mut m = Membership::new(8);
    let mut model = BTreeSet::new();
    // Build 0..5, then repeatedly remove whatever is last in the dense
    // list, interleaved with re-adds.
    for n in 0..5u32 {
        apply(&mut m, &mut model, 0, n).unwrap();
    }
    for _ in 0..16 {
        let last = *m.as_slice().last().expect("non-empty by construction");
        apply(&mut m, &mut model, 1, last.0).unwrap();
        check_agreement(&m, &model, 8).unwrap();
        let refill = (last.0 + 3) % 8;
        apply(&mut m, &mut model, 0, refill).unwrap();
        check_agreement(&m, &model, 8).unwrap();
    }
}
