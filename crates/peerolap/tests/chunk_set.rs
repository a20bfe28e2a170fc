//! `ChunkSet` against the `Vec<ItemId>` bookkeeping it replaced, kept below
//! as a test-only reference model: one query's life at the initiator and
//! along its request paths — the local-cache filter, each peer's
//! have / missing split with narrowed forwarding, the fresh chunks of every
//! reply, and the warehouse's remainder — must give the same chunks in the
//! same order, the same counts and the same processing-time sums.

use ddr_peerolap::{chunk_processing_ms, ChunkSet};
use ddr_sim::ItemId;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A cache as the set of offsets (from the run's first chunk) it holds.
fn holds(cache: u16, first: ItemId, c: ItemId) -> bool {
    cache >> (c.0 - first.0) & 1 == 1
}

fn items(set: ChunkSet) -> Vec<ItemId> {
    set.iter().collect()
}

/// The reference: a chunk set as an ascending `Vec`.
mod reference {
    use super::*;

    /// The pending query as the initiator kept it: wanted chunks in
    /// order, and chunk → first supplier.
    pub struct Pending {
        pub wanted: Vec<ItemId>,
        pub acquired: HashMap<ItemId, usize>,
    }

    impl Pending {
        /// Credit a reply; returns `(fresh, saved_ms)`.
        pub fn reply(&mut self, from: usize, chunks: &[ItemId]) -> (u32, u64) {
            let (mut fresh, mut saved_ms) = (0, 0);
            for &c in chunks {
                if self.wanted.contains(&c) && !self.acquired.contains_key(&c) {
                    self.acquired.insert(c, from);
                    saved_ms += chunk_processing_ms(c);
                    fresh += 1;
                }
            }
            (fresh, saved_ms)
        }

        pub fn missing(&self) -> Vec<ItemId> {
            self.wanted
                .iter()
                .copied()
                .filter(|c| !self.acquired.contains_key(c))
                .collect()
        }
    }
}

/// A run of any length the mask holds, the initiator's cache, and request
/// paths: each path is the caches of the peers a request visits in turn,
/// each forwarding only what it lacks.
fn scenario() -> impl Strategy<Value = (u32, u32, u16, Vec<Vec<u16>>)> {
    (
        0u32..1_000_000,
        1..=u16::BITS,
        any::<u16>(),
        proptest::collection::vec(proptest::collection::vec(any::<u16>(), 1..4), 0..6),
    )
}

proptest! {
    #[test]
    fn chunk_set_matches_the_vec_model((first, len, local, paths) in scenario()) {
        let first = ItemId(first);
        let query = ChunkSet::run(first, len);
        let run: Vec<ItemId> = (first.0..first.0 + len).map(ItemId).collect();
        prop_assert_eq!(items(query), run.clone());

        // Local phase: the filter asks in ascending order.
        let mut asked = Vec::new();
        let wanted = query.filter(|c| {
            asked.push(c);
            !holds(local, first, c)
        });
        prop_assert_eq!(&asked, &run);
        let mut model = reference::Pending {
            wanted: run.iter().copied().filter(|&c| !holds(local, first, c)).collect(),
            acquired: HashMap::new(),
        };
        prop_assert_eq!(items(wanted), model.wanted.clone());
        prop_assert_eq!(query.len() - wanted.len(), (run.len() - model.wanted.len()) as u32);

        // Requests narrow along each path; every holder replies.
        let mut acquired = ChunkSet { mask: 0, ..wanted };
        for (peer, path) in paths.iter().enumerate() {
            let (mut chunks, mut vec_chunks) = (wanted, model.wanted.clone());
            for &cache in path {
                let have = chunks.filter(|c| holds(cache, first, c));
                let missing = chunks - have;
                let (vec_have, vec_missing): (Vec<ItemId>, Vec<ItemId>) =
                    vec_chunks.into_iter().partition(|&c| holds(cache, first, c));
                prop_assert_eq!(items(have), vec_have.clone());
                prop_assert_eq!(items(missing), vec_missing.clone());

                let fresh = (have & wanted) - acquired;
                acquired = acquired | fresh;
                let (vec_fresh, vec_saved) = model.reply(peer, &vec_have);
                prop_assert_eq!(fresh.len(), vec_fresh);
                prop_assert_eq!(fresh.processing_ms(), vec_saved);

                chunks = missing;
                vec_chunks = vec_missing;
            }
        }
        let mut vec_acquired: Vec<ItemId> = model.acquired.keys().copied().collect();
        vec_acquired.sort_unstable();
        prop_assert_eq!(items(acquired), vec_acquired);

        // The warehouse computes the rest.
        let missing = wanted - acquired;
        let vec_missing = model.missing();
        prop_assert_eq!(items(missing), vec_missing.clone());
        prop_assert_eq!(missing.len(), vec_missing.len() as u32);
        prop_assert_eq!(
            missing.processing_ms(),
            vec_missing.iter().map(|&c| chunk_processing_ms(c)).sum::<u64>()
        );
        prop_assert_eq!(acquired.len(), model.acquired.len() as u32);
    }

    #[test]
    fn set_operators_are_the_set_algebra(first in 0u32..1_000_000, a in any::<u16>(), b in any::<u16>()) {
        let first = ItemId(first);
        let (x, y) = (ChunkSet { first, mask: a }, ChunkSet { first, mask: b });
        let (xs, ys): (HashSet<ItemId>, HashSet<ItemId>) = (x.iter().collect(), y.iter().collect());
        let sorted = |s: HashSet<ItemId>| {
            let mut v: Vec<ItemId> = s.into_iter().collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(items(x & y), sorted(xs.intersection(&ys).copied().collect()));
        prop_assert_eq!(items(x | y), sorted(xs.union(&ys).copied().collect()));
        prop_assert_eq!(items(x - y), sorted(xs.difference(&ys).copied().collect()));
        prop_assert_eq!(x.is_empty(), xs.is_empty());
        prop_assert_eq!(x.len() as usize, xs.len());
    }
}
