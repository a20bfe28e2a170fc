//! A capacity-bounded, duplicate-free, insertion-ordered neighbor list.
//!
//! Degree bounds in the paper are tiny (Gnutella: 4 neighbors), so a flat
//! array with linear scans beats any hashed structure; insertion order is
//! preserved because eviction policies and tie-breaking want stable,
//! deterministic iteration.
//!
//! Storage is inline only: up to [`INLINE_NEIGHBORS`] ids live in the
//! struct itself, so a list never allocates (at million-node scale the
//! per-node lists used to cost a `Vec` allocation each and a pointer
//! chase per scan). A wider capacity is refused at construction.

use ddr_sim::NodeId;

/// The widest list a [`NeighborList`] holds. Covers the paper's degree
/// bounds (4–5) with headroom; 8 ids is 32 bytes, the sweet spot before
/// the inline copy on `remove` starts to cost. Every world const-asserts
/// that its degree fits.
pub const INLINE_NEIGHBORS: usize = 8;

/// A bounded list of neighbor ids: `len` live entries at the front of
/// `buf` (the tail is garbage) and a capacity of at most
/// [`INLINE_NEIGHBORS`].
#[derive(Clone)]
pub struct NeighborList {
    buf: [NodeId; INLINE_NEIGHBORS],
    len: u8,
    capacity: u8,
}

impl NeighborList {
    /// An empty list with the given capacity.
    ///
    /// # Panics
    /// Panics if `capacity` exceeds [`INLINE_NEIGHBORS`].
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity <= INLINE_NEIGHBORS,
            "neighbor-list capacity {capacity} exceeds INLINE_NEIGHBORS ({INLINE_NEIGHBORS})"
        );
        NeighborList {
            buf: [NodeId(0); INLINE_NEIGHBORS],
            len: 0,
            capacity: capacity as u8,
        }
    }

    /// Current number of neighbors.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the list is at capacity.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Whether `node` is present.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.as_slice().contains(&node)
    }

    /// Add `node`; returns whether it was added (not if already present
    /// or at capacity).
    pub fn add(&mut self, node: NodeId) -> bool {
        if self.contains(node) || self.is_full() {
            return false;
        }
        self.buf[self.len()] = node;
        self.len += 1;
        true
    }

    /// Remove `node`; returns whether it was present. Order of the
    /// remaining entries is preserved (deterministic iteration matters for
    /// reproducibility).
    pub fn remove(&mut self, node: NodeId) -> bool {
        let n = self.len();
        match self.buf[..n].iter().position(|&x| x == node) {
            Some(i) => {
                self.buf.copy_within(i + 1..n, i);
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Empty the list and hand back its former contents, in order, as a
    /// list of the same capacity (e.g. when a node logs off). Allocates
    /// nothing.
    pub fn drain(&mut self) -> NeighborList {
        let former = self.clone();
        self.len = 0;
        former
    }

    /// Iterate over neighbors in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.as_slice().iter().copied()
    }

    /// The neighbors as a slice (insertion order).
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.buf[..self.len()]
    }
}

// Equality and Debug go through the logical contents: the tail of `buf`
// past `len` is whatever earlier removes left there.
impl PartialEq for NeighborList {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.as_slice() == other.as_slice()
    }
}
impl Eq for NeighborList {}

impl std::fmt::Debug for NeighborList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeighborList")
            .field("nodes", &self.as_slice())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<'a> IntoIterator for &'a NeighborList {
    type Item = NodeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, NodeId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_contains() {
        let mut l = NeighborList::with_capacity(4);
        assert!(l.add(NodeId(1)));
        assert!(l.contains(NodeId(1)));
        assert!(!l.contains(NodeId(2)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn rejects_duplicates() {
        let mut l = NeighborList::with_capacity(4);
        assert!(l.add(NodeId(1)));
        assert!(!l.add(NodeId(1)));
        assert!(l.contains(NodeId(1)) && !l.is_full());
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn rejects_beyond_capacity() {
        let mut l = NeighborList::with_capacity(2);
        assert!(l.add(NodeId(1)));
        assert!(l.add(NodeId(2)));
        assert!(l.is_full());
        assert!(!l.add(NodeId(3)));
        assert!(!l.contains(NodeId(3)));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn duplicate_reported_even_when_full() {
        let mut l = NeighborList::with_capacity(1);
        assert!(l.add(NodeId(1)));
        // refused, and the node IS a neighbor
        assert!(!l.add(NodeId(1)));
        assert!(l.contains(NodeId(1)) && l.is_full());
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn remove_preserves_order() {
        let mut l = NeighborList::with_capacity(4);
        for i in 1..=4 {
            assert!(l.add(NodeId(i)));
        }
        assert!(l.remove(NodeId(2)));
        assert!(!l.remove(NodeId(2)));
        let rest: Vec<_> = l.iter().collect();
        assert_eq!(rest, vec![NodeId(1), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn drain_empties() {
        let mut l = NeighborList::with_capacity(3);
        assert!(l.add(NodeId(5)));
        assert!(l.add(NodeId(6)));
        let out = l.drain();
        assert_eq!(out.as_slice(), [NodeId(5), NodeId(6)]);
        assert!(l.is_empty());
        assert!(!l.is_full());
    }
}
