//! A capacity-bounded, duplicate-free, insertion-ordered neighbor list.
//!
//! Degree bounds in the paper are tiny (Gnutella: 4 neighbors), so a flat
//! array with linear scans beats any hashed structure; insertion order is
//! preserved because eviction policies and tie-breaking want stable,
//! deterministic iteration.
//!
//! Storage is a small-buffer optimization: up to [`INLINE_NEIGHBORS`]
//! entries live inline in the struct (no heap allocation at all — at
//! million-node scale the two per-node lists used to cost two `Vec`
//! allocations each and a pointer chase per scan), spilling to a `Vec`
//! only for the rare wider lists (all-to-all test topologies).

use ddr_sim::NodeId;

/// Entries stored inline before spilling to the heap. Covers the paper's
/// degree bounds (4–5) with headroom; 8 ids is 32 bytes, the sweet spot
/// before the inline copy on `remove` starts to cost.
pub const INLINE_NEIGHBORS: usize = 8;

#[derive(Clone)]
enum Store {
    /// `len` live entries at the front of `buf`; the tail is garbage.
    Inline {
        buf: [NodeId; INLINE_NEIGHBORS],
        len: u8,
    },
    /// Lists that outgrew the inline buffer (they never shrink back:
    /// representation flapping would churn allocations for nothing).
    Spilled(Vec<NodeId>),
}

/// A bounded list of neighbor ids.
#[derive(Clone)]
pub struct NeighborList {
    store: Store,
    capacity: usize,
}

impl NeighborList {
    /// An empty list with the given capacity. Lists no wider than
    /// [`INLINE_NEIGHBORS`] never allocate.
    pub fn with_capacity(capacity: usize) -> Self {
        NeighborList {
            store: Store::Inline {
                buf: [NodeId(0); INLINE_NEIGHBORS],
                len: 0,
            },
            capacity,
        }
    }

    /// Current number of neighbors.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Inline { len, .. } => *len as usize,
            Store::Spilled(v) => v.len(),
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the list is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
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
        match &mut self.store {
            Store::Inline { buf, len } => {
                if (*len as usize) < INLINE_NEIGHBORS {
                    buf[*len as usize] = node;
                    *len += 1;
                } else {
                    // Outgrew the inline buffer: spill, preserving order.
                    let mut v = Vec::with_capacity(INLINE_NEIGHBORS * 2);
                    v.extend_from_slice(&buf[..]);
                    v.push(node);
                    self.store = Store::Spilled(v);
                }
            }
            Store::Spilled(v) => v.push(node),
        }
        true
    }

    /// Remove `node`; returns whether it was present. Order of the
    /// remaining entries is preserved (deterministic iteration matters for
    /// reproducibility).
    pub fn remove(&mut self, node: NodeId) -> bool {
        match &mut self.store {
            Store::Inline { buf, len } => {
                let n = *len as usize;
                match buf[..n].iter().position(|&x| x == node) {
                    Some(i) => {
                        buf.copy_within(i + 1..n, i);
                        *len -= 1;
                        true
                    }
                    None => false,
                }
            }
            Store::Spilled(v) => match v.iter().position(|&x| x == node) {
                Some(i) => {
                    v.remove(i);
                    true
                }
                None => false,
            },
        }
    }

    /// Remove and return all entries (e.g. when a node logs off).
    pub fn drain(&mut self) -> Vec<NodeId> {
        match &mut self.store {
            Store::Inline { buf, len } => {
                let out = buf[..*len as usize].to_vec();
                *len = 0;
                out
            }
            Store::Spilled(v) => std::mem::take(v),
        }
    }

    /// Iterate over neighbors in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.as_slice().iter().copied()
    }

    /// The neighbors as a slice (insertion order).
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        match &self.store {
            Store::Inline { buf, len } => &buf[..*len as usize],
            Store::Spilled(v) => v,
        }
    }
}

// Equality and Debug go through the logical contents: whether a list has
// spilled is a storage detail (two same-capacity lists can differ in
// representation after enough adds and removes).
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
        assert_eq!(out, vec![NodeId(5), NodeId(6)]);
        assert!(l.is_empty());
        assert!(!l.is_full());
    }

    /// The spill boundary: behaviour must be seamless crossing
    /// INLINE_NEIGHBORS in either direction.
    #[test]
    fn spill_preserves_order_and_semantics() {
        let cap = INLINE_NEIGHBORS * 3;
        let mut l = NeighborList::with_capacity(cap);
        for i in 0..cap as u32 {
            assert!(l.add(NodeId(i)));
        }
        assert_eq!(
            l.iter().collect::<Vec<_>>(),
            (0..cap as u32).map(NodeId).collect::<Vec<_>>()
        );
        assert!(!l.add(NodeId(0)));
        assert_eq!(l.len(), cap);
        // Shrink below the inline threshold again; order still holds.
        for i in 0..(cap as u32 - 2) {
            assert!(l.remove(NodeId(i)));
        }
        assert_eq!(
            l.iter().collect::<Vec<_>>(),
            vec![NodeId(cap as u32 - 2), NodeId(cap as u32 - 1)]
        );
    }

    /// Equality is logical, not representational: a spilled-then-shrunk
    /// list equals a never-spilled one with the same contents.
    #[test]
    fn equality_ignores_spill_state() {
        let cap = INLINE_NEIGHBORS + 4;
        let mut spilled = NeighborList::with_capacity(cap);
        for i in 0..(INLINE_NEIGHBORS as u32 + 1) {
            assert!(spilled.add(NodeId(i)));
        }
        for i in 2..(INLINE_NEIGHBORS as u32 + 1) {
            spilled.remove(NodeId(i));
        }
        let mut inline = NeighborList::with_capacity(cap);
        assert!(inline.add(NodeId(0)));
        assert!(inline.add(NodeId(1)));
        assert_eq!(spilled, inline);
        assert_eq!(format!("{spilled:?}"), format!("{inline:?}"));
    }
}
