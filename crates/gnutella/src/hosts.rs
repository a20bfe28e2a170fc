//! Shard-local membership: per-node host caches.
//!
//! The original world consulted the global online set whenever a node
//! needed join/rewire candidates — a read of state another shard owns.
//! Real Gnutella nodes have no such oracle: they learn about other hosts
//! from the traffic that reaches them (Pong/QueryHit host caches) and from
//! a bootstrap host list. `HostCache` models exactly that: a small
//! fixed-capacity ring of recently-observed node ids, seeded with the
//! node's bootstrap neighbors and fed from observed protocol traffic
//! (query forwards, replies, invitations, link requests). Candidate
//! selection reads only this per-node state, so it is shard-local and
//! shard-count-invariant by construction.

use ddr_sim::NodeId;

/// Bounded ring of recently-seen hosts (most-recent overwrites oldest).
///
/// Capacity is deliberately small: the paper's overlay maintenance only
/// ever needs a handful of candidates at a time, and a small cache keeps
/// the per-node footprint at a few dozen bytes.
#[derive(Debug, Clone)]
pub struct HostCache {
    slots: Vec<NodeId>,
    /// Next write position (ring cursor).
    cursor: usize,
    capacity: usize,
}

/// Default cache capacity (entries).
pub const HOST_CACHE_CAPACITY: usize = 16;

impl HostCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        HostCache::with_capacity(HOST_CACHE_CAPACITY)
    }

    /// An empty cache holding up to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "host cache needs at least one slot");
        HostCache {
            slots: Vec::with_capacity(capacity),
            cursor: 0,
            capacity,
        }
    }

    /// Record an observed host. Duplicates are ignored (the cache is a
    /// set of recent hosts, not a traffic log); once full, the oldest
    /// entry is overwritten.
    pub fn note(&mut self, host: NodeId) {
        if self.slots.contains(&host) {
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(host);
        } else {
            self.slots[self.cursor] = host;
            self.cursor = (self.cursor + 1) % self.capacity;
        }
    }

    /// Number of cached hosts.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterate cached hosts (stable, deterministic order).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots.iter().copied()
    }

    /// Whether `host` is currently cached.
    pub fn contains(&self, host: NodeId) -> bool {
        self.slots.contains(&host)
    }

    /// Address of the slot buffer every [`HostCache::note`] scans, for
    /// software prefetching by event-loop drivers. Reads the header, so
    /// ask only once that line has been requested.
    #[inline]
    pub fn slots_addr(&self) -> *const u8 {
        self.slots.as_ptr().cast()
    }
}

impl Default for HostCache {
    fn default() -> Self {
        HostCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_dedup_and_preserve_order() {
        let mut c = HostCache::with_capacity(4);
        c.note(NodeId(3));
        c.note(NodeId(7));
        c.note(NodeId(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![NodeId(3), NodeId(7)]);
    }

    #[test]
    fn full_cache_overwrites_oldest() {
        let mut c = HostCache::with_capacity(2);
        c.note(NodeId(1));
        c.note(NodeId(2));
        c.note(NodeId(3)); // evicts NodeId(1)
        assert_eq!(c.len(), 2);
        assert!(!c.contains(NodeId(1)));
        assert!(c.contains(NodeId(2)));
        assert!(c.contains(NodeId(3)));
        c.note(NodeId(4)); // evicts NodeId(2)
        assert!(!c.contains(NodeId(2)));
        assert!(c.contains(NodeId(3)));
    }

    #[test]
    fn deterministic_iteration() {
        let mut a = HostCache::new();
        let mut b = HostCache::new();
        for i in [5u32, 9, 5, 2, 11] {
            a.note(NodeId(i));
            b.note(NodeId(i));
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }
}
