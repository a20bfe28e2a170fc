//! Local indices (Yang & Garcia-Molina technique (iii), paper §2): "each
//! node maintains an index over the data of all peers within r hops of
//! itself, allowing each search to terminate after fewer hops".
//!
//! The index maps items to the nearby nodes advertising them, each with
//! the bandwidth class it advertised. A node holding a radius-`r` index
//! can answer "who within r hops has item X?" locally, so a query only
//! needs to be *forwarded* when the index misses.

use ddr_net::BandwidthClass;
use ddr_sim::{FastHashMap, ItemId, NodeId};

/// A radius-bounded content index for one node.
#[derive(Debug, Clone, Default)]
pub struct LocalIndex {
    /// item → nodes within `radius` hops that advertise it, with their
    /// advertised class (owner excluded).
    entries: FastHashMap<ItemId, Vec<(NodeId, BandwidthClass)>>,
    indexed_nodes: usize,
}

impl LocalIndex {
    /// Build the index for `owner` from the current overlay, reading
    /// adjacency through `neighbors_of` (each node owns its own neighbor
    /// view; there is no global topology to walk) and what each nearby
    /// node advertises — its bandwidth class and the items it shares —
    /// through `advert_of`.
    ///
    /// Rebuilding is the maintenance model: the paper's technique keeps
    /// indices fresh via update floods; in a simulator the equivalent is
    /// re-deriving from the advertisements at reconfiguration points,
    /// which over-approximates freshness but preserves the hop-saving
    /// behaviour being measured.
    pub fn build_from<'a, 'b, N, F, I>(
        owner: NodeId,
        neighbors_of: N,
        radius: usize,
        advert_of: F,
    ) -> Self
    where
        N: Fn(NodeId) -> &'b [NodeId],
        F: Fn(NodeId) -> (BandwidthClass, I),
        I: IntoIterator<Item = &'a ItemId>,
    {
        let mut entries: FastHashMap<ItemId, Vec<(NodeId, BandwidthClass)>> =
            ddr_sim::hash::fast_map();
        // Plain BFS to `radius` hops, owner excluded.
        let mut visited: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        visited.insert(owner);
        let mut frontier = vec![owner];
        let mut nearby: Vec<NodeId> = Vec::new();
        for _ in 0..radius {
            let mut next = Vec::new();
            for &n in &frontier {
                for &m in neighbors_of(n) {
                    if visited.insert(m) {
                        nearby.push(m);
                        next.push(m);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        for &node in &nearby {
            let (class, items) = advert_of(node);
            for &item in items {
                entries.entry(item).or_default().push((node, class));
            }
        }
        LocalIndex {
            entries,
            indexed_nodes: nearby.len(),
        }
    }

    /// Number of nodes covered.
    pub fn indexed_nodes(&self) -> usize {
        self.indexed_nodes
    }

    /// Number of distinct items indexed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Nearby holders of `item` with their advertised classes (empty
    /// slice when unknown).
    pub fn holders(&self, item: ItemId) -> &[(NodeId, BandwidthClass)] {
        self.entries.get(&item).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAN: BandwidthClass = BandwidthClass::Lan;

    /// Per-node advertised item lists.
    fn content(n: usize) -> Vec<Vec<ItemId>> {
        (0..n).map(|i| vec![ItemId(i as u32 * 10)]).collect()
    }

    /// Per-node views of the directed chain 0 → 1 → … → n-1.
    fn chain(n: usize) -> Vec<Vec<NodeId>> {
        let mut views: Vec<Vec<NodeId>> = (1..n).map(|next| vec![NodeId(next as u32)]).collect();
        views.push(Vec::new());
        views
    }

    #[test]
    fn indexes_items_within_radius_only() {
        let t = chain(5);
        let c = content(5);
        let idx = LocalIndex::build_from(
            NodeId(0),
            |n| &t[n.index()],
            2,
            |n| (LAN, c[n.index()].iter()),
        );
        assert_eq!(idx.indexed_nodes(), 2);
        // node1 (item 10) and node2 (item 20) covered; node3 (30) not
        assert_eq!(idx.holders(ItemId(10)), &[(NodeId(1), LAN)]);
        assert_eq!(idx.holders(ItemId(20)), &[(NodeId(2), LAN)]);
        assert!(idx.holders(ItemId(30)).is_empty());
        // the owner's own items are not in the index
        assert!(idx.holders(ItemId(0)).is_empty());
    }

    #[test]
    fn multiple_holders_listed() {
        let t = [vec![NodeId(1), NodeId(2)], vec![NodeId(0)], vec![NodeId(0)]];
        let shared = [vec![], vec![ItemId(7)], vec![ItemId(7)]];
        let idx = LocalIndex::build_from(
            NodeId(0),
            |n| &t[n.index()],
            1,
            |n| {
                let class = if n == NodeId(1) {
                    LAN
                } else {
                    BandwidthClass::Cable
                };
                (class, shared[n.index()].iter())
            },
        );
        let mut holders = idx.holders(ItemId(7)).to_vec();
        holders.sort_by_key(|&(n, _)| n);
        assert_eq!(
            holders,
            vec![(NodeId(1), LAN), (NodeId(2), BandwidthClass::Cable)]
        );
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn zero_radius_index_is_empty() {
        let t = chain(3);
        let c = content(3);
        let idx = LocalIndex::build_from(
            NodeId(0),
            |n| &t[n.index()],
            0,
            |n| (LAN, c[n.index()].iter()),
        );
        assert!(idx.is_empty());
        assert_eq!(idx.indexed_nodes(), 0);
    }
}
