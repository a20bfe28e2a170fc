//! The overlay topology: per-node outgoing/incoming lists plus mutation
//! helpers that preserve the consistency invariant of paper §3.1.

use crate::neighbors::{AddError, NeighborList};
use ddr_sim::NodeId;

/// A violation of `u ∈ out(v) ⇒ v ∈ in(u)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsistencyError {
    /// The node whose outgoing list references `target`.
    pub source: NodeId,
    /// The node missing the reciprocal incoming entry.
    pub target: NodeId,
}

/// Per-node link state.
#[derive(Debug, Clone)]
struct Links {
    out: NeighborList,
    inc: NeighborList,
}

/// The whole overlay: the books of the asymmetric regimes, where a node
/// rewrites its outgoing list on its own and the target's incoming list
/// follows.
///
/// ```
/// use ddr_overlay::Topology;
/// use ddr_sim::NodeId;
///
/// let mut t = Topology::new(4, 2, Some(1));
/// t.add_edge(NodeId(0), NodeId(1)).unwrap();
/// assert!(t.inc(NodeId(1)).contains(NodeId(0)), "the target's in-list follows");
/// assert!(t.add_edge(NodeId(2), NodeId(1)).is_err(), "node 1's in-list is full");
/// assert!(t.check_consistency().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Links>,
}

impl Topology {
    /// An edgeless overlay of `n` nodes with the given per-list capacities.
    /// `in_capacity` bounds the incoming lists (bounded asymmetric, the
    /// PeerOlap case); `None` leaves them unbounded (pure asymmetric, the
    /// web-cache case), so unilateral outgoing changes never fail on the
    /// target's side.
    pub fn new(n: usize, out_capacity: usize, in_capacity: Option<usize>) -> Self {
        let nodes = (0..n)
            .map(|_| Links {
                out: NeighborList::with_capacity(out_capacity),
                inc: in_capacity.map_or_else(NeighborList::unbounded, NeighborList::with_capacity),
            })
            .collect();
        Topology { nodes }
    }

    /// Outgoing neighbors of `node`.
    #[inline]
    pub fn out(&self, node: NodeId) -> &NeighborList {
        &self.nodes[node.index()].out
    }

    /// Incoming neighbors of `node`.
    #[inline]
    pub fn inc(&self, node: NodeId) -> &NeighborList {
        &self.nodes[node.index()].inc
    }

    /// Add a directed edge `from → to` (to joins from's outgoing list, from
    /// joins to's incoming list). Keeps the invariant by rolling back when
    /// the second half fails.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), AddError> {
        assert_ne!(from, to, "self-loops are not meaningful in the overlay");
        self.nodes[from.index()].out.add(to)?;
        if let Err(e) = self.nodes[to.index()].inc.add(from) {
            self.nodes[from.index()].out.remove(to);
            return Err(e);
        }
        Ok(())
    }

    /// Remove the directed edge `from → to`; returns whether it existed.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        let had = self.nodes[from.index()].out.remove(to);
        if had {
            let reciprocal = self.nodes[to.index()].inc.remove(from);
            debug_assert!(reciprocal, "inconsistent edge {from}->{to}");
        }
        had
    }

    /// Remove every link touching `node` (log-off), in both directions.
    pub fn isolate(&mut self, node: NodeId) {
        for n in self.nodes[node.index()].out.drain() {
            self.nodes[n.index()].inc.remove(node);
        }
        for n in self.nodes[node.index()].inc.drain() {
            self.nodes[n.index()].out.remove(node);
        }
    }

    /// Verify the consistency invariant across the whole overlay. Returns
    /// every violation.
    pub fn check_consistency(&self) -> Vec<ConsistencyError> {
        let mut errors = Vec::new();
        for (i, links) in self.nodes.iter().enumerate() {
            let v = NodeId::from_index(i);
            for u in links.out.iter() {
                if !self.nodes[u.index()].inc.contains(v) {
                    errors.push(ConsistencyError {
                        source: v,
                        target: u,
                    });
                }
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_edges_maintain_consistency() {
        let mut t = Topology::new(4, 2, Some(2));
        t.add_edge(NodeId(0), NodeId(1)).unwrap();
        t.add_edge(NodeId(0), NodeId(2)).unwrap();
        assert!(t.out(NodeId(0)).contains(NodeId(1)));
        assert!(t.inc(NodeId(1)).contains(NodeId(0)));
        assert!(t.check_consistency().is_empty());
        assert!(t.remove_edge(NodeId(0), NodeId(1)));
        assert!(!t.inc(NodeId(1)).contains(NodeId(0)));
        assert!(t.check_consistency().is_empty());
    }

    #[test]
    fn add_edge_rolls_back_when_target_full() {
        let mut t = Topology::new(4, 3, Some(1));
        t.add_edge(NodeId(1), NodeId(0)).unwrap();
        // node 0's incoming list is now full
        assert_eq!(t.add_edge(NodeId(2), NodeId(0)), Err(AddError::Full));
        assert!(!t.out(NodeId(2)).contains(NodeId(0)), "rollback failed");
        assert!(t.check_consistency().is_empty());
    }

    #[test]
    fn pure_asymmetric_incoming_never_fills() {
        let mut t = Topology::new(10, 2, None);
        for i in 1..10 {
            t.add_edge(NodeId(i), NodeId(0)).unwrap();
        }
        assert_eq!(t.inc(NodeId(0)).len(), 9);
        assert!(t.check_consistency().is_empty());
    }

    #[test]
    fn isolate_cleans_both_directions() {
        let mut t = Topology::new(5, 4, Some(4));
        t.add_edge(NodeId(0), NodeId(1)).unwrap();
        t.add_edge(NodeId(0), NodeId(2)).unwrap();
        t.add_edge(NodeId(3), NodeId(0)).unwrap();
        t.isolate(NodeId(0));
        assert!(t.out(NodeId(0)).is_empty() && t.inc(NodeId(0)).is_empty());
        for n in [NodeId(1), NodeId(2), NodeId(3)] {
            assert!(!t.out(n).contains(NodeId(0)));
            assert!(!t.inc(n).contains(NodeId(0)));
        }
        assert!(t.check_consistency().is_empty());
    }

    #[test]
    fn detects_manufactured_inconsistency() {
        let mut t = Topology::new(3, 2, Some(2));
        t.add_edge(NodeId(0), NodeId(1)).unwrap();
        // Sabotage: remove the incoming half directly.
        t.nodes[1].inc.remove(NodeId(0));
        let errs = t.check_consistency();
        assert_eq!(
            errs,
            vec![ConsistencyError {
                source: NodeId(0),
                target: NodeId(1)
            }]
        );
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut t = Topology::new(2, 4, None);
        let _ = t.add_edge(NodeId(0), NodeId(0));
    }
}
