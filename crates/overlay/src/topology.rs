//! The overlay topology: per-node outgoing/incoming lists plus mutation
//! helpers that preserve the consistency invariant of paper §3.1.

use crate::neighbors::{AddError, NeighborList};
use crate::relation::RelationKind;
use ddr_sim::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

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

/// The whole overlay.
///
/// ```
/// use ddr_overlay::Topology;
/// use ddr_sim::NodeId;
///
/// let mut t = Topology::symmetric(4, 2);
/// t.link_symmetric(NodeId(0), NodeId(1)).unwrap();
/// assert!(t.out(NodeId(1)).contains(NodeId(0)), "symmetric links are mutual");
/// assert!(t.check_consistency().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Links>,
    relation: RelationKind,
}

impl Topology {
    /// An edgeless overlay of `n` nodes with the given per-list capacities.
    /// For [`RelationKind::PureAsymmetric`], `in_capacity` is ignored and
    /// incoming lists are unbounded.
    pub fn new(n: usize, relation: RelationKind, out_capacity: usize, in_capacity: usize) -> Self {
        let nodes = (0..n)
            .map(|_| Links {
                out: NeighborList::with_capacity(out_capacity),
                inc: if relation == RelationKind::PureAsymmetric {
                    NeighborList::unbounded()
                } else {
                    NeighborList::with_capacity(in_capacity)
                },
            })
            .collect();
        Topology { nodes, relation }
    }

    /// A symmetric overlay (Gnutella-style) with equal out/in capacity.
    pub fn symmetric(n: usize, degree: usize) -> Self {
        Topology::new(n, RelationKind::Symmetric, degree, degree)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the overlay has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
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

    /// Create a symmetric link `a ↔ b` (both out lists and both in lists).
    /// All four insertions succeed or none do.
    pub fn link_symmetric(&mut self, a: NodeId, b: NodeId) -> Result<(), AddError> {
        assert_ne!(a, b);
        // Check all four capacities up front so rollback is never partial.
        if self.nodes[a.index()].out.contains(b) {
            return Err(AddError::Duplicate);
        }
        if self.nodes[a.index()].out.is_full()
            || self.nodes[a.index()].inc.is_full()
            || self.nodes[b.index()].out.is_full()
            || self.nodes[b.index()].inc.is_full()
        {
            return Err(AddError::Full);
        }
        self.nodes[a.index()]
            .out
            .add(b)
            .expect("precondition checked");
        self.nodes[a.index()]
            .inc
            .add(b)
            .expect("precondition checked");
        self.nodes[b.index()]
            .out
            .add(a)
            .expect("precondition checked");
        self.nodes[b.index()]
            .inc
            .add(a)
            .expect("precondition checked");
        Ok(())
    }

    /// Tear down a symmetric link `a ↔ b`; returns whether it existed.
    pub fn unlink_symmetric(&mut self, a: NodeId, b: NodeId) -> bool {
        let had = self.nodes[a.index()].out.remove(b);
        if had {
            self.nodes[a.index()].inc.remove(b);
            self.nodes[b.index()].out.remove(a);
            self.nodes[b.index()].inc.remove(a);
        }
        had
    }

    /// Symmetric neighbor degree of `node` (out-list length).
    pub fn degree(&self, node: NodeId) -> usize {
        self.nodes[node.index()].out.len()
    }

    /// Remove every link touching `node` (log-off). Returns the former
    /// symmetric neighbors (out-list) so callers can notify them.
    pub fn isolate(&mut self, node: NodeId) -> Vec<NodeId> {
        let out = self.nodes[node.index()].out.drain();
        for &n in &out {
            self.nodes[n.index()].inc.remove(node);
            if self.relation.is_symmetric() {
                self.nodes[n.index()].out.remove(node);
            }
        }
        let inc = self.nodes[node.index()].inc.drain();
        for &n in &inc {
            self.nodes[n.index()].out.remove(node);
            if self.relation.is_symmetric() {
                self.nodes[n.index()].inc.remove(node);
            }
        }
        out
    }

    /// Verify the consistency invariant across the whole overlay, plus the
    /// `out == in` condition for symmetric regimes. Returns every violation.
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
            if self.relation.is_symmetric() {
                for u in links.out.iter() {
                    if !links.inc.contains(u) {
                        errors.push(ConsistencyError {
                            source: v,
                            target: u,
                        });
                    }
                }
                if links.out.len() != links.inc.len() {
                    errors.push(ConsistencyError {
                        source: v,
                        target: v,
                    });
                }
            }
        }
        errors
    }

    /// Bootstrap a random symmetric overlay among `members`, giving each up
    /// to `degree` links — the paper's initial Gnutella configuration
    /// ("both the initial configuration and the changes are purely
    /// random"). Nodes outside `members` stay isolated.
    pub fn populate_random_symmetric<R: Rng + ?Sized>(
        &mut self,
        members: &[NodeId],
        degree: usize,
        rng: &mut R,
    ) {
        // Repeated random-pairing passes: shuffle, then link consecutive
        // under-full pairs. A few passes fill almost everyone; stragglers
        // (odd counts, unlucky shuffles) stay under-full exactly like real
        // bootstrap nodes waiting for contacts.
        let mut candidates: Vec<NodeId> = members.to_vec();
        for _pass in 0..degree * 4 {
            candidates.retain(|&n| self.degree(n) < degree);
            if candidates.len() < 2 {
                break;
            }
            candidates.shuffle(rng);
            for pair in candidates.chunks(2) {
                if let [a, b] = *pair {
                    let _ = self.link_symmetric(a, b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn directed_edges_maintain_consistency() {
        let mut t = Topology::new(4, RelationKind::Asymmetric, 2, 2);
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
        let mut t = Topology::new(4, RelationKind::Asymmetric, 3, 1);
        t.add_edge(NodeId(1), NodeId(0)).unwrap();
        // node 0's incoming list is now full
        assert_eq!(t.add_edge(NodeId(2), NodeId(0)), Err(AddError::Full));
        assert!(!t.out(NodeId(2)).contains(NodeId(0)), "rollback failed");
        assert!(t.check_consistency().is_empty());
    }

    #[test]
    fn pure_asymmetric_incoming_never_fills() {
        let mut t = Topology::new(10, RelationKind::PureAsymmetric, 2, 0);
        for i in 1..10 {
            t.add_edge(NodeId(i), NodeId(0)).unwrap();
        }
        assert_eq!(t.inc(NodeId(0)).len(), 9);
        assert!(t.check_consistency().is_empty());
    }

    #[test]
    fn symmetric_link_is_mutual() {
        let mut t = Topology::symmetric(4, 4);
        t.link_symmetric(NodeId(0), NodeId(1)).unwrap();
        for (a, b) in [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))] {
            assert!(t.out(a).contains(b));
            assert!(t.inc(a).contains(b));
        }
        assert!(t.check_consistency().is_empty());
        assert!(t.unlink_symmetric(NodeId(1), NodeId(0)));
        assert_eq!(t.degree(NodeId(0)), 0);
        assert_eq!(t.degree(NodeId(1)), 0);
        assert!(t.check_consistency().is_empty());
    }

    #[test]
    fn symmetric_link_respects_capacity_atomically() {
        let mut t = Topology::symmetric(4, 1);
        t.link_symmetric(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(t.link_symmetric(NodeId(0), NodeId(2)), Err(AddError::Full));
        assert_eq!(t.link_symmetric(NodeId(2), NodeId(0)), Err(AddError::Full));
        assert_eq!(t.degree(NodeId(2)), 0);
        assert!(t.check_consistency().is_empty());
    }

    #[test]
    fn duplicate_symmetric_link_rejected() {
        let mut t = Topology::symmetric(4, 4);
        t.link_symmetric(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(
            t.link_symmetric(NodeId(0), NodeId(1)),
            Err(AddError::Duplicate)
        );
    }

    #[test]
    fn isolate_cleans_both_directions() {
        let mut t = Topology::symmetric(5, 4);
        t.link_symmetric(NodeId(0), NodeId(1)).unwrap();
        t.link_symmetric(NodeId(0), NodeId(2)).unwrap();
        t.link_symmetric(NodeId(3), NodeId(0)).unwrap();
        let former = t.isolate(NodeId(0));
        assert_eq!(former.len(), 3);
        assert_eq!(t.degree(NodeId(0)), 0);
        for n in [NodeId(1), NodeId(2), NodeId(3)] {
            assert!(!t.out(n).contains(NodeId(0)));
            assert!(!t.inc(n).contains(NodeId(0)));
        }
        assert!(t.check_consistency().is_empty());
    }

    #[test]
    fn detects_manufactured_inconsistency() {
        let mut t = Topology::new(3, RelationKind::Asymmetric, 2, 2);
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
    fn random_bootstrap_fills_most_slots() {
        let mut t = Topology::symmetric(100, 4);
        let members: Vec<NodeId> = (0..100).map(NodeId).collect();
        let mut rng = SmallRng::seed_from_u64(9);
        t.populate_random_symmetric(&members, 4, &mut rng);
        assert!(t.check_consistency().is_empty());
        let mean_degree: f64 = members.iter().map(|&n| t.degree(n)).sum::<usize>() as f64 / 100.0;
        assert!(mean_degree > 3.0, "mean degree {mean_degree}");
        assert!(members.iter().all(|&n| t.degree(n) <= 4));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut t = Topology::symmetric(2, 4);
        let _ = t.add_edge(NodeId(0), NodeId(0));
    }
}
