//! Online-membership set shared by all case studies.
//!
//! Every simulated network needs to answer three questions cheaply:
//! *is node `v` online?* (every forward decision), *how many nodes are
//! online?* (normalisations), and *give me a uniformly random online
//! node* (bootstrap joins, random invitations). [`Membership`] answers
//! all three in O(1) by pairing a dense list with a positional index,
//! using the classic swap-remove trick.
//!
//! The dense list's order is arbitrary but **deterministic** — it depends
//! only on the sequence of `add`/`remove` calls — which is what makes
//! "sample an index into [`Membership::as_slice`]" reproducible across
//! runs with the same seed.

use ddr_sim::NodeId;

/// O(1) add / remove / contains set over a fixed universe of `n` nodes,
/// exposing a dense slice for random sampling.
#[derive(Debug, Clone)]
pub struct Membership {
    list: Vec<NodeId>,
    /// pos[node] = index in `list` + 1; 0 = absent.
    pos: Vec<u32>,
}

impl Membership {
    /// An empty set over the universe `0..n` (everyone offline).
    pub fn new(n: usize) -> Self {
        Membership {
            list: Vec::with_capacity(n),
            pos: vec![0; n],
        }
    }

    /// A full set over the universe `0..n` (everyone online) — the
    /// steady-state starting point of the webcache / OLAP case studies.
    pub fn all_online(n: usize) -> Self {
        Membership {
            list: (0..n).map(|i| NodeId(i as u32)).collect(),
            pos: (1..=n as u32).collect(),
        }
    }

    /// Bring `node` online. Returns `true` if it was previously offline.
    pub fn add(&mut self, node: NodeId) -> bool {
        if self.pos[node.index()] != 0 {
            return false;
        }
        self.list.push(node);
        self.pos[node.index()] = self.list.len() as u32;
        true
    }

    /// Take `node` offline. Returns `true` if it was previously online.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let p = self.pos[node.index()];
        if p == 0 {
            return false;
        }
        let idx = (p - 1) as usize;
        let last = *self.list.last().expect("non-empty when pos set");
        self.list.swap_remove(idx);
        self.pos[node.index()] = 0;
        if last != node {
            self.pos[last.index()] = p;
        }
        true
    }

    /// Churn toggle: force `node` to the given state. Returns `true` if
    /// the state changed.
    pub fn set(&mut self, node: NodeId, online: bool) -> bool {
        if online {
            self.add(node)
        } else {
            self.remove(node)
        }
    }

    /// Whether `node` is online.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.pos[node.index()] != 0
    }

    /// Number of online nodes.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether nobody is online.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Dense slice of online nodes (arbitrary but deterministic order;
    /// index it with a bounded random draw for uniform sampling).
    pub fn as_slice(&self) -> &[NodeId] {
        &self.list
    }

    /// Iterate over the online nodes in dense-slice order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.list.iter().copied()
    }
}

impl<'a> IntoIterator for &'a Membership {
    type Item = NodeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, NodeId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.list.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn add_remove_contains() {
        let mut m = Membership::new(4);
        assert!(m.is_empty());
        assert!(m.add(n(2)));
        assert!(!m.add(n(2)), "double add is a no-op");
        assert!(m.contains(n(2)));
        assert!(!m.contains(n(1)));
        assert_eq!(m.len(), 1);
        assert!(m.remove(n(2)));
        assert!(!m.remove(n(2)), "double remove is a no-op");
        assert!(m.is_empty());
    }

    #[test]
    fn swap_remove_last_element_aliasing() {
        // Removing the element that *is* the tail of the dense list must
        // not corrupt the positional index (`last == node` aliasing).
        let mut m = Membership::new(3);
        m.add(n(0));
        m.add(n(1));
        m.remove(n(1)); // n(1) is the last list element
        assert!(m.contains(n(0)));
        assert!(!m.contains(n(1)));
        assert_eq!(m.as_slice(), &[n(0)]);
        m.add(n(2));
        assert_eq!(m.as_slice(), &[n(0), n(2)]);
    }

    #[test]
    fn swap_remove_middle_repositions_tail() {
        let mut m = Membership::new(4);
        for i in 0..4 {
            m.add(n(i));
        }
        m.remove(n(1)); // tail n(3) moves into slot 1
        assert_eq!(m.as_slice(), &[n(0), n(3), n(2)]);
        assert!(m.contains(n(3)));
        m.remove(n(3));
        assert_eq!(m.as_slice(), &[n(0), n(2)]);
    }

    #[test]
    fn all_online_and_set_toggle() {
        let mut m = Membership::all_online(3);
        assert_eq!(m.len(), 3);
        for i in 0..3 {
            assert!(m.contains(n(i)));
        }
        assert!(m.set(n(1), false));
        assert!(!m.set(n(1), false), "toggle to same state is a no-op");
        assert!(m.set(n(1), true));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn iteration_matches_slice() {
        let mut m = Membership::new(5);
        m.add(n(4));
        m.add(n(0));
        let via_iter: Vec<NodeId> = m.iter().collect();
        let via_for: Vec<NodeId> = (&m).into_iter().collect();
        assert_eq!(via_iter, m.as_slice());
        assert_eq!(via_for, m.as_slice());
    }
}
