//! The neighbor-relation regimes of paper §3.1.

/// How outgoing and incoming neighbor lists relate across the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelationKind {
    /// Incoming capacity is unbounded (= n), so every node may appear in
    /// anyone's outgoing list. Consistency can never be violated by
    /// unilateral outgoing-list changes — nodes "select neighbors based
    /// solely on their own criteria" (the Squid top-level-proxy case).
    PureAsymmetric,
    /// Both lists bounded but allowed to differ; consistency requires
    /// coordinated updates.
    Asymmetric,
    /// `L_o = L_i` at every node; reconfiguration needs an "agreement"
    /// between both endpoints — the Gnutella case, implemented by the
    /// invitation/eviction protocol of Algo 4.
    Symmetric,
}

impl RelationKind {
    /// Whether the regime forces `out == in` at every node.
    pub fn is_symmetric(self) -> bool {
        self == RelationKind::Symmetric
    }

    /// Human-readable label for run banners.
    pub fn label(self) -> &'static str {
        match self {
            RelationKind::PureAsymmetric => "pure-asymmetric",
            RelationKind::Asymmetric => "asymmetric",
            RelationKind::Symmetric => "symmetric",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetry_classification() {
        assert!(RelationKind::Symmetric.is_symmetric());
        assert!(!RelationKind::PureAsymmetric.is_symmetric());
        assert!(!RelationKind::Asymmetric.is_symmetric());
    }

    #[test]
    fn labels() {
        assert_eq!(RelationKind::Symmetric.label(), "symmetric");
        assert_eq!(RelationKind::PureAsymmetric.label(), "pure-asymmetric");
    }
}
