//! Query descriptors shared by the search machinery.

use ddr_sim::{ItemId, NodeId, QueryId, SimTime};

/// A propagating search request (one per user query; the id travels with
/// every forwarded copy so duplicate suppression works across paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryDescriptor {
    /// Unique id of this query instance.
    pub id: QueryId,
    /// The node that issued the query (replies travel back to it; the
    /// paper's case study replies directly to the initiator rather than
    /// via the reverse route, which changes delay but not hit counts).
    pub origin: NodeId,
    /// The item searched for (each query requests exactly one song).
    pub item: ItemId,
    /// Remaining hops ("all propagations terminate after h hops").
    pub ttl: u8,
    /// Hops this copy has travelled from the origin (1 on first
    /// arrival at a neighbor). Lets responders report their overlay
    /// distance, the quantity behind the paper's "most of the results
    /// come from nearby nodes" claim.
    pub travelled: u8,
    /// Issue time at the origin, for first-result delay measurement.
    pub issued_at: SimTime,
}

impl QueryDescriptor {
    /// The descriptor for the next hop: TTL decremented.
    ///
    /// # Panics
    /// Panics if the TTL is already zero (forwarding such a query is a
    /// protocol bug the simulators must not commit).
    pub fn next_hop(&self) -> QueryDescriptor {
        assert!(self.ttl > 0, "forwarded a dead query {}", self.id);
        QueryDescriptor {
            ttl: self.ttl - 1,
            travelled: self.travelled.saturating_add(1),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(ttl: u8) -> QueryDescriptor {
        QueryDescriptor {
            id: QueryId(1),
            origin: NodeId(0),
            item: ItemId(5),
            ttl,
            travelled: 1,
            issued_at: SimTime::from_millis(100),
        }
    }

    #[test]
    fn next_hop_decrements_ttl_and_counts_distance() {
        let d = q(3).next_hop();
        assert_eq!(d.ttl, 2);
        assert_eq!(d.travelled, 2);
        assert_eq!(d.id, QueryId(1));
    }

    #[test]
    #[should_panic(expected = "dead query")]
    fn forwarding_dead_query_panics() {
        let _ = q(0).next_hop();
    }
}
