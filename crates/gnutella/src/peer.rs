//! Per-peer state: the framework-side [`NodeRuntime`] composed
//! with the music-domain state (role, sessions, in-flight queries, workload
//! generators).

use ddr_core::runtime::{LinkBook, NodeRuntime};
use ddr_core::StatsStore;
use ddr_net::BandwidthClass;
use ddr_overlay::NeighborList;
use ddr_sim::{FastHashMap, FastHashSet, ItemId, NodeId, QueryId, SimTime};
use ddr_workload::{ChurnProcess, QueryGenerator, UserProfile};

/// How a user behaves toward queries. The statistics layer cannot see
/// it: a node learns a liar from the absence of answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Shares its library and answers from it.
    Contributor,
    /// Queries but never answers, and advertises nothing.
    FreeRider,
    /// Advertises its full library but, like a free rider, never answers.
    Liar,
}

impl Role {
    /// Whether the node answers queries: only contributors do.
    pub(crate) fn serves(self) -> bool {
        self == Role::Contributor
    }

    /// What a user in this role advertises: a free rider nothing, every
    /// other user (a liar included) its full library. Both the content
    /// summary and the local index are built from it.
    pub(crate) fn advertised(self, profile: &UserProfile) -> &[ItemId] {
        if self == Role::FreeRider {
            &[]
        } else {
            profile.library()
        }
    }
}

/// An in-flight query at its initiator.
#[derive(Debug, Clone)]
pub struct PendingQuery {
    /// The item searched for (needed to relaunch deepening waves).
    pub item: ItemId,
    /// When the query was issued (the *original* issue time — deepening
    /// waves inherit it so delays measure from the user's request).
    pub issued_at: SimTime,
    /// Current iterative-deepening wave (0 for plain BFS).
    pub wave: u8,
    /// Responders in arrival order, each with the bandwidth class its
    /// reply carried and its arrival time.
    pub responders: Vec<(NodeId, BandwidthClass, SimTime)>,
    /// Arrival time of the first result.
    pub first_at: Option<SimTime>,
}

impl PendingQuery {
    /// A fresh pending record.
    pub fn new(item: ItemId, issued_at: SimTime) -> Self {
        PendingQuery {
            item,
            issued_at,
            wave: 0,
            responders: Vec::new(),
            first_at: None,
        }
    }

    /// Record an arriving result and the bandwidth class it carried.
    pub fn record(&mut self, from: NodeId, bandwidth: BandwidthClass, at: SimTime) {
        if self.first_at.is_none() {
            self.first_at = Some(at);
        }
        self.responders.push((from, bandwidth, at));
    }

    /// Reinitialise a pooled record in place, keeping the `responders`
    /// allocation (the world recycles finalised records to keep the
    /// query hot path allocation-free).
    pub fn reset(&mut self, item: ItemId, issued_at: SimTime) {
        self.item = item;
        self.issued_at = issued_at;
        self.wave = 0;
        self.responders.clear();
        self.first_at = None;
    }

    /// What the closed query leaves behind for its engine.
    pub(crate) fn outcome(&self) -> QueryOutcome {
        QueryOutcome {
            issued_at: self.issued_at,
            first_at: self.first_at,
            results: self.responders.len() as u32,
        }
    }
}

/// A query its initiator closed, as `GnutellaWorld::dispatch` hands it
/// back: what the serve bus's report and monitor read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The user's request (deepening waves keep the first wave's).
    pub issued_at: SimTime,
    /// Arrival of the first result; `None` on a miss.
    pub first_at: Option<SimTime>,
    /// Results collected before the window closed.
    pub results: u32,
}

impl QueryOutcome {
    /// First-result latency in ms; `None` on a miss.
    pub fn latency_ms(&self) -> Option<f64> {
        let first = self.first_at?;
        Some(first.saturating_since(self.issued_at).as_millis() as f64)
    }
}

/// The hot per-peer scalars, split out of [`PeerState`] into a dense
/// struct-of-arrays column in the world (`sessions: Vec<SessionSlot>`).
/// Nearly every event handler starts with an online/session check; at
/// large scale, reading it through `PeerState` drags a whole cold
/// cache line (maps, generators) in per check, while a packed 8-byte
/// slot keeps 8 peers per line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionSlot {
    /// Whether the user is currently online.
    pub online: bool,
    /// Monotone session counter; bumped at each login so stale
    /// `IssueQuery` events from earlier sessions are ignored.
    pub session: u32,
}

impl SessionSlot {
    /// Mark the peer online under a fresh session number. Pair with
    /// [`PeerState::begin_session`].
    pub fn login(&mut self) {
        self.online = true;
        self.session = self.session.wrapping_add(1);
    }

    /// Mark the peer offline. Pair with [`PeerState::end_session`].
    pub fn logoff(&mut self) {
        self.online = false;
    }
}

/// Maximum symmetric neighbors per node (paper §4.3: four).
pub const DEGREE: usize = 4;
// A view is a `NeighborList`, which holds its entries inline.
const _: () = assert!(DEGREE <= ddr_overlay::INLINE_NEIGHBORS);

/// Refused-handshake retries granted per refill campaign (login, a lost
/// neighbor, a reconfiguration floor top-up).
pub const REFILL_RETRY_BUDGET: u8 = 8;

/// Connectivity floor a dynamic node maintains with random links once its
/// login-fill campaign is over: one slot short of [`DEGREE`]. The last
/// slot is reserved for benefit-chosen invitations, so an updating node
/// completes its degree only on merit and a hyperactive update clock,
/// whose evictions bleed the overlay, does not get its density back for
/// free; yet a node severed from the overlay can neither search nor be
/// found, so random links never fall below this floor.
pub const REFILL_FLOOR: usize = DEGREE - 1;

/// Evictions a peer repairs per session before backing off — a backstop
/// against a pathological session where the network evicts one node over
/// and over and every repair dial burns more handshakes. It has not bound
/// on a registered experiment, but not by a wide margin: at the default
/// seed the most evictions one node receives in one session is 53 in
/// `fig1`, 61 in `fig3b`, 112 in `heavy_churn`, 165 in `fig2` and 235 in
/// `free_riders` — 15 short of this cap and 20 short of the `u8` counter
/// saturating (ROADMAP.md's repair item lists these eviction storms among
/// its other suspects).
/// Free-rider isolation comes from the advertised-summary eligibility
/// gate and the evictors' persistent [`PeerState::evicted`] memory, not
/// from this cap.
pub const EVICTION_REPAIR_LIMIT: u8 = 250;

/// One peer's complete mutable state (minus the hot online/session
/// scalars, which live in the world's [`SessionSlot`] column).
pub struct PeerState {
    /// Framework runtime: statistics about other nodes (survive offline
    /// periods — user preferences are static, so old knowledge stays
    /// valuable), the duplicate cache, and the threshold-K
    /// reconfiguration clock.
    pub rt: NodeRuntime,
    /// Invitations sent whose outcome has not yet arrived. Each reserves
    /// one neighbor slot so random refills don't race the acceptance.
    pub pending_invites: u32,
    /// While set, refused link requests are retried toward the full
    /// degree (the login-fill campaign). The first reconfiguration
    /// clears it: from then on the dynamic variant only maintains the
    /// connectivity floor and regains links through invitations.
    pub fill_to_degree: bool,
    /// Remaining refused-handshake retries in the current refill
    /// campaign. Without a cap, a mostly-full network could keep a
    /// seeker dialing forever; the budget bounds the message cost.
    pub refill_budget: u8,
    /// Nodes this peer has evicted. Their later link requests and
    /// invitations are refused, and the peer's own random dials skip
    /// them: an eviction was a judgement that the node is not worth a
    /// slot, and forgetting it would let a zero-benefit peer (a free
    /// rider) dial straight back in. The dual of Algo 5's
    /// `Process_Eviction` ("so that it will not attempt to reconnect in
    /// the near future"), held on the evictor's side — and, like the
    /// statistics it derives from, persistent across sessions. A severed
    /// pair can still re-earn a link through the evictor's own
    /// benefit-driven invitations once fresh replies rebuild the
    /// evictee's standing.
    pub evicted: FastHashSet<NodeId>,
    /// Evictions suffered this session. Once it passes
    /// [`EVICTION_REPAIR_LIMIT`], further evictions go unrepaired until
    /// the next login.
    pub evictions_received: u8,
    /// In-flight queries issued by this peer.
    pub pending: FastHashMap<QueryId, PendingQuery>,
    /// The churn process driving this user's on/off schedule.
    pub churn: ChurnProcess,
    /// The query stream of this user.
    pub queries: QueryGenerator,
}

impl PeerState {
    /// Reset the per-session state on login. Statistics survive; the
    /// duplicate cache and in-flight queries do not. The caller flips the
    /// world's [`SessionSlot`] alongside.
    pub fn begin_session(&mut self) {
        self.rt.begin_session();
        self.pending.clear();
        self.pending_invites = 0;
        self.fill_to_degree = true;
        self.refill_budget = REFILL_RETRY_BUDGET;
        self.evictions_received = 0;
    }

    /// Clear in-flight state on logoff. The caller flips the world's
    /// [`SessionSlot`] alongside.
    pub fn end_session(&mut self) {
        self.pending.clear();
        self.pending_invites = 0;
    }

    /// This peer's link book over its `view` (the world's neighbor
    /// column), beside the statistics its handshake verdicts rank by.
    pub(crate) fn link_book<'a>(
        &'a mut self,
        view: &'a mut NeighborList,
    ) -> (LinkBook<'a>, &'a StatsStore) {
        let book = LinkBook::new(view, &mut self.pending_invites, &mut self.evicted);
        (book, &self.rt.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddr_sim::RngFactory;
    use ddr_workload::WorkloadConfig;

    fn peer() -> PeerState {
        let cfg = WorkloadConfig::paper();
        let rngs = RngFactory::new(1);
        PeerState {
            rt: NodeRuntime::new(10).with_dup_cache(16),
            pending_invites: 0,
            fill_to_degree: false,
            refill_budget: 0,
            evicted: ddr_sim::hash::fast_set(),
            evictions_received: 0,
            pending: ddr_sim::hash::fast_map(),
            churn: ChurnProcess::new(&cfg, &rngs, 0),
            queries: QueryGenerator::new(&cfg, &rngs, 0),
        }
    }

    #[test]
    fn session_lifecycle() {
        let mut p = peer();
        let mut slot = SessionSlot::default();
        p.rt.seen().first_sighting(QueryId(1));
        p.pending
            .insert(QueryId(1), PendingQuery::new(ItemId(0), SimTime::ZERO));
        p.begin_session();
        slot.login();
        assert!(slot.online);
        assert_eq!(slot.session, 1);
        assert!(p.pending.is_empty());
        assert!(
            p.rt.seen().first_sighting(QueryId(1)),
            "dup cache must clear"
        );
        p.end_session();
        slot.logoff();
        assert!(!slot.online);
    }

    #[test]
    fn session_start_restarts_reconfig_clock() {
        let mut p = peer();
        p.rt.clock.tick();
        p.begin_session();
        assert_eq!(p.rt.clock.count(), 0);
    }

    #[test]
    fn pending_query_records_first_and_all() {
        let mut q = PendingQuery::new(ItemId(3), SimTime::from_millis(10));
        q.record(NodeId(5), BandwidthClass::Lan, SimTime::from_millis(200));
        q.record(NodeId(6), BandwidthClass::Cable, SimTime::from_millis(300));
        assert_eq!(q.first_at, Some(SimTime::from_millis(200)));
        assert_eq!(q.responders.len(), 2);
    }
}
