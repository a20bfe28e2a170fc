//! The Gnutella simulation world: all mutable state plus the event
//! semantics of Algo 5.
//!
//! Protocol summary (paper §4.1):
//!
//! * `Send_Query`: the initiator floods its neighbors, collects results
//!   until a timeout, then updates statistics (`B / R` per result).
//! * `Process_Query`: duplicate queries are discarded via the
//!   recent-message list; a node holding the song replies straight to the
//!   initiator and does **not** forward; otherwise it forwards to its
//!   neighbors while hops remain.
//! * `Reconfigure`: every `reconfig_threshold` requests the node computes
//!   the most beneficial neighborhood, sends eviction notices to dropped
//!   neighbors and invitations to new ones, and resets its counter.
//! * `Process_Invitation`: the invited node always accepts (paper case i),
//!   evicting its least beneficial neighbor when full, and resets its own
//!   reconfiguration counter to damp cascades.
//! * `Process_Eviction`: the evicted node resets the evictor's statistics
//!   and does not seek an immediate replacement.
//!
//! Static mode strips all of the above except `Process_Query`, replacing
//! lost neighbors with requests to random hosts — vanilla Gnutella.
//!
//! # Shard-native state ownership
//!
//! The world is a **slice world**: one instance owns the contiguous node
//! range `[base, base + len)` and every event handler touches only the
//! destination node's columns. Three rules make it run bit-identically
//! under both the serial kernel and the conservative sharded kernel
//! (`ddr_sim::sharded`) at any shard count:
//!
//! 1. **Per-node randomness.** There is no world-level RNG. Delay sampling
//!    draws from the node's `"net.delay"` stream
//!    ([`ddr_net::NodeDelayStream`]), protocol randomness (forward
//!    selection, bootstrap candidate draws) from the node's
//!    `"gnutella.proto"` stream, and churn/query generators were already
//!    per-node. A node's draws depend only on its own event sequence.
//! 2. **Message-passing reconfiguration.** No handler mutates another
//!    node's neighbor list. Each node owns a [`NeighborList`] *view* of
//!    its links; symmetric-link maintenance travels as
//!    `LinkRequest`/`LinkAck`/`Unlink` handshakes and the invitation
//!    protocol as `InviteArrive`/`InviteReply`/`EvictArrive`, all with
//!    network delays ≥ the kernel lookahead. Views can disagree for one
//!    message flight time — exactly like real sockets — and repair
//!    `Unlink`s reconcile refused mirrors.
//! 3. **Shard-local membership.** No handler reads the global online set.
//!    Nodes learn about other hosts from observed traffic via a per-node
//!    [`HostCache`] (seeded with bootstrap neighbors) plus uniform draws
//!    from their own proto stream (modeling a bootstrap server); offline
//!    candidates simply refuse with a negative ack.
//!
//! All self-timers and message delays are clamped to the lookahead
//! (`NetworkModel::min_delay`, 10 ms under paper parameters) in *both*
//! kernels, so the event timeline is identical.

use crate::config::SearchStrategy;
use crate::config::{Mode, ScenarioConfig};
use crate::events::GnutellaEvent;
use crate::hosts::HostCache;
use crate::metrics::Metrics;
use crate::peer::{PeerState, PendingQuery, SessionSlot};
use ddr_core::benefit::BenefitFunction;
use ddr_core::runtime::{sample_runtime_metrics, Clock, NodeRuntime, Transport};
use ddr_core::{
    plan_asymmetric_update, CategorySummary, InvitationContext, InvitationDecision, LocalIndex,
    QueryDescriptor,
};
use ddr_net::{NetworkModel, NodeDelayStream};
use ddr_overlay::{NeighborList, Topology};
use ddr_sim::ItemId;
use ddr_sim::{
    NodeId, Partition, QueryId, RngFactory, Scheduler, ShardCtx, ShardWorld, SimDuration, SimTime,
    World,
};

/// The ranking used for eviction decisions: the configured benefit
/// function plus an epsilon for nodes that have *ever* answered a query.
///
/// Epoch decay (see `StatsStore::decay_benefit`) deliberately forgets old
/// evidence so rankings track fresh results — but that also erases the
/// long-term distinction between a quiet contributor (answered long ago,
/// benefit decayed toward zero) and a peer that has never answered
/// anything. The undecayed `answered` counter restores it: never-answering
/// peers (free riders) rank strictly below every contributor at equal
/// decayed benefit and become the canonical eviction victims. In a world
/// without free riders every candidate carries the same bonus, so the
/// ordering — and the simulation — is unchanged.
struct EverAnswered<'a>(&'a dyn BenefitFunction);

impl BenefitFunction for EverAnswered<'_> {
    fn benefit(&self, s: &ddr_core::NodeStats) -> f64 {
        self.0.benefit(s) + if s.answered > 0 { 1e-6 } else { 0.0 }
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}
use ddr_telemetry::{NullSink, QueryTracer, TraceOutcome, TraceSink};
use ddr_workload::{generate_profiles, Catalog, ChurnProcess, QueryGenerator, UserProfile};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;

/// Immutable world inputs, shared (read-only) by every shard's slice.
struct SharedWorld {
    config: ScenarioConfig,
    catalog: Catalog,
    profiles: Vec<UserProfile>,
    net: NetworkModel,
    /// Per-node content summaries (piggybacked on invitations when the
    /// summary-gated policy is active).
    summaries: Vec<CategorySummary>,
    /// Which users are free-riders (query but never answer).
    free_rider: Vec<bool>,
    /// Which users are liars: they advertise a full content summary but,
    /// like free-riders, refuse to serve. The statistics layer cannot see
    /// the flag — it has to learn from the absence of answers.
    liar: Vec<bool>,
}

/// The complete simulation state for one contiguous node slice. The sink
/// parameter `T` decides at compile time whether query-lifecycle telemetry
/// is recorded; the default [`NullSink`] world is byte-identical to the
/// pre-telemetry hot path.
///
/// A serial run uses one full-range slice; a sharded run uses
/// `Partition::contiguous` slices driven by `ShardedSimulation`.
pub struct GnutellaWorld<T: TraceSink = NullSink> {
    shared: Arc<SharedWorld>,
    /// First node index this slice owns.
    base: usize,
    peers: Vec<PeerState>,
    /// Hot online/session scalars for every owned peer, kept as a dense
    /// struct-of-arrays column (8 B per peer) so the liveness checks at
    /// the top of every handler don't pull in cold `PeerState` lines.
    sessions: Vec<SessionSlot>,
    /// Each node's own view of its symmetric links (capacity = degree).
    neighbors: Vec<NeighborList>,
    /// Shard-local membership: hosts observed in protocol traffic.
    hosts: Vec<HostCache>,
    /// Per-node protocol randomness (`"gnutella.proto"` streams).
    proto: Vec<SmallRng>,
    /// Per-node delay sampling (`"net.delay"` streams).
    delays: Vec<NodeDelayStream>,
    /// Per-node query-id counters (qid = node << 32 | counter).
    next_qid: Vec<u32>,
    /// Per-node radius-r content indices (local-indices strategy only;
    /// restricted to the serial full-range world).
    indices: Vec<Option<LocalIndex>>,
    /// Results served per owned node (load-balance analysis).
    served: Vec<u64>,
    benefit: Box<dyn BenefitFunction>,
    /// Kernel lookahead = the network delay floor; every delay and timer
    /// is clamped to at least this in both kernels.
    lookahead: SimDuration,
    /// Reused forward-target buffer: `ForwardSelection::select_into`
    /// fills it on every flood/forward, so the query path performs no
    /// per-event allocation.
    scratch_targets: Vec<NodeId>,
    /// Reused join-candidate buffer for `pick_join_targets`.
    scratch_join: Vec<NodeId>,
    /// Recycled [`PendingQuery`] records (their `responders` buffers keep
    /// their capacity across queries).
    pq_pool: Vec<PendingQuery>,
    /// Collected metrics (public so reports and tests can read them).
    pub metrics: Metrics,
    /// Query-lifecycle span recorder (a no-op unless `T` is an enabled
    /// sink).
    tracer: QueryTracer<T>,
}

impl<T: TraceSink> GnutellaWorld<T> {
    /// Build the serial full-range world: profiles, network classes, the
    /// random bootstrap overlay among initially-online users — everything
    /// derived deterministically from `(config, config.seed)`.
    pub fn new(config: ScenarioConfig) -> Self {
        let (mut worlds, _partition, _lookahead) = Self::build_sharded(config, 1);
        worlds.pop().expect("one shard yields one world")
    }

    /// Build `shards` slice worlds over `Partition::contiguous`, plus the
    /// partition and the kernel lookahead to drive them with. All global
    /// derivations (profiles, classes, bootstrap overlay, initial online
    /// set) happen in full node order *before* splitting, so the per-node
    /// state is independent of the shard count.
    pub fn build_sharded(
        config: ScenarioConfig,
        shards: usize,
    ) -> (Vec<GnutellaWorld<T>>, Partition, SimDuration) {
        config.validate().expect("invalid scenario config");
        assert!(shards >= 1, "need at least one shard");
        if shards > 1 {
            assert!(
                !matches!(config.strategy, SearchStrategy::LocalIndices { .. }),
                "local-indices strategy needs multi-hop topology closure and \
                 only runs on the serial full-range world"
            );
        }
        let users = config.workload.users;
        let rngs = RngFactory::new(config.seed);
        let catalog = Catalog::new(
            config.workload.songs,
            config.workload.categories,
            config.workload.theta,
        );
        let profiles = generate_profiles(&config.workload, &catalog, &rngs);
        let net = match config.bandwidth_mix {
            Some(mix) => NetworkModel::paper_with_mix(users, &rngs, mix),
            None => NetworkModel::paper(users, &rngs),
        };
        let lookahead = net.min_delay();
        assert!(
            lookahead > SimDuration::ZERO,
            "delay model admits zero delays: no usable lookahead"
        );

        let mut peers: Vec<PeerState> = (0..users)
            .map(|i| {
                let churn = ChurnProcess::new(&config.workload, &rngs, i as u64);
                let queries = QueryGenerator::new(&config.workload, &rngs, i as u64);
                PeerState {
                    rt: NodeRuntime::new(config.reconfig_threshold)
                        .with_dup_cache(config.dup_cache_capacity),
                    pending_invites: 0,
                    fill_to_degree: false,
                    refill_budget: 0,
                    evicted: ddr_sim::hash::fast_set(),
                    evictions_received: 0,
                    pending: ddr_sim::hash::fast_map(),
                    churn,
                    queries,
                }
            })
            .collect();
        let free_rider = {
            let mut flags = vec![false; users];
            let count = (users as f64 * config.free_rider_fraction).round() as usize;
            // Deterministic selection via a dedicated stream: shuffle the
            // population and mark the first `count`.
            use rand::seq::SliceRandom;
            let mut order: Vec<usize> = (0..users).collect();
            order.shuffle(&mut rngs.stream("freeriders", 0));
            for &i in order.iter().take(count) {
                flags[i] = true;
            }
            flags
        };
        let liar = {
            // Liars come from the non-free-rider population (a node cannot
            // both advertise nothing and advertise everything), shuffled
            // on their own stream so the two adversary draws are
            // independent knobs.
            let mut flags = vec![false; users];
            let count = (users as f64 * config.liar_fraction).round() as usize;
            use rand::seq::SliceRandom;
            let mut order: Vec<usize> = (0..users).filter(|&i| !free_rider[i]).collect();
            order.shuffle(&mut rngs.stream("liars", 0));
            for &i in order.iter().take(count) {
                flags[i] = true;
            }
            flags
        };
        // A summary advertises what a node *shares*, not what it has: a
        // free rider owns a library but serves nothing from it, so its
        // advertisement is empty — exactly how real Gnutella clients spot
        // free riders (a zero shared-file count in the handshake). Every
        // contributor's library is non-empty by construction, so an empty
        // summary identifies a free rider and FR-free worlds carry none.
        // Liars exploit exactly this channel: they advertise their full
        // library (passing every summary gate) yet never serve — the
        // deception the benefit function must catch through observed
        // answers alone.
        let summaries = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if free_rider[i] {
                    CategorySummary::empty(catalog.categories() as usize)
                } else {
                    CategorySummary::build(p.library(), catalog.categories() as usize, |i| {
                        catalog.category_of(i).index()
                    })
                }
            })
            .collect();

        // Initially-online users and the random bootstrap overlay, built
        // on a scratch topology and copied into per-node views.
        let mut sessions = vec![SessionSlot::default(); users];
        let mut initial: Vec<NodeId> = Vec::new();
        for (i, peer) in peers.iter_mut().enumerate() {
            if peer.churn.online() {
                peer.begin_session();
                sessions[i].login();
                initial.push(NodeId::from_index(i));
            }
        }
        let mut boot = Topology::symmetric(users, config.degree);
        boot.populate_random_symmetric(&initial, config.degree, &mut rngs.stream("bootstrap", 0));
        let neighbors: Vec<NeighborList> = (0..users)
            .map(|i| {
                let mut nl = NeighborList::with_capacity(config.degree);
                for &m in boot.out(NodeId::from_index(i)).as_slice() {
                    let _ = nl.add(m);
                }
                nl
            })
            .collect();
        let hosts: Vec<HostCache> = neighbors
            .iter()
            .map(|nl| {
                let mut h = HostCache::new();
                for &m in nl.as_slice() {
                    h.note(m);
                }
                h
            })
            .collect();
        let proto: Vec<SmallRng> = (0..users)
            .map(|i| rngs.stream("gnutella.proto", i as u64))
            .collect();
        let delays: Vec<NodeDelayStream> = (0..users)
            .map(|i| NodeDelayStream::new(&rngs, NodeId::from_index(i)))
            .collect();

        let shared = Arc::new(SharedWorld {
            config,
            catalog,
            profiles,
            net,
            summaries,
            free_rider,
            liar,
        });
        let partition = Partition::contiguous(users, shards);

        let mut peers = peers.into_iter();
        let mut sessions = sessions.into_iter();
        let mut neighbors = neighbors.into_iter();
        let mut hosts = hosts.into_iter();
        let mut proto = proto.into_iter();
        let mut delays = delays.into_iter();
        let worlds = (0..partition.shards())
            .map(|s| {
                let range = partition.range(s);
                let count = range.len();
                GnutellaWorld {
                    base: range.start,
                    peers: peers.by_ref().take(count).collect(),
                    sessions: sessions.by_ref().take(count).collect(),
                    neighbors: neighbors.by_ref().take(count).collect(),
                    hosts: hosts.by_ref().take(count).collect(),
                    proto: proto.by_ref().take(count).collect(),
                    delays: delays.by_ref().take(count).collect(),
                    next_qid: vec![0; count],
                    indices: vec![None; count],
                    served: vec![0; count],
                    benefit: shared.config.benefit.build(),
                    lookahead,
                    scratch_targets: Vec::with_capacity(16),
                    scratch_join: Vec::with_capacity(16),
                    pq_pool: Vec::new(),
                    metrics: Metrics::new(),
                    tracer: QueryTracer::new(&shared.config.telemetry),
                    shared: shared.clone(),
                }
            })
            .collect();
        (worlds, partition, lookahead)
    }

    /// Local (slice) index of an owned node.
    #[inline]
    fn li(&self, node: NodeId) -> usize {
        debug_assert!(
            node.index() >= self.base && node.index() - self.base < self.peers.len(),
            "event for node {node} dispatched to the slice at base {}",
            self.base
        );
        node.index() - self.base
    }

    /// Whether this slice owns every node (the serial world).
    fn is_full_range(&self) -> bool {
        self.base == 0 && self.peers.len() == self.shared.net.len()
    }

    /// Collect this slice's initial events as `(time, node, event)` in
    /// owned-node order. The serial [`Self::prime`] and the sharded
    /// runner both schedule from this list — in the same global node
    /// order — so the initial queue sequence is identical.
    pub fn collect_prime(&mut self, out: &mut Vec<(SimTime, NodeId, GnutellaEvent)>) {
        for k in 0..self.peers.len() {
            let node = NodeId::from_index(self.base + k);
            let toggle_in = self.peers[k].churn.next_toggle();
            out.push((
                SimTime::ZERO + toggle_in,
                node,
                GnutellaEvent::Toggle { node },
            ));
            if self.sessions[k].online {
                let d = self.peers[k].queries.next_interval();
                out.push((
                    SimTime::ZERO + d,
                    node,
                    GnutellaEvent::IssueQuery {
                        node,
                        session: self.sessions[k].session,
                    },
                ));
                if let SearchStrategy::LocalIndices { radius } = self.shared.config.strategy {
                    self.rebuild_index(node, radius);
                    out.push((
                        SimTime::ZERO + self.shared.config.index_refresh,
                        node,
                        GnutellaEvent::IndexRefresh {
                            node,
                            session: self.sessions[k].session,
                        },
                    ));
                }
            }
        }
    }

    /// Seed the initial events (serial driver). Call once before running.
    pub fn prime(&mut self, sched: &mut ddr_sim::EventQueue<GnutellaEvent>) {
        let mut evs = Vec::new();
        self.collect_prime(&mut evs);
        for (at, _node, ev) in evs {
            sched.schedule_at(at, ev);
        }
    }

    /// Rebuild `node`'s local index from the current per-node neighbor
    /// views and the (static) libraries of everything within `radius`
    /// hops. Full-range world only (construction enforces it).
    fn rebuild_index(&mut self, node: NodeId, radius: u8) {
        debug_assert!(
            self.is_full_range(),
            "local indices walk multi-hop neighborhoods and need the full range"
        );
        let shared = &self.shared;
        let base = self.base;
        let neighbors = &self.neighbors;
        let idx = LocalIndex::build_from(
            node,
            |n| neighbors[n.index() - base].as_slice(),
            radius as usize,
            |n| shared.profiles[n.index()].library(),
        );
        self.indices[node.index() - base] = Some(idx);
    }

    /// First *online, serving* holder of `item` in `node`'s local index,
    /// if any (free-riders refuse to serve, index or not).
    fn index_holder(&self, node: NodeId, item: ItemId) -> Option<NodeId> {
        let idx = self.indices[self.li(node)].as_ref()?;
        idx.holders(item).iter().copied().find(|&h| {
            self.sessions[self.li(h)].online
                && !self.shared.free_rider[h.index()]
                && !self.shared.liar[h.index()]
        })
    }

    /// The scenario configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.shared.config
    }

    /// The kernel lookahead this world was built with (= the network
    /// delay floor).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// First node index this slice owns.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of nodes this slice owns.
    pub fn owned_nodes(&self) -> usize {
        self.peers.len()
    }

    /// `node`'s own view of its neighbor links (owned nodes only).
    pub fn neighbors_of(&self, node: NodeId) -> &[NodeId] {
        self.neighbors[self.li(node)].as_slice()
    }

    /// Whether an owned node is currently online.
    pub fn is_online(&self, node: NodeId) -> bool {
        self.sessions[self.li(node)].online
    }

    /// Number of owned nodes currently online.
    pub fn online_count(&self) -> usize {
        self.sessions.iter().filter(|s| s.online).count()
    }

    /// Report this slice's cumulative counters and instantaneous levels
    /// into a metrics hub. Counters carry totals-so-far (the recorder
    /// differences them into per-window deltas); contributions add, so
    /// sampling every shard of a sharded run into one hub produces the
    /// fleet-wide series. Read-only: a metered run stays digest-identical
    /// to an unmetered one.
    pub fn sample_metrics_into(&self, _now: SimTime, hub: &mut dyn ddr_sim::MetricsHub) {
        sample_runtime_metrics(&self.metrics.runtime, hub);
        hub.counter("results", self.metrics.results.total() as u64);
        hub.counter("duplicates_dropped", self.metrics.duplicates_dropped);
        hub.counter("logins", self.metrics.logins);
        hub.counter("logoffs", self.metrics.logoffs);
        hub.counter("invitations_sent", self.metrics.invitations_sent);
        hub.counter("evictions", self.metrics.evictions);
        hub.counter("queries_finalized", self.metrics.queries_finalized);
        hub.gauge("online", self.online_count() as f64);
        let dup_entries: usize = self
            .peers
            .iter()
            .map(|p| p.rt.seen.as_ref().map_or(0, |c| c.len()))
            .sum();
        hub.gauge("dup_cache_entries", dup_entries as f64);
    }

    /// Peer state for inspection in tests (owned nodes only).
    pub fn peer(&self, node: NodeId) -> &PeerState {
        &self.peers[self.li(node)]
    }

    /// Fraction of overlay links (over owned nodes' views) whose
    /// endpoints share a favourite category — the interest-clustering
    /// measure behind the dynamic mode's gains ("nodes with similar
    /// access patterns or interests are grouped together", paper §1).
    pub fn same_category_link_fraction(&self) -> f64 {
        let mut total = 0usize;
        let mut same = 0usize;
        for k in 0..self.peers.len() {
            let i = self.base + k;
            for &m in self.neighbors[k].as_slice() {
                total += 1;
                if self.shared.profiles[i].favorite == self.shared.profiles[m.index()].favorite {
                    same += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            same as f64 / total as f64
        }
    }

    /// Whether `node` is a configured free-rider.
    pub fn is_free_rider(&self, node: NodeId) -> bool {
        self.shared.free_rider[node.index()]
    }

    /// Whether `node` is a configured liar (advertises but never serves).
    pub fn is_liar(&self, node: NodeId) -> bool {
        self.shared.liar[node.index()]
    }

    /// In-flight queries still pending across this slice's owned nodes —
    /// the third term of the conservation invariant `issued == finalized
    /// + abandoned + pending-at-horizon`.
    pub fn pending_queries(&self) -> usize {
        self.peers.iter().map(|p| p.pending.len()).sum()
    }

    /// Results served per owned node (load-balance analysis).
    pub fn served_loads(&self) -> Vec<f64> {
        self.served.iter().map(|&s| s as f64).collect()
    }

    /// Count of standing (evictor, evictee) eviction-memory pairs split
    /// by whether the evictee matches `pred` — `(matching, rest)`.
    /// Diagnostic for the free-rider starvation analysis: concentrated
    /// memories mean evictions single out one class of peers.
    pub fn eviction_memory_split<P: Fn(NodeId) -> bool>(&self, pred: P) -> (usize, usize) {
        let mut hit = 0usize;
        let mut rest = 0usize;
        for p in &self.peers {
            for &m in p.evicted.iter() {
                if pred(m) {
                    hit += 1;
                } else {
                    rest += 1;
                }
            }
        }
        (hit, rest)
    }

    /// Mean overlay degree over the *online* owned nodes matching `pred`
    /// (`None` if no online node matches).
    pub fn mean_degree_where<P: Fn(NodeId) -> bool>(&self, pred: P) -> Option<f64> {
        let mut sum = 0usize;
        let mut n = 0usize;
        for k in 0..self.peers.len() {
            let node = NodeId::from_index(self.base + k);
            if self.sessions[k].online && pred(node) {
                sum += self.neighbors[k].len();
                n += 1;
            }
        }
        (n > 0).then(|| sum as f64 / n as f64)
    }

    /// Mean benefit-bearing statistics entries per online owned peer
    /// (diagnostics for how much knowledge reconfiguration can draw on).
    pub fn mean_stats_entries(&self) -> f64 {
        let online: Vec<_> = (0..self.peers.len())
            .filter(|&k| self.sessions[k].online)
            .collect();
        if online.is_empty() {
            return 0.0;
        }
        online
            .iter()
            .map(|&k| self.peers[k].rt.stats.len())
            .sum::<usize>() as f64
            / online.len() as f64
    }

    fn is_dynamic(&self) -> bool {
        self.shared.config.mode == Mode::Dynamic
    }

    /// Fresh per-node query id: `node << 32 | counter`. Independent of
    /// every other node's query volume, hence shard-invariant.
    fn fresh_qid(&mut self, k: usize, node: NodeId) -> QueryId {
        let q = QueryId(((node.index() as u64) << 32) | self.next_qid[k] as u64);
        self.next_qid[k] = self.next_qid[k].wrapping_add(1);
        q
    }

    /// One-way delay `from → to` from the sender's own stream, clamped to
    /// the lookahead. `k` is `from`'s local index.
    #[inline]
    fn delay(&mut self, k: usize, from: NodeId, to: NodeId) -> SimDuration {
        self.shared
            .net
            .one_way_delay_for(&mut self.delays[k], from, to)
            .max(self.lookahead)
    }

    /// Fill `out` with up to `want` join candidates for `node`: first the
    /// node's host cache (observed traffic), then uniform draws from its
    /// proto stream (the bootstrap server). Candidates may be offline —
    /// they answer `LinkAck { accepted: false }`.
    fn pick_join_targets(&mut self, k: usize, node: NodeId, want: usize, out: &mut Vec<NodeId>) {
        out.clear();
        if want == 0 {
            return;
        }
        let total = self.shared.net.len();
        let mut attempts = 4 * want + 16;
        while out.len() < want && attempts > 0 && total > 1 {
            attempts -= 1;
            let m = NodeId::from_index(self.proto[k].gen_range(0..total));
            if m == node
                || self.neighbors[k].contains(m)
                || out.contains(&m)
                || self.peers[k].evicted.contains(&m)
            {
                continue;
            }
            out.push(m);
        }
        for m in self.hosts[k].iter() {
            if out.len() >= want {
                break;
            }
            if m == node
                || self.neighbors[k].contains(m)
                || out.contains(&m)
                || self.peers[k].evicted.contains(&m)
            {
                continue;
            }
            out.push(m);
        }
    }

    /// Send `LinkRequest`s for up to `want` new links, reserving a slot
    /// per request.
    fn request_links<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        want: usize,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        let mut join = std::mem::take(&mut self.scratch_join);
        self.pick_join_targets(k, node, want, &mut join);
        for &t in &join {
            self.peers[k].pending_invites += 1;
            let d = self.delay(k, node, t);
            ctx.send(t, d, GnutellaEvent::LinkRequest { to: t, from: node });
        }
        self.scratch_join = join;
    }

    /// Top up `node`'s links toward its current target: the full degree
    /// during the login-fill campaign and in static mode, the
    /// connectivity floor once the dynamic variant has taken over
    /// (paper: beyond the floor, dynamic nodes regain links only through
    /// invitations — running under-degree is part of its savings).
    fn refill_links<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if !self.sessions[k].online {
            return;
        }
        let degree = self.shared.config.degree;
        // A campaign (login, a churn loss) targets the full degree; the
        // top-up inside a reconfiguration stops one slot short of it.
        // That last slot is reserved for benefit-chosen invitations — an
        // updating node only completes its degree on merit, so a
        // hyperactive update clock, whose evictions bleed the overlay,
        // does not get its density back for free.
        let target = if self.is_dynamic() && !self.peers[k].fill_to_degree {
            degree
                .saturating_sub(1)
                .max(self.shared.config.min_degree_floor)
        } else {
            degree
        };
        let have = self.neighbors[k].len() + self.peers[k].pending_invites as usize;
        let want = target.min(degree).saturating_sub(have);
        if want > 0 {
            self.request_links(node, want, ctx);
        }
    }

    /// A handshake came back refused: retry while the campaign budget
    /// lasts (candidates are often offline — the node has no oracle).
    fn retry_refill<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if !self.sessions[k].online || self.peers[k].refill_budget == 0 {
            return;
        }
        self.peers[k].refill_budget -= 1;
        self.refill_links(node, ctx);
    }

    // ---- protocol actions -------------------------------------------------
    //
    // Every method below is generic over the engine context: the node
    // logic only speaks `Clock` (time + self-timers) and `Transport`
    // (node-to-node delivery). Under the serial kernel the context is the
    // `Scheduler`; under the sharded kernel it is a thin adapter over
    // `ShardCtx`. Both deliver identical event sequences, which is what
    // the sharded == serial bit-identity tests pin.

    fn send_query<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        from: NodeId,
        to: NodeId,
        desc: QueryDescriptor,
        ctx: &mut C,
    ) {
        let k = self.li(from);
        let d = self.delay(k, from, to);
        self.metrics
            .runtime
            .record_messages(ctx.now().as_hours() as usize, 1.0);
        ctx.send(to, d, GnutellaEvent::QueryArrive { to, from, desc });
    }

    /// Flood a fresh (or relaunched) query from its initiator.
    fn flood_from_origin<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        qid: QueryId,
        item: ItemId,
        ttl: u8,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        let desc = QueryDescriptor {
            id: qid,
            origin: node,
            item,
            ttl,
            travelled: 1,
            issued_at: ctx.now(),
        };
        // Reuse the scratch buffer (taken out of `self` so `send_query`
        // can borrow the world mutably while we iterate).
        let mut targets = std::mem::take(&mut self.scratch_targets);
        self.shared.config.forward.select_into(
            self.neighbors[k].as_slice(),
            None,
            &self.peers[k].rt.stats,
            self.benefit.as_ref(),
            &mut self.proto[k],
            &mut targets,
        );
        for &t in &targets {
            self.send_query(node, t, desc, ctx);
        }
        self.scratch_targets = targets;
    }

    fn login<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if !self.shared.config.persist_stats {
            self.peers[k].rt.reset_stats();
        }
        self.peers[k].begin_session();
        self.sessions[k].login();
        self.metrics.logins += 1;
        if self.is_dynamic() && self.shared.config.benefit_join_on_login {
            // Re-cluster from remembered statistics: invite the most
            // beneficial known nodes for every slot they can fill. The
            // node cannot know who is online — offline invitees refuse.
            let invites: Vec<NodeId> = self.peers[k]
                .rt
                .stats
                .ranked_by(|s| self.benefit.benefit(s), |m| m != node)
                .into_iter()
                .take_while(|&(_, b)| b > 0.0)
                .take(self.shared.config.degree)
                .map(|(m, _)| m)
                .collect();
            for a in invites {
                self.metrics.invitations_sent += 1;
                self.peers[k].pending_invites += 1;
                let d = self.delay(k, node, a);
                ctx.send(a, d, GnutellaEvent::InviteArrive { to: a, from: node });
            }
        }
        // Gnutella join: request links from known/bootstrap hosts (minus
        // slots reserved for pending invitations).
        self.refill_links(node, ctx);
        let d = self.peers[k].queries.next_interval().max(self.lookahead);
        ctx.schedule_after(
            d,
            GnutellaEvent::IssueQuery {
                node,
                session: self.sessions[k].session,
            },
        );
        if let SearchStrategy::LocalIndices { radius } = self.shared.config.strategy {
            self.rebuild_index(node, radius);
            ctx.schedule_after(
                self.shared.config.index_refresh.max(self.lookahead),
                GnutellaEvent::IndexRefresh {
                    node,
                    session: self.sessions[k].session,
                },
            );
        }
    }

    fn logoff<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if T::ENABLED {
            // The session teardown below discards the node's in-flight
            // queries; close their spans first so every trace span still
            // reaches a terminal record.
            let mut cut: Vec<u64> = self.peers[k].pending.keys().map(|q| q.0).collect();
            cut.sort_unstable();
            for q in cut {
                self.tracer
                    .finish(ctx.now(), QueryId(q), TraceOutcome::Timeout, 0, -1.0);
            }
        }
        // Queries still pending at logoff are abandoned, never finalised
        // (`finalize_query` hits the removed-already branch afterwards):
        // count them here so issued = finalized + abandoned + pending.
        self.metrics.queries_abandoned += self.peers[k].pending.len() as u64;
        self.peers[k].end_session();
        self.sessions[k].logoff();
        self.metrics.logoffs += 1;
        // Tear down the node's own view and notify each former neighbor;
        // they react in their `Unlink` handlers (dynamic: reconfigure;
        // static: request replacement links).
        let former = self.neighbors[k].drain();
        for m in former {
            let d = self.delay(k, node, m);
            ctx.send(m, d, GnutellaEvent::Unlink { to: m, from: node });
        }
    }

    fn issue_query<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        session: u32,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if !self.sessions[k].online || self.sessions[k].session != session {
            return; // stale event from a previous session
        }
        let now = ctx.now();

        let item = {
            let shared = &self.shared;
            let i = node.index();
            // Fractional hour for the flash-crowd trapezoid; with no
            // crowd configured `next_target_at` falls straight through to
            // the clockless path with identical RNG draws.
            let hour = now.as_millis() as f64 / 3_600_000.0;
            self.peers[k]
                .queries
                .next_target_at(&shared.catalog, &shared.profiles[i], hour)
        };
        let qid = self.fresh_qid(k, node);
        self.peers[k].rt.seen().first_sighting(qid);
        // Recycle a finalised record (keeps its responders capacity)
        // instead of allocating a fresh one per query.
        let pq = match self.pq_pool.pop() {
            Some(mut pq) => {
                pq.reset(item, now);
                pq
            }
            None => PendingQuery::new(item, now),
        };
        self.peers[k].pending.insert(qid, pq);
        self.metrics.runtime.record_query(now.as_hours() as usize);

        // Decide the launch shape without cloning the strategy (the
        // deepening variant owns a Vec; cloning it per query was the
        // single biggest allocation on the issue path).
        enum LaunchPlan {
            Bfs,
            Deepening { first_depth: u8 },
            LocalIndices { radius: u8 },
        }
        let plan = match &self.shared.config.strategy {
            SearchStrategy::Bfs => LaunchPlan::Bfs,
            SearchStrategy::IterativeDeepening { depths } => LaunchPlan::Deepening {
                first_depth: depths[0],
            },
            SearchStrategy::LocalIndices { radius } => LaunchPlan::LocalIndices { radius: *radius },
        };
        let launch_ttl = match &plan {
            LaunchPlan::Bfs => self.shared.config.max_hops,
            LaunchPlan::Deepening { first_depth } => *first_depth,
            LaunchPlan::LocalIndices { radius } => {
                self.shared.config.max_hops.saturating_sub(*radius).max(1)
            }
        };
        self.tracer
            .issue(now, qid, node, item.index() as u64, launch_ttl);
        match plan {
            LaunchPlan::Bfs => {
                let ttl = self.shared.config.max_hops;
                self.flood_from_origin(node, qid, item, ttl, ctx);
                ctx.schedule_after(
                    self.shared.config.query_timeout.max(self.lookahead),
                    GnutellaEvent::QueryFinalize { node, query: qid },
                );
            }
            LaunchPlan::Deepening { first_depth } => {
                self.flood_from_origin(node, qid, item, first_depth, ctx);
                ctx.schedule_after(
                    self.shared.config.wave_timeout.max(self.lookahead),
                    GnutellaEvent::WaveCheck {
                        node,
                        query: qid,
                        wave: 0,
                    },
                );
            }
            LaunchPlan::LocalIndices { radius } => {
                if let Some(holder) = self.index_holder(node, item) {
                    // Contact the indexed holder directly: one targeted
                    // message, one reply — no flood.
                    self.metrics.index_answers += 1;
                    let hk = self.li(holder);
                    self.served[hk] += 1;
                    self.metrics
                        .runtime
                        .record_messages(now.as_hours() as usize, 1.0);
                    let there = self.delay(k, node, holder);
                    let back = self.delay(hk, holder, node);
                    let bw = self.shared.net.class(holder);
                    ctx.send(
                        node,
                        there + back,
                        GnutellaEvent::ReplyArrive {
                            to: node,
                            from: holder,
                            query: qid,
                            bandwidth: bw,
                            hops: 1,
                        },
                    );
                } else {
                    // The last `radius` hops are covered by indices at the
                    // frontier, so the flood itself travels shorter.
                    let ttl = self.shared.config.max_hops.saturating_sub(radius).max(1);
                    self.flood_from_origin(node, qid, item, ttl, ctx);
                }
                ctx.schedule_after(
                    self.shared.config.query_timeout.max(self.lookahead),
                    GnutellaEvent::QueryFinalize { node, query: qid },
                );
            }
        }

        // Reconfiguration clock ticks in requests (paper §4.3). The clock
        // always ticks — static mode simply never acts on a due clock —
        // so both modes follow identical event schedules.
        let clock_due = self.peers[k].rt.clock.tick();
        if self.is_dynamic() && clock_due {
            self.reconfigure(node, ctx);
        }

        let d = self.peers[k].queries.next_interval().max(self.lookahead);
        ctx.schedule_after(d, GnutellaEvent::IssueQuery { node, session });
    }

    fn query_arrive<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        to: NodeId,
        from: NodeId,
        desc: QueryDescriptor,
        ctx: &mut C,
    ) {
        let k = self.li(to);
        if !self.sessions[k].online {
            return; // the node logged off while the message was in flight
        }
        // Shard-local membership: query traffic teaches the node about
        // other hosts (the sender and the far-away initiator).
        self.hosts[k].note(from);
        if desc.origin != to {
            self.hosts[k].note(desc.origin);
        }
        if !self.peers[k].rt.seen().first_sighting(desc.id) {
            self.metrics.duplicates_dropped += 1;
            self.tracer.dup(ctx.now(), desc.id, to);
            return; // "if the same message has been received before, discard"
        }
        if !self.shared.free_rider[to.index()]
            && !self.shared.liar[to.index()]
            && self.shared.profiles[to.index()].has(desc.item)
        {
            // Reply to the initiator and do not propagate (§4.1).
            // Free-riders skip this branch entirely: they hold content
            // but refuse to serve it (§2's imbalance scenario). Liars do
            // too — their advertised summary is a lie, and the refusal
            // here is what their benefit entries eventually reflect.
            self.served[k] += 1;
            let bw = self.shared.net.class(to);
            let d = self.delay(k, to, desc.origin);
            ctx.send(
                desc.origin,
                d,
                GnutellaEvent::ReplyArrive {
                    to: desc.origin,
                    from: to,
                    query: desc.id,
                    bandwidth: bw,
                    hops: desc.travelled,
                },
            );
            return;
        }
        if let SearchStrategy::LocalIndices { .. } = self.shared.config.strategy {
            // Answer on behalf of an indexed nearby holder (Yang &
            // Garcia-Molina: the index covers the final hops, so the
            // query terminates here).
            if let Some(holder) = self.index_holder(to, desc.item) {
                self.metrics.index_answers += 1;
                let hk = self.li(holder);
                self.served[hk] += 1;
                let bw = self.shared.net.class(holder);
                let d = self.delay(k, to, desc.origin);
                ctx.send(
                    desc.origin,
                    d,
                    GnutellaEvent::ReplyArrive {
                        to: desc.origin,
                        from: holder,
                        query: desc.id,
                        bandwidth: bw,
                        hops: desc.travelled.saturating_add(1),
                    },
                );
                return;
            }
        }
        if desc.ttl <= 1 {
            return; // hop limit reached
        }
        let fwd = desc.next_hop();
        let mut targets = std::mem::take(&mut self.scratch_targets);
        self.shared.config.forward.select_into(
            self.neighbors[k].as_slice(),
            Some(from),
            &self.peers[k].rt.stats,
            self.benefit.as_ref(),
            &mut self.proto[k],
            &mut targets,
        );
        self.tracer.hop(
            ctx.now(),
            desc.id,
            to,
            from,
            desc.ttl,
            desc.travelled,
            targets.len(),
        );
        for &t in &targets {
            self.send_query(to, t, fwd, ctx);
        }
        self.scratch_targets = targets;
    }

    fn reply_arrive(&mut self, to: NodeId, from: NodeId, query: QueryId, hops: u8, now: SimTime) {
        let k = self.li(to);
        if !self.sessions[k].online {
            return;
        }
        self.hosts[k].note(from);
        if let Some(pq) = self.peers[k].pending.get_mut(&query) {
            let was_first = pq.first_at.is_none();
            pq.record(from, now);
            if now.as_hours() >= self.shared.config.warmup_hours {
                self.metrics.result_hops.record(hops as f64);
                if was_first {
                    self.metrics.first_result_hops.record(hops as f64);
                }
            }
            if was_first {
                self.metrics.runtime.record_hit(now.as_hours() as usize);
                let latency = now.saturating_since(pq.issued_at).as_millis() as f64;
                self.tracer.first(now, query, from, hops, latency);
            }
        }
    }

    fn finalize_query(&mut self, node: NodeId, query: QueryId, now: SimTime) {
        let k = self.li(node);
        let Some(pq) = self.peers[k].pending.remove(&query) else {
            return; // logged off in the meantime, or double finalize
        };
        self.metrics.queries_finalized += 1;
        let results = pq.responders.len();
        if results == 0 {
            self.tracer.finish(now, query, TraceOutcome::Miss, 0, -1.0);
            self.pq_pool.push(pq);
            return;
        }
        let first_at = pq.first_at.expect("responders non-empty");
        self.tracer.finish(
            now,
            query,
            TraceOutcome::Hit,
            results as u64,
            first_at.saturating_since(pq.issued_at).as_millis() as f64,
        );
        let hour = first_at.as_hours();
        self.metrics.results.add(hour as usize, results as f64);
        if hour >= self.shared.config.warmup_hours {
            let delay = first_at.saturating_since(pq.issued_at).as_millis() as f64;
            self.metrics.runtime.record_latency_ms(delay);
            self.metrics.first_delay_hist.record(delay);
        }
        // "Obtain results and update statistics" — each result scores
        // B / R (statistics are only consumed in dynamic mode, but keeping
        // them in static mode costs little and simplifies A/B debugging).
        if self.is_dynamic() {
            for &(responder, at) in &pq.responders {
                let bandwidth = self.shared.net.class(responder);
                let score = self.shared.config.result_score.score(bandwidth, results);
                let latency_ms = at.saturating_since(pq.issued_at).as_millis() as f64;
                self.peers[k]
                    .rt
                    .stats
                    .record_reply(ddr_core::stats_store::ReplyObservation {
                        from: responder,
                        bandwidth: Some(bandwidth),
                        score,
                        latency_ms,
                        at,
                    });
            }
        }
        self.pq_pool.push(pq);
    }

    /// Algo 5 `Reconfigure`: compute the most beneficial neighborhood,
    /// evict dropped neighbors, invite newcomers, reset the counter.
    /// Every change is enacted on the node's own view plus messages; the
    /// counterparties mirror on receipt.
    fn reconfigure<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        self.peers[k].rt.clock.reset();
        self.peers[k].fill_to_degree = false;
        self.peers[k].refill_budget = crate::peer::REFILL_RETRY_BUDGET;
        // Open a fresh observation epoch: halve every accumulated benefit
        // so this update (and the invites it retries) ranks mostly on the
        // ~K results gathered since the last one. See
        // `StatsStore::decay_benefit` for why this bends Fig 3(b).
        self.peers[k].rt.stats.decay_benefit(0.5);
        self.metrics.runtime.record_update();

        // Evictions are enacted eagerly, making a planned swap
        // degree-neutral: the freed slot is either retaken by the
        // invited replacement or — when the recency proxy was wrong and
        // the invite refuses — stays empty until a retried invitation
        // or a later update fills it. The occasional shrinkage is the
        // paper's under-degree dynamic overlay, and a large part of its
        // message savings.
        let plan = self.plan_update(k, node, ctx.now());
        for e in plan.evict {
            if self.neighbors[k].remove(e) {
                self.metrics.evictions += 1;
                self.metrics.runtime.record_edges_changed(1);
                self.peers[k].evicted.insert(e);
                let d = self.delay(k, node, e);
                ctx.send(e, d, GnutellaEvent::EvictArrive { to: e, from: node });
            }
        }
        for a in plan.add {
            self.metrics.invitations_sent += 1;
            self.peers[k].pending_invites += 1;
            let d = self.delay(k, node, a);
            ctx.send(a, d, GnutellaEvent::InviteArrive { to: a, from: node });
        }
        // Maintain the connectivity floor with link requests (slots
        // reserved for in-flight invitations stay free, otherwise random
        // links would race the acceptances and the benefit-driven link
        // would be dropped on arrival). Above the floor, only invitations
        // add links — the paper's dynamic variant regains links through
        // the protocol, not through random reconnects.
        self.refill_links(node, ctx);
    }

    /// Rank the node's statistics into an update plan under shard-local
    /// membership: there is no global online set to filter candidates
    /// with, so a statistics entry refreshed inside the recency window
    /// (one mean session length) is the liveness proxy instead. A stale
    /// pick merely refuses via `InviteReply`, which marks it stale (see
    /// the dispatch arm) so the retry plans around it.
    fn plan_update(&self, k: usize, node: NodeId, now: SimTime) -> ddr_core::UpdatePlan {
        let window =
            SimDuration::from_millis(2 * self.shared.config.workload.mean_online.as_millis());
        let rank = EverAnswered(self.benefit.as_ref());
        let stats = &self.peers[k].rt.stats;
        let current = self.neighbors[k].as_slice();
        // Incumbents are always eligible: the view itself tracks
        // liveness (a leaving neighbor Unlinks within a flight time),
        // so the recency proxy must not "dead-evict" a quiet but
        // connected peer. It only gates newcomers.
        let eligible = |m: NodeId| {
            m != node
                // A node advertising an empty shared library (a free
                // rider) is never worth a slot: as an incumbent it is
                // dropped unconditionally, as a candidate it is never
                // invited. Contributor summaries are always non-empty,
                // so this clause is inert in free-rider-free worlds.
                && self.shared.summaries[m.index()].total() > 0
                && (current.contains(&m)
                    || stats
                        .get(m)
                        .is_some_and(|s| now.saturating_since(s.last_update) <= window))
        };
        plan_asymmetric_update(current, stats, &rank, self.shared.config.degree, eligible)
            .limit_swaps(
                self.shared.config.max_swaps_per_reconfig,
                self.shared.config.degree,
                stats,
                &rank,
                eligible,
            )
    }

    /// A refused invitation released a slot the reconfiguration already
    /// evicted for. Re-plan and invite the next-best candidate into the
    /// genuinely free slots (never evicting again), spending one unit of
    /// the campaign budget per round — this recovers most of the
    /// effectiveness an online oracle would give the planner.
    fn retry_invites<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if !self.sessions[k].online || self.peers[k].refill_budget == 0 {
            return;
        }
        self.peers[k].refill_budget -= 1;
        let free = self
            .shared
            .config
            .degree
            .saturating_sub(self.neighbors[k].len() + self.peers[k].pending_invites as usize);
        let adds = self.plan_update(k, node, ctx.now()).add;
        for a in adds.into_iter().take(free) {
            self.metrics.invitations_sent += 1;
            self.peers[k].pending_invites += 1;
            let d = self.delay(k, node, a);
            ctx.send(a, d, GnutellaEvent::InviteArrive { to: a, from: node });
        }
    }

    /// Algo 5 `Process_Invitation` — always accept (or benefit-gate),
    /// evicting the least beneficial neighbor when full; reset the
    /// reconfiguration counter to avoid cascading updates. The verdict
    /// travels back as `InviteReply` so the inviter can mirror the link
    /// (or release the reserved slot).
    fn invite_arrive<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        to: NodeId,
        from: NodeId,
        ctx: &mut C,
    ) {
        let k = self.li(to);
        if !self.sessions[k].online || self.peers[k].evicted.contains(&from) {
            // Connection refused — offline, or the inviter is a node this
            // peer already judged not worth a slot this session. The
            // reply still travels so the inviter's reservation is
            // released.
            let d = self.delay(k, to, from);
            ctx.send(
                from,
                d,
                GnutellaEvent::InviteReply {
                    to: from,
                    from: to,
                    accepted: false,
                },
            );
            return;
        }
        self.hosts[k].note(from);
        if self.neighbors[k].contains(from) {
            // Already neighbors (race with another update): nothing to
            // commit, but answer accepted so the inviter keeps its mirror.
            let d = self.delay(k, to, from);
            ctx.send(
                from,
                d,
                GnutellaEvent::InviteReply {
                    to: from,
                    from: to,
                    accepted: true,
                },
            );
            return;
        }
        let inv_ctx = InvitationContext {
            inviter_summary: Some(&self.shared.summaries[from.index()]),
            own_summary: Some(&self.shared.summaries[to.index()]),
        };
        let decision = self.shared.config.invitation.decide(
            from,
            self.neighbors[k].as_slice(),
            &self.peers[k].rt.stats,
            &EverAnswered(self.benefit.as_ref()),
            self.shared.config.degree,
            &inv_ctx,
        );
        let mut accepted = false;
        if let InvitationDecision::Accept { evict } = decision {
            if let Some(w) = evict {
                if self.neighbors[k].remove(w) {
                    self.metrics.evictions += 1;
                    self.metrics.runtime.record_edges_changed(1);
                    let d = self.delay(k, to, w);
                    ctx.send(w, d, GnutellaEvent::EvictArrive { to: w, from: to });
                }
            }
            if self.neighbors[k].add(from).is_ok() {
                accepted = true;
                self.metrics.invitations_accepted += 1;
                self.metrics.runtime.record_edges_changed(1);
                // §4.3 damping: the neighbour list just changed, so
                // restart the update clock.
                self.peers[k].rt.note_invitation_accepted();
                if let ddr_core::InvitationPolicy::TrialPeriod { trial_millis } =
                    self.shared.config.invitation
                {
                    // Provisional acceptance: re-evaluate after the
                    // trial window (§3.4 solution a).
                    ctx.schedule_after(
                        SimDuration::from_millis(trial_millis).max(self.lookahead),
                        GnutellaEvent::TrialExpire {
                            node: to,
                            peer: from,
                            session: self.sessions[k].session,
                        },
                    );
                }
            }
        }
        let d = self.delay(k, to, from);
        ctx.send(
            from,
            d,
            GnutellaEvent::InviteReply {
                to: from,
                from: to,
                accepted,
            },
        );
    }

    /// Mirror a positively-acknowledged link (`LinkAck` / `InviteReply`)
    /// in the acknowledged node's own view, or send a repair `Unlink` if
    /// the link can no longer be honored (logged off / filled up
    /// meanwhile). The reservation made at send time is always released
    /// by the caller.
    ///
    /// `evict_if_full` is set on the invitation path: the reconfiguration
    /// that sent the invite planned to swap out its least beneficial
    /// neighbor, and that deferred eviction lands here — only once the
    /// replacement is confirmed.
    fn mirror_link<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        peer: NodeId,
        evict_if_full: bool,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if self.sessions[k].online {
            if self.neighbors[k].contains(peer) {
                return; // already mirrored (race with another handshake)
            }
            if self.neighbors[k].add(peer).is_ok() {
                // The committing side already counted the edge change;
                // the mirror is bookkeeping, not a second change.
                return;
            }
            if evict_if_full {
                // Deferred swap: drop the least beneficial current
                // neighbor — but only if the confirmed newcomer actually
                // beats it (statistics may have moved since planning).
                let rank = EverAnswered(self.benefit.as_ref());
                let new_b = self.peers[k]
                    .rt
                    .stats
                    .get(peer)
                    .map(|s| rank.benefit(s))
                    .unwrap_or(0.0);
                let worst = self.neighbors[k]
                    .iter()
                    .map(|m| {
                        let b = self.peers[k]
                            .rt
                            .stats
                            .get(m)
                            .map(|s| rank.benefit(s))
                            .unwrap_or(0.0);
                        (m, b)
                    })
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
                if let Some((w, wb)) = worst {
                    if wb < new_b && self.neighbors[k].remove(w) {
                        self.metrics.evictions += 1;
                        self.metrics.runtime.record_edges_changed(1);
                        self.peers[k].evicted.insert(w);
                        let d = self.delay(k, node, w);
                        ctx.send(w, d, GnutellaEvent::EvictArrive { to: w, from: node });
                        let _ = self.neighbors[k].add(peer);
                        return;
                    }
                }
            }
        }
        // Offline, or full with nothing worth evicting: the counterparty
        // committed a link this node cannot hold — repair.
        let d = self.delay(k, node, peer);
        ctx.send(
            peer,
            d,
            GnutellaEvent::Unlink {
                to: peer,
                from: node,
            },
        );
    }

    /// Symmetric-link handshake, receiver side: commit-first, then ack.
    fn link_request<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        to: NodeId,
        from: NodeId,
        ctx: &mut C,
    ) {
        let k = self.li(to);
        let mut accepted = false;
        if self.sessions[k].online && !self.peers[k].evicted.contains(&from) {
            self.hosts[k].note(from);
            if self.neighbors[k].contains(from) {
                accepted = true; // idempotent re-request
            } else if self.neighbors[k].add(from).is_ok() {
                // Accept whenever a slot is free. The receiver's own
                // outstanding handshakes do NOT reserve slots here: if one
                // of them is accepted after the list fills, its mirror
                // repairs the overflow (and on the invitation path the
                // beneficial link wins the slot by eviction), so refusing
                // eagerly would only starve the overlay.
                accepted = true;
                self.metrics.runtime.record_edges_changed(1);
            }
        }
        let d = self.delay(k, to, from);
        ctx.send(
            from,
            d,
            GnutellaEvent::LinkAck {
                to: from,
                from: to,
                accepted,
            },
        );
    }

    /// A neighbor link disappeared (logoff, repair, refused mirror):
    /// update the own view and react per mode — the dynamic variant
    /// reconfigures ("neighbor log-offs trigger the update process"),
    /// the static variant requests replacement links from known hosts.
    fn unlink<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        to: NodeId,
        from: NodeId,
        ctx: &mut C,
    ) {
        let k = self.li(to);
        if !self.sessions[k].online {
            return;
        }
        if !self.neighbors[k].remove(from) {
            return; // view never held the link (refused handshake)
        }
        if self.is_dynamic() {
            if self.shared.config.reconfig_on_neighbor_loss {
                // "Neighbor log-offs trigger the update process." The
                // triggered update already reopens a floor-target refill
                // with a fresh budget; the slot above the floor stays
                // reserved for merit — a node recovers its full degree
                // only through benefit-driven invitations, which is what
                // separates contributors from peers nobody would invite.
                self.reconfigure(to, ctx);
            } else {
                // No triggered update: a churn loss opens a full-degree
                // repair campaign like static's, since without the
                // update process there is no invitation channel working
                // to restore the density.
                self.peers[k].fill_to_degree = true;
                self.peers[k].refill_budget = crate::peer::REFILL_RETRY_BUDGET;
                self.refill_links(to, ctx);
            }
        } else {
            // Static Gnutella: a fresh refill campaign replaces the lost
            // neighbor with requests to known/bootstrap hosts.
            self.peers[k].refill_budget = crate::peer::REFILL_RETRY_BUDGET;
            self.refill_links(to, ctx);
        }
    }

    /// Algo 5 `Process_Eviction`: drop the link from the own view and
    /// reset the evictor's statistics so the node will not try to
    /// reconnect in the near future.
    fn evict_arrive<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        to: NodeId,
        from: NodeId,
        ctx: &mut C,
    ) {
        let k = self.li(to);
        if !self.sessions[k].online {
            return;
        }
        self.neighbors[k].remove(from);
        self.peers[k].rt.stats.reset_node(from);
        // Repeated evictions are a rejection signal, not bad luck: past
        // the per-session allowance the node stops redialing (backoff)
        // and stays lean until its next login. A systematically rejected
        // peer — one every neighborhood votes out — starves; see
        // `EVICTION_REPAIR_LIMIT`.
        self.peers[k].evictions_received = self.peers[k].evictions_received.saturating_add(1);
        if self.peers[k].evictions_received > crate::peer::EVICTION_REPAIR_LIMIT {
            return;
        }
        if self.is_dynamic() && !self.shared.config.reconfig_on_neighbor_loss {
            // When losses don't feed the update trigger, an eviction is
            // indistinguishable from churn at the receiving end: run the
            // ordinary full-degree repair campaign.
            self.peers[k].fill_to_degree = true;
            self.peers[k].refill_budget = crate::peer::REFILL_RETRY_BUDGET;
            self.refill_links(to, ctx);
            return;
        }
        // Under the loss-triggered update regime, the lost link is only
        // repaired with a single un-retried probe that stops one slot
        // short of full degree (the slot reserved for invitations, as in
        // `refill_links`) — being evicted costs the evictee real density
        // until its next churn event renews the campaign budget. That
        // cost scales with the network's update rate, which is what
        // bends Fig 3(b): hyperactive clocks bleed the overlay lean,
        // sluggish ones keep it dense but unclustered.
        let floor = self
            .shared
            .config
            .degree
            .saturating_sub(1)
            .max(self.shared.config.min_degree_floor);
        let have = self.neighbors[k].len() + self.peers[k].pending_invites as usize;
        let want = floor.saturating_sub(have);
        if want > 0 {
            self.request_links(to, want, ctx);
        }
    }
}

impl<T: TraceSink> GnutellaWorld<T> {
    /// Iterative deepening: the wave's collection window elapsed.
    fn wave_check<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        query: QueryId,
        wave: u8,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if !self.sessions[k].online {
            return;
        }
        let Some(pq) = self.peers[k].pending.get(&query) else {
            return; // finalised or superseded
        };
        if pq.wave != wave {
            return; // a deeper wave is already in flight
        }
        // Pull the two scalars we need out of the schedule instead of
        // cloning the depth vector on every wave check.
        let next_wave = wave as usize + 1;
        let next_depth = match &self.shared.config.strategy {
            SearchStrategy::IterativeDeepening { depths } => depths.get(next_wave).copied(),
            _ => return, // strategy changed? impossible within a run
        };
        let satisfied = !pq.responders.is_empty();
        let Some(next_depth) = (!satisfied).then_some(next_depth).flatten() else {
            self.finalize_query(node, query, ctx.now());
            return;
        };
        // Relaunch deeper under a fresh wire id; the pending record (and
        // the original issue time) carries over.
        let mut pq = self.peers[k].pending.remove(&query).expect("checked above");
        pq.wave = next_wave as u8;
        let item = pq.item;
        let qid2 = self.fresh_qid(k, node);
        self.peers[k].rt.seen().first_sighting(qid2);
        self.peers[k].pending.insert(qid2, pq);
        self.metrics.extra_waves += 1;
        self.tracer
            .relaunch(ctx.now(), query, qid2, next_wave as u8);
        self.flood_from_origin(node, qid2, item, next_depth, ctx);
        ctx.schedule_after(
            self.shared.config.wave_timeout.max(self.lookahead),
            GnutellaEvent::WaveCheck {
                node,
                query: qid2,
                wave: next_wave as u8,
            },
        );
    }

    /// Trial expiry (§3.4 solution a): keep the provisional neighbor only
    /// if it produced benefit during the trial window.
    fn trial_expire<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        peer: NodeId,
        session: u32,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if !self.sessions[k].online || self.sessions[k].session != session {
            return; // the trial died with the session
        }
        if !self.neighbors[k].contains(peer) {
            return; // already unlinked by other means
        }
        let earned = self.peers[k]
            .rt
            .stats
            .get(peer)
            .map(|s| self.benefit.benefit(s))
            .unwrap_or(0.0);
        if earned <= 0.0 {
            if self.neighbors[k].remove(peer) {
                self.metrics.evictions += 1;
                self.metrics.runtime.record_edges_changed(1);
                self.metrics.trials_failed += 1;
                let d = self.delay(k, node, peer);
                ctx.send(
                    peer,
                    d,
                    GnutellaEvent::EvictArrive {
                        to: peer,
                        from: node,
                    },
                );
            }
        } else {
            self.metrics.trials_confirmed += 1;
        }
    }

    /// Local indices: periodic rebuild while the node stays online.
    fn index_refresh<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        session: u32,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if !self.sessions[k].online || self.sessions[k].session != session {
            return; // stale event from an earlier session
        }
        if let SearchStrategy::LocalIndices { radius } = self.shared.config.strategy {
            self.rebuild_index(node, radius);
            ctx.schedule_after(
                self.shared.config.index_refresh.max(self.lookahead),
                GnutellaEvent::IndexRefresh { node, session },
            );
        }
    }

    /// The one event dispatcher both kernels share. `ctx` is the serial
    /// `Scheduler` or the sharded `ShardPort`; the handler code is
    /// identical, which is what makes sharded == serial bit-identical.
    fn dispatch<C: Clock<GnutellaEvent> + Transport<GnutellaEvent>>(
        &mut self,
        now: SimTime,
        event: GnutellaEvent,
        ctx: &mut C,
    ) {
        // Regional partition gate: while the window is active, every
        // node-to-node message crossing an island boundary is dropped at
        // delivery time. The verdict is a pure function of
        // `(sender, receiver, now, config)` — no state, no RNG — so the
        // serial and sharded kernels drop exactly the same messages and
        // digest parity is preserved. Self events (timers) carry no
        // sender and always deliver, which keeps per-query bookkeeping
        // (`QueryFinalize`) alive through the outage.
        if let Some(p) = &self.shared.config.partition {
            if let Some(src) = event_source(&event) {
                let users = self.shared.net.len();
                let dst = event_target(&event);
                if p.island_of(src.index(), users) != p.island_of(dst.index(), users) {
                    if p.active_at_ms(now.as_millis()) {
                        self.metrics.partition_drops += 1;
                        return;
                    }
                    // Delivered across islands outside the window — the
                    // series the no-cross-island-delivery invariant reads.
                    self.metrics.cross_island.add(now.as_hours() as usize, 1.0);
                }
            }
        }
        match event {
            GnutellaEvent::Toggle { node } => {
                // `ChurnProcess::next_toggle` already flipped the target
                // state when this event was scheduled, so `churn.online()`
                // is the state to enter now.
                let k = self.li(node);
                let goes_online = self.peers[k].churn.online();
                if goes_online && !self.sessions[k].online {
                    self.login(node, ctx);
                } else if !goes_online && self.sessions[k].online {
                    self.logoff(node, ctx);
                }
                let d = self.peers[k].churn.next_toggle().max(self.lookahead);
                ctx.schedule_after(d, GnutellaEvent::Toggle { node });
            }
            GnutellaEvent::IssueQuery { node, session } => {
                self.issue_query(node, session, ctx);
            }
            GnutellaEvent::QueryArrive { to, from, desc } => {
                self.query_arrive(to, from, desc, ctx);
            }
            GnutellaEvent::ReplyArrive {
                to,
                from,
                query,
                bandwidth: _,
                hops,
            } => {
                self.reply_arrive(to, from, query, hops, now);
            }
            GnutellaEvent::QueryFinalize { node, query } => {
                self.finalize_query(node, query, now);
            }
            GnutellaEvent::InviteArrive { to, from } => {
                self.invite_arrive(to, from, ctx);
            }
            GnutellaEvent::InviteReply { to, from, accepted } => {
                let k = self.li(to);
                self.peers[k].pending_invites = self.peers[k].pending_invites.saturating_sub(1);
                if accepted {
                    self.mirror_link(to, from, true, ctx);
                } else {
                    // The candidate did not answer: almost certainly
                    // offline. Mark its statistics entry stale so the
                    // recency proxy stops proposing it (its next real
                    // reply re-qualifies it). The freed slot waits for
                    // the next update, which plans around the stale
                    // entry — unless connectivity itself is at stake,
                    // in which case the re-plan happens immediately.
                    let k = self.li(to);
                    self.peers[k].rt.stats.touch(from, SimTime::ZERO);
                    self.retry_invites(to, ctx);
                }
            }
            GnutellaEvent::EvictArrive { to, from } => {
                self.evict_arrive(to, from, ctx);
            }
            GnutellaEvent::LinkRequest { to, from } => {
                self.link_request(to, from, ctx);
            }
            GnutellaEvent::LinkAck { to, from, accepted } => {
                let k = self.li(to);
                self.peers[k].pending_invites = self.peers[k].pending_invites.saturating_sub(1);
                if accepted {
                    self.mirror_link(to, from, false, ctx);
                } else {
                    self.retry_refill(to, ctx);
                }
            }
            GnutellaEvent::Unlink { to, from } => {
                self.unlink(to, from, ctx);
            }
            GnutellaEvent::WaveCheck { node, query, wave } => {
                self.wave_check(node, query, wave, ctx);
            }
            GnutellaEvent::IndexRefresh { node, session } => {
                self.index_refresh(node, session, ctx);
            }
            GnutellaEvent::TrialExpire {
                node,
                peer,
                session,
            } => {
                self.trial_expire(node, peer, session, ctx);
            }
        }
    }
}

/// The node every event is addressed to — decides shard routing and which
/// node's state a handler may touch.
pub(crate) fn event_target(event: &GnutellaEvent) -> NodeId {
    match *event {
        GnutellaEvent::Toggle { node }
        | GnutellaEvent::IssueQuery { node, .. }
        | GnutellaEvent::QueryFinalize { node, .. }
        | GnutellaEvent::WaveCheck { node, .. }
        | GnutellaEvent::IndexRefresh { node, .. }
        | GnutellaEvent::TrialExpire { node, .. } => node,
        GnutellaEvent::QueryArrive { to, .. }
        | GnutellaEvent::ReplyArrive { to, .. }
        | GnutellaEvent::InviteArrive { to, .. }
        | GnutellaEvent::InviteReply { to, .. }
        | GnutellaEvent::EvictArrive { to, .. }
        | GnutellaEvent::LinkRequest { to, .. }
        | GnutellaEvent::LinkAck { to, .. }
        | GnutellaEvent::Unlink { to, .. } => to,
    }
}

/// The node a message event was sent *by* — `None` for self events
/// (timers), which never cross a partition boundary. Used by the
/// regional-partition gate in `dispatch`.
pub(crate) fn event_source(event: &GnutellaEvent) -> Option<NodeId> {
    match *event {
        GnutellaEvent::QueryArrive { from, .. }
        | GnutellaEvent::ReplyArrive { from, .. }
        | GnutellaEvent::InviteArrive { from, .. }
        | GnutellaEvent::InviteReply { from, .. }
        | GnutellaEvent::EvictArrive { from, .. }
        | GnutellaEvent::LinkRequest { from, .. }
        | GnutellaEvent::LinkAck { from, .. }
        | GnutellaEvent::Unlink { from, .. } => Some(from),
        GnutellaEvent::Toggle { .. }
        | GnutellaEvent::IssueQuery { .. }
        | GnutellaEvent::QueryFinalize { .. }
        | GnutellaEvent::WaveCheck { .. }
        | GnutellaEvent::IndexRefresh { .. }
        | GnutellaEvent::TrialExpire { .. } => None,
    }
}

/// Adapter presenting a [`ShardCtx`] as the `Clock` + `Transport` pair the
/// handlers speak. Self-timers route to the handling node's own shard.
struct ShardPort<'a, 'b> {
    ctx: &'a mut ShardCtx<'b, GnutellaEvent>,
    node: NodeId,
}

impl Clock<GnutellaEvent> for ShardPort<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn schedule_after(&mut self, delay: SimDuration, event: GnutellaEvent) {
        self.ctx.send(self.node, delay, event);
    }

    fn schedule_at(&mut self, at: SimTime, event: GnutellaEvent) {
        let d = at
            .saturating_since(self.ctx.now())
            .max(self.ctx.lookahead());
        self.ctx.send(self.node, d, event);
    }
}

impl Transport<GnutellaEvent> for ShardPort<'_, '_> {
    fn send(&mut self, to: NodeId, delay: SimDuration, event: GnutellaEvent) {
        self.ctx.send(to, delay, event);
    }
}

impl<T: TraceSink> ShardWorld for GnutellaWorld<T> {
    type Event = GnutellaEvent;

    fn handle(
        &mut self,
        now: SimTime,
        event: GnutellaEvent,
        ctx: &mut ShardCtx<'_, GnutellaEvent>,
    ) {
        let node = event_target(&event);
        let mut port = ShardPort { ctx, node };
        self.dispatch(now, event, &mut port);
    }

    fn sample_metrics(&self, now: SimTime, hub: &mut dyn ddr_sim::MetricsHub) {
        self.sample_metrics_into(now, hub);
    }
}

impl<T: TraceSink> World for GnutellaWorld<T> {
    type Event = GnutellaEvent;

    fn handle(
        &mut self,
        now: SimTime,
        event: GnutellaEvent,
        sched: &mut Scheduler<'_, GnutellaEvent>,
    ) {
        self.dispatch(now, event, sched);
    }

    fn sample_metrics(&self, now: SimTime, hub: &mut dyn ddr_sim::MetricsHub) {
        self.sample_metrics_into(now, hub);
    }

    /// Warm the caches for the next event while the current one runs.
    /// Query traffic dominates the event mix, and each arrival touches
    /// three far-apart lines before it can do anything: the recipient's
    /// `PeerState` header, its duplicate-cache slot and its profile's
    /// filter block. All three addresses are pure functions of the event
    /// payload, so they can be requested one dispatch early — overlapping
    /// most of the miss latency with useful work. Purely a hint: no
    /// observable state changes, and non-x86 builds compile it away.
    #[inline]
    fn prefetch(&self, next: &GnutellaEvent) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            match next {
                GnutellaEvent::QueryArrive { to, desc, .. } => {
                    let k = to.index() - self.base;
                    let peer = &self.peers[k];
                    // SAFETY: prefetch has no architectural effect; the
                    // addresses point into live owned allocations.
                    unsafe {
                        _mm_prefetch(std::ptr::addr_of!(*peer) as *const i8, _MM_HINT_T0);
                        if let Some(seen) = &peer.rt.seen {
                            _mm_prefetch(seen.probe_addr(desc.id) as *const i8, _MM_HINT_T0);
                        }
                        _mm_prefetch(
                            self.shared.profiles[to.index()].probe_addr(desc.item) as *const i8,
                            _MM_HINT_T0,
                        );
                    }
                }
                GnutellaEvent::ReplyArrive { to, .. } => {
                    let k = to.index() - self.base;
                    // SAFETY: as above.
                    unsafe {
                        _mm_prefetch(std::ptr::addr_of!(self.peers[k]) as *const i8, _MM_HINT_T0);
                    }
                }
                _ => {}
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = next;
        }
    }
}

// The online-set unit tests moved to `ddr-core` with the type itself
// (`ddr_core::runtime::membership`), plus a proptest model test in
// `crates/core/tests/membership_model.rs`.
