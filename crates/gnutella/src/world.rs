//! The Gnutella simulation world: all mutable state, its construction
//! and read-only accessors, and the one event dispatcher every engine
//! drives (both kernels and the serve bus). The event semantics of Algo 5
//! live beside it, one file per module of the paper's framework:
//!
//! * `search.rs` — Search (§3.2, Algo 1): `Send_Query`, `Process_Query`,
//!   result collection, and the effectful half of the search-strategy
//!   seam (deepening waves, local indices);
//! * `reconfigure.rs` — Neighbor update (§3.4, Algos 3–4): `Reconfigure`,
//!   its retried invitations, trial relationships;
//! * `membership.rs` — login / logoff and the symmetric-link handshakes
//!   underneath both, `Process_Invitation` and `Process_Eviction`
//!   included.
//!
//! Exploration (§3.3, Algo 2) has no handler here: in the music case
//! study search doubles as exploration (§4.1).
//!
//! Static mode strips everything except `Process_Query` and membership,
//! replacing lost neighbors with requests to random hosts — vanilla
//! Gnutella.
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
//!    network delays ≥ the kernel lookahead. Both handshakes change a
//!    node's view, reservations and eviction memory only through its
//!    [`LinkBook`] (`ddr_core::runtime::link`). Views can disagree for
//!    one message flight time — exactly like real sockets — and repair
//!    `Unlink`s reconcile refused mirrors.
//! 3. **Shard-local membership.** No handler reads the global online set
//!    but the local-index lookup, which asks the oracle (rule 4) whether
//!    an indexed holder is online; local indices run on the full range
//!    only. Nodes learn about other hosts from observed traffic via a
//!    per-node [`HostCache`] (seeded with bootstrap neighbors) plus
//!    uniform draws from their own proto stream (modeling a bootstrap
//!    server); offline candidates simply refuse with a negative ack.
//! 4. **One gated path to another node's row.** `SharedWorld`'s
//!    per-node columns are private to this module, so a row is read
//!    through `own`, which asserts only that the slice owns the node, or
//!    through `oracle`, at the call sites ci.sh lists with their reasons.
//!    The slice columns stay crate-visible: a handler indexes them with
//!    its own node's `li` by convention. The delay sampler is the
//!    physical network, not a node's knowledge, and stays outside.
//!
//! All self-timers and message delays are clamped to the lookahead
//! (`NetworkModel::min_delay`, 10 ms under paper parameters) in *both*
//! kernels, so the event timeline is identical.

use crate::config::{Mode, ScenarioConfig};
use crate::events::GnutellaEvent;
use crate::hosts::HostCache;
use crate::membership::bootstrap_views;
use crate::metrics::Metrics;
use crate::peer::{PeerState, PendingQuery, QueryOutcome, Role, SessionSlot, DEGREE};
use ddr_core::runtime::{LinkBook, NodeRuntime, Port};
use ddr_core::{CategorySummary, LocalIndex, UpdatePlan};
use ddr_net::{BandwidthClass, NetworkModel, NodeDelayStream};
use ddr_overlay::NeighborList;
use ddr_sim::{
    default_workers, map_chunked, parallelism::MIN_CHUNK, prefetch_line, prefetch_object,
    HintStage, ItemId, NodeId, Partition, QueryId, RngFactory, Scheduler, ShardCtx, ShardWorld,
    SimDuration, SimTime, World,
};
use ddr_telemetry::{NullSink, QueryTracer, TraceSink};
use ddr_workload::{generate_profiles_on, Catalog, ChurnProcess, QueryGenerator, UserProfile};
use rand::rngs::SmallRng;
use std::ptr::addr_of;
use std::sync::Arc;

/// Immutable world inputs, shared (read-only) by every shard's slice.
/// The per-node columns are private to this module: handlers read them
/// through [`GnutellaWorld::own`] and [`GnutellaWorld::oracle`].
pub(crate) struct SharedWorld {
    pub(crate) config: ScenarioConfig,
    pub(crate) catalog: Catalog,
    profiles: Vec<UserProfile>,
    net: NetworkModel,
    /// Per-node content summaries of what each node advertises
    /// (piggybacked on invitations when the summary-gated policy is
    /// active).
    summaries: Vec<CategorySummary>,
    /// What each user is: a contributor, a free rider or a liar.
    roles: Vec<Role>,
}

/// One node's row of [`SharedWorld`], read lazily: each accessor loads
/// only its own column.
#[derive(Clone, Copy)]
pub(crate) struct Row<'a> {
    shared: &'a SharedWorld,
    i: usize,
}

impl<'a> Row<'a> {
    /// The user's profile (favourite category, library).
    pub(crate) fn profile(self) -> &'a UserProfile {
        &self.shared.profiles[self.i]
    }

    /// The content summary the node advertises.
    pub(crate) fn summary(self) -> &'a CategorySummary {
        &self.shared.summaries[self.i]
    }

    /// The user's role.
    pub(crate) fn role(self) -> Role {
        self.shared.roles[self.i]
    }

    /// The node's bandwidth class, which its replies and advertisements
    /// carry.
    pub(crate) fn class(self) -> BandwidthClass {
        self.shared.net.class(NodeId::from_index(self.i))
    }

    /// The items the node advertises (see [`Role::advertised`]).
    pub(crate) fn advertised(self) -> &'a [ItemId] {
        self.role().advertised(self.profile())
    }
}

impl SharedWorld {
    /// `node`'s row through the oracle, borrowing only these inputs: for a
    /// handler that holds its own slice columns mutably meanwhile (an open
    /// link book). ci.sh lists its calls with [`GnutellaWorld::oracle`]'s.
    pub(crate) fn oracle(&self, node: NodeId) -> Row<'_> {
        Row {
            shared: self,
            i: node.index(),
        }
    }
}

/// A read-only handle on any node's state: its row, and its session slot
/// and neighbor view when this slice holds it (every node, in the
/// full-range world). A node learns other nodes through messages; each
/// call site of this handle is a fact no message carries, and ci.sh lists
/// them with their reasons. Lazy like [`Row`].
#[derive(Clone, Copy)]
pub(crate) struct Oracle<'a> {
    shared: &'a SharedWorld,
    base: usize,
    sessions: &'a [SessionSlot],
    neighbors: &'a [NeighborList],
}

impl<'a> Oracle<'a> {
    /// `node`'s row.
    pub(crate) fn row(self, node: NodeId) -> Row<'a> {
        Row {
            shared: self.shared,
            i: node.index(),
        }
    }

    /// Whether `node` is online.
    pub(crate) fn online(self, node: NodeId) -> bool {
        self.sessions[node.index() - self.base].online
    }

    /// `node`'s own view of its links.
    pub(crate) fn neighbors(self, node: NodeId) -> &'a [NodeId] {
        self.neighbors[node.index() - self.base].as_slice()
    }
}

/// The complete simulation state for one contiguous node slice. The sink
/// parameter `T` decides at compile time whether query-lifecycle telemetry
/// is recorded; the default [`NullSink`] world is byte-identical to the
/// pre-telemetry hot path.
///
/// A serial run uses one full-range slice; a sharded run uses
/// `Partition::contiguous` slices driven by `ShardedSimulation`, and the
/// serve bus the same slices, one per worker thread.
pub struct GnutellaWorld<T: TraceSink = NullSink> {
    pub(crate) shared: Arc<SharedWorld>,
    /// First node index this slice owns.
    pub(crate) base: usize,
    pub(crate) peers: Vec<PeerState>,
    /// Hot online/session scalars for every owned peer, kept as a dense
    /// struct-of-arrays column (8 B per peer) so the liveness checks at
    /// the top of every handler don't pull in cold `PeerState` lines.
    pub(crate) sessions: Vec<SessionSlot>,
    /// Each node's own view of its symmetric links (capacity = degree).
    pub(crate) neighbors: Vec<NeighborList>,
    /// Shard-local membership: hosts observed in protocol traffic.
    pub(crate) hosts: Vec<HostCache>,
    /// Per-node protocol randomness (`"gnutella.proto"` streams).
    pub(crate) proto: Vec<SmallRng>,
    /// Per-node delay sampling (`"net.delay"` streams).
    pub(crate) delays: Vec<NodeDelayStream>,
    /// Per-node query-id counters (qid = node << 32 | counter).
    pub(crate) next_qid: Vec<u32>,
    /// Per-node radius-r content indices (local-indices strategy only;
    /// restricted to the serial full-range world).
    pub(crate) indices: Vec<Option<LocalIndex>>,
    /// Results served per owned node from its own library (load-balance
    /// analysis); an index answer serves no file and counts in
    /// `metrics.index_answers` instead.
    pub(crate) served: Vec<u64>,
    /// Reply messages the owned nodes sent (every served result and every
    /// index answer), so a per-turn reader pays O(1).
    pub(crate) replies: u64,
    /// Kernel lookahead = the network delay floor; every delay and timer
    /// is clamped to at least this in both kernels.
    pub(crate) lookahead: SimDuration,
    /// Reused forward-target buffer: `ForwardSelection::select_into`
    /// fills it on every flood/forward, so the query path performs no
    /// per-event allocation.
    pub(crate) scratch_targets: Vec<NodeId>,
    /// Reused join-candidate buffer for `pick_join_targets`.
    pub(crate) scratch_join: Vec<NodeId>,
    /// Reused neighbor-update plan: `reconfigure` and `retry_invites`
    /// refill it in place.
    pub(crate) scratch_plan: UpdatePlan,
    /// Recycled [`PendingQuery`] records (their `responders` buffers keep
    /// their capacity across queries).
    pub(crate) pq_pool: Vec<PendingQuery>,
    /// Collected metrics (public so reports and tests can read them).
    pub metrics: Metrics,
    /// Query-lifecycle span recorder (a no-op unless `T` is an enabled
    /// sink).
    pub(crate) tracer: QueryTracer<T>,
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
    ///
    /// The per-node columns (profiles, summaries, the `gnutella.proto`
    /// and `net.delay` streams) are built on [`default_workers`] threads
    /// that claim contiguous chunks of [`MIN_CHUNK`] nodes in turn
    /// ([`map_chunked`]). Each node's entry reads only its own
    /// `(label, node)` streams and inputs fixed before the pass, so the
    /// world is bit-identical at any worker count. The
    /// `PeerState`s, the role shuffles, the initial online
    /// set, the bootstrap overlay, the host caches and the slice split
    /// stay serial, in node order.
    pub fn build_sharded(
        config: ScenarioConfig,
        shards: usize,
    ) -> (Vec<GnutellaWorld<T>>, Partition, SimDuration) {
        Self::build_on(config, shards, default_workers())
    }

    /// [`Self::build_sharded`] with its per-node pass on at most
    /// `workers` threads.
    pub(crate) fn build_on(
        config: ScenarioConfig,
        shards: usize,
        workers: usize,
    ) -> (Vec<GnutellaWorld<T>>, Partition, SimDuration) {
        config.validate().expect("invalid scenario config");
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shards == 1 || config.strategy.runs_sharded(),
            "the {} strategy needs multi-hop topology closure and only runs \
             on the serial full-range world",
            config.strategy.label()
        );
        let users = config.workload.users;
        let rngs = RngFactory::new(config.seed);
        let catalog = Catalog::for_workload(&config.workload);
        let profiles = generate_profiles_on(&config.workload, &catalog, &rngs, workers);
        let net = match config.bandwidth_mix {
            Some(mix) => NetworkModel::paper_with_mix(users, &rngs, mix),
            None => NetworkModel::paper(users, &rngs),
        };
        let lookahead = net.min_delay();
        assert!(
            lookahead > SimDuration::ZERO,
            "delay model admits zero delays: no usable lookahead"
        );

        // Built on this thread: the run regrows each dup-cache table, and
        // one allocated by a chunk thread is then freed into that thread's
        // malloc arena, where the run cannot reuse it. See
        // EXPERIMENTS.md "Parallel world build".
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
        // Two independent shuffles, each on its own stream: free riders
        // from the whole population, then liars from the rest (a node
        // cannot both advertise nothing and advertise everything).
        let roles = {
            use rand::seq::SliceRandom;
            let mut roles = vec![Role::Contributor; users];
            let count = (users as f64 * config.free_rider_fraction).round() as usize;
            let mut order: Vec<usize> = (0..users).collect();
            order.shuffle(&mut rngs.stream("freeriders", 0));
            for &i in order.iter().take(count) {
                roles[i] = Role::FreeRider;
            }
            let count = (users as f64 * config.liar_fraction).round() as usize;
            let mut order: Vec<usize> = (0..users).filter(|&i| roles[i].serves()).collect();
            order.shuffle(&mut rngs.stream("liars", 0));
            for &i in order.iter().take(count) {
                roles[i] = Role::Liar;
            }
            roles
        };
        // A summary advertises what a node *shares*, not what it has (see
        // [`Role::advertised`]): a free rider's is empty, exactly how real
        // Gnutella clients spot free riders (a zero shared-file count in
        // the handshake). Every contributor's library is non-empty by
        // construction, so an empty summary identifies a free rider and
        // FR-free worlds carry none. Liars exploit exactly this channel:
        // they advertise their full library (passing every summary gate)
        // yet never serve — the deception the benefit function must catch
        // through observed answers alone.
        let categories = catalog.categories() as usize;
        let summaries = map_chunked(
            users,
            workers,
            MIN_CHUNK,
            || (),
            |_, i| {
                CategorySummary::build(roles[i].advertised(&profiles[i]), categories, |item| {
                    catalog.category_of(item).index()
                })
            },
        );

        // Initially-online users and the random bootstrap overlay among
        // them, linked directly in the per-node views.
        let mut sessions = vec![SessionSlot::default(); users];
        let mut initial: Vec<NodeId> = Vec::new();
        for (i, peer) in peers.iter_mut().enumerate() {
            if peer.churn.online() {
                peer.begin_session();
                sessions[i].login();
                initial.push(NodeId::from_index(i));
            }
        }
        let mut neighbors = vec![NeighborList::with_capacity(DEGREE); users];
        bootstrap_views(&mut neighbors, &initial, &mut rngs.stream("bootstrap", 0));
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
        let proto = map_chunked(
            users,
            workers,
            MIN_CHUNK,
            || (),
            |_, i| rngs.stream("gnutella.proto", i as u64),
        );
        let delays = map_chunked(
            users,
            workers,
            MIN_CHUNK,
            || (),
            |_, i| NodeDelayStream::new(&rngs, NodeId::from_index(i)),
        );

        let shared = Arc::new(SharedWorld {
            config,
            catalog,
            profiles,
            net,
            summaries,
            roles,
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
                    replies: 0,
                    lookahead,
                    scratch_targets: Vec::with_capacity(16),
                    scratch_join: Vec::with_capacity(16),
                    scratch_plan: UpdatePlan::default(),
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
    pub(crate) fn li(&self, node: NodeId) -> usize {
        debug_assert!(
            node.index() >= self.base && node.index() - self.base < self.peers.len(),
            "event for node {node} dispatched to the slice at base {}",
            self.base
        );
        node.index() - self.base
    }

    /// Whether this slice owns every node (the serial world).
    pub(crate) fn is_full_range(&self) -> bool {
        self.base == 0 && self.peers.len() == self.users()
    }

    /// Users in the whole world, every slice's.
    pub(crate) fn users(&self) -> usize {
        self.shared.net.len()
    }

    /// The row of `node`, which this slice owns (debug-asserted through
    /// [`Self::li`]).
    #[inline]
    pub(crate) fn own(&self, node: NodeId) -> Row<'_> {
        let _ = self.li(node);
        Row {
            shared: &self.shared,
            i: node.index(),
        }
    }

    /// The one path to another node's state (world rule 4).
    pub(crate) fn oracle(&self) -> Oracle<'_> {
        Oracle {
            shared: &self.shared,
            base: self.base,
            sessions: &self.sessions,
            neighbors: &self.neighbors,
        }
    }

    /// Owned `node`'s (local index `k`) next query target at `now`, from
    /// its own generator over its own library.
    pub(crate) fn next_target(&mut self, k: usize, node: NodeId, now: SimTime) -> ItemId {
        let shared = &*self.shared;
        // Fractional hour for the flash-crowd trapezoid; with no crowd
        // configured `next_target_at` falls straight through to the
        // clockless path with identical RNG draws.
        let hour = now.as_millis() as f64 / 3_600_000.0;
        self.peers[k]
            .queries
            .next_target_at(&shared.catalog, &shared.profiles[node.index()], hour)
    }

    /// Collect this slice's initial events as `(time, node, event)` in
    /// owned-node order. The serial scenario and the sharded runner both
    /// schedule from this list — in the same global node order — so the
    /// initial queue sequence is identical.
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
                if let Some((after, refresh)) = self.refresh_index(node) {
                    out.push((SimTime::ZERO + after, node, refresh));
                }
            }
        }
    }

    /// The scenario configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.shared.config
    }

    /// `node`'s own view of its neighbor links (owned nodes only).
    pub fn neighbors_of(&self, node: NodeId) -> &[NodeId] {
        self.neighbors[self.li(node)].as_slice()
    }

    /// This slice's counters: its [`Metrics::counters`], then `replies`
    /// (results its nodes sent back to an initiator).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.metrics.counters().chain([("replies", self.replies)])
    }

    /// Report this slice's cumulative [`counters`](Self::counters) and
    /// instantaneous levels into a metrics hub (the recorder differences
    /// the counters into per-window deltas); contributions add, so
    /// sampling every shard of a sharded run into one hub produces the
    /// fleet-wide series. Read-only: a metered run stays digest-identical
    /// to an unmetered one.
    pub fn sample_metrics_into(&self, _now: SimTime, hub: &mut ddr_sim::MetricsHub) {
        for (name, total) in self.counters() {
            hub.counter(name, total);
        }
        let online = self.sessions.iter().filter(|s| s.online).count();
        hub.gauge("online", online as f64);
        let dup_entries: usize = self
            .peers
            .iter()
            .map(|p| p.rt.seen.as_ref().map_or(0, |c| c.len()))
            .sum();
        hub.gauge("dup_cache_entries", dup_entries as f64);
    }

    /// Reply messages this slice's owned nodes sent (results served and
    /// index answers), which `metrics.runtime.messages` (query
    /// transmissions) does not count.
    pub fn replies_served(&self) -> u64 {
        self.replies
    }

    pub(crate) fn is_dynamic(&self) -> bool {
        self.shared.config.mode == Mode::Dynamic
    }

    /// Fresh per-node query id: `node << 32 | counter`. Independent of
    /// every other node's query volume, hence shard-invariant.
    pub(crate) fn fresh_qid(&mut self, k: usize, node: NodeId) -> QueryId {
        let q = QueryId(((node.index() as u64) << 32) | self.next_qid[k] as u64);
        self.next_qid[k] = self.next_qid[k].wrapping_add(1);
        q
    }

    /// One-way delay `from → to` from the sender's own stream, clamped to
    /// the lookahead. `k` is `from`'s local index.
    #[inline]
    pub(crate) fn delay(&mut self, k: usize, from: NodeId, to: NodeId) -> SimDuration {
        self.shared
            .net
            .one_way_delay_for(&mut self.delays[k], from, to)
            .max(self.lookahead)
    }

    /// Local node `k`'s link book (see [`PeerState::link_book`]).
    pub(crate) fn book(&mut self, k: usize) -> LinkBook<'_> {
        self.peers[k].link_book(&mut self.neighbors[k]).0
    }

    /// Ask the memory system for the cache lines `event`'s handler will
    /// miss on — the one address computation behind both kernels' hint
    /// hooks. At 50,000 users a node sees an event every few hundred
    /// dispatches, so every line of its state has left the cache by the
    /// next one, and a forwarding `QueryArrive` (three events in four)
    /// reads seven objects, each in its own allocation (DESIGN.md §12
    /// has the table). [`HintStage::Direct`] covers those whose address
    /// follows from the payload alone; [`HintStage::Dependent`] the two
    /// behind a pointer held in a `Direct` line. Purely a hint through
    /// `ddr_sim`'s one prefetch primitive: nothing is written and no
    /// result depends on it.
    #[inline]
    fn request_lines(&self, event: &GnutellaEvent, stage: HintStage) {
        let k = self.li(event.target());
        match (event, stage) {
            (GnutellaEvent::QueryArrive { to, desc, .. }, HintStage::Direct) => {
                prefetch_object(addr_of!(self.sessions[k]));
                prefetch_object(addr_of!(self.hosts[k]));
                prefetch_object(addr_of!(self.peers[k].rt.seen));
                prefetch_object(addr_of!(self.neighbors[k]));
                prefetch_object(addr_of!(self.delays[k]));
                prefetch_line(self.own(*to).profile().probe_addr(desc.item));
            }
            (GnutellaEvent::QueryArrive { desc, .. }, HintStage::Dependent) => {
                prefetch_line(self.hosts[k].slots_addr());
                if let Some(seen) = &self.peers[k].rt.seen {
                    prefetch_line(seen.probe_addr(desc.id));
                }
            }
            (_, HintStage::Direct) => prefetch_line(addr_of!(self.peers[k]).cast()),
            (_, HintStage::Dependent) => {}
        }
    }

    /// The one event dispatcher every engine shares. `ctx` is the serial
    /// `Scheduler`, the sharded `ShardCtx` or the serve bus's context,
    /// each through its [`Port`] impl; the handler code is identical,
    /// which is what makes sharded == serial bit-identical and the bus's
    /// virtual clock equal to the sharded kernel. Returns the query a
    /// `QueryFinalize` (or a final `WaveCheck`) closed; the kernels
    /// discard it, the bus collects it for its report.
    pub fn dispatch<C: Port<GnutellaEvent>>(
        &mut self,
        now: SimTime,
        event: GnutellaEvent,
        ctx: &mut C,
    ) -> Option<QueryOutcome> {
        // Regional partition gate: while the window is active, every
        // node-to-node message crossing an island boundary is dropped at
        // delivery time. The verdict is a pure function of
        // `(sender, receiver, now, config)` — no state, no RNG — so the
        // serial and sharded kernels drop exactly the same messages and
        // digest parity is preserved. Self events (timers) carry no
        // sender and always deliver, which keeps per-query bookkeeping
        // (`QueryFinalize`) alive through the outage.
        if let Some(p) = &self.shared.config.partition {
            if let Some(src) = event.source() {
                let users = self.users();
                let dst = event.target();
                if p.island_of(src.index(), users) != p.island_of(dst.index(), users) {
                    if p.active_at_ms(now.as_millis()) {
                        self.metrics.partition_drops += 1;
                        return None;
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
                ctx.send(node, d, GnutellaEvent::Toggle { node });
            }
            GnutellaEvent::IssueQuery { node, session } => {
                self.issue_query(node, session, ctx);
            }
            GnutellaEvent::OfferQuery { node } => {
                if self.sessions[self.li(node)].online {
                    self.launch_query(node, ctx);
                }
            }
            GnutellaEvent::QueryArrive { to, from, desc } => {
                self.query_arrive(to, from, desc, ctx);
            }
            GnutellaEvent::ReplyArrive {
                to,
                from,
                query,
                bandwidth,
                hops,
            } => {
                self.reply_arrive(to, from, query, bandwidth, hops, now);
            }
            GnutellaEvent::QueryFinalize { node, query } => {
                return self.finalize_query(node, query, now);
            }
            GnutellaEvent::InviteArrive { to, from } => {
                self.handshake_request(to, from, true, ctx);
            }
            GnutellaEvent::InviteReply { to, from, accepted } => {
                self.handshake_reply(to, from, accepted, true, ctx);
            }
            GnutellaEvent::EvictArrive { to, from } => {
                self.link_dropped(to, from, true, ctx);
            }
            GnutellaEvent::LinkRequest { to, from } => {
                self.handshake_request(to, from, false, ctx);
            }
            GnutellaEvent::LinkAck { to, from, accepted } => {
                self.handshake_reply(to, from, accepted, false, ctx);
            }
            GnutellaEvent::Unlink { to, from } => {
                self.link_dropped(to, from, false, ctx);
            }
            GnutellaEvent::WaveCheck { node, query, wave } => {
                return self.wave_check(node, query, wave, ctx);
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
        None
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
        self.dispatch(now, event, ctx);
    }

    #[inline]
    fn prefetch(&self, event: &GnutellaEvent) {
        self.request_lines(event, HintStage::Direct);
    }

    #[inline]
    fn prefetch_dependent(&self, event: &GnutellaEvent) {
        self.request_lines(event, HintStage::Dependent);
    }

    fn sample_metrics(&self, now: SimTime, hub: &mut ddr_sim::MetricsHub) {
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

    fn sample_metrics(&self, now: SimTime, hub: &mut ddr_sim::MetricsHub) {
        self.sample_metrics_into(now, hub);
    }

    /// One event ahead is all the serial queue can promise (the current
    /// handler may schedule in front of anything later), so both stages
    /// go out back to back.
    #[inline]
    fn prefetch(&self, next: &GnutellaEvent) {
        self.request_lines(next, HintStage::Direct);
        self.request_lines(next, HintStage::Dependent);
    }
}
