//! A single Gnutella node as a standalone state machine.
//!
//! [`GnutellaWorld`](crate::world::GnutellaWorld) simulates the whole
//! population inside one struct — the right shape for a cache-friendly
//! DES, and the one the paper's figures are produced with. This module
//! is the *production-shaped* counterpart: one `GnutellaNode` owns only
//! its own library, neighbor list, duplicate cache and pending-query
//! table, and reacts to delivered [`NodeMsg`]s through the engine
//! [`Port`] (`now` + `send`), handing back the [`QueryOutcome`] a
//! `Finalize` closes. One engine runs it: the `ddr-serve` bus, which
//! shards nodes across worker threads on the wall clock, and whose
//! one-shard `run_deterministic` steps the same shard on a virtual
//! millisecond clock for reproducible runs and the sim/serve parity test.
//! The bus pops due messages a few ahead of delivery and shows each to
//! its node's [`GnutellaNode::request_lines`], so the lines the handler
//! will read are on their way before it runs.
//!
//! The protocol is the paper's §4.1 static search core: flood to
//! neighbors with a hop limit, duplicate suppression, holders reply
//! straight to the initiator and do not forward, results collected
//! until a timeout. Reconfiguration/churn stay sim-only for now — the
//! serve backend models a steady-state fleet under query load.

use ddr_core::runtime::Port;
use ddr_core::{NodeRuntime, QueryDescriptor};
use ddr_net::{NetworkModel, NodeDelayStream};
use ddr_overlay::Topology;
use ddr_sim::{
    prefetch_line, prefetch_object, FastHashMap, HintStage, ItemId, NodeId, QueryId, RngFactory,
    SimDuration, SimTime,
};
use ddr_workload::{generate_profiles, Catalog, QueryGenerator, UserProfile, WorkloadConfig};
use std::sync::Arc;

/// Messages exchanged between [`GnutellaNode`]s (plus the self-addressed
/// timer that closes a query's collection window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeMsg {
    /// Load-generator injection: issue a query under this id. The node
    /// picks the target item from its own workload stream.
    Issue { query: QueryId },
    /// A flooded search request.
    Query { desc: QueryDescriptor },
    /// A holder's reply, travelling straight to the initiator.
    Reply { query: QueryId, hops: u8 },
    /// Self-timer: the collection window for `query` closed.
    Finalize { query: QueryId },
}

/// An initiator-side in-flight query.
#[derive(Debug)]
struct Pending {
    item: ItemId,
    issued_at: SimTime,
    ttl: u8,
    results: u32,
    first: Option<(NodeId, SimTime, u8)>,
}

/// A finished query, returned by [`GnutellaNode::on_message`] for the
/// engine's metrics and tracing.
#[derive(Debug, Clone, Copy)]
pub struct QueryOutcome {
    pub query: QueryId,
    pub node: NodeId,
    pub item: ItemId,
    pub ttl: u8,
    pub issued_at: SimTime,
    pub finished_at: SimTime,
    pub results: u32,
    /// First responder, arrival time, overlay hops — `None` on a miss.
    pub first: Option<(NodeId, SimTime, u8)>,
}

/// Per-node message counters (aggregated by the engine).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeCounters {
    pub messages_sent: u64,
    pub duplicates_dropped: u64,
}

/// One Gnutella peer: library + neighbors + framework runtime, driven
/// entirely through delivered messages.
pub struct GnutellaNode {
    id: NodeId,
    profile: UserProfile,
    neighbors: Vec<NodeId>,
    rt: NodeRuntime,
    queries: QueryGenerator,
    pending: FastHashMap<QueryId, Pending>,
    net: Arc<NetworkModel>,
    catalog: Arc<Catalog>,
    delays: NodeDelayStream,
    max_hops: u8,
    query_timeout: SimDuration,
    /// Message counters, read by the engine after (or during) a run.
    pub counters: NodeCounters,
}

impl GnutellaNode {
    /// The node's current neighbor set.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Queries this node issued whose collection window is still open.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn delay_to(&mut self, to: NodeId) -> SimDuration {
        self.net.one_way_delay_for(&mut self.delays, self.id, to)
    }

    /// Ask the memory system for the cache lines handling `msg` will miss
    /// on: the bus's two [`Lookahead`](ddr_sim::Lookahead) hints, the
    /// node-fleet twin of `GnutellaWorld`'s. A shard's nodes and their
    /// dup-cache tables are far larger than the cache, and a node sees a
    /// message every few hundred deliveries. [`HintStage::Direct`]: the
    /// headers every message reads (`rt.seen`, `neighbors`, `delays`,
    /// `counters`), the pending table's for Issue, Reply and Finalize,
    /// the query generator's for Issue, and a Query's Bloom block.
    /// [`HintStage::Dependent`], Query only: the dup-cache home slot and
    /// the neighbor buffer, whose addresses are read out of `Direct`
    /// lines. Purely a hint: nothing is written and no result depends on
    /// it.
    #[inline]
    pub fn request_lines(&self, msg: &NodeMsg, stage: HintStage) {
        match stage {
            HintStage::Direct => {
                prefetch_object(&self.rt.seen);
                prefetch_object(&self.neighbors);
                prefetch_object(&self.delays);
                prefetch_object(&self.counters);
                match msg {
                    NodeMsg::Issue { .. } => {
                        prefetch_object(&self.pending);
                        prefetch_object(&self.queries);
                    }
                    NodeMsg::Query { desc } => prefetch_line(self.profile.probe_addr(desc.item)),
                    NodeMsg::Reply { .. } | NodeMsg::Finalize { .. } => {
                        prefetch_object(&self.pending)
                    }
                }
            }
            HintStage::Dependent => {
                if let NodeMsg::Query { desc } = msg {
                    if let Some(seen) = &self.rt.seen {
                        prefetch_line(seen.probe_addr(desc.id));
                    }
                    prefetch_line(self.neighbors.as_ptr().cast());
                }
            }
        }
    }

    /// Handle one delivered message. `from` is the sending node (this
    /// node's own id for the `Finalize` timer and for injected `Issue`s).
    /// Returns the query a `Finalize` closed, for the engine to collect.
    pub fn on_message<C: Port<NodeMsg>>(
        &mut self,
        from: NodeId,
        msg: NodeMsg,
        ctx: &mut C,
    ) -> Option<QueryOutcome> {
        match msg {
            NodeMsg::Issue { query } => {
                let now = ctx.now();
                let item = self.queries.next_target(&self.catalog, &self.profile);
                self.rt.seen().first_sighting(query);
                self.pending.insert(
                    query,
                    Pending {
                        item,
                        issued_at: now,
                        ttl: self.max_hops,
                        results: 0,
                        first: None,
                    },
                );
                let desc = QueryDescriptor {
                    id: query,
                    origin: self.id,
                    item,
                    ttl: self.max_hops,
                    travelled: 1,
                    issued_at: now,
                };
                for n in 0..self.neighbors.len() {
                    let to = self.neighbors[n];
                    let d = self.delay_to(to);
                    self.counters.messages_sent += 1;
                    ctx.send(to, d, NodeMsg::Query { desc });
                }
                ctx.send(self.id, self.query_timeout, NodeMsg::Finalize { query });
            }
            NodeMsg::Query { desc } => {
                if !self.rt.seen().first_sighting(desc.id) {
                    self.counters.duplicates_dropped += 1;
                    return None;
                }
                if self.profile.has(desc.item) {
                    // Reply straight to the initiator, do not forward.
                    let d = self.delay_to(desc.origin);
                    self.counters.messages_sent += 1;
                    ctx.send(
                        desc.origin,
                        d,
                        NodeMsg::Reply {
                            query: desc.id,
                            hops: desc.travelled,
                        },
                    );
                    return None;
                }
                if desc.ttl <= 1 {
                    return None;
                }
                let fwd = desc.next_hop();
                for n in 0..self.neighbors.len() {
                    let to = self.neighbors[n];
                    if to == from {
                        continue;
                    }
                    let d = self.delay_to(to);
                    self.counters.messages_sent += 1;
                    ctx.send(to, d, NodeMsg::Query { desc: fwd });
                }
            }
            NodeMsg::Reply { query, hops } => {
                if let Some(pq) = self.pending.get_mut(&query) {
                    pq.results += 1;
                    if pq.first.is_none() {
                        pq.first = Some((from, ctx.now(), hops));
                    }
                }
            }
            NodeMsg::Finalize { query } => {
                let pq = self.pending.remove(&query)?;
                return Some(QueryOutcome {
                    query,
                    node: self.id,
                    item: pq.item,
                    ttl: pq.ttl,
                    issued_at: pq.issued_at,
                    finished_at: ctx.now(),
                    results: pq.results,
                    first: pq.first,
                });
            }
        }
        None
    }
}

/// Configuration for a fleet of standalone nodes (the serve bus builds
/// from this on either clock).
#[derive(Debug, Clone)]
pub struct NodeSetConfig {
    /// Fleet size.
    pub nodes: usize,
    /// Target overlay degree of the static random topology.
    pub degree: usize,
    /// Flood hop limit.
    pub max_hops: u8,
    /// Collection window per query.
    pub query_timeout: SimDuration,
    /// Master seed (workload, topology, delays).
    pub seed: u64,
}

impl NodeSetConfig {
    /// Defaults matching the sim's small-scale scenario shape: degree 4,
    /// 2 hops, 10 s collection window.
    pub fn new(nodes: usize, seed: u64) -> Self {
        NodeSetConfig {
            nodes,
            degree: 4,
            max_hops: 2,
            query_timeout: SimDuration::from_millis(10_000),
            seed,
        }
    }

    /// The workload, scaled from the paper's densities: song space
    /// proportional to the fleet (floor one category's worth) so hit
    /// rates are population-size independent, libraries at paper size.
    pub fn workload(&self) -> WorkloadConfig {
        let base = WorkloadConfig::paper();
        let per_user_songs = base.songs as usize / base.users;
        let songs = ((self.nodes * per_user_songs) as u32).max(base.categories as u32 * 400) as f64;
        // Round up to a categories multiple (Catalog requires it).
        let per_cat = (songs / base.categories as f64).ceil() as u32;
        WorkloadConfig {
            users: self.nodes,
            songs: per_cat * base.categories as u32,
            ..base
        }
    }
}

/// Build the fleet: catalog, profiles, bandwidth classes, a static
/// random symmetric overlay, and one [`GnutellaNode`] per user — all
/// deterministic in `(config, seed)`.
pub fn build_nodes(cfg: &NodeSetConfig) -> Vec<GnutellaNode> {
    let workload = cfg.workload();
    let rngs = RngFactory::new(cfg.seed);
    let catalog = Arc::new(Catalog::for_workload(&workload));
    let profiles = generate_profiles(&workload, &catalog, &rngs);
    let net = Arc::new(NetworkModel::paper(cfg.nodes, &rngs));
    let mut topology = Topology::symmetric(cfg.nodes, cfg.degree);
    let members: Vec<NodeId> = (0..cfg.nodes).map(NodeId::from_index).collect();
    let mut topo_rng = rngs.stream("serve.topology", 0);
    topology.populate_random_symmetric(&members, cfg.degree, &mut topo_rng);

    profiles
        .into_iter()
        .enumerate()
        .map(|(i, profile)| {
            let id = NodeId::from_index(i);
            GnutellaNode {
                id,
                profile,
                neighbors: topology.out(id).iter().collect(),
                // Dup-cache capacity covers every query a 10 s window can
                // hold at serve rates; reconfiguration is sim-only, so the
                // clock threshold is inert here.
                rt: NodeRuntime::new(u32::MAX).with_dup_cache(4_096),
                queries: QueryGenerator::new(&workload, &rngs, i as u64),
                pending: ddr_sim::hash::fast_map(),
                net: Arc::clone(&net),
                catalog: Arc::clone(&catalog),
                delays: NodeDelayStream::new(&rngs, id),
                max_hops: cfg.max_hops,
                query_timeout: cfg.query_timeout,
                counters: NodeCounters::default(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic_and_connected() {
        let cfg = NodeSetConfig::new(64, 9);
        let a = build_nodes(&cfg);
        let b = build_nodes(&cfg);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.neighbors(), y.neighbors());
            assert_eq!(x.profile.library(), y.profile.library());
        }
        // The random bootstrap fills almost everyone; nobody isolated.
        let isolated = a.iter().filter(|n| n.neighbors().is_empty()).count();
        assert_eq!(isolated, 0, "isolated nodes in a 64-node bootstrap");
    }
}
