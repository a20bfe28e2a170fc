//! The PeerOlap simulation world.
//!
//! Query flow:
//!
//! 1. local chunks come from the peer's own cache;
//! 2. missing chunks are requested from the outgoing neighbors; each
//!    request forwards up to `MAX_HOPS`, carrying only the chunks still
//!    missing at the forwarder (the narrowing heuristic), and every peer
//!    replies directly to the initiator with the subset it caches;
//! 3. when the P2P collection window closes, the warehouse computes
//!    whatever is still missing (paying per-chunk processing time), and
//!    the query completes.
//!
//! A query asks for one run of consecutive chunks, so every chunk set in
//! this world — what the initiator wants and has acquired, what a request
//! asks for, what a reply carries — is a subset of that run: a `Copy`
//! [`ChunkSet`] mask. No event owns a heap buffer.
//!
//! Dynamic mode scores every serving peer by the **processing time it
//! saved** and periodically re-selects outgoing neighbors (Algo 3). The
//! bound on how many peers may link to one makes adoption contested: an
//! adoption fails when the target's in-degree is at `IN_CAPACITY`, and the
//! updater simply moves on to the next candidate — §3.1's general
//! asymmetric case. The overlay, the world RNG and that enactment of
//! Algo 3 live in the shared [`AsymmetricOverlay`] chassis;
//! this file is the OLAP domain around it.

use crate::config::{OlapMode, PeerOlapConfig};
use crate::cube::{ChunkSet, CubeSpace, OlapQueryStream};
use ddr_core::runtime::{AsymmetricOverlay, NodeRuntime, Port};
use ddr_core::stats_store::ReplyObservation;
use ddr_sim::{
    EventLabel, FastHashMap, NodeId, QueryId, RngFactory, Scheduler, SimDuration, SimTime, World,
};
use ddr_stats::{BucketSeries, RuntimeMetrics};
use ddr_telemetry::{NullSink, QueryTracer, TraceOutcome, TraceSink};
use ddr_webcache::LruCache;

/// Chunk-request hop limit (PeerOlap searches a small neighborhood; the
/// warehouse is the fallback).
const MAX_HOPS: u8 = 2;
/// One-way delay to another peer.
const PEER_DELAY: SimDuration = SimDuration::from_millis(40);
/// One-way delay to the warehouse.
const WAREHOUSE_DELAY: SimDuration = SimDuration::from_millis(150);
/// Every delay is scaled by a per-peer factor from `[1 - s, 1 + s)`.
const JITTER_SPREAD: f64 = 0.15;
/// How long the P2P phase collects chunk replies before the warehouse
/// fills the gaps.
const P2P_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Queries between neighbor updates (dynamic mode).
const UPDATE_THRESHOLD: u32 = 40;
/// Outgoing-neighbor capacity.
pub(crate) const OUT_DEGREE: usize = 3;
/// Incoming-list capacity: the bounded-asymmetric constraint.
pub(crate) const IN_CAPACITY: usize = 6;
// The network is satisfiable on average only if every peer can take in
// as many links as it sends out.
const _: () = assert!(OUT_DEGREE > 0 && IN_CAPACITY >= OUT_DEGREE);
// An out-list is a `NeighborList`, which holds its entries inline.
const _: () = assert!(OUT_DEGREE <= ddr_overlay::INLINE_NEIGHBORS);
/// The longest a chunk reply can take to reach the initiator, in ms: the
/// request's `MAX_HOPS` hops out plus the direct reply back, each one
/// `PEER_DELAY` stretched by the largest jitter factor.
const LONGEST_REPLY_MS: u64 =
    (MAX_HOPS as u64 + 1) * (PEER_DELAY.as_millis() as f64 * (1.0 + JITTER_SPREAD)).round() as u64;
// Every reply arrives before its query's P2P phase closes, so none is
// credited for chunks the warehouse was already charged for.
const _: () = assert!(LONGEST_REPLY_MS < P2P_TIMEOUT.as_millis());

/// Events of the PeerOlap simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OlapEvent {
    /// `peer` issues its next query.
    IssueQuery { peer: NodeId },
    /// A chunk request arrives at `to`.
    ChunkRequest {
        to: NodeId,
        from: NodeId,
        origin: NodeId,
        query: QueryId,
        ttl: u8,
        chunks: ChunkSet,
    },
    /// A (partial) chunk reply reaches the initiator.
    ChunkReply {
        to: NodeId,
        from: NodeId,
        query: QueryId,
        chunks: ChunkSet,
    },
    /// The P2P collection window for `query` closed.
    P2pPhaseEnd { peer: NodeId, query: QueryId },
    /// The query (including any warehouse work) finished; chunks enter
    /// the local cache.
    QueryComplete { peer: NodeId, query: QueryId },
}

impl EventLabel for OlapEvent {
    fn label(&self) -> &'static str {
        match self {
            OlapEvent::IssueQuery { .. } => "IssueQuery",
            OlapEvent::ChunkRequest { .. } => "ChunkRequest",
            OlapEvent::ChunkReply { .. } => "ChunkReply",
            OlapEvent::P2pPhaseEnd { .. } => "P2pPhaseEnd",
            OlapEvent::QueryComplete { .. } => "QueryComplete",
        }
    }
}

/// An in-flight query at its initiator.
#[derive(Debug, Clone, Copy)]
struct PendingOlap {
    issued_at: SimTime,
    /// Chunks still missing after the local cache.
    wanted: ChunkSet,
    /// The wanted chunks some peer has supplied.
    acquired: ChunkSet,
    /// Arrival time of the last useful reply.
    last_reply_at: SimTime,
}

/// Per-peer state: the framework-side [`NodeRuntime`] (peer statistics,
/// duplicate cache, request-count reconfiguration clock) composed with
/// the OLAP-domain cache, query stream and in-flight bookkeeping.
struct OlapPeer {
    cache: LruCache,
    stream: OlapQueryStream,
    rt: NodeRuntime,
    pending: FastHashMap<QueryId, PendingOlap>,
}

ddr_stats::metrics! {
    /// Aggregated metrics: the shared framework recorder plus OLAP-domain
    /// measurements.
    ///
    /// The framework quantities live in [`RuntimeMetrics`] — `queries`
    /// (issued per hour), `hits` (chunks served by peers per hour, the
    /// PeerOlap hit analogue), `messages` (chunk requests per hour),
    /// `latency_ms` (end-to-end query latency, post-warm-up), `updates`
    /// and `edges_changed` — so cross-study comparisons read the same
    /// fields as the Gnutella and web-cache recorders.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OlapMetrics {
        /// Shared framework recorder (see the struct docs for the mapping).
        pub runtime: RuntimeMetrics,
        /// Chunks served from the local cache per hour.
        pub chunks_local: BucketSeries,
        /// Chunks computed by the warehouse per hour.
        pub chunks_warehouse: BucketSeries,
        /// Warehouse processing time consumed, in ms, per hour.
        pub warehouse_ms: BucketSeries,
        /// Outgoing-edge adoptions refused because the target's incoming
        /// list was full (the bounded-asymmetric contention signal).
        pub adds_refused: u64,
    }
}

/// The complete world. The sink parameter selects the telemetry build:
/// the default `PeerOlapWorld` (= `PeerOlapWorld<NullSink>`) compiles all
/// tracing away, `PeerOlapWorld<JsonlSink>` records sampled query spans.
pub struct PeerOlapWorld<T: TraceSink = NullSink> {
    config: PeerOlapConfig,
    space: CubeSpace,
    /// Overlay, world RNG and per-peer delay jitter.
    overlay: AsymmetricOverlay,
    peers: Vec<OlapPeer>,
    next_query: u64,
    tracer: QueryTracer<T>,
    /// Metrics, public for reports and tests.
    pub metrics: OlapMetrics,
}

impl<T: TraceSink> PeerOlapWorld<T> {
    /// Build the initial world with random outgoing neighborhoods.
    pub fn new(config: PeerOlapConfig) -> Self {
        config.validate().expect("invalid PeerOlap config");
        let rngs = RngFactory::new(config.seed);
        let space = CubeSpace::new(&config);
        let overlay = AsymmetricOverlay::bootstrap(
            config.peers,
            OUT_DEGREE,
            Some(IN_CAPACITY),
            &rngs,
            "peerolap.world",
        );
        let peers = (0..config.peers)
            .map(|p| OlapPeer {
                cache: LruCache::new(config.cache_capacity),
                stream: OlapQueryStream::new(&config, &rngs, p),
                rt: NodeRuntime::new(UPDATE_THRESHOLD).with_dup_cache(1_024),
                pending: ddr_sim::hash::fast_map(),
            })
            .collect();

        let tracer = QueryTracer::new(&config.telemetry);
        PeerOlapWorld {
            config,
            space,
            overlay,
            peers,
            next_query: 0,
            tracer,
            metrics: OlapMetrics::default(),
        }
    }

    /// Collect every peer's first query as `(time, node, event)` in peer
    /// order.
    pub(crate) fn collect_prime(&mut self, out: &mut Vec<(SimTime, NodeId, OlapEvent)>) {
        for p in 0..self.peers.len() {
            let peer = NodeId::from_index(p);
            let d = self.peers[p].stream.next_interval();
            out.push((SimTime::ZERO + d, peer, OlapEvent::IssueQuery { peer }));
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PeerOlapConfig {
        &self.config
    }

    /// `peer`'s outgoing neighbors, for invariant checks.
    pub fn neighbors_of(&self, peer: NodeId) -> &[NodeId] {
        self.overlay.out(peer).as_slice()
    }

    /// Fraction of outgoing edges connecting same-group peers.
    pub fn same_group_edge_fraction(&self) -> f64 {
        self.overlay
            .same_group_edge_fraction(|p| self.peers[p.index()].stream.group())
    }

    fn issue_query<C: Port<OlapEvent>>(&mut self, peer: NodeId, ctx: &mut C) {
        let i = peer.index();
        let now = ctx.now();
        let hour = now.as_hours() as usize;

        let d = self.peers[i].stream.next_interval();
        ctx.send(peer, d, OlapEvent::IssueQuery { peer });
        self.metrics.runtime.queries.incr(hour);

        let chunks = self.peers[i].stream.next_query(&self.space);
        // Local phase: touch what we have.
        let cache = &mut self.peers[i].cache;
        let wanted = chunks.filter(|c| !cache.touch(c));
        let local = chunks.len() - wanted.len();
        self.metrics.chunks_local.add(hour, local as f64);

        let qid = QueryId(self.next_query);
        self.next_query += 1;
        self.tracer
            .issue(now, qid, peer, chunks.first.index() as u64, MAX_HOPS);

        if wanted.is_empty() {
            // Fully cached: done instantly.
            if now.as_hours() >= self.config.warmup_hours {
                self.metrics.runtime.latency_ms.record(1.0);
            }
            self.tracer
                .finish(now, qid, TraceOutcome::Hit, local as u64, 1.0);
            self.after_query(peer);
            return;
        }

        self.peers[i].rt.seen().first_sighting(qid);
        self.peers[i].pending.insert(
            qid,
            PendingOlap {
                issued_at: now,
                wanted,
                acquired: ChunkSet { mask: 0, ..wanted },
                last_reply_at: now,
            },
        );
        let fanout = self.overlay.out(peer).len();
        self.tracer.hop(now, qid, peer, peer, MAX_HOPS, 0, fanout);
        for k in 0..fanout {
            let t = self.overlay.out(peer).as_slice()[k];
            self.metrics.runtime.messages.add(hour, 1.0);
            let d = self.overlay.jittered(peer, PEER_DELAY, JITTER_SPREAD);
            ctx.send(
                t,
                d,
                OlapEvent::ChunkRequest {
                    to: t,
                    from: peer,
                    origin: peer,
                    query: qid,
                    ttl: MAX_HOPS,
                    chunks: wanted,
                },
            );
        }
        let phase_end = OlapEvent::P2pPhaseEnd { peer, query: qid };
        ctx.send(peer, P2P_TIMEOUT, phase_end);
        self.after_query(peer);
    }

    /// Post-issue bookkeeping: the request-count reconfiguration clock.
    fn after_query(&mut self, peer: NodeId) {
        if self.config.mode != OlapMode::Dynamic {
            return;
        }
        let i = peer.index();
        if self.peers[i].rt.clock.tick() {
            // Algo 3 under bounded incoming lists: an adoption can be
            // refused, and a random refill tops up the slots left empty.
            self.metrics.adds_refused += self.overlay.update_neighbors(
                peer,
                &mut self.peers[i].rt,
                &mut self.metrics.runtime,
            );
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the event's payload fields
    fn chunk_request<C: Port<OlapEvent>>(
        &mut self,
        to: NodeId,
        from: NodeId,
        origin: NodeId,
        query: QueryId,
        ttl: u8,
        chunks: ChunkSet,
        ctx: &mut C,
    ) {
        let i = to.index();
        if !self.peers[i].rt.seen().first_sighting(query) {
            self.tracer.dup(ctx.now(), query, to);
            return; // already served this query via another path
        }
        let cache = &self.peers[i].cache;
        let have = chunks.filter(|c| cache.peek(c));
        let missing = chunks - have;
        if !have.is_empty() {
            let d = self.overlay.jittered(to, PEER_DELAY, JITTER_SPREAD);
            ctx.send(
                origin,
                d,
                OlapEvent::ChunkReply {
                    to: origin,
                    from: to,
                    query,
                    chunks: have,
                },
            );
        }
        // Narrowed forwarding: only the still-missing chunks travel on.
        let mut fanout = 0usize;
        if ttl > 1 && !missing.is_empty() {
            let hour = ctx.now().as_hours() as usize;
            for k in 0..self.overlay.out(to).len() {
                let t = self.overlay.out(to).as_slice()[k];
                if t == from || t == origin {
                    continue;
                }
                fanout += 1;
                self.metrics.runtime.messages.add(hour, 1.0);
                let d = self.overlay.jittered(to, PEER_DELAY, JITTER_SPREAD);
                ctx.send(
                    t,
                    d,
                    OlapEvent::ChunkRequest {
                        to: t,
                        from: to,
                        origin,
                        query,
                        ttl: ttl - 1,
                        chunks: missing,
                    },
                );
            }
        }
        let travelled = MAX_HOPS - ttl + 1;
        self.tracer
            .hop(ctx.now(), query, to, from, ttl, travelled, fanout);
    }

    fn chunk_reply(
        &mut self,
        to: NodeId,
        from: NodeId,
        query: QueryId,
        chunks: ChunkSet,
        now: SimTime,
    ) {
        let i = to.index();
        // The entry lives until `QueryComplete`, and every reply arrives
        // before `P2pPhaseEnd` (`LONGEST_REPLY_MS < P2P_TIMEOUT`, asserted
        // beside the constants), so this never returns today. A later reply
        // would be credited for chunks the warehouse was already charged for.
        let Some(pq) = self.peers[i].pending.get_mut(&query) else {
            return;
        };
        let fresh = (chunks & pq.wanted) - pq.acquired;
        if fresh.is_empty() {
            return; // everything was already supplied by someone faster
        }
        let was_empty = pq.acquired.is_empty();
        pq.acquired = pq.acquired | fresh;
        let saved_ms = fresh.processing_ms();
        pq.last_reply_at = now;
        let latency_ms = now.saturating_since(pq.issued_at).as_millis() as f64;
        if was_empty {
            self.tracer.first(now, query, from, 1, latency_ms);
        }
        self.metrics
            .runtime
            .hits
            .add(now.as_hours() as usize, fresh.len() as f64);
        if self.config.mode == OlapMode::Dynamic {
            // Benefit = warehouse processing time saved (§3.4: "in
            // PeerOlap the dominating cost is the query processing time").
            self.peers[i].rt.stats.record_reply(ReplyObservation {
                from,
                bandwidth: None,
                score: saved_ms as f64,
                latency_ms,
                at: now,
            });
        }
    }

    fn p2p_phase_end<C: Port<OlapEvent>>(&mut self, peer: NodeId, query: QueryId, ctx: &mut C) {
        let i = peer.index();
        let Some(&pq) = self.peers[i].pending.get(&query) else {
            return;
        };
        let now = ctx.now();
        let missing = pq.wanted - pq.acquired;
        if missing.is_empty() {
            // Peers supplied everything; the query actually completed at
            // the last useful reply.
            let done_at = pq.last_reply_at;
            let span_latency = done_at.saturating_since(pq.issued_at).as_millis() as f64;
            let served = pq.wanted.len() as u64;
            if done_at.as_hours() >= self.config.warmup_hours {
                self.metrics.runtime.latency_ms.record(span_latency);
            }
            self.tracer
                .finish(now, query, TraceOutcome::Hit, served, span_latency);
            // The one send below any lookahead in any world: the serial
            // port schedules it at `now`, `ShardCtx::send` would refuse it.
            let complete = OlapEvent::QueryComplete { peer, query };
            ctx.send(peer, SimDuration::ZERO, complete);
            return;
        }
        // Warehouse fallback: round trip plus sequential chunk processing.
        let hour = now.as_hours() as usize;
        let proc_ms = missing.processing_ms();
        self.metrics
            .chunks_warehouse
            .add(hour, missing.len() as f64);
        self.metrics.warehouse_ms.add(hour, proc_ms as f64);
        let wh_rtt = self
            .overlay
            .jittered(peer, WAREHOUSE_DELAY, JITTER_SPREAD)
            .saturating_mul(2);
        let done_in = wh_rtt + SimDuration::from_millis(proc_ms);
        let total_latency =
            now.saturating_since(pq.issued_at).as_millis() as f64 + done_in.as_millis() as f64;
        if (now + done_in).as_hours() >= self.config.warmup_hours {
            self.metrics.runtime.latency_ms.record(total_latency);
        }
        self.tracer.finish(
            now,
            query,
            TraceOutcome::Miss,
            pq.acquired.len() as u64,
            total_latency,
        );
        ctx.send(peer, done_in, OlapEvent::QueryComplete { peer, query });
    }

    fn query_complete(&mut self, peer: NodeId, query: QueryId) {
        let i = peer.index();
        let Some(pq) = self.peers[i].pending.remove(&query) else {
            return;
        };
        // All wanted chunks (peer-served and warehouse-computed) are now
        // materialised locally.
        for c in pq.wanted.iter() {
            self.peers[i].cache.insert(c);
        }
    }

    /// The one event dispatcher, generic over the engine's [`Port`] as
    /// `GnutellaWorld::dispatch` is; `World::handle` forwards to it.
    pub(crate) fn dispatch<C: Port<OlapEvent>>(&mut self, event: OlapEvent, ctx: &mut C) {
        match event {
            OlapEvent::IssueQuery { peer } => self.issue_query(peer, ctx),
            OlapEvent::ChunkRequest {
                to,
                from,
                origin,
                query,
                ttl,
                chunks,
            } => self.chunk_request(to, from, origin, query, ttl, chunks, ctx),
            OlapEvent::ChunkReply {
                to,
                from,
                query,
                chunks,
            } => self.chunk_reply(to, from, query, chunks, ctx.now()),
            OlapEvent::P2pPhaseEnd { peer, query } => self.p2p_phase_end(peer, query, ctx),
            OlapEvent::QueryComplete { peer, query } => self.query_complete(peer, query),
        }
    }
}

impl<T: TraceSink> World for PeerOlapWorld<T> {
    type Event = OlapEvent;

    /// Report cumulative counters (differenced into per-window deltas by
    /// the recorder). Read-only, so a metered run stays bit-identical to
    /// an unmetered one.
    fn sample_metrics(&self, _now: SimTime, hub: &mut ddr_sim::MetricsHub) {
        for (name, total) in self.metrics.counters() {
            hub.counter(name, total);
        }
    }

    fn handle(&mut self, _: SimTime, event: OlapEvent, sched: &mut Scheduler<'_, OlapEvent>) {
        self.dispatch(event, sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_plain_values() {
        fn copy<T: Copy>() {}
        copy::<OlapEvent>();
        assert!(std::mem::size_of::<OlapEvent>() <= 32);
    }

    #[test]
    fn initial_clustering_near_chance() {
        let w = PeerOlapWorld::<NullSink>::new(PeerOlapConfig::default_scenario(OlapMode::Dynamic));
        assert!(w.same_group_edge_fraction() < 0.4);
    }
}
