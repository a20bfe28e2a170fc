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
//! Dynamic mode scores every serving peer by the **processing time it
//! saved** and periodically re-selects outgoing neighbors (Algo 3). The
//! bounded incoming lists make adoption contested: `add_edge` fails when
//! the target's incoming list is full, and the updater simply moves on to
//! the next candidate — §3.1's general asymmetric case. The overlay,
//! presence, the world RNG and that enactment of Algo 3 live in the shared
//! [`AsymmetricOverlay`] chassis; this file is the OLAP domain around it.

use crate::config::{OlapMode, PeerOlapConfig};
use crate::cube::{chunk_processing_ms, CubeSpace, OlapQueryStream};
use ddr_core::runtime::{sample_runtime_metrics, AsymmetricOverlay, NodeRuntime};
use ddr_core::stats_store::ReplyObservation;
use ddr_overlay::Topology;
use ddr_sim::{
    EventLabel, FastHashMap, ItemId, NodeId, QueryId, RngFactory, Scheduler, SimDuration, SimTime,
    World,
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

/// Events of the PeerOlap simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
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
        chunks: Vec<ItemId>,
    },
    /// A (partial) chunk reply reaches the initiator.
    ChunkReply {
        to: NodeId,
        from: NodeId,
        query: QueryId,
        chunks: Vec<ItemId>,
    },
    /// The P2P collection window for `query` closed.
    P2pPhaseEnd { peer: NodeId, query: QueryId },
    /// The query (including any warehouse work) finished; chunks enter
    /// the local cache.
    QueryComplete { peer: NodeId, query: QueryId },
    /// `peer` flips between present and absent (churn mode only).
    PeerToggle { peer: NodeId },
}

impl EventLabel for OlapEvent {
    fn label(&self) -> &'static str {
        match self {
            OlapEvent::IssueQuery { .. } => "IssueQuery",
            OlapEvent::ChunkRequest { .. } => "ChunkRequest",
            OlapEvent::ChunkReply { .. } => "ChunkReply",
            OlapEvent::P2pPhaseEnd { .. } => "P2pPhaseEnd",
            OlapEvent::QueryComplete { .. } => "QueryComplete",
            OlapEvent::PeerToggle { .. } => "PeerToggle",
        }
    }
}

/// An in-flight query at its initiator.
#[derive(Debug)]
struct PendingOlap {
    issued_at: SimTime,
    /// Chunks still missing after the local cache.
    wanted: Vec<ItemId>,
    /// Chunk → first peer that supplied it.
    acquired: FastHashMap<ItemId, NodeId>,
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

/// Aggregated metrics: the shared framework recorder plus OLAP-domain
/// measurements.
///
/// The framework quantities live in [`RuntimeMetrics`] — `queries`
/// (issued per hour), `hits` (chunks served by peers per hour, the
/// PeerOlap hit analogue), `messages` (chunk requests per hour),
/// `latency_ms` (end-to-end query latency, post-warm-up), `updates`
/// and `edges_changed` — so cross-study comparisons read the same
/// fields as the Gnutella and web-cache recorders.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Peer departures (churn mode only).
    pub departures: u64,
}

/// The complete world. The sink parameter selects the telemetry build:
/// the default `PeerOlapWorld` (= `PeerOlapWorld<NullSink>`) compiles all
/// tracing away, `PeerOlapWorld<JsonlSink>` records sampled query spans.
pub struct PeerOlapWorld<T: TraceSink = NullSink> {
    config: PeerOlapConfig,
    space: CubeSpace,
    /// Overlay, which peers are present (all of them without churn),
    /// world RNG and per-peer delay jitter.
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
            config.out_degree,
            Some(config.in_capacity),
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

    /// Whether `peer` is currently present.
    pub fn is_present(&self, peer: NodeId) -> bool {
        self.overlay.is_present(peer)
    }

    /// Seed every peer's first query (and churn chains when enabled).
    pub fn prime(&mut self, queue: &mut ddr_sim::EventQueue<OlapEvent>) {
        for p in 0..self.peers.len() {
            let d = self.peers[p].stream.next_interval();
            queue.schedule_in(
                d,
                OlapEvent::IssueQuery {
                    peer: NodeId::from_index(p),
                },
            );
            if let Some(mean) = self.config.mean_session {
                let d = self.overlay.exp_duration(mean);
                queue.schedule_in(
                    d,
                    OlapEvent::PeerToggle {
                        peer: NodeId::from_index(p),
                    },
                );
            }
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PeerOlapConfig {
        &self.config
    }

    /// The overlay, for invariant checks.
    pub fn topology(&self) -> &Topology {
        self.overlay.topology()
    }

    /// Fraction of outgoing edges connecting same-group peers.
    pub fn same_group_edge_fraction(&self) -> f64 {
        self.overlay
            .same_group_edge_fraction(|p| self.peers[p.index()].stream.group())
    }

    fn issue_query(&mut self, peer: NodeId, sched: &mut Scheduler<'_, OlapEvent>) {
        let i = peer.index();
        let now = sched.now();
        let hour = now.as_hours() as usize;

        let d = self.peers[i].stream.next_interval();
        sched.after(d, OlapEvent::IssueQuery { peer });

        if !self.overlay.is_present(peer) {
            return; // absent peers issue nothing
        }
        self.metrics.runtime.record_query(hour);

        let shape = {
            let space = &self.space;
            self.peers[i].stream.next_query(space)
        };
        // Local phase: touch what we have.
        let mut wanted = Vec::new();
        let mut local = 0u32;
        for &c in &shape.chunks {
            if self.peers[i].cache.touch(c) {
                local += 1;
            } else {
                wanted.push(c);
            }
        }
        self.metrics.chunks_local.add(hour, local as f64);

        let qid = QueryId(self.next_query);
        self.next_query += 1;
        self.tracer
            .issue(now, qid, peer, shape.chunks[0].index() as u64, MAX_HOPS);

        if wanted.is_empty() {
            // Fully cached: done instantly.
            if now.as_hours() >= self.config.warmup_hours {
                self.metrics.runtime.record_latency_ms(1.0);
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
                wanted: wanted.clone(),
                acquired: ddr_sim::hash::fast_map(),
                last_reply_at: now,
            },
        );
        let targets: Vec<NodeId> = self.overlay.out(peer).iter().collect();
        self.tracer
            .hop(now, qid, peer, peer, MAX_HOPS, 0, targets.len());
        for t in targets {
            self.metrics.runtime.record_messages(hour, 1.0);
            let d = self.overlay.jittered(peer, PEER_DELAY, JITTER_SPREAD);
            sched.after(
                d,
                OlapEvent::ChunkRequest {
                    to: t,
                    from: peer,
                    origin: peer,
                    query: qid,
                    ttl: MAX_HOPS,
                    chunks: wanted.clone(),
                },
            );
        }
        sched.after(P2P_TIMEOUT, OlapEvent::P2pPhaseEnd { peer, query: qid });
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
            // refused, and the random refill for refused / unfilled slots
            // takes present peers only.
            self.metrics.adds_refused += self.overlay.update_neighbors(
                peer,
                &mut self.peers[i].rt,
                &mut self.metrics.runtime,
                true,
            );
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the event's payload fields
    fn chunk_request(
        &mut self,
        to: NodeId,
        from: NodeId,
        origin: NodeId,
        query: QueryId,
        ttl: u8,
        chunks: Vec<ItemId>,
        sched: &mut Scheduler<'_, OlapEvent>,
    ) {
        let i = to.index();
        if !self.overlay.is_present(to) {
            return; // the peer left while the request was in flight
        }
        if !self.peers[i].rt.seen().first_sighting(query) {
            self.tracer.dup(sched.now(), query, to);
            return; // already served this query via another path
        }
        let (have, missing): (Vec<ItemId>, Vec<ItemId>) = chunks
            .into_iter()
            .partition(|&c| self.peers[i].cache.peek(c));
        if !have.is_empty() {
            let d = self.overlay.jittered(to, PEER_DELAY, JITTER_SPREAD);
            sched.after(
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
            let targets: Vec<NodeId> = self
                .overlay
                .out(to)
                .iter()
                .filter(|&n| n != from && n != origin)
                .collect();
            fanout = targets.len();
            let hour = sched.now().as_hours() as usize;
            for t in targets {
                self.metrics.runtime.record_messages(hour, 1.0);
                let d = self.overlay.jittered(to, PEER_DELAY, JITTER_SPREAD);
                sched.after(
                    d,
                    OlapEvent::ChunkRequest {
                        to: t,
                        from: to,
                        origin,
                        query,
                        ttl: ttl - 1,
                        chunks: missing.clone(),
                    },
                );
            }
        }
        let travelled = MAX_HOPS - ttl + 1;
        self.tracer
            .hop(sched.now(), query, to, from, ttl, travelled, fanout);
    }

    fn chunk_reply(
        &mut self,
        to: NodeId,
        from: NodeId,
        query: QueryId,
        chunks: Vec<ItemId>,
        now: SimTime,
    ) {
        let i = to.index();
        let Some(pq) = self.peers[i].pending.get_mut(&query) else {
            return; // the P2P phase already closed
        };
        let was_empty = pq.acquired.is_empty();
        let mut saved_ms = 0u64;
        let mut fresh = 0u32;
        for c in chunks {
            if pq.wanted.contains(&c) && !pq.acquired.contains_key(&c) {
                pq.acquired.insert(c, from);
                saved_ms += chunk_processing_ms(c);
                fresh += 1;
            }
        }
        if fresh == 0 {
            return; // everything was already supplied by someone faster
        }
        pq.last_reply_at = now;
        let latency_ms = now.saturating_since(pq.issued_at).as_millis() as f64;
        if was_empty {
            self.tracer.first(now, query, from, 1, latency_ms);
        }
        self.metrics
            .runtime
            .hits
            .add(now.as_hours() as usize, fresh as f64);
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

    fn p2p_phase_end(
        &mut self,
        peer: NodeId,
        query: QueryId,
        sched: &mut Scheduler<'_, OlapEvent>,
    ) {
        let i = peer.index();
        let Some(pq) = self.peers[i].pending.get(&query) else {
            return;
        };
        let now = sched.now();
        let missing: Vec<ItemId> = pq
            .wanted
            .iter()
            .copied()
            .filter(|c| !pq.acquired.contains_key(c))
            .collect();
        if missing.is_empty() {
            // Peers supplied everything; the query actually completed at
            // the last useful reply.
            let done_at = pq.last_reply_at;
            let span_latency = done_at.saturating_since(pq.issued_at).as_millis() as f64;
            let served = pq.wanted.len() as u64;
            if done_at.as_hours() >= self.config.warmup_hours {
                self.metrics.runtime.record_latency_ms(span_latency);
            }
            self.tracer
                .finish(now, query, TraceOutcome::Hit, served, span_latency);
            sched.at(now, OlapEvent::QueryComplete { peer, query });
            return;
        }
        // Warehouse fallback: round trip plus sequential chunk processing.
        let hour = now.as_hours() as usize;
        let proc_ms: u64 = missing.iter().map(|&c| chunk_processing_ms(c)).sum();
        self.metrics
            .chunks_warehouse
            .add(hour, missing.len() as f64);
        self.metrics.warehouse_ms.add(hour, proc_ms as f64);
        let wh_rtt = self
            .overlay
            .jittered(peer, WAREHOUSE_DELAY, JITTER_SPREAD)
            .saturating_mul(2);
        let done_in = wh_rtt + SimDuration::from_millis(proc_ms);
        let total_latency = now
            .saturating_since(self.peers[i].pending[&query].issued_at)
            .as_millis() as f64
            + done_in.as_millis() as f64;
        if (now + done_in).as_hours() >= self.config.warmup_hours {
            self.metrics.runtime.record_latency_ms(total_latency);
        }
        let acquired = self.peers[i].pending[&query].acquired.len() as u64;
        self.tracer
            .finish(now, query, TraceOutcome::Miss, acquired, total_latency);
        sched.after(done_in, OlapEvent::QueryComplete { peer, query });
    }

    fn query_complete(&mut self, peer: NodeId, query: QueryId) {
        let i = peer.index();
        let Some(pq) = self.peers[i].pending.remove(&query) else {
            return;
        };
        // All wanted chunks (peer-served and warehouse-computed) are now
        // materialised locally.
        for c in pq.wanted {
            self.peers[i].cache.insert(c);
        }
    }
}

impl<T: TraceSink> World for PeerOlapWorld<T> {
    type Event = OlapEvent;

    /// Report cumulative counters (differenced into per-window deltas by
    /// the recorder) and instantaneous levels. Read-only, so a metered
    /// run stays bit-identical to an unmetered one.
    fn sample_metrics(&self, _now: SimTime, hub: &mut ddr_sim::MetricsHub) {
        sample_runtime_metrics(&self.metrics.runtime, hub);
        hub.counter("chunks_local", self.metrics.chunks_local.total() as u64);
        hub.counter(
            "chunks_warehouse",
            self.metrics.chunks_warehouse.total() as u64,
        );
        hub.counter("departures", self.metrics.departures);
        hub.gauge("online", self.overlay.present_count() as f64);
    }

    fn handle(&mut self, now: SimTime, event: OlapEvent, sched: &mut Scheduler<'_, OlapEvent>) {
        match event {
            OlapEvent::IssueQuery { peer } => self.issue_query(peer, sched),
            OlapEvent::ChunkRequest {
                to,
                from,
                origin,
                query,
                ttl,
                chunks,
            } => self.chunk_request(to, from, origin, query, ttl, chunks, sched),
            OlapEvent::ChunkReply {
                to,
                from,
                query,
                chunks,
            } => self.chunk_reply(to, from, query, chunks, now),
            OlapEvent::P2pPhaseEnd { peer, query } => self.p2p_phase_end(peer, query, sched),
            OlapEvent::QueryComplete { peer, query } => self.query_complete(peer, query),
            OlapEvent::PeerToggle { peer } => {
                let i = peer.index();
                let mean = if !self.overlay.toggle(peer) {
                    // Departure: tear down every link touching the peer
                    // and drop in-flight queries.
                    self.metrics.departures += 1;
                    self.overlay.isolate(peer);
                    if T::ENABLED {
                        let mut cut: Vec<u64> = self.peers[i].pending.keys().map(|q| q.0).collect();
                        cut.sort_unstable();
                        for q in cut {
                            self.tracer
                                .finish(now, QueryId(q), TraceOutcome::Timeout, 0, -1.0);
                        }
                    }
                    self.peers[i].pending.clear();
                    self.config.mean_absence
                } else {
                    // Return: rejoin with random outgoing links to present
                    // peers (cache and statistics survive the absence).
                    self.overlay.refill(peer, true);
                    self.config
                        .mean_session
                        .expect("toggle events only exist with churn enabled")
                };
                let d = self.overlay.exp_duration(mean);
                sched.after(d, OlapEvent::PeerToggle { peer });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_clustering_near_chance() {
        let w = PeerOlapWorld::<NullSink>::new(PeerOlapConfig::default_scenario(OlapMode::Dynamic));
        assert!(w.same_group_edge_fraction() < 0.4);
    }
}
