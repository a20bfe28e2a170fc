//! The cooperative web-cache simulation world.
//!
//! Request flow (1-hop Squid-style search, paper §3.2: "most Squid
//! implementations define the number of hops to be 1, i.e. only the
//! immediate neighbors are searched before the request is sent to the web
//! server"):
//!
//! 1. local LRU hit → served immediately;
//! 2. otherwise the proxy queries its outgoing neighbors (one message
//!    each); the nearest positive sibling serves the page at
//!    `2 × SIBLING_DELAY`;
//! 3. otherwise the origin server serves at `2 × ORIGIN_DELAY`.
//!
//! The page enters the local cache when the fetch completes. Dynamic mode
//! additionally runs exploration probes (Algo 2) and asymmetric neighbor
//! updates (Algo 3); static mode keeps its initial random neighbors
//! forever. The overlay, the world RNG and the enactment of Algo 3 live
//! in the shared [`AsymmetricOverlay`] chassis; this file is
//! the cache domain around it.

use crate::config::{CacheMode, WebCacheConfig};
use crate::digest::BloomFilter;
use crate::lru::LruCache;
use crate::traffic::{PageSpace, RequestStream};
use ddr_core::runtime::{AsymmetricOverlay, NodeRuntime, Port, ReconfigClock};
use ddr_core::stats_store::ReplyObservation;
use ddr_sim::{
    EventLabel, ItemId, NodeId, QueryId, RngFactory, Scheduler, SimDuration, SimTime, World,
};
use ddr_stats::{BucketSeries, RuntimeMetrics};
use ddr_telemetry::{NullSink, QueryTracer, TraceOutcome, TraceSink};
use std::collections::VecDeque;

/// Mean one-way latency to a sibling proxy.
const SIBLING_DELAY: SimDuration = SimDuration::from_millis(40);
/// Mean one-way latency to the origin server (the "alternative
/// repository"; a miss costs this much twice) — 8× a sibling.
const ORIGIN_DELAY: SimDuration = SimDuration::from_millis(320);
/// Every delay is scaled by a per-proxy factor from `[1 - s, 1 + s)`.
const JITTER_SPREAD: f64 = 0.2;
/// Outgoing-neighbor capacity: how many sibling caches are queried on a
/// local miss (Squid-style search depth is 1 hop).
pub(crate) const OUT_DEGREE: usize = 3;
// An out-list is a `NeighborList`, which holds its entries inline.
const _: () = assert!(OUT_DEGREE <= ddr_overlay::INLINE_NEIGHBORS);
/// Non-neighbor proxies probed per exploration round.
const PROBE_FANOUT: usize = 3;
/// Recent local misses remembered for probe-overlap scoring.
const MISS_HISTORY: usize = 64;
/// Requests between neighbor updates (dynamic mode).
const UPDATE_THRESHOLD: u32 = 100;
/// Digest density in bits per cached page (10 ≈ 1 % false positives).
const DIGEST_BITS_PER_ITEM: usize = 10;

/// Events of the web-cache simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// A user request arrives at `proxy`.
    Request { proxy: NodeId },
    /// A page fetch (sibling or origin) completes at `proxy`.
    FetchComplete { proxy: NodeId, page: ItemId },
    /// An exploration probe reply from `from` reaches `to`.
    ProbeReply { to: NodeId, from: NodeId },
    /// `proxy` republishes its cache digest (digest mode only).
    DigestRefresh { proxy: NodeId },
}

impl EventLabel for CacheEvent {
    fn label(&self) -> &'static str {
        match self {
            CacheEvent::Request { .. } => "Request",
            CacheEvent::FetchComplete { .. } => "FetchComplete",
            CacheEvent::ProbeReply { .. } => "ProbeReply",
            CacheEvent::DigestRefresh { .. } => "DigestRefresh",
        }
    }
}

/// Per-proxy mutable state: the framework-side [`NodeRuntime`]
/// (statistics, update clock) composed with the cache-domain state.
struct ProxyState {
    cache: LruCache,
    stream: RequestStream,
    rt: NodeRuntime,
    /// The exploration trigger: a second request clock, due every
    /// `explore_every` requests.
    explore: ReconfigClock,
    recent_misses: VecDeque<ItemId>,
}

ddr_stats::metrics! {
    /// Aggregated web-cache metrics: the shared framework recorder plus the
    /// cache-domain counters.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CacheMetrics {
        /// Shared framework recorder: `queries` (requests per hour), `hits`
        /// (served by a sibling proxy per hour), `messages` (sibling query +
        /// probe messages per hour), `latency_ms` (request latency,
        /// post-warm-up; local hits count as 1 ms), `updates` (neighbor
        /// updates executed), `edges_changed` and `explorations`.
        pub runtime: RuntimeMetrics,
        /// Served from the local cache.
        pub local_hits: BucketSeries,
        /// Fetched from the origin server.
        pub origin_fetches: BucketSeries,
        /// Sibling queries avoided because a digest said "not cached".
        pub digest_filtered: u64,
        /// Digest said "cached" but the sibling did not have the page
        /// (Bloom false positives plus evictions since publication).
        pub digest_false_positives: u64,
        /// Digest said "not cached" but the sibling actually had the page
        /// (cached since publication): a missed sibling hit.
        pub digest_stale_misses: u64,
    }
}

/// The complete world. The sink parameter `T` decides at compile time
/// whether request spans are traced; the default [`NullSink`] build is
/// the untraced fast path.
pub struct WebCacheWorld<T: TraceSink = NullSink> {
    config: WebCacheConfig,
    space: PageSpace,
    /// Overlay, world RNG and per-proxy delay jitter.
    overlay: AsymmetricOverlay,
    proxies: Vec<ProxyState>,
    /// Published cache digests (digest mode only; `None` until first
    /// publication).
    digests: Vec<Option<BloomFilter>>,
    /// Span ids for the tracer (requests resolve synchronously, so this
    /// is purely a trace-record label).
    next_query: u64,
    tracer: QueryTracer<T>,
    /// Metrics, public for reports and tests.
    pub metrics: CacheMetrics,
}

impl<T: TraceSink> WebCacheWorld<T> {
    /// Build the initial world: random outgoing neighbors for every proxy
    /// (both modes start identically).
    pub fn new(config: WebCacheConfig) -> Self {
        config.validate().expect("invalid web-cache config");
        let rngs = RngFactory::new(config.seed);
        let space = PageSpace::new(&config);
        let overlay =
            AsymmetricOverlay::bootstrap(config.proxies, OUT_DEGREE, None, &rngs, "webcache.world");
        let proxies = (0..config.proxies)
            .map(|p| ProxyState {
                cache: LruCache::new(config.cache_capacity),
                stream: RequestStream::new(&config, &rngs, p),
                rt: NodeRuntime::new(UPDATE_THRESHOLD),
                explore: ReconfigClock::new(config.explore_every),
                recent_misses: VecDeque::with_capacity(MISS_HISTORY),
            })
            .collect();

        let digests = vec![None; config.proxies];
        let tracer = QueryTracer::new(&config.telemetry);
        WebCacheWorld {
            config,
            space,
            overlay,
            proxies,
            digests,
            next_query: 0,
            tracer,
            metrics: CacheMetrics::default(),
        }
    }

    /// Publish `proxy`'s digest from its current cache contents.
    fn publish_digest(&mut self, proxy: NodeId) {
        let cache = &self.proxies[proxy.index()].cache;
        let expected = self.config.cache_capacity.max(1);
        let digest = BloomFilter::from_items(cache.iter(), expected, DIGEST_BITS_PER_ITEM);
        self.digests[proxy.index()] = Some(digest);
    }

    /// Collect the initial events as `(time, node, event)` in proxy
    /// order: every proxy's first request, and its digest-publication
    /// chain when digests are enabled.
    pub(crate) fn collect_prime(&mut self, out: &mut Vec<(SimTime, NodeId, CacheEvent)>) {
        for p in 0..self.proxies.len() {
            let proxy = NodeId::from_index(p);
            let d = self.proxies[p].stream.next_interval();
            out.push((SimTime::ZERO + d, proxy, CacheEvent::Request { proxy }));
            if self.config.use_digests {
                let at = SimTime::ZERO + self.config.digest_refresh;
                out.push((at, proxy, CacheEvent::DigestRefresh { proxy }));
            }
        }
    }

    /// The configuration.
    pub fn config(&self) -> &WebCacheConfig {
        &self.config
    }

    /// `proxy`'s outgoing neighbors, for invariant checks.
    pub fn neighbors_of(&self, proxy: NodeId) -> &[NodeId] {
        self.overlay.out(proxy).as_slice()
    }

    /// Fraction of outgoing edges that connect same-group proxies — the
    /// clustering measure dynamic mode is expected to raise.
    pub fn same_group_edge_fraction(&self) -> f64 {
        self.overlay
            .same_group_edge_fraction(|p| self.proxies[p.index()].stream.group())
    }

    /// A jittered round trip from `proxy` to a party `one_way` away.
    fn round_trip(&mut self, proxy: NodeId, one_way: SimDuration) -> SimDuration {
        self.overlay
            .jittered(proxy, one_way, JITTER_SPREAD)
            .saturating_mul(2)
    }

    fn record_latency(&mut self, now: SimTime, ms: f64) {
        if now.as_hours() >= self.config.warmup_hours {
            self.metrics.runtime.latency_ms.record(ms);
        }
    }

    fn handle_request<C: Port<CacheEvent>>(&mut self, proxy: NodeId, ctx: &mut C) {
        let i = proxy.index();
        let now = ctx.now();
        let hour = now.as_hours() as usize;

        // Schedule the next request first (the stream never stops).
        let next = self.proxies[i].stream.next_interval();
        ctx.send(proxy, next, CacheEvent::Request { proxy });
        self.metrics.runtime.queries.incr(hour);

        let page = {
            let space = &self.space;
            self.proxies[i].stream.next_page(space)
        };
        // Squid-style search depth is 1 hop, so the whole span resolves
        // inside this handler; the id exists only to label trace records.
        let qid = QueryId(self.next_query);
        self.next_query += 1;
        self.tracer.issue(now, qid, proxy, page.index() as u64, 1);

        if self.proxies[i].cache.touch(page) {
            self.metrics.local_hits.incr(hour);
            self.record_latency(now, 1.0);
            self.tracer.finish(now, qid, TraceOutcome::Hit, 1, 1.0);
        } else {
            // Local miss: remember it, query the siblings.
            if self.proxies[i].recent_misses.len() == MISS_HISTORY {
                self.proxies[i].recent_misses.pop_front();
            }
            self.proxies[i].recent_misses.push_back(page);

            let neighbors: Vec<NodeId> = self.overlay.out(proxy).iter().collect();
            let queried: Vec<NodeId> = if self.config.use_digests {
                // Query only digest-positive siblings (no digest yet =
                // positive: better to over-query than go dark at startup).
                let (positive, negative): (Vec<NodeId>, Vec<NodeId>) =
                    neighbors.iter().partition(|&&q| {
                        self.digests[q.index()]
                            .as_ref()
                            .is_none_or(|d| d.contains(page))
                    });
                self.metrics.digest_filtered += negative.len() as u64;
                for &q in &negative {
                    if self.proxies[q.index()].cache.peek(page) {
                        self.metrics.digest_stale_misses += 1;
                    }
                }
                for &q in &positive {
                    if !self.proxies[q.index()].cache.peek(page) {
                        self.metrics.digest_false_positives += 1;
                    }
                }
                positive
            } else {
                neighbors
            };
            self.metrics
                .runtime
                .messages
                .add(hour, queried.len() as f64);
            self.tracer.hop(now, qid, proxy, proxy, 1, 1, queried.len());
            let holder = queried
                .iter()
                .copied()
                .find(|&q| self.proxies[q.index()].cache.peek(page));
            match holder {
                Some(q) => {
                    let rtt = self.round_trip(proxy, SIBLING_DELAY);
                    let ms = rtt.as_millis() as f64;
                    self.metrics.runtime.hits.incr(hour);
                    self.record_latency(now, ms);
                    self.tracer.first(now, qid, q, 1, ms);
                    self.tracer.finish(now, qid, TraceOutcome::Hit, 1, ms);
                    if self.config.mode == CacheMode::Dynamic {
                        // Benefit: pages served per second of latency
                        // (latency-normalised score, cumulative ranking).
                        self.proxies[i].rt.stats.record_reply(ReplyObservation {
                            from: q,
                            bandwidth: None,
                            score: 1.0 / (ms / 1_000.0).max(1e-3),
                            latency_ms: ms,
                            at: now,
                        });
                    }
                    // The sibling's reply carries the page: a message to
                    // ourselves after the round trip.
                    ctx.send(proxy, rtt, CacheEvent::FetchComplete { proxy, page });
                }
                None => {
                    let rtt = self.round_trip(proxy, ORIGIN_DELAY);
                    self.metrics.origin_fetches.incr(hour);
                    self.record_latency(now, rtt.as_millis() as f64);
                    self.tracer
                        .finish(now, qid, TraceOutcome::Miss, 0, rtt.as_millis() as f64);
                    ctx.send(proxy, rtt, CacheEvent::FetchComplete { proxy, page });
                }
            }
        }

        if self.config.mode == CacheMode::Dynamic {
            if self.proxies[i].explore.tick() {
                self.proxies[i].explore.reset();
                self.explore(proxy, ctx);
            }
            if self.proxies[i].rt.clock.tick() {
                // Algo 3 (pure asymmetric): rewrite the outgoing list from
                // the statistics — no agreement protocol needed, and with
                // unbounded incoming lists no adoption is ever refused.
                self.overlay.update_neighbors(
                    proxy,
                    &mut self.proxies[i].rt,
                    &mut self.metrics.runtime,
                );
            }
        }
    }

    /// Algo 2: probe random non-neighbor proxies; replies return
    /// summarized information (overlap with our recent misses).
    fn explore<C: Port<CacheEvent>>(&mut self, proxy: NodeId, ctx: &mut C) {
        self.metrics.runtime.explorations += 1;
        let hour = ctx.now().as_hours() as usize;
        for _ in 0..PROBE_FANOUT {
            let q = self.overlay.random_node();
            if q == proxy || self.overlay.out(proxy).contains(q) {
                continue;
            }
            self.metrics.runtime.messages.add(hour, 1.0);
            let rtt = self.round_trip(proxy, SIBLING_DELAY);
            // The probe reply returns to the prober after the round trip.
            ctx.send(proxy, rtt, CacheEvent::ProbeReply { to: proxy, from: q });
        }
    }

    /// A probe reply: score the probed proxy by how many of our recent
    /// misses it could have served ("summarized information", Algo 2).
    fn probe_reply(&mut self, to: NodeId, from: NodeId, now: SimTime) {
        let i = to.index();
        let overlap = self.proxies[i]
            .recent_misses
            .iter()
            .filter(|&&page| self.proxies[from.index()].cache.peek(page))
            .count();
        if overlap == 0 {
            return; // nothing learned worth recording
        }
        let ms = (SIBLING_DELAY.as_millis() * 2) as f64;
        // Same units as the serve score: pages-per-second-of-latency, with
        // the overlap fraction standing in for observed serves.
        let frac = overlap as f64 / MISS_HISTORY as f64;
        self.proxies[i].rt.stats.record_reply(ReplyObservation {
            from,
            bandwidth: None,
            score: frac * UPDATE_THRESHOLD as f64 / (ms / 1_000.0).max(1e-3),
            latency_ms: ms,
            at: now,
        });
    }

    /// The one event dispatcher, generic over the engine's [`Port`] as
    /// `GnutellaWorld::dispatch` is; `World::handle` forwards to it.
    pub(crate) fn dispatch<C: Port<CacheEvent>>(&mut self, event: CacheEvent, ctx: &mut C) {
        match event {
            CacheEvent::Request { proxy } => self.handle_request(proxy, ctx),
            CacheEvent::FetchComplete { proxy, page } => {
                self.proxies[proxy.index()].cache.insert(page);
            }
            CacheEvent::ProbeReply { to, from } => self.probe_reply(to, from, ctx.now()),
            CacheEvent::DigestRefresh { proxy } => {
                self.publish_digest(proxy);
                let refresh = self.config.digest_refresh;
                ctx.send(proxy, refresh, CacheEvent::DigestRefresh { proxy });
            }
        }
    }
}

impl<T: TraceSink> World for WebCacheWorld<T> {
    type Event = CacheEvent;

    /// Report cumulative counters (differenced into per-window deltas by
    /// the recorder). Read-only, so a metered run stays bit-identical to
    /// an unmetered one.
    fn sample_metrics(&self, _now: SimTime, hub: &mut ddr_sim::MetricsHub) {
        for (name, total) in self.metrics.counters() {
            hub.counter(name, total);
        }
    }

    fn handle(&mut self, _: SimTime, event: CacheEvent, sched: &mut Scheduler<'_, CacheEvent>) {
        self.dispatch(event, sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_same_group_fraction_is_near_chance() {
        let w =
            WebCacheWorld::<NullSink>::new(WebCacheConfig::default_scenario(CacheMode::Dynamic));
        let f = w.same_group_edge_fraction();
        // chance level: 7 same-group peers of 63 ≈ 0.111
        assert!(f < 0.3, "suspiciously clustered initial overlay: {f}");
    }
}
