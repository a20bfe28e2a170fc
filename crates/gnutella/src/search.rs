//! The Search module (paper §3.2, Algo 1) as Algo 5 instantiates it:
//! `Send_Query` at the initiator and `Process_Query` at every relay.
//!
//! * `Send_Query`: the initiator floods its neighbors, collects results
//!   until a timeout, then updates statistics (`B / R` per result).
//! * `Process_Query`: duplicate queries are discarded via the
//!   recent-message list; a node holding the song replies straight to the
//!   initiator and does **not** forward; otherwise it forwards to its
//!   neighbors while hops remain.
//!
//! This file is also the effectful half of the search seam. Every
//! technique-dependent *decision* (launch TTL, next wave depth, index
//! radius, "collects in waves") is a pure method of
//! [`ddr_core::SearchStrategy`]; every technique-dependent *effect* —
//! wave timers, index rebuilds, answering on behalf of an indexed holder
//! — happens below and nowhere else. The rest of the world reaches it
//! through `refresh_index` (from `login` and `collect_prime`) and the
//! search arms of `dispatch`.

use crate::config::ScenarioConfig;
use crate::events::GnutellaEvent;
use crate::peer::{PendingQuery, QueryOutcome};
use crate::world::GnutellaWorld;
use ddr_core::runtime::Port;
use ddr_core::{LocalIndex, QueryDescriptor};
use ddr_net::{BandwidthClass, NetworkModel};
use ddr_sim::{ItemId, NodeId, QueryId, SimDuration, SimTime};
use ddr_telemetry::{TraceOutcome, TraceSink};

/// Per-wave collection window for iterative deepening.
const WAVE_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Rebuild period for local indices (the staleness/maintenance model).
const INDEX_REFRESH: SimDuration = SimDuration::from_mins(30);

/// How long after a query's issue a copy of it can still reach a node on
/// a simulated clock: the largest TTL a descriptor carries times the
/// largest one-hop delay (every delay is clamped to at least the
/// lookahead). A node's dup cache forgets an id once this has passed
/// since its first sighting (`ddr_core::dup_cache`'s module docs), which
/// changes no answer.
pub(crate) fn flood_horizon(
    config: &ScenarioConfig,
    net: &NetworkModel,
    lookahead: SimDuration,
) -> SimDuration {
    let hops = config.strategy.max_ttl(config.max_hops);
    net.max_delay().max(lookahead).saturating_mul(hops as u64)
}

// Every handler below is generic over the engine context: the node logic
// only speaks `Port` (`now`, and `send` to a peer or — a timer — to
// itself). Under the serial kernel the context is the `Scheduler`, under
// the sharded kernel the `ShardCtx`, under the serve bus its own
// `ShardCtx`. All deliver identical event sequences, which is what the
// sharded == serial bit-identity tests and the serve parity test pin.
impl<T: TraceSink> GnutellaWorld<T> {
    /// The same world with dup caches bound by their FIFO capacity alone.
    /// For a wall clock, where a delivery can run later than any delay
    /// the model draws, so no flood horizon holds.
    pub fn without_flood_horizon(mut self) -> Self {
        self.flood_horizon = None;
        self
    }

    /// The search seam's session hook: under a strategy that keeps a
    /// per-node content index, (re)build `node`'s index from a snapshot of
    /// the neighbor views within the radius and what each node there
    /// advertises (its class and shared library), and return the timer
    /// that triggers the next rebuild. `None` under every other strategy.
    pub(crate) fn refresh_index(&mut self, node: NodeId) -> Option<(SimDuration, GnutellaEvent)> {
        let radius = self.shared.config.strategy.index_radius()?;
        debug_assert!(
            self.is_full_range(),
            "local indices walk multi-hop neighborhoods and need the full range"
        );
        let (oracle, shared) = (self.oracle(), &self.shared);
        let idx = LocalIndex::build_from(
            node,
            |n| oracle.neighbors(n),
            radius as usize,
            |n| (shared.advert(n).class(), shared.advert(n).advertised()),
        );
        let k = self.li(node);
        self.indices[k] = idx;
        let session = self.sessions[k].session;
        Some((
            INDEX_REFRESH.max(self.lookahead),
            GnutellaEvent::IndexRefresh { node, session },
        ))
    }

    /// Local indices: periodic rebuild while the node stays online.
    pub(crate) fn index_refresh<C: Port<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        session: u32,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if !self.sessions[k].online || self.sessions[k].session != session {
            return; // stale event from an earlier session
        }
        if let Some((after, refresh)) = self.refresh_index(node) {
            ctx.send(node, after, refresh);
        }
    }

    /// The first online holder of `item` in `node`'s local index, with
    /// the class it advertised, if any.
    fn index_holder(&self, node: NodeId, item: ItemId) -> Option<(NodeId, BandwidthClass)> {
        // Only an index-keeping strategy fills `indices`; under any other
        // the column is empty, and its length in the world's header keeps
        // the relay hot path off it.
        let idx = self.indices.get(self.li(node))?;
        let oracle = self.oracle();
        idx.holders(item)
            .iter()
            .copied()
            .find(|&(h, _)| oracle.online(h))
    }

    /// An owned node answers `query`: the reply to `origin` carries a
    /// result from `from` (the node itself, or a holder in its index)
    /// with the class `from` advertised, `hops` away. The reply is the
    /// answering node's message, so its slice counts it; the caller sends
    /// it, and counts a result from the node's own library in `served`
    /// and an index answer in `index_answers` (the holder, another node,
    /// is left as it is).
    fn answer(
        &mut self,
        from: NodeId,
        bandwidth: BandwidthClass,
        origin: NodeId,
        query: QueryId,
        hops: u8,
    ) -> GnutellaEvent {
        self.replies += 1;
        GnutellaEvent::ReplyArrive {
            to: origin,
            from,
            query,
            bandwidth,
            hops,
        }
    }

    /// Send `desc` from `from` to each of `targets`, counted as one
    /// `messages.add` per fan-out. An empty fan-out records nothing:
    /// even a zero would grow the hourly series.
    fn send_queries<C: Port<GnutellaEvent>>(
        &mut self,
        from: NodeId,
        desc: QueryDescriptor,
        targets: &[NodeId],
        ctx: &mut C,
    ) {
        if targets.is_empty() {
            return;
        }
        let hour = ctx.now().as_hours() as usize;
        self.metrics
            .runtime
            .messages
            .add(hour, targets.len() as f64);
        let k = self.li(from);
        for &to in targets {
            let d = self.delay(k, from, to);
            ctx.send(to, d, GnutellaEvent::QueryArrive { to, from, desc });
        }
    }

    /// Flood a fresh (or relaunched) query from its initiator.
    fn flood_from_origin<C: Port<GnutellaEvent>>(
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
        // Reuse the scratch buffer (taken out of `self` so `send_queries`
        // can borrow the world mutably).
        let mut targets = std::mem::take(&mut self.scratch_targets);
        self.shared.config.forward.select_into(
            self.neighbors[k].as_slice(),
            None,
            &self.peers[k].rt.stats,
            |s| self.shared.config.benefit.rank(s),
            &mut self.proto[k],
            &mut targets,
        );
        self.send_queries(node, desc, &targets, ctx);
        self.scratch_targets = targets;
    }

    /// The closed-loop request (`IssueQuery`): a user online in this
    /// session launches a query, then schedules their next one.
    pub(crate) fn issue_query<C: Port<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        session: u32,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if !self.sessions[k].online || self.sessions[k].session != session {
            return; // stale event from a previous session
        }
        self.launch_query(node, ctx);
        let d = self.peers[k].queries.next_interval().max(self.lookahead);
        ctx.send(node, d, GnutellaEvent::IssueQuery { node, session });
    }

    /// Algo 5 `Send_Query`, the one launch step behind both arrivals
    /// (`IssueQuery`, `OfferQuery`): draw the user's next target, launch
    /// the search the configured strategy asks for, arm its collection
    /// timer and tick the reconfiguration clock.
    pub(crate) fn launch_query<C: Port<GnutellaEvent>>(&mut self, node: NodeId, ctx: &mut C) {
        let k = self.li(node);
        let now = ctx.now();

        let item = self.next_target(k, node, now);
        let qid = self.fresh_qid(k, node);
        let horizon = self.flood_horizon;
        self.peers[k].rt.seen().sighting(qid, now, horizon);
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
        self.metrics.runtime.queries.incr(now.as_hours() as usize);

        // Copy the launch shape out of the strategy as scalars: the
        // deepening variant owns a Vec, and cloning it per query was the
        // single biggest allocation on the issue path.
        let strategy = &self.shared.config.strategy;
        let launch_ttl = strategy.launch_ttl(self.shared.config.max_hops);
        let in_waves = strategy.collects_in_waves();
        self.tracer
            .issue(now, qid, node, item.index() as u64, launch_ttl);
        if let Some((holder, bandwidth)) = self.index_holder(node, item) {
            // Contact the indexed holder directly: one targeted message,
            // one reply — no flood. The initiator answers itself from its
            // index, so both legs are drawn from its own stream. A free
            // rider or a liar uses its own index too: it serves no one
            // by looking up what it wants.
            self.metrics
                .runtime
                .messages
                .add(now.as_hours() as usize, 1.0);
            let there = self.delay(k, node, holder);
            let back = self.delay(k, holder, node);
            self.metrics.index_answers += 1;
            let reply = self.answer(holder, bandwidth, node, qid, 1);
            ctx.send(node, there + back, reply);
        } else {
            self.flood_from_origin(node, qid, item, launch_ttl, ctx);
        }
        let (window, collect) = if in_waves {
            let first_wave = GnutellaEvent::WaveCheck {
                node,
                query: qid,
                wave: 0,
            };
            (WAVE_TIMEOUT, first_wave)
        } else {
            let finalize = GnutellaEvent::QueryFinalize { node, query: qid };
            (self.shared.config.query_timeout, finalize)
        };
        ctx.send(node, window.max(self.lookahead), collect);

        // Reconfiguration clock ticks in requests (paper §4.3). The clock
        // always ticks — static mode simply never acts on a due clock —
        // so both modes follow identical event schedules.
        let clock_due = self.peers[k].rt.clock.tick();
        if self.is_dynamic() && clock_due {
            self.reconfigure(node, ctx);
        }
    }

    /// Algo 5 `Process_Query` at a relay.
    pub(crate) fn query_arrive<C: Port<GnutellaEvent>>(
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
        // other hosts (the sender and the far-away initiator — on a
        // first hop the same node, already noted).
        self.hosts[k].note(from);
        if desc.origin != to && desc.origin != from {
            self.hosts[k].note(desc.origin);
        }
        let (now, horizon) = (ctx.now(), self.flood_horizon);
        // The horizon's premise: every copy arrives within it of the
        // query's issue. Only a copy past it can meet an answer the
        // horizon changed; `check_invariants` requires none.
        let late = horizon.is_some_and(|h| now.saturating_since(desc.issued_at) > h);
        self.late_copies += u64::from(late);
        if !self.peers[k].rt.seen().sighting(desc.id, now, horizon) {
            self.metrics.duplicates_dropped += 1;
            self.tracer.dup(now, desc.id, desc.origin, to);
            return; // "if the same message has been received before, discard"
        }
        let row = self.own(to);
        let serves = row.advert.role().serves();
        if serves && row.profile.has(desc.item) {
            // Reply to the initiator and do not propagate (§4.1).
            // Free-riders skip this branch entirely: they hold content
            // but refuse to serve it (§2's imbalance scenario). Liars do
            // too — their advertised summary is a lie, and the refusal
            // here is what their benefit entries eventually reflect.
            let bandwidth = row.advert.class();
            let d = self.delay(k, to, desc.origin);
            self.served[k] += 1;
            let reply = self.answer(to, bandwidth, desc.origin, desc.id, desc.travelled);
            ctx.send(desc.origin, d, reply);
            return;
        }
        // Answer on behalf of an indexed nearby holder (Yang &
        // Garcia-Molina: the index covers the final hops, so the query
        // terminates here). A node that refuses to serve answers from no
        // index either.
        let indexed = if serves {
            self.index_holder(to, desc.item)
        } else {
            None
        };
        if let Some((holder, bandwidth)) = indexed {
            let d = self.delay(k, to, desc.origin);
            let hops = desc.travelled.saturating_add(1);
            self.metrics.index_answers += 1;
            let reply = self.answer(holder, bandwidth, desc.origin, desc.id, hops);
            ctx.send(desc.origin, d, reply);
            return;
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
            |s| self.shared.config.benefit.rank(s),
            &mut self.proto[k],
            &mut targets,
        );
        self.tracer.hop(
            ctx.now(),
            desc.id,
            desc.origin,
            to,
            from,
            desc.ttl,
            desc.travelled,
            targets.len(),
        );
        self.send_queries(to, fwd, &targets, ctx);
        self.scratch_targets = targets;
    }

    /// A result reaches the initiator, carrying its responder's
    /// bandwidth class: the class the initiator scores it by.
    pub(crate) fn reply_arrive(
        &mut self,
        to: NodeId,
        from: NodeId,
        query: QueryId,
        bandwidth: BandwidthClass,
        hops: u8,
        now: SimTime,
    ) {
        let k = self.li(to);
        if !self.sessions[k].online {
            return;
        }
        self.hosts[k].note(from);
        if let Some(pq) = self.peers[k].pending.get_mut(&query) {
            let was_first = pq.first_at.is_none();
            pq.record(from, bandwidth, now);
            if now.as_hours() >= self.shared.config.warmup_hours {
                self.metrics.result_hops.record(hops as f64);
                if was_first {
                    self.metrics.first_result_hops.record(hops as f64);
                }
            }
            if was_first {
                self.metrics.runtime.hits.incr(now.as_hours() as usize);
                let latency = now.saturating_since(pq.issued_at).as_millis() as f64;
                self.tracer.first(now, query, from, hops, latency);
            }
        }
    }

    /// The collection window closed: record the query's outcome and
    /// "obtain results and update statistics". Returns the outcome; `None`
    /// when the query is no longer pending (logged off in the meantime, or
    /// a double finalize).
    pub(crate) fn finalize_query(
        &mut self,
        node: NodeId,
        query: QueryId,
        now: SimTime,
    ) -> Option<QueryOutcome> {
        let k = self.li(node);
        let pq = self.peers[k].pending.remove(&query)?;
        self.metrics.queries_finalized += 1;
        let outcome = pq.outcome();
        let results = pq.responders.len();
        if results == 0 {
            self.tracer.finish(now, query, TraceOutcome::Miss, 0, -1.0);
            self.pq_pool.push(pq);
            return Some(outcome);
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
            self.metrics.runtime.latency_ms.record(delay);
            self.metrics.first_delay_hist.record(delay);
        }
        // "Obtain results and update statistics" — each result scores
        // B / R, B being the class its reply carried (statistics are only
        // consumed in dynamic mode, but keeping them in static mode costs
        // little and simplifies A/B debugging).
        if self.is_dynamic() {
            for &(responder, bandwidth, at) in &pq.responders {
                let score = self.shared.config.benefit.score(bandwidth, results);
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
        Some(outcome)
    }

    /// Iterative deepening: the wave's collection window elapsed —
    /// finalise a satisfied (or fully deepened) query, returning its
    /// outcome, or relaunch it one wave deeper.
    pub(crate) fn wave_check<C: Port<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        query: QueryId,
        wave: u8,
        ctx: &mut C,
    ) -> Option<QueryOutcome> {
        let k = self.li(node);
        if !self.sessions[k].online {
            return None;
        }
        let pq = self.peers[k].pending.get(&query)?; // finalised or superseded
        if pq.wave != wave {
            return None; // a deeper wave is already in flight
        }
        let next_wave = wave as usize + 1;
        let next_depth = self.shared.config.strategy.wave_depth(next_wave);
        let satisfied = !pq.responders.is_empty();
        let Some(next_depth) = next_depth.filter(|_| !satisfied) else {
            return self.finalize_query(node, query, ctx.now());
        };
        // Relaunch deeper under a fresh wire id; the pending record (and
        // the original issue time) carries over.
        let mut pq = self.peers[k].pending.remove(&query).expect("checked above");
        pq.wave = next_wave as u8;
        let item = pq.item;
        let qid2 = self.fresh_qid(k, node);
        let horizon = self.flood_horizon;
        self.peers[k].rt.seen().sighting(qid2, ctx.now(), horizon);
        self.peers[k].pending.insert(qid2, pq);
        self.metrics.extra_waves += 1;
        self.tracer
            .relaunch(ctx.now(), query, qid2, next_wave as u8);
        self.flood_from_origin(node, qid2, item, next_depth, ctx);
        ctx.send(
            node,
            WAVE_TIMEOUT.max(self.lookahead),
            GnutellaEvent::WaveCheck {
                node,
                query: qid2,
                wave: next_wave as u8,
            },
        );
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Mode, ScenarioConfig, SearchStrategy};
    use crate::peer::Role;

    /// A context that keeps what a handler sends.
    struct Recorder(Vec<(NodeId, SimDuration, GnutellaEvent)>);

    impl Port<GnutellaEvent> for Recorder {
        fn now(&self) -> SimTime {
            SimTime::from_secs(60)
        }

        fn send(&mut self, to: NodeId, delay: SimDuration, event: GnutellaEvent) {
            self.0.push((to, delay, event));
        }
    }

    impl Recorder {
        /// The results sent to `origin`, as `(responder, class)`.
        fn results_to(&self, origin: NodeId) -> Vec<(NodeId, BandwidthClass)> {
            self.0
                .iter()
                .filter_map(|&(to, _, event)| match event {
                    GnutellaEvent::ReplyArrive {
                        from, bandwidth, ..
                    } if to == origin => Some((from, bandwidth)),
                    _ => None,
                })
                .collect()
        }
    }

    /// A 100-user static world whose nodes keep radius-1 indices, with a
    /// share of free riders and one of liars.
    fn indexed_world(free_riders: f64, liars: f64) -> GnutellaWorld {
        let mut config = ScenarioConfig::scaled(Mode::Static, 2, 20, 2);
        config.strategy = SearchStrategy::LocalIndices { radius: 1 };
        config.free_rider_fraction = free_riders;
        config.liar_fraction = liars;
        GnutellaWorld::new(config)
    }

    /// An index answer is the answering node's act: the initiator draws
    /// both legs from its own delay stream and sends the reply, and the
    /// holder it names is left as it was. A free rider looks up its own
    /// index like anyone: it serves no one by it.
    #[test]
    fn an_initiators_index_answer_leaves_the_holder_untouched() {
        for role in [Role::Contributor, Role::FreeRider] {
            let mut world = indexed_world(0.3, 0.0);
            let online = |w: &GnutellaWorld, n: NodeId| w.sessions[n.index()].online;
            let (node, holder) = (0..world.users())
                .map(NodeId::from_index)
                .filter(|&n| online(&world, n) && world.own(n).advert.role() == role)
                .find_map(|n| {
                    let h = world.neighbors_of(n).iter().copied();
                    h.clone().find(|&h| online(&world, h)).map(|h| (n, h))
                })
                .expect("an online node with an online neighbor");
            let (k, kh) = (node.index(), holder.index());
            // The holder is indexed under every song, so whatever the
            // initiator draws is answered from the index.
            let songs: Vec<ItemId> = (0..world.shared.catalog.songs()).map(ItemId).collect();
            world.indices[k] = LocalIndex::build_from(
                node,
                |_| std::slice::from_ref(&holder),
                1,
                |_| (BandwidthClass::Lan, songs.iter()),
            );
            let stream = world.delays[kh].clone();
            let mut sent = Recorder(Vec::new());
            world.launch_query(node, &mut sent);
            assert_eq!(world.metrics.index_answers, 1, "{role:?}");
            assert_eq!(
                sent.results_to(node),
                [(holder, BandwidthClass::Lan)],
                "the reply carries the advertised class"
            );
            assert_eq!(
                (world.served[k], world.served[kh], world.replies),
                (0, 0, 1),
                "the reply is the initiator's message, and no one served a file"
            );
            let next = world.delay(kh, holder, node);
            world.delays[kh] = stream;
            assert_eq!(
                world.delay(kh, holder, node),
                next,
                "the holder's delay stream moved"
            );
        }
    }

    /// A liar advertises its full library, so a relay's index lists it and
    /// the relay answers for it like for any other holder.
    #[test]
    fn a_relay_answers_for_an_indexed_liar() {
        let mut world = indexed_world(0.0, 0.3);
        let online = |w: &GnutellaWorld, n: NodeId| w.sessions[n.index()].online;
        let has = |w: &GnutellaWorld, n: NodeId, item| w.own(n).profile.has(item);
        let (relay, liar, item) = (0..world.users())
            .map(NodeId::from_index)
            .filter(|&r| online(&world, r) && world.own(r).advert.role().serves())
            .find_map(|r| {
                let view = world.neighbors_of(r);
                let liar = view
                    .iter()
                    .copied()
                    .find(|&l| online(&world, l) && world.own(l).advert.role() == Role::Liar)?;
                // A song only the liar holds, near the relay.
                let item = world
                    .own(liar)
                    .profile
                    .library()
                    .iter()
                    .copied()
                    .find(|&i| {
                        !has(&world, r, i) && view.iter().all(|&m| m == liar || !has(&world, m, i))
                    })?;
                Some((r, liar, item))
            })
            .expect("an online relay next to an online liar");
        world.refresh_index(relay);
        let origin = (0..world.users())
            .map(NodeId::from_index)
            .find(|&o| o != relay && !world.neighbors_of(relay).contains(&o))
            .expect("a node beyond the relay's links");
        let desc = QueryDescriptor {
            id: QueryId(7),
            origin,
            item,
            ttl: 2,
            travelled: 1,
            issued_at: SimTime::ZERO,
        };
        let mut sent = Recorder(Vec::new());
        world.query_arrive(relay, origin, desc, &mut sent);
        assert_eq!(
            sent.results_to(origin),
            [(liar, world.own(liar).advert.class())]
        );
        assert_eq!(world.metrics.index_answers, 1);
        assert_eq!(
            (world.served[relay.index()], world.served[liar.index()]),
            (0, 0)
        );
    }

    /// On a simulated clock a copy that arrives more than the flood
    /// horizon after its query's issue is counted late, and one at the
    /// horizon is not; on a wall clock (no horizon) neither is.
    #[test]
    fn a_copy_past_the_flood_horizon_is_counted_late() {
        for simulated in [true, false] {
            let mut world: GnutellaWorld =
                GnutellaWorld::new(ScenarioConfig::scaled(Mode::Dynamic, 2, 20, 2));
            // BFS at hops 2 under the paper's delays: 2 × 360 ms.
            let h = world
                .flood_horizon
                .expect("a simulated clock has a horizon");
            assert_eq!(h, SimDuration::from_millis(720));
            if !simulated {
                world = world.without_flood_horizon();
            }
            let users = world.config().workload.users;
            let k = (0..users)
                .find(|&k| world.sessions[k].online)
                .expect("an online user");
            let (to, from) = (NodeId::from_index(k), NodeId::from_index((k + 1) % users));
            let now = Recorder(Vec::new()).now();
            for (id, age) in [(1, h.as_millis()), (2, h.as_millis() + 1)] {
                let desc = QueryDescriptor {
                    id: QueryId(id),
                    origin: from,
                    item: ItemId(0),
                    ttl: 1,
                    travelled: 1,
                    issued_at: SimTime::from_millis(now.as_millis() - age),
                };
                world.query_arrive(to, from, desc, &mut Recorder(Vec::new()));
            }
            assert_eq!(
                world.late_copies,
                u64::from(simulated),
                "simulated {simulated}"
            );
        }
    }

    /// The initiator scores a result by the class its reply carried, not
    /// by the responder's row of the network table.
    #[test]
    fn a_result_scores_the_bandwidth_its_reply_carried() {
        let mut world: GnutellaWorld =
            GnutellaWorld::new(ScenarioConfig::scaled(Mode::Dynamic, 2, 20, 2));
        let users = world.config().workload.users;
        let k = (0..users)
            .find(|&k| world.sessions[k].online)
            .expect("an online user");
        let (to, from, query) = (
            NodeId::from_index(k),
            NodeId::from_index((k + 1) % users),
            QueryId(1),
        );
        let row = world.shared.advert(from).class();
        let bandwidth = if row == BandwidthClass::Lan {
            BandwidthClass::Cable
        } else {
            BandwidthClass::Lan
        };
        world.peers[k]
            .pending
            .insert(query, PendingQuery::new(ItemId(0), SimTime::ZERO));
        assert!(world.peers[k].rt.stats.get(from).is_none());
        world.reply_arrive(to, from, query, bandwidth, 1, SimTime::from_millis(300));
        world.finalize_query(to, query, SimTime::from_secs(60));
        let stats = world.peers[k]
            .rt
            .stats
            .get(from)
            .expect("the result was scored");
        assert_eq!(stats.bandwidth, Some(bandwidth));
        assert_eq!(stats.benefit, world.config().benefit.score(bandwidth, 1));
    }
}
