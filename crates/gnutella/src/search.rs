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

use crate::events::GnutellaEvent;
use crate::peer::{PendingQuery, QueryOutcome};
use crate::world::GnutellaWorld;
use ddr_core::runtime::Port;
use ddr_core::{LocalIndex, QueryDescriptor};
use ddr_sim::{ItemId, NodeId, QueryId, SimDuration, SimTime};
use ddr_telemetry::{TraceOutcome, TraceSink};

/// Per-wave collection window for iterative deepening.
const WAVE_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Rebuild period for local indices (the staleness/maintenance model).
const INDEX_REFRESH: SimDuration = SimDuration::from_mins(30);

// Every handler below is generic over the engine context: the node logic
// only speaks `Port` (`now`, and `send` to a peer or — a timer — to
// itself). Under the serial kernel the context is the `Scheduler`, under
// the sharded kernel the `ShardCtx`, under the serve bus its own
// `ShardCtx`. All deliver identical event sequences, which is what the
// sharded == serial bit-identity tests and the serve parity test pin.
impl<T: TraceSink> GnutellaWorld<T> {
    /// The search seam's session hook: under a strategy that keeps a
    /// per-node content index, (re)build `node`'s index from the current
    /// per-node neighbor views and the (static) libraries of everything
    /// within the radius, and return the timer that triggers the next
    /// rebuild. `None` under every other strategy.
    pub(crate) fn refresh_index(&mut self, node: NodeId) -> Option<(SimDuration, GnutellaEvent)> {
        let radius = self.shared.config.strategy.index_radius()?;
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
        let k = self.li(node);
        self.indices[k] = Some(idx);
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

    /// First *online, serving* holder of `item` in `node`'s local index,
    /// if any (free-riders refuse to serve, index or not).
    fn index_holder(&self, node: NodeId, item: ItemId) -> Option<NodeId> {
        // Only an index-keeping strategy ever fills `indices`; asking it
        // first keeps the relay hot path off that cold column.
        self.shared.config.strategy.index_radius()?;
        let idx = self.indices[self.li(node)].as_ref()?;
        idx.holders(item).iter().copied().find(|&h| {
            self.sessions[self.li(h)].online
                && !self.shared.free_rider[h.index()]
                && !self.shared.liar[h.index()]
        })
    }

    /// Answer `query` on behalf of the indexed `holder`: its result
    /// reaches `origin` after `delay`, reported `hops` away.
    fn reply_from_index<C: Port<GnutellaEvent>>(
        &mut self,
        holder: NodeId,
        origin: NodeId,
        query: QueryId,
        hops: u8,
        delay: SimDuration,
        ctx: &mut C,
    ) {
        self.metrics.index_answers += 1;
        let hk = self.li(holder);
        self.served[hk] += 1;
        self.replies += 1;
        let bandwidth = self.shared.net.class(holder);
        ctx.send(
            origin,
            delay,
            GnutellaEvent::ReplyArrive {
                to: origin,
                from: holder,
                query,
                bandwidth,
                hops,
            },
        );
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
        self.metrics.runtime.queries.incr(now.as_hours() as usize);

        // Copy the launch shape out of the strategy as scalars: the
        // deepening variant owns a Vec, and cloning it per query was the
        // single biggest allocation on the issue path.
        let strategy = &self.shared.config.strategy;
        let launch_ttl = strategy.launch_ttl(self.shared.config.max_hops);
        let in_waves = strategy.collects_in_waves();
        self.tracer
            .issue(now, qid, node, item.index() as u64, launch_ttl);
        if let Some(holder) = self.index_holder(node, item) {
            // Contact the indexed holder directly: one targeted message,
            // one reply — no flood.
            self.metrics
                .runtime
                .messages
                .add(now.as_hours() as usize, 1.0);
            let there = self.delay(k, node, holder);
            let back = self.delay(self.li(holder), holder, node);
            self.reply_from_index(holder, node, qid, 1, there + back, ctx);
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
        if !self.peers[k].rt.seen().first_sighting(desc.id) {
            self.metrics.duplicates_dropped += 1;
            self.tracer.dup(ctx.now(), desc.id, desc.origin, to);
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
            self.replies += 1;
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
        // Answer on behalf of an indexed nearby holder (Yang &
        // Garcia-Molina: the index covers the final hops, so the query
        // terminates here).
        if let Some(holder) = self.index_holder(to, desc.item) {
            let d = self.delay(k, to, desc.origin);
            let hops = desc.travelled.saturating_add(1);
            self.reply_from_index(holder, desc.origin, desc.id, hops, d, ctx);
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

    /// A result reaches the initiator.
    pub(crate) fn reply_arrive(
        &mut self,
        to: NodeId,
        from: NodeId,
        query: QueryId,
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
            pq.record(from, now);
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
        // B / R (statistics are only consumed in dynamic mode, but keeping
        // them in static mode costs little and simplifies A/B debugging).
        if self.is_dynamic() {
            for &(responder, at) in &pq.responders {
                let bandwidth = self.shared.net.class(responder);
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
        self.peers[k].rt.seen().first_sighting(qid2);
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
