//! Session membership and symmetric-link maintenance: login and logoff,
//! the handshakes that keep the two endpoint views of a link in
//! agreement, and the refill campaigns that replace lost neighbors with
//! requests to known or bootstrap hosts.
//!
//! A `LinkRequest` and an invitation run through one opener
//! (`open_handshake`), one receiver (`handshake_request`), one settle
//! (`handshake_reply`) and one drop (`link_dropped`); the handshake's
//! state transitions are [`ddr_core::runtime::link`]'s.
//!
//! This is vanilla Gnutella: static mode runs nothing else besides
//! `Process_Query` (see `search.rs`). Dynamic mode adds the benefit-driven
//! update of `reconfigure.rs` on top, which reaches back here for its
//! connectivity floor (`refill_links`) and for the invitation handshake.
//!
//! No handler mutates another node's neighbor list, and none reads the
//! global online set: candidates come from the node's own bootstrap
//! stream and [`crate::HostCache`], and an offline candidate simply
//! refuses with a negative ack.

use crate::events::GnutellaEvent;
use crate::peer::{DEGREE, EVICTION_REPAIR_LIMIT, REFILL_FLOOR, REFILL_RETRY_BUDGET};
use crate::reconfigure::ever_answered;
use crate::world::GnutellaWorld;
use ddr_core::runtime::link::{Effect, Message};
use ddr_core::runtime::Port;
use ddr_core::search::benefit_sort_key;
use ddr_core::{InvitationPolicy, NodeStats};
use ddr_overlay::NeighborList;
use ddr_sim::{NodeId, QueryId, SimDuration, SimTime};
use ddr_telemetry::{TraceOutcome, TraceSink};
use rand::seq::SliceRandom;
use rand::Rng;

/// The paper's initial Gnutella configuration ("both the initial
/// configuration and the changes are purely random"): give each of
/// `members` up to [`DEGREE`] symmetric links, written straight into the
/// per-node `views`. Nodes outside `members` stay isolated.
///
/// Repeated random-pairing passes: shuffle the under-full candidates,
/// then link consecutive pairs. A few passes fill almost everyone;
/// stragglers (odd counts, unlucky shuffles) stay under-full exactly
/// like real bootstrap nodes waiting for contacts.
pub(crate) fn bootstrap_views<R: Rng + ?Sized>(
    views: &mut [NeighborList],
    members: &[NodeId],
    rng: &mut R,
) {
    let mut candidates: Vec<NodeId> = members.to_vec();
    for _pass in 0..DEGREE * 4 {
        candidates.retain(|&n| views[n.index()].len() < DEGREE);
        if candidates.len() < 2 {
            break;
        }
        candidates.shuffle(rng);
        for pair in candidates.chunks(2) {
            if let [a, b] = *pair {
                if !views[b.index()].is_full() && views[a.index()].add(b) {
                    views[b.index()].add(a);
                }
            }
        }
    }
}

impl<T: TraceSink> GnutellaWorld<T> {
    pub(crate) fn login<C: Port<GnutellaEvent>>(&mut self, node: NodeId, ctx: &mut C) {
        let k = self.li(node);
        if !self.shared.config.persist_stats {
            self.peers[k].rt.reset_stats();
        }
        self.peers[k].begin_session();
        self.sessions[k].login();
        self.metrics.logins += 1;
        // Gnutella join: request links from known/bootstrap hosts.
        self.refill_links(node, ctx);
        let d = self.peers[k].queries.next_interval().max(self.lookahead);
        ctx.send(
            node,
            d,
            GnutellaEvent::IssueQuery {
                node,
                session: self.sessions[k].session,
            },
        );
        if let Some((after, refresh)) = self.refresh_index(node) {
            ctx.send(node, after, refresh);
        }
    }

    pub(crate) fn logoff<C: Port<GnutellaEvent>>(&mut self, node: NodeId, ctx: &mut C) {
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
        for m in &former {
            let d = self.delay(k, node, m);
            ctx.send(m, d, GnutellaEvent::Unlink { to: m, from: node });
        }
    }

    /// Fill `out` with up to `want` join candidates for `node`: first
    /// uniform draws from its proto stream (the bootstrap server), then,
    /// if those came up short, its host cache (hosts observed in
    /// traffic). Candidates may be offline — they answer
    /// `LinkAck { accepted: false }`.
    fn pick_join_targets(&mut self, k: usize, node: NodeId, want: usize, out: &mut Vec<NodeId>) {
        out.clear();
        if want == 0 {
            return;
        }
        let total = self.users();
        let attempts = if total > 1 { 4 * want + 16 } else { 0 };
        let proto = &mut self.proto[k];
        let draws = (0..attempts).map(|_| NodeId::from_index(proto.gen_range(0..total)));
        let (book, _) = self.peers[k].link_book(&mut self.neighbors[k]);
        // Stop the moment `out` fills: every further draw would move the
        // node's proto stream.
        for m in draws.chain(self.hosts[k].iter()) {
            if m != node && book.may_dial(m) && !out.contains(&m) {
                out.push(m);
                if out.len() == want {
                    break;
                }
            }
        }
    }

    /// Send `LinkRequest`s for the slots `node` has free below `target`.
    pub(crate) fn request_links<C: Port<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        target: usize,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        let want = self.book(k).free(target);
        let mut join = std::mem::take(&mut self.scratch_join);
        self.pick_join_targets(k, node, want, &mut join);
        for &t in &join {
            self.open_handshake(k, node, t, false, ctx);
        }
        self.scratch_join = join;
    }

    /// Open a handshake from `node` (local index `k`) to `to` — an
    /// invitation when `invite`, a link request otherwise — with a slot
    /// reserved for its answer.
    pub(crate) fn open_handshake<C: Port<GnutellaEvent>>(
        &mut self,
        k: usize,
        node: NodeId,
        to: NodeId,
        invite: bool,
        ctx: &mut C,
    ) {
        self.book(k).open();
        let d = self.delay(k, node, to);
        let request = if invite {
            self.metrics.invitations_sent += 1;
            GnutellaEvent::InviteArrive { to, from: node }
        } else {
            GnutellaEvent::LinkRequest { to, from: node }
        };
        ctx.send(to, d, request);
    }

    /// Top up `node`'s links toward its current target: the full degree
    /// during the login-fill campaign and in static mode, [`REFILL_FLOOR`]
    /// once the dynamic variant has taken over (paper: beyond the floor,
    /// dynamic nodes regain links only through invitations — running
    /// under-degree is part of its savings).
    pub(crate) fn refill_links<C: Port<GnutellaEvent>>(&mut self, node: NodeId, ctx: &mut C) {
        let k = self.li(node);
        if !self.sessions[k].online {
            return;
        }
        let target = if self.is_dynamic() && !self.peers[k].fill_to_degree {
            REFILL_FLOOR
        } else {
            DEGREE
        };
        self.request_links(node, target, ctx);
    }

    /// A handshake request reached `to`: an invitation (Algo 5
    /// `Process_Invitation`: the invitee always accepts — paper case i;
    /// the other `InvitationPolicy` variants gate it — evicting its least
    /// beneficial neighbor when full, and resets its reconfiguration
    /// counter to damp cascades) when `invited`, a link request
    /// otherwise. The book commits first; the answer travels back either
    /// way, so the opener's reservation is released.
    pub(crate) fn handshake_request<C: Port<GnutellaEvent>>(
        &mut self,
        to: NodeId,
        from: NodeId,
        invited: bool,
        ctx: &mut C,
    ) {
        let k = self.li(to);
        let online = self.sessions[k].online;
        // A link request only takes a free slot; a full invitee asks its
        // policy whether to evict the weakest incumbent for the inviter.
        // The summary-gated policy compares the inviter's summary, which
        // `InviteArrive` names by its sender, with `to`'s own: both are
        // built from the two adverts, read by reference beside the open
        // book, and only when that policy asks.
        let shared = &*self.shared;
        let config = &shared.config;
        let (mut book, stats) = self.peers[k].link_book(&mut self.neighbors[k]);
        let effect = book.step(Message::Request { from }, online, |view| {
            if !invited {
                return None;
            }
            let rank = |s: &NodeStats| ever_answered(config.benefit, s);
            let (inviter, own) = (shared.advert(from), shared.advert(to));
            let similarity = || inviter.summary().similarity(&own.summary());
            config
                .invitation
                .decide(from, view, stats, rank, similarity)
        });
        if effect != Effect::Refused {
            self.hosts[k].note(from);
        }
        if let Effect::Linked { evicted } = effect {
            self.metrics.runtime.edges_changed += 1;
            if let Some(victim) = evicted {
                self.send_eviction(k, to, victim, ctx);
            }
            if invited {
                self.metrics.invitations_accepted += 1;
                // §4.3 damping: the neighbour list just changed, so
                // restart the update clock.
                self.peers[k].rt.note_invitation_accepted();
                if let InvitationPolicy::TrialPeriod { trial_millis } =
                    self.shared.config.invitation
                {
                    // Provisional acceptance: re-evaluate after the trial
                    // window (§3.4 solution a).
                    ctx.send(
                        to,
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
        let accepted = effect.accepted();
        let d = self.delay(k, to, from);
        let (to, from) = (from, to); // the answer goes back to the opener
        let answer = if invited {
            GnutellaEvent::InviteReply { to, from, accepted }
        } else {
            GnutellaEvent::LinkAck { to, from, accepted }
        };
        ctx.send(to, d, answer);
    }

    /// The answer to a handshake `to` opened came back: an `InviteReply`
    /// when `invited`, a `LinkAck` otherwise. The book releases the
    /// reserved slot and mirrors an accepted link, or asks for a repair
    /// `Unlink` when it can no longer hold it; a refused one is retried
    /// through the channel that opened it.
    pub(crate) fn handshake_reply<C: Port<GnutellaEvent>>(
        &mut self,
        to: NodeId,
        from: NodeId,
        accepted: bool,
        invited: bool,
        ctx: &mut C,
    ) {
        let k = self.li(to);
        let online = self.sessions[k].online;
        let benefit = self.shared.config.benefit;
        let (mut book, stats) = self.peers[k].link_book(&mut self.neighbors[k]);
        // Deferred swap, invitations only: the reconfiguration that sent
        // the invite planned to swap out its least beneficial neighbor,
        // and that eviction lands here, once the replacement is confirmed
        // — if the newcomer still beats it (statistics may have moved
        // since planning). Ties go to the first in view order.
        let effect = book.step(Message::Answer { from, accepted }, online, |view| {
            if !invited {
                return None;
            }
            let rank = |m| stats.get(m).map_or(0.0, |s| ever_answered(benefit, s));
            let newcomer = rank(from);
            let (weakest, b) = view
                .iter()
                .map(|&m| (m, rank(m)))
                .min_by(|a, b| benefit_sort_key(a.1).total_cmp(&benefit_sort_key(b.1)))?;
            (b < newcomer).then_some(weakest)
        });
        match effect {
            Effect::Linked {
                evicted: Some(victim),
            } => self.send_eviction(k, to, victim, ctx),
            Effect::Unlink => {
                let d = self.delay(k, to, from);
                ctx.send(from, d, GnutellaEvent::Unlink { to: from, from: to });
            }
            Effect::Refused => {
                if invited {
                    // The candidate did not answer: almost certainly
                    // offline. Mark its statistics entry stale so the
                    // recency proxy stops proposing it (its next real
                    // reply re-qualifies it).
                    self.peers[k].rt.stats.touch(from, SimTime::ZERO);
                }
                // Retry while the campaign budget lasts (candidates are
                // often offline — the node has no oracle).
                if !self.sessions[k].online || self.peers[k].refill_budget == 0 {
                    return;
                }
                self.peers[k].refill_budget -= 1;
                if invited {
                    self.retry_invites(to, ctx);
                } else {
                    self.refill_links(to, ctx);
                }
            }
            // Mirrored: the committing side already counted the edge change.
            _ => {}
        }
    }

    /// `from` dropped its link with `to`: an eviction notice (Algo 5
    /// `Process_Eviction`: the evictee also resets the evictor's
    /// statistics) when `evicted`, otherwise an `Unlink` (logoff, repair,
    /// refused mirror). The node updates its own view and repairs per mode.
    pub(crate) fn link_dropped<C: Port<GnutellaEvent>>(
        &mut self,
        to: NodeId,
        from: NodeId,
        evicted: bool,
        ctx: &mut C,
    ) {
        let k = self.li(to);
        if !self.sessions[k].online {
            return;
        }
        let held = self.neighbors[k].remove(from);
        if evicted {
            // Reset the evictor's statistics so the node will not try to
            // reconnect in the near future.
            self.peers[k].rt.stats.reset_node(from);
            // Repeated evictions are a rejection signal, not bad luck:
            // past the per-session allowance the node stops redialing
            // (backoff) and stays lean until its next login. A
            // systematically rejected peer — one every neighborhood votes
            // out — starves; see `EVICTION_REPAIR_LIMIT`.
            let received = &mut self.peers[k].evictions_received;
            *received = received.saturating_add(1);
            if *received > EVICTION_REPAIR_LIMIT {
                return;
            }
        } else if !held {
            return; // the view never held the link (refused handshake)
        }
        if !self.is_dynamic() || !self.shared.config.reconfig_on_neighbor_loss {
            // Static Gnutella, or no triggered update: without the update
            // process there is no invitation channel working to restore
            // the density, so a fresh campaign replaces the lost neighbor
            // with requests to known/bootstrap hosts (an eviction is
            // indistinguishable from churn at the receiving end; only
            // the dynamic variant sends evictions).
            self.peers[k].fill_to_degree = true;
            self.peers[k].refill_budget = REFILL_RETRY_BUDGET;
            self.refill_links(to, ctx);
        } else if evicted {
            // Under the loss-triggered update regime, an evicted link is
            // only repaired with a single un-retried probe that stops at
            // `REFILL_FLOOR` — being evicted costs the evictee real
            // density until its next churn event renews the campaign
            // budget. That cost scales with the network's update rate,
            // which is what bends Fig 3(b): hyperactive clocks bleed the
            // overlay lean, sluggish ones keep it dense but unclustered.
            self.request_links(to, REFILL_FLOOR, ctx);
        } else {
            // "Neighbor log-offs trigger the update process." The
            // triggered update already reopens a floor-target refill
            // with a fresh budget; the slot above the floor stays
            // reserved for merit — a node recovers its full degree
            // only through benefit-driven invitations, which is what
            // separates contributors from peers nobody would invite.
            self.reconfigure(to, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{Mode, ScenarioConfig};
    use crate::world::GnutellaWorld;
    use ddr_sim::NodeId;

    /// The t = 0 views `bootstrap_views` writes: one symmetric relation
    /// among the initially-online users, within the degree bound, and
    /// dense enough to search.
    #[test]
    fn bootstrap_views_are_symmetric_bounded_and_dense() {
        for seed in [1, 7, 0xDD_2003] {
            // The paper's densities at 100 users.
            let mut config = ScenarioConfig::scaled(Mode::Static, 2, 20, 2);
            config.seed = seed;
            assert_eq!(config.workload.users, 100);
            let world: GnutellaWorld = GnutellaWorld::new(config);
            let (mut links, mut online) = (0, 0);
            for i in 0..100 {
                let n = NodeId::from_index(i);
                let view = world.neighbors_of(n);
                assert!(view.len() <= 4, "seed {seed}: node {i} over degree");
                assert!(!view.contains(&n), "seed {seed}: node {i} links itself");
                for (j, &m) in view.iter().enumerate() {
                    assert!(!view[..j].contains(&m), "seed {seed}: {i} holds {m} twice");
                    assert!(
                        world.neighbors_of(m).contains(&n),
                        "seed {seed}: {i} -> {m} is not mirrored"
                    );
                }
                if world.sessions[i].online {
                    online += 1;
                    links += view.len();
                } else {
                    assert!(view.is_empty(), "seed {seed}: offline node {i} is linked");
                }
            }
            let mean = links as f64 / online as f64;
            assert!(mean > 3.0, "seed {seed}: mean online degree {mean}");
        }
    }
}
