//! The Neighbor-update module (paper §3.4, Algos 3–4) as Algo 5
//! instantiates it for symmetric links — dynamic mode only.
//!
//! * `Reconfigure`: every `reconfig_threshold` requests (and, by default,
//!   on every neighbor loss) the node computes the most beneficial
//!   neighborhood, sends eviction notices to dropped neighbors and
//!   invitations to new ones, and resets its counter.
//! * `Process_Invitation`: the invited node always accepts (paper case i;
//!   the other `InvitationPolicy` variants gate it), evicting its least
//!   beneficial neighbor when full, and resets its own reconfiguration
//!   counter to damp cascades.
//! * `Process_Eviction`: the evicted node resets the evictor's statistics
//!   and does not seek an immediate replacement.
//!
//! Every change is enacted on the acting node's own view plus messages;
//! the counterparty mirrors on receipt (`membership.rs` holds the mirror
//! and the link-request refills this module falls back on).

use crate::events::GnutellaEvent;
use crate::peer::{EVICTION_REPAIR_LIMIT, REFILL_RETRY_BUDGET};
use crate::world::GnutellaWorld;
use ddr_core::benefit::BenefitFunction;
use ddr_core::runtime::Port;
use ddr_core::{InvitationContext, InvitationDecision, InvitationPolicy, NodeStats, UpdatePlan};
use ddr_sim::{NodeId, SimDuration, SimTime};
use ddr_telemetry::TraceSink;

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
pub(crate) struct EverAnswered<'a>(pub(crate) &'a dyn BenefitFunction);

impl BenefitFunction for EverAnswered<'_> {
    fn benefit(&self, s: &NodeStats) -> f64 {
        self.0.benefit(s) + if s.answered > 0 { 1e-6 } else { 0.0 }
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<T: TraceSink> GnutellaWorld<T> {
    /// Drop `victim` from `node`'s own view and send it the eviction
    /// notice; returns whether the view held the link at all. With
    /// `remember`, the evictor also keeps the victim in its eviction
    /// memory, refusing its later dials (see `PeerState::evicted`).
    pub(crate) fn evict_neighbor<C: Port<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        victim: NodeId,
        remember: bool,
        ctx: &mut C,
    ) -> bool {
        let k = self.li(node);
        if !self.neighbors[k].remove(victim) {
            return false;
        }
        self.metrics.evictions += 1;
        self.metrics.runtime.record_edges_changed(1);
        if remember {
            self.peers[k].evicted.insert(victim);
        }
        let d = self.delay(k, node, victim);
        let notice = GnutellaEvent::EvictArrive {
            to: victim,
            from: node,
        };
        ctx.send(victim, d, notice);
        true
    }

    /// Invite `invitee` into `node`'s neighborhood, reserving a slot for
    /// the answer so random refills don't race the acceptance.
    fn send_invite<C: Port<GnutellaEvent>>(&mut self, node: NodeId, invitee: NodeId, ctx: &mut C) {
        let k = self.li(node);
        self.metrics.invitations_sent += 1;
        self.peers[k].pending_invites += 1;
        let d = self.delay(k, node, invitee);
        let invitation = GnutellaEvent::InviteArrive {
            to: invitee,
            from: node,
        };
        ctx.send(invitee, d, invitation);
    }

    /// Algo 5 `Reconfigure`: compute the most beneficial neighborhood,
    /// evict dropped neighbors, invite newcomers, reset the counter.
    /// Every change is enacted on the node's own view plus messages; the
    /// counterparties mirror on receipt.
    pub(crate) fn reconfigure<C: Port<GnutellaEvent>>(&mut self, node: NodeId, ctx: &mut C) {
        let k = self.li(node);
        self.peers[k].rt.clock.reset();
        self.peers[k].fill_to_degree = false;
        self.peers[k].refill_budget = REFILL_RETRY_BUDGET;
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
        let mut plan = std::mem::take(&mut self.scratch_plan);
        self.plan_update(&mut plan, k, node, ctx.now());
        for &e in &plan.evict {
            self.evict_neighbor(node, e, true, ctx);
        }
        for &a in &plan.add {
            self.send_invite(node, a, ctx);
        }
        self.scratch_plan = plan;
        // Maintain the connectivity floor with link requests (slots
        // reserved for in-flight invitations stay free, otherwise random
        // links would race the acceptances and the benefit-driven link
        // would be dropped on arrival). Above the floor, only invitations
        // add links — the paper's dynamic variant regains links through
        // the protocol, not through random reconnects.
        self.refill_links(node, ctx);
    }

    /// Rank the node's statistics into `plan` under shard-local
    /// membership: there is no global online set to filter candidates
    /// with, so a statistics entry refreshed inside the recency window
    /// (twice the mean session length) is the liveness proxy instead. A
    /// stale pick merely refuses via `InviteReply`, which marks it stale
    /// (see `handshake_reply`) so the retry plans around it.
    fn plan_update(&self, plan: &mut UpdatePlan, k: usize, node: NodeId, now: SimTime) {
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
        plan.replan(
            current,
            stats,
            &rank,
            self.shared.config.degree,
            self.shared.config.max_swaps_per_reconfig,
            eligible,
        );
    }

    /// A refused invitation released a slot the reconfiguration already
    /// evicted for. Re-plan and invite the next-best candidate into the
    /// genuinely free slots (never evicting again), spending one unit of
    /// the campaign budget per round — this recovers most of the
    /// effectiveness an online oracle would give the planner.
    pub(crate) fn retry_invites<C: Port<GnutellaEvent>>(&mut self, node: NodeId, ctx: &mut C) {
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
        let mut plan = std::mem::take(&mut self.scratch_plan);
        self.plan_update(&mut plan, k, node, ctx.now());
        for &a in plan.add.iter().take(free) {
            self.send_invite(node, a, ctx);
        }
        self.scratch_plan = plan;
    }

    /// Algo 5 `Process_Invitation` — always accept (or benefit-gate),
    /// evicting the least beneficial neighbor when full; reset the
    /// reconfiguration counter to avoid cascading updates. The verdict
    /// travels back as `InviteReply` so the inviter can mirror the link
    /// (or release the reserved slot).
    pub(crate) fn invite_arrive<C: Port<GnutellaEvent>>(
        &mut self,
        to: NodeId,
        from: NodeId,
        ctx: &mut C,
    ) {
        let k = self.li(to);
        let accepted = self.decide_invitation(k, to, from, ctx);
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

    /// The invitee's side of `Process_Invitation`, up to but excluding
    /// the reply: commit the link in `to`'s own view if the policy
    /// accepts, and return the verdict.
    fn decide_invitation<C: Port<GnutellaEvent>>(
        &mut self,
        k: usize,
        to: NodeId,
        from: NodeId,
        ctx: &mut C,
    ) -> bool {
        if !self.sessions[k].online || self.peers[k].evicted.contains(&from) {
            // Connection refused — offline, or the inviter is a node this
            // peer already judged not worth a slot this session. The
            // reply still travels so the inviter's reservation is
            // released.
            return false;
        }
        self.hosts[k].note(from);
        if self.neighbors[k].contains(from) {
            // Already neighbors (race with another update): nothing to
            // commit, but answer accepted so the inviter keeps its mirror.
            return true;
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
        let InvitationDecision::Accept { evict } = decision else {
            return false;
        };
        if let Some(w) = evict {
            self.evict_neighbor(to, w, false, ctx);
        }
        if self.neighbors[k].add(from).is_err() {
            return false;
        }
        self.metrics.invitations_accepted += 1;
        self.metrics.runtime.record_edges_changed(1);
        // §4.3 damping: the neighbour list just changed, so restart the
        // update clock.
        self.peers[k].rt.note_invitation_accepted();
        if let InvitationPolicy::TrialPeriod { trial_millis } = self.shared.config.invitation {
            // Provisional acceptance: re-evaluate after the trial window
            // (§3.4 solution a).
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
        true
    }

    /// Algo 5 `Process_Eviction`: drop the link from the own view and
    /// reset the evictor's statistics so the node will not try to
    /// reconnect in the near future.
    pub(crate) fn evict_arrive<C: Port<GnutellaEvent>>(
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
        if self.peers[k].evictions_received > EVICTION_REPAIR_LIMIT {
            return;
        }
        if self.is_dynamic() && !self.shared.config.reconfig_on_neighbor_loss {
            // When losses don't feed the update trigger, an eviction is
            // indistinguishable from churn at the receiving end: run the
            // ordinary full-degree repair campaign.
            self.peers[k].fill_to_degree = true;
            self.peers[k].refill_budget = REFILL_RETRY_BUDGET;
            self.refill_links(to, ctx);
            return;
        }
        // Under the loss-triggered update regime, the lost link is only
        // repaired with a single un-retried probe that stops at
        // `refill_floor` — being evicted costs the evictee real density
        // until its next churn event renews the campaign budget. That
        // cost scales with the network's update rate, which is what
        // bends Fig 3(b): hyperactive clocks bleed the overlay lean,
        // sluggish ones keep it dense but unclustered.
        let have = self.neighbors[k].len() + self.peers[k].pending_invites as usize;
        let want = self.refill_floor().saturating_sub(have);
        if want > 0 {
            self.request_links(to, want, ctx);
        }
    }

    /// Trial expiry (§3.4 solution a): keep the provisional neighbor only
    /// if it produced benefit during the trial window.
    pub(crate) fn trial_expire<C: Port<GnutellaEvent>>(
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
            if self.evict_neighbor(node, peer, false, ctx) {
                self.metrics.trials_failed += 1;
            }
        } else {
            self.metrics.trials_confirmed += 1;
        }
    }
}
