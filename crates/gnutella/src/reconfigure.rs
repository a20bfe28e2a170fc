//! The Neighbor-update module (paper §3.4, Algos 3–4) as Algo 5
//! instantiates it for symmetric links — dynamic mode only.
//!
//! * `Reconfigure`: every `reconfig_threshold` requests (and, by default,
//!   on every neighbor loss) the node computes the most beneficial
//!   neighborhood, sends eviction notices to dropped neighbors and
//!   invitations to new ones, and resets its counter.
//! * `Process_Invitation` and `Process_Eviction` are the invitation and
//!   eviction branches of `membership.rs`'s `handshake_request` and
//!   `link_dropped`, which a link request shares.
//!
//! Every change is enacted on the acting node's own view plus messages;
//! the counterparty mirrors on receipt (`membership.rs` holds the
//! handshakes and the link-request refills this module falls back on).

use crate::config::Benefit;
use crate::events::GnutellaEvent;
use crate::peer::{Role, DEGREE, REFILL_RETRY_BUDGET};
use crate::world::GnutellaWorld;
use ddr_core::runtime::Port;
use ddr_core::{NodeStats, UpdatePlan};
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
pub(crate) fn ever_answered(benefit: Benefit, s: &NodeStats) -> f64 {
    benefit.rank(s) + if s.answered > 0 { 1e-6 } else { 0.0 }
}

impl<T: TraceSink> GnutellaWorld<T> {
    /// Tell `victim` that `node` (local index `k`) dropped it from its
    /// view (Algo 5's eviction notice).
    pub(crate) fn send_eviction<C: Port<GnutellaEvent>>(
        &mut self,
        k: usize,
        node: NodeId,
        victim: NodeId,
        ctx: &mut C,
    ) {
        self.metrics.evictions += 1;
        self.metrics.runtime.edges_changed += 1;
        let d = self.delay(k, node, victim);
        let notice = GnutellaEvent::EvictArrive {
            to: victim,
            from: node,
        };
        ctx.send(victim, d, notice);
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
        self.metrics.runtime.updates += 1;

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
            // Remembered: the evictor refuses its later dials (see
            // `PeerState::evicted`).
            if self.book(k).evict(e, true) {
                self.send_eviction(k, node, e, ctx);
            }
        }
        for &a in &plan.add {
            self.open_handshake(k, node, a, true, ctx);
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
        let benefit = self.shared.config.benefit;
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
                // invited. Every library is non-empty, so a node
                // advertises nothing exactly when it is a free rider, and
                // its role answers for its summary; the clause is inert
                // in free-rider-free worlds. The advertisement rode the
                // link handshake, read here by reference; it decides only
                // incumbents, since a free rider never replies and so
                // never earns a statistics entry.
                && self.shared.advert(m).role() != Role::FreeRider
                && (current.contains(&m)
                    || stats
                        .get(m)
                        .is_some_and(|s| now.saturating_since(s.last_update) <= window))
        };
        plan.replan(
            current,
            stats,
            |s| ever_answered(benefit, s),
            DEGREE,
            self.shared.config.max_swaps_per_reconfig,
            eligible,
        );
    }

    /// A refused invitation released a slot the reconfiguration already
    /// evicted for. Re-plan and invite the next-best candidate into the
    /// genuinely free slots (never evicting again); `handshake_reply`
    /// spends one unit of the campaign budget per round. This recovers
    /// most of the effectiveness an online oracle would give the planner.
    pub(crate) fn retry_invites<C: Port<GnutellaEvent>>(&mut self, node: NodeId, ctx: &mut C) {
        let k = self.li(node);
        let free = self.book(k).free(DEGREE);
        let mut plan = std::mem::take(&mut self.scratch_plan);
        self.plan_update(&mut plan, k, node, ctx.now());
        for &a in plan.add.iter().take(free) {
            self.open_handshake(k, node, a, true, ctx);
        }
        self.scratch_plan = plan;
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
            .map(|s| self.shared.config.benefit.rank(s))
            .unwrap_or(0.0);
        if earned <= 0.0 && self.book(k).evict(peer, false) {
            self.send_eviction(k, node, peer, ctx);
            self.metrics.trials_failed += 1;
        } else if earned > 0.0 {
            self.metrics.trials_confirmed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddr_net::BandwidthClass;

    #[test]
    fn never_answering_peer_ranks_strictly_below_an_equal_contributor() {
        // A contributor whose decayed benefit is back to zero, and a peer
        // identical but for never having answered.
        let contributor = NodeStats {
            results: 2,
            answered: 2,
            benefit: 0.0,
            last_update: SimTime::ZERO,
            bandwidth: Some(BandwidthClass::Cable),
            latency_sum_ms: 180.0,
            latency_count: 2,
        };
        let never = NodeStats {
            answered: 0,
            ..contributor.clone()
        };
        for b in [
            Benefit::BandwidthOverResults,
            Benefit::RawBandwidthOverResults,
            Benefit::Count,
            Benefit::LatencyAware,
            Benefit::AdvertisedBandwidth,
        ] {
            assert_eq!(b.rank(&never), b.rank(&contributor), "{b:?}");
            assert!(
                ever_answered(b, &never) < ever_answered(b, &contributor),
                "{b:?}"
            );
        }
    }
}
