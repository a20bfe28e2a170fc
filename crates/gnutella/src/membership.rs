//! Session membership and symmetric-link maintenance: login and logoff,
//! the `LinkRequest` / `LinkAck` / `Unlink` handshakes that keep the two
//! endpoint views of a link in agreement, and the refill campaigns that
//! replace lost neighbors with requests to known or bootstrap hosts.
//!
//! This is vanilla Gnutella: static mode runs nothing else besides
//! `Process_Query` (see `search.rs`). Dynamic mode adds the benefit-driven
//! update of `reconfigure.rs` on top, which reaches back here for its
//! connectivity floor (`refill_links`) and for mirroring accepted
//! invitations (`mirror_link`).
//!
//! No handler mutates another node's neighbor list, and none reads the
//! global online set: candidates come from the node's own bootstrap
//! stream and [`crate::HostCache`], and an offline candidate simply
//! refuses with a negative ack.

use crate::events::GnutellaEvent;
use crate::peer::{MIN_DEGREE_FLOOR, REFILL_RETRY_BUDGET};
use crate::reconfigure::EverAnswered;
use crate::world::GnutellaWorld;
use ddr_core::benefit::BenefitFunction;
use ddr_core::runtime::Port;
use ddr_core::search::benefit_sort_key;
use ddr_overlay::NeighborList;
use ddr_sim::{NodeId, QueryId, SimTime};
use ddr_telemetry::{TraceOutcome, TraceSink};
use rand::seq::SliceRandom;
use rand::Rng;

/// The paper's initial Gnutella configuration ("both the initial
/// configuration and the changes are purely random"): give each of
/// `members` up to `degree` symmetric links, written straight into the
/// per-node `views`. Nodes outside `members` stay isolated.
///
/// Repeated random-pairing passes: shuffle the under-full candidates,
/// then link consecutive pairs. A few passes fill almost everyone;
/// stragglers (odd counts, unlucky shuffles) stay under-full exactly
/// like real bootstrap nodes waiting for contacts.
pub(crate) fn bootstrap_views<R: Rng + ?Sized>(
    views: &mut [NeighborList],
    members: &[NodeId],
    degree: usize,
    rng: &mut R,
) {
    let mut candidates: Vec<NodeId> = members.to_vec();
    for _pass in 0..degree * 4 {
        candidates.retain(|&n| views[n.index()].len() < degree);
        if candidates.len() < 2 {
            break;
        }
        candidates.shuffle(rng);
        for pair in candidates.chunks(2) {
            if let [a, b] = *pair {
                let (va, vb) = (&views[a.index()], &views[b.index()]);
                if va.contains(b) || va.is_full() || vb.is_full() {
                    continue;
                }
                let _ = views[a.index()].add(b);
                let _ = views[b.index()].add(a);
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
        for m in former {
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
        let total = self.shared.net.len();
        let mut attempts = 4 * want + 16;
        while out.len() < want && attempts > 0 && total > 1 {
            attempts -= 1;
            let m = NodeId::from_index(self.proto[k].gen_range(0..total));
            if m == node
                || self.neighbors[k].contains(m)
                || out.contains(&m)
                || self.peers[k].evicted.contains(&m)
            {
                continue;
            }
            out.push(m);
        }
        for m in self.hosts[k].iter() {
            if out.len() >= want {
                break;
            }
            if m == node
                || self.neighbors[k].contains(m)
                || out.contains(&m)
                || self.peers[k].evicted.contains(&m)
            {
                continue;
            }
            out.push(m);
        }
    }

    /// Send `LinkRequest`s for up to `want` new links, reserving a slot
    /// per request.
    pub(crate) fn request_links<C: Port<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        want: usize,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        let mut join = std::mem::take(&mut self.scratch_join);
        self.pick_join_targets(k, node, want, &mut join);
        for &t in &join {
            self.peers[k].pending_invites += 1;
            let d = self.delay(k, node, t);
            ctx.send(t, d, GnutellaEvent::LinkRequest { to: t, from: node });
        }
        self.scratch_join = join;
    }

    /// The degree a dynamic node's random links stop at once its
    /// login-fill campaign is over: one slot short of full — that last
    /// slot is reserved for benefit-chosen invitations, so an updating
    /// node only completes its degree on merit and a hyperactive update
    /// clock, whose evictions bleed the overlay, does not get its density
    /// back for free — but never below the connectivity floor.
    pub(crate) fn refill_floor(&self) -> usize {
        self.shared
            .config
            .degree
            .saturating_sub(1)
            .max(MIN_DEGREE_FLOOR)
    }

    /// Top up `node`'s links toward its current target: the full degree
    /// during the login-fill campaign and in static mode,
    /// [`refill_floor`](Self::refill_floor) once the dynamic variant has
    /// taken over (paper: beyond the floor, dynamic nodes regain links
    /// only through invitations — running under-degree is part of its
    /// savings).
    pub(crate) fn refill_links<C: Port<GnutellaEvent>>(&mut self, node: NodeId, ctx: &mut C) {
        let k = self.li(node);
        if !self.sessions[k].online {
            return;
        }
        let degree = self.shared.config.degree;
        let target = if self.is_dynamic() && !self.peers[k].fill_to_degree {
            self.refill_floor()
        } else {
            degree
        };
        let have = self.neighbors[k].len() + self.peers[k].pending_invites as usize;
        let want = target.min(degree).saturating_sub(have);
        if want > 0 {
            self.request_links(node, want, ctx);
        }
    }

    /// A handshake came back refused: retry while the campaign budget
    /// lasts (candidates are often offline — the node has no oracle).
    fn retry_refill<C: Port<GnutellaEvent>>(&mut self, node: NodeId, ctx: &mut C) {
        let k = self.li(node);
        if !self.sessions[k].online || self.peers[k].refill_budget == 0 {
            return;
        }
        self.peers[k].refill_budget -= 1;
        self.refill_links(node, ctx);
    }

    /// Symmetric-link handshake, receiver side: commit-first, then ack.
    pub(crate) fn link_request<C: Port<GnutellaEvent>>(
        &mut self,
        to: NodeId,
        from: NodeId,
        ctx: &mut C,
    ) {
        let k = self.li(to);
        let mut accepted = false;
        if self.sessions[k].online && !self.peers[k].evicted.contains(&from) {
            self.hosts[k].note(from);
            if self.neighbors[k].contains(from) {
                accepted = true; // idempotent re-request
            } else if self.neighbors[k].add(from).is_ok() {
                // Accept whenever a slot is free. The receiver's own
                // outstanding handshakes do NOT reserve slots here: if one
                // of them is accepted after the list fills, its mirror
                // repairs the overflow (and on the invitation path the
                // beneficial link wins the slot by eviction), so refusing
                // eagerly would only starve the overlay.
                accepted = true;
                self.metrics.runtime.record_edges_changed(1);
            }
        }
        let d = self.delay(k, to, from);
        ctx.send(
            from,
            d,
            GnutellaEvent::LinkAck {
                to: from,
                from: to,
                accepted,
            },
        );
    }

    /// The answer to a handshake `to` opened came back: an `InviteReply`
    /// when `invited`, a `LinkAck` otherwise. Either way the slot
    /// reserved at send time is released; an accepted link is mirrored,
    /// a refused one retried through the channel that opened it.
    pub(crate) fn handshake_reply<C: Port<GnutellaEvent>>(
        &mut self,
        to: NodeId,
        from: NodeId,
        accepted: bool,
        invited: bool,
        ctx: &mut C,
    ) {
        let k = self.li(to);
        self.peers[k].pending_invites = self.peers[k].pending_invites.saturating_sub(1);
        if accepted {
            self.mirror_link(to, from, invited, ctx);
        } else if invited {
            // The candidate did not answer: almost certainly offline.
            // Mark its statistics entry stale so the recency proxy stops
            // proposing it (its next real reply re-qualifies it), then
            // re-plan around it while the campaign budget lasts.
            self.peers[k].rt.stats.touch(from, SimTime::ZERO);
            self.retry_invites(to, ctx);
        } else {
            self.retry_refill(to, ctx);
        }
    }

    /// Mirror a positively-acknowledged link (`LinkAck` / `InviteReply`)
    /// in the acknowledged node's own view, or send a repair `Unlink` if
    /// the link can no longer be honored (logged off / filled up
    /// meanwhile).
    ///
    /// `evict_if_full` is set on the invitation path: the reconfiguration
    /// that sent the invite planned to swap out its least beneficial
    /// neighbor, and that deferred eviction lands here — only once the
    /// replacement is confirmed.
    fn mirror_link<C: Port<GnutellaEvent>>(
        &mut self,
        node: NodeId,
        peer: NodeId,
        evict_if_full: bool,
        ctx: &mut C,
    ) {
        let k = self.li(node);
        if self.sessions[k].online {
            if self.neighbors[k].contains(peer) {
                return; // already mirrored (race with another handshake)
            }
            if self.neighbors[k].add(peer).is_ok() {
                // The committing side already counted the edge change;
                // the mirror is bookkeeping, not a second change.
                return;
            }
            if evict_if_full {
                // Deferred swap: drop the least beneficial current
                // neighbor — but only if the confirmed newcomer actually
                // beats it (statistics may have moved since planning).
                let rank = EverAnswered(self.benefit.as_ref());
                let new_b = self.peers[k]
                    .rt
                    .stats
                    .get(peer)
                    .map(|s| rank.benefit(s))
                    .unwrap_or(0.0);
                let worst = self.neighbors[k]
                    .iter()
                    .map(|m| {
                        let b = self.peers[k]
                            .rt
                            .stats
                            .get(m)
                            .map(|s| rank.benefit(s))
                            .unwrap_or(0.0);
                        (m, b)
                    })
                    .min_by(|a, b| benefit_sort_key(a.1).total_cmp(&benefit_sort_key(b.1)));
                if let Some((w, wb)) = worst {
                    if wb < new_b && self.evict_neighbor(node, w, true, ctx) {
                        let _ = self.neighbors[k].add(peer);
                        return;
                    }
                }
            }
        }
        // Offline, or full with nothing worth evicting: the counterparty
        // committed a link this node cannot hold — repair.
        let d = self.delay(k, node, peer);
        ctx.send(
            peer,
            d,
            GnutellaEvent::Unlink {
                to: peer,
                from: node,
            },
        );
    }

    /// A neighbor link disappeared (logoff, repair, refused mirror):
    /// update the own view and react per mode — the dynamic variant
    /// reconfigures ("neighbor log-offs trigger the update process"),
    /// the static variant requests replacement links from known hosts.
    pub(crate) fn unlink<C: Port<GnutellaEvent>>(&mut self, to: NodeId, from: NodeId, ctx: &mut C) {
        let k = self.li(to);
        if !self.sessions[k].online {
            return;
        }
        if !self.neighbors[k].remove(from) {
            return; // view never held the link (refused handshake)
        }
        if self.is_dynamic() {
            if self.shared.config.reconfig_on_neighbor_loss {
                // "Neighbor log-offs trigger the update process." The
                // triggered update already reopens a floor-target refill
                // with a fresh budget; the slot above the floor stays
                // reserved for merit — a node recovers its full degree
                // only through benefit-driven invitations, which is what
                // separates contributors from peers nobody would invite.
                self.reconfigure(to, ctx);
            } else {
                // No triggered update: a churn loss opens a full-degree
                // repair campaign like static's, since without the
                // update process there is no invitation channel working
                // to restore the density.
                self.peers[k].fill_to_degree = true;
                self.peers[k].refill_budget = REFILL_RETRY_BUDGET;
                self.refill_links(to, ctx);
            }
        } else {
            // Static Gnutella: a fresh refill campaign replaces the lost
            // neighbor with requests to known/bootstrap hosts.
            self.peers[k].refill_budget = REFILL_RETRY_BUDGET;
            self.refill_links(to, ctx);
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
            assert_eq!((config.workload.users, config.degree), (100, 4));
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
                if world.is_online(n) {
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
