//! The deterministic backend: drive a fleet of [`GnutellaNode`]s
//! through the calendar-queue DES.
//!
//! This is the deterministic side of the sim/serve duality: the same
//! `GnutellaNode::on_message` the bus shards across threads runs here
//! single-threaded under virtual time, through
//! [`ddr_core::runtime::EnvelopePort`], so its outcomes are a pure
//! function of `(config, seed)`. The parity test compares this
//! backend's hit rate and message counts against the wall-clock bus.

use ddr_core::runtime::{Envelope, EnvelopePort};
use ddr_gnutella::{build_nodes, GnutellaNode, NodeMsg, NodeSetConfig};
use ddr_sim::{EventQueue, NodeId, QueryId, SimDuration, SimTime};

use crate::percentile;

/// Aggregate outcome of a deterministic fleet run.
#[derive(Debug, Clone)]
pub struct SimFleetReport {
    pub queries_issued: u64,
    pub queries_completed: u64,
    pub hits: u64,
    pub messages: u64,
    pub duplicates: u64,
    pub p50_first_ms: Option<f64>,
    pub p99_first_ms: Option<f64>,
}

impl SimFleetReport {
    /// Fraction of completed queries with at least one result.
    pub fn hit_rate(&self) -> f64 {
        if self.queries_completed == 0 {
            0.0
        } else {
            self.hits as f64 / self.queries_completed as f64
        }
    }

    /// Protocol messages per issued query.
    pub fn messages_per_query(&self) -> f64 {
        if self.queries_issued == 0 {
            0.0
        } else {
            self.messages as f64 / self.queries_issued as f64
        }
    }
}

/// Build the fleet and run `queries` injections spaced `interval`
/// apart, round-robin over the nodes, until the event queue drains.
/// Deterministic in `(cfg, queries, interval)`.
pub fn run_deterministic(
    cfg: &NodeSetConfig,
    queries: u64,
    interval: SimDuration,
) -> SimFleetReport {
    let mut nodes: Vec<GnutellaNode> = build_nodes(cfg);
    let mut queue: EventQueue<Envelope<NodeMsg>> = EventQueue::new();
    for q in 0..queries {
        let to = NodeId::from_index((q % cfg.nodes as u64) as usize);
        queue.schedule_at(
            SimTime::ZERO + interval.saturating_mul(q),
            Envelope {
                to,
                from: to,
                msg: NodeMsg::Issue { query: QueryId(q) },
            },
        );
    }
    while let Some((_, env)) = queue.pop() {
        let mut sched = queue.scheduler();
        let mut ctx = EnvelopePort::new(&mut sched, env.to);
        nodes[env.to.index()].on_message(env.from, env.msg, &mut ctx);
    }

    let mut completed = 0u64;
    let mut hits = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    let mut messages = 0u64;
    let mut duplicates = 0u64;
    for node in &mut nodes {
        messages += node.counters.messages_sent;
        duplicates += node.counters.duplicates_dropped;
        for done in node.take_completed() {
            completed += 1;
            if let Some((_, at, _)) = done.first {
                hits += 1;
                latencies.push(at.saturating_since(done.issued_at).as_millis() as f64);
            }
        }
    }
    let p50 = percentile(&mut latencies, 50.0);
    let p99 = percentile(&mut latencies, 99.0);
    SimFleetReport {
        queries_issued: queries,
        queries_completed: completed,
        hits,
        messages,
        duplicates,
        p50_first_ms: p50,
        p99_first_ms: p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_fleet_is_reproducible() {
        let cfg = NodeSetConfig::new(80, 21);
        let a = run_deterministic(&cfg, 200, SimDuration::from_millis(40));
        let b = run_deterministic(&cfg, 200, SimDuration::from_millis(40));
        assert_eq!(a.queries_completed, b.queries_completed);
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.p99_first_ms, b.p99_first_ms);
        assert_eq!(a.queries_completed, 200, "every injection finalizes");
    }

    #[test]
    fn fleet_finds_results_through_the_overlay() {
        let cfg = NodeSetConfig::new(120, 5);
        let r = run_deterministic(&cfg, 400, SimDuration::from_millis(25));
        assert!(r.hit_rate() > 0.05, "hit rate {:.3} too low", r.hit_rate());
        assert!(r.messages_per_query() >= 1.0);
        assert!(r.p50_first_ms.is_some());
    }
}
