//! Per-node statistics about *other* nodes (paper §3.4: "this requires
//! maintaining information for both the neighboring and the
//! non-neighboring nodes that were encountered through search and
//! exploration").
//!
//! The store is the substrate every benefit function reads and every
//! neighbor-update algorithm ranks over. Eviction handling follows Algo 5's
//! `Process_Eviction`: "the node's statistical information is reset, so
//! that it will not attempt to reconnect in the near future".

use ddr_net::BandwidthClass;
use ddr_sim::{FastHashMap, NodeId, SimTime};

/// Accumulated knowledge about one remote node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Results received from this node across all queries.
    pub results: u64,
    /// Queries this node answered (≤ `results` when multi-item replies
    /// exist; equal in the one-song-per-query case study).
    pub answered: u64,
    /// Cumulative benefit (Σ per-result scores, e.g. Σ B/R).
    pub benefit: f64,
    /// Last time any statistic changed.
    pub last_update: SimTime,
    /// Bandwidth class advertised in replies (Ping-Pong info), if seen.
    pub bandwidth: Option<BandwidthClass>,
    /// Sum and count of observed reply latencies, for latency-aware
    /// benefit functions.
    pub latency_sum_ms: f64,
    /// Number of latency observations.
    pub latency_count: u64,
}

impl NodeStats {
    fn new(now: SimTime) -> Self {
        NodeStats {
            results: 0,
            answered: 0,
            benefit: 0.0,
            last_update: now,
            bandwidth: None,
            latency_sum_ms: 0.0,
            latency_count: 0,
        }
    }

    /// Mean observed reply latency in ms (`None` before any observation).
    pub fn mean_latency_ms(&self) -> Option<f64> {
        if self.latency_count == 0 {
            None
        } else {
            Some(self.latency_sum_ms / self.latency_count as f64)
        }
    }
}

/// One reply observation to fold into the store.
#[derive(Debug, Clone, Copy)]
pub struct ReplyObservation {
    /// Who answered.
    pub from: NodeId,
    /// Their advertised bandwidth class, when the system has one (the
    /// music case study); `None` for systems without bandwidth classes
    /// (the web-cache case study).
    pub bandwidth: Option<BandwidthClass>,
    /// Per-result benefit increment (e.g. `B / R`).
    pub score: f64,
    /// Observed issue→reply latency in milliseconds.
    pub latency_ms: f64,
    /// When the reply arrived.
    pub at: SimTime,
}

/// A node's statistics table over every other node it has encountered.
#[derive(Debug, Clone, Default)]
pub struct StatsStore {
    entries: FastHashMap<NodeId, NodeStats>,
}

impl StatsStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes with statistics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no node has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Statistics for `node`, if any.
    pub fn get(&self, node: NodeId) -> Option<&NodeStats> {
        self.entries.get(&node)
    }

    /// Fold one reply into the store ("obtain results and update
    /// statistics", Algo 1).
    pub fn record_reply(&mut self, obs: ReplyObservation) {
        let e = self
            .entries
            .entry(obs.from)
            .or_insert_with(|| NodeStats::new(obs.at));
        e.results += 1;
        e.answered += 1;
        e.benefit += obs.score;
        if obs.bandwidth.is_some() {
            e.bandwidth = obs.bandwidth;
        }
        e.latency_sum_ms += obs.latency_ms;
        e.latency_count += 1;
        e.last_update = obs.at;
    }

    /// Record exploration-derived knowledge (statistics and summarized
    /// information, Algo 2) without counting a result.
    pub fn record_exploration(&mut self, node: NodeId, bandwidth: BandwidthClass, at: SimTime) {
        let e = self
            .entries
            .entry(node)
            .or_insert_with(|| NodeStats::new(at));
        e.bandwidth = Some(bandwidth);
        e.last_update = at;
    }

    /// Reset the statistics of `node` (Algo 5 `Process_Eviction`). The
    /// entry is removed outright so the evictor drops out of rankings until
    /// re-encountered.
    pub fn reset_node(&mut self, node: NodeId) {
        self.entries.remove(&node);
    }

    /// Overwrite a node's freshness timestamp without touching its
    /// accumulated statistics. Recency-based liveness proxies use this to
    /// mark a candidate stale when it failed to answer (e.g. a refused
    /// invitation means it is probably offline); the next genuine
    /// observation refreshes the timestamp and re-qualifies it.
    pub fn touch(&mut self, node: NodeId, at: SimTime) {
        if let Some(e) = self.entries.get_mut(&node) {
            e.last_update = at;
        }
    }

    /// Multiply every node's accumulated benefit by `factor` (0 ≤ factor
    /// ≤ 1). Called once per reconfiguration epoch so rankings weigh the
    /// evidence gathered since the last update most heavily: a sample
    /// from `e` epochs ago weighs `factor^e`. This is what prices a
    /// hyperactive reconfiguration clock (paper Fig 3b) — with threshold
    /// K the ranking rests on ~K fresh results plus a decayed tail, so
    /// K=1 swaps chase single-query noise while larger K averages over
    /// many samples. Uniform decay preserves the within-epoch ordering.
    pub fn decay_benefit(&mut self, factor: f64) {
        for e in self.entries.values_mut() {
            e.benefit *= factor;
        }
    }

    /// Nodes ranked by `score` descending, ties broken by id for
    /// determinism. `filter` prunes candidates (e.g. offline nodes).
    pub fn ranked_by<F, P>(&self, score: F, filter: P) -> Vec<(NodeId, f64)>
    where
        F: Fn(&NodeStats) -> f64,
        P: Fn(NodeId) -> bool,
    {
        let mut v: Vec<(NodeId, f64)> = self
            .entries
            .iter()
            .filter(|(&n, _)| filter(n))
            .map(|(&n, s)| (n, score(s)))
            .collect();
        v.sort_unstable_by(|a, b| {
            // NaN-safe descending (NaN ranks last); see
            // `crate::search::benefit_sort_key`.
            crate::search::benefit_sort_key(b.1)
                .total_cmp(&crate::search::benefit_sort_key(a.1))
                .then(a.0.cmp(&b.0))
        });
        v
    }

    /// Iterate over all `(node, stats)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeStats)> {
        self.entries.iter().map(|(&n, s)| (n, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(from: u32, score: f64, at: u64) -> ReplyObservation {
        ReplyObservation {
            from: NodeId(from),
            bandwidth: Some(BandwidthClass::Cable),
            score,
            latency_ms: 150.0,
            at: SimTime::from_millis(at),
        }
    }

    #[test]
    fn replies_accumulate() {
        let mut s = StatsStore::new();
        s.record_reply(obs(1, 0.5, 10));
        s.record_reply(obs(1, 0.25, 20));
        let e = s.get(NodeId(1)).unwrap();
        assert_eq!(e.results, 2);
        assert_eq!(e.benefit, 0.75);
        assert_eq!(e.bandwidth, Some(BandwidthClass::Cable));
        assert_eq!(e.mean_latency_ms(), Some(150.0));
        assert_eq!(e.last_update, SimTime::from_millis(20));
    }

    #[test]
    fn exploration_records_without_results() {
        let mut s = StatsStore::new();
        s.record_exploration(NodeId(2), BandwidthClass::Lan, SimTime::from_millis(5));
        let e = s.get(NodeId(2)).unwrap();
        assert_eq!(e.results, 0);
        assert_eq!(e.benefit, 0.0);
        assert_eq!(e.bandwidth, Some(BandwidthClass::Lan));
        assert_eq!(e.mean_latency_ms(), None);
    }

    #[test]
    fn reset_removes_entry() {
        let mut s = StatsStore::new();
        s.record_reply(obs(3, 1.0, 10));
        s.reset_node(NodeId(3));
        assert!(s.get(NodeId(3)).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn ranking_descends_with_deterministic_ties() {
        let mut s = StatsStore::new();
        s.record_reply(obs(5, 1.0, 10));
        s.record_reply(obs(2, 3.0, 10));
        s.record_reply(obs(9, 1.0, 10));
        let ranked = s.ranked_by(|st| st.benefit, |_| true);
        assert_eq!(
            ranked.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec![NodeId(2), NodeId(5), NodeId(9)]
        );
    }

    #[test]
    fn ranking_respects_filter() {
        let mut s = StatsStore::new();
        s.record_reply(obs(1, 5.0, 10));
        s.record_reply(obs(2, 1.0, 10));
        let ranked = s.ranked_by(|st| st.benefit, |n| n != NodeId(1));
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].0, NodeId(2));
    }
}
