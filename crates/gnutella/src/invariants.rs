//! Scenario invariants and the end-of-run census they are checked
//! against. The scenario pack asserts these after each run, so the pack
//! doubles as a regression suite: a kernel or protocol change that breaks
//! conservation, leaks messages across a partition, or lets a refuser
//! serve shows up here before it shows up as a subtly wrong figure.
//!
//! The checker is deliberately *exact* where the simulation is exact
//! (query conservation, partition isolation, refuser silence) and only
//! *directional* where behaviour is stochastic (starvation under the
//! dynamic mode), so it never needs per-scenario recalibration.

use crate::config::Mode;
use crate::metrics::RunReport;
use crate::peer::Role;
use crate::world::GnutellaWorld;
use ddr_sim::NodeId;
use ddr_stats::MeasurementWindow;
use ddr_telemetry::TraceSink;

/// End-of-run tallies for one behavioural class of Gnutella nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoleCensus {
    /// Nodes of the class.
    pub members: usize,
    /// Members online at the horizon.
    pub online: usize,
    /// Sum of the online members' overlay degrees.
    pub links: usize,
    /// Standing eviction memories (evictor, evictee) naming a member.
    pub evicted: usize,
    /// Results served by members over the whole run.
    pub served: u64,
}

impl RoleCensus {
    /// Mean overlay degree over the online members (`None` if none is
    /// online).
    pub fn mean_degree(&self) -> Option<f64> {
        (self.online > 0).then(|| self.links as f64 / self.online as f64)
    }
}

/// What a finished Gnutella run leaves in its final slices, pooled over
/// all of them: counts, not ratios, so it is the same value at any shard
/// count. [`check_invariants`] builds it; the experiments and tests read
/// their end-of-run quantities from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Census {
    /// Nodes that are neither free-riders nor liars.
    pub contributors: RoleCensus,
    /// Query-only nodes.
    pub free_riders: RoleCensus,
    /// Nodes advertising content they refuse to serve (drawn from the
    /// non-free-riders, so the three classes are disjoint).
    pub liars: RoleCensus,
    /// Results served per node, in global node order.
    pub served: Vec<u64>,
    /// Overlay links (over every node's own view) whose endpoints share a
    /// favourite category: the interest clustering of paper §1.
    pub same_category: usize,
    /// Overlay links over every node's own view.
    pub links: usize,
    /// Statistics entries held by the online peers.
    pub stats_entries: usize,
    /// Queries issued but neither finalised nor abandoned.
    pub pending: usize,
}

impl Census {
    /// One walk over the final `worlds` (any shard count, in shard order).
    /// The census is the checker, not a node: it reads every row through
    /// the oracle.
    pub fn of<T: TraceSink>(worlds: &[GnutellaWorld<T>]) -> Census {
        let mut c = Census::default();
        for w in worlds {
            let oracle = w.oracle();
            for (k, peer) in w.peers.iter().enumerate() {
                let node = NodeId::from_index(w.base + k);
                let view = w.neighbors[k].as_slice();
                let favorite = oracle.row(node).profile().favorite;
                c.links += view.len();
                c.same_category += view
                    .iter()
                    .filter(|&&m| oracle.row(m).profile().favorite == favorite)
                    .count();
                c.pending += peer.pending.len();
                for &m in peer.evicted.iter() {
                    c.role(oracle.row(m).role()).evicted += 1;
                }
                c.served.push(w.served[k]);
                let role = c.role(oracle.row(node).role());
                role.members += 1;
                role.served += w.served[k];
                if w.sessions[k].online {
                    role.online += 1;
                    role.links += view.len();
                    c.stats_entries += peer.rt.stats.len();
                }
            }
        }
        c
    }

    fn role(&mut self, role: Role) -> &mut RoleCensus {
        match role {
            Role::Contributor => &mut self.contributors,
            Role::FreeRider => &mut self.free_riders,
            Role::Liar => &mut self.liars,
        }
    }

    /// Share of overlay links within one favourite category (0 without
    /// links).
    pub fn same_category_share(&self) -> f64 {
        if self.links == 0 {
            return 0.0;
        }
        self.same_category as f64 / self.links as f64
    }

    /// Mean statistics entries per online peer (0 with nobody online).
    pub fn stats_per_online_peer(&self) -> f64 {
        let online = self.contributors.online + self.free_riders.online + self.liars.online;
        if online == 0 {
            return 0.0;
        }
        self.stats_entries as f64 / online as f64
    }
}

/// Check every invariant against a finished run: the merged `report` plus
/// the final per-shard `worlds` (any shard count, including the serial
/// single world). Returns the run's [`Census`], or the first violation as
/// a description, so test failures read like a diagnosis rather than a
/// boolean.
pub fn check_invariants<T: TraceSink>(
    report: &RunReport,
    worlds: &[GnutellaWorld<T>],
) -> Result<Census, String> {
    if worlds.is_empty() {
        return Err("no worlds to check".into());
    }
    let config = worlds[0].config();
    let census = Census::of(worlds);
    let m = &report.metrics;

    // --- Conservation of queries -------------------------------------
    // Every issued query is finalised exactly once, abandoned at logoff,
    // or still pending at the horizon. The deepening strategy re-keys a
    // pending query per wave but issues and finalises it exactly once.
    let issued = m.runtime.queries.total();
    let pending = census.pending;
    let accounted = m.queries_finalized + m.queries_abandoned + pending as u64;
    if issued != accounted as f64 {
        return Err(format!(
            "query conservation broken: issued {issued} != finalized {} + abandoned {} + pending {pending}",
            m.queries_finalized, m.queries_abandoned
        ));
    }
    // Hits are first results of issued queries, so they can never exceed
    // the finalised+pending population (each counts at most one hit).
    let hits = m.runtime.hits.total();
    if hits > issued {
        return Err(format!("more hits ({hits}) than issued queries ({issued})"));
    }

    // --- Duplicate-cache soundness -----------------------------------
    // A duplicate drop consumes a query transmission; the network cannot
    // discard more copies than were ever sent.
    let messages = m.runtime.messages.total();
    if m.duplicates_dropped as f64 > messages {
        return Err(format!(
            "dup-cache dropped {} of only {messages} transmissions",
            m.duplicates_dropped
        ));
    }

    // --- Partition isolation -----------------------------------------
    match &config.partition {
        Some(p) => {
            // Zero cross-island deliveries inside the window — the gate
            // records deliveries outside it only, so any mass in these
            // buckets is a leak.
            let leaked = MeasurementWindow::new(p.from_hour, p.to_hour).sum(&m.cross_island);
            if leaked != 0.0 {
                return Err(format!(
                    "{leaked} cross-island deliveries inside the partition window [{}h, {}h)",
                    p.from_hour, p.to_hour
                ));
            }
            if m.partition_drops == 0 {
                return Err("partition window configured but no message was ever dropped".into());
            }
        }
        None => {
            if m.partition_drops != 0 {
                return Err(format!(
                    "{} partition drops without a configured partition",
                    m.partition_drops
                ));
            }
            if m.cross_island.total() != 0.0 {
                return Err("cross-island series recorded without a configured partition".into());
            }
        }
    }

    check_roles(&census, config.mode)?;

    // --- Finite metrics ----------------------------------------------
    for (name, v) in [
        ("hit_ratio", report.hit_ratio()),
        ("mean_hits_per_hour", report.mean_hits_per_hour()),
        ("mean_messages_per_hour", report.mean_messages_per_hour()),
        ("mean_first_delay_ms", report.mean_first_delay_ms()),
        ("total_results", report.total_results()),
    ] {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
    }

    Ok(census)
}

/// The census half of [`check_invariants`]: refusers never serve, and
/// under the dynamic mode they end no better connected than contributors.
fn check_roles(census: &Census, mode: Mode) -> Result<(), String> {
    let (frs, liars) = (&census.free_riders, &census.liars);

    // --- Refusers never serve ----------------------------------------
    // Free-riders and liars refuse structurally; a single served result
    // from either means the serving gate regressed.
    if frs.served + liars.served > 0 {
        return Err(format!(
            "refusers served results: free-riders {}, liars {}",
            frs.served, liars.served
        ));
    }

    // --- Starvation direction (dynamic mode) -------------------------
    // The benefit function should isolate refusers: averaged over the
    // population, online refusers must not end up better connected than
    // online contributors. Directional (1.25x slack) so it holds at smoke
    // scale; the scenario tests pin the tight calibrated bound.
    if mode == Mode::Dynamic {
        let refusers = RoleCensus {
            online: frs.online + liars.online,
            links: frs.links + liars.links,
            ..RoleCensus::default()
        };
        if let (Some(r), Some(c)) = (refusers.mean_degree(), census.contributors.mean_degree()) {
            if r > c * 1.25 {
                return Err(format!(
                    "refusers better connected than contributors: {r:.2} vs {c:.2} mean degree"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Mode, PartitionWindow, ScenarioConfig};
    use crate::sharded::{run_scenario_sharded, ShardedRun};
    use ddr_telemetry::NullSink;

    fn small(mode: Mode) -> ScenarioConfig {
        let mut c = ScenarioConfig::scaled(mode, 2, 50, 6);
        c.seed = 21;
        c
    }

    #[test]
    fn benign_runs_satisfy_all_invariants() {
        for mode in [Mode::Static, Mode::Dynamic] {
            let ShardedRun { report, worlds, .. } =
                run_scenario_sharded::<NullSink>(small(mode), 1, 1, false);
            check_invariants(&report, &worlds).unwrap();
        }
    }

    #[test]
    fn partitioned_run_satisfies_isolation() {
        let mut c = small(Mode::Dynamic);
        c.partition = Some(PartitionWindow {
            islands: 2,
            from_hour: 2,
            to_hour: 4,
        });
        let ShardedRun { report, worlds, .. } = run_scenario_sharded::<NullSink>(c, 2, 1, false);
        check_invariants(&report, &worlds).unwrap();
        assert!(report.metrics.partition_drops > 0);
    }

    #[test]
    fn checker_detects_tampered_conservation() {
        let ShardedRun {
            mut report, worlds, ..
        } = run_scenario_sharded::<NullSink>(small(Mode::Static), 1, 1, false);
        report.metrics.queries_finalized += 1;
        let err = check_invariants(&report, &worlds).unwrap_err();
        assert!(err.contains("conservation"), "unexpected error: {err}");
    }

    #[test]
    fn checker_detects_phantom_partition_drops() {
        let ShardedRun {
            mut report, worlds, ..
        } = run_scenario_sharded::<NullSink>(small(Mode::Static), 1, 1, false);
        report.metrics.partition_drops = 5;
        let err = check_invariants(&report, &worlds).unwrap_err();
        assert!(err.contains("without a configured partition"), "{err}");
    }

    /// A healthy dynamic run's census with free-riders and liars in it.
    fn adversarial_census() -> Census {
        let mut c = small(Mode::Dynamic);
        c.free_rider_fraction = 0.15;
        c.liar_fraction = 0.15;
        let ShardedRun { report, worlds, .. } = run_scenario_sharded::<NullSink>(c, 1, 1, false);
        let census = check_invariants(&report, &worlds).unwrap();
        assert!(census.free_riders.online > 0 && census.liars.online > 0);
        census
    }

    #[test]
    fn checker_detects_a_serving_refuser() {
        let mut census = adversarial_census();
        census.liars.served = 3;
        let err = check_roles(&census, Mode::Static).unwrap_err();
        assert!(err.contains("refusers served"), "{err}");
    }

    #[test]
    fn checker_detects_well_connected_refusers_under_dynamic_mode() {
        let mut census = adversarial_census();
        let refusers_online = census.free_riders.online + census.liars.online;
        let contributor_degree = census.contributors.mean_degree().unwrap();
        // Twice the contributors' mean degree: past the 1.25x slack.
        census.free_riders.links = (2.0 * contributor_degree * refusers_online as f64) as usize;
        census.liars.links = 0;
        let err = check_roles(&census, Mode::Dynamic).unwrap_err();
        assert!(err.contains("better connected"), "{err}");
        // Directional only under the dynamic mode: static never evicts.
        check_roles(&census, Mode::Static).unwrap();
    }
}
