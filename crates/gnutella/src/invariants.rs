//! Scenario invariants: structural properties every Gnutella run must
//! satisfy regardless of how adversarial the workload is. The scenario
//! pack asserts these after each run, so the pack doubles as a regression
//! suite: a kernel or protocol change that breaks conservation, leaks
//! messages across a partition, or lets a refuser serve shows up here
//! before it shows up as a subtly wrong figure.
//!
//! The checker is deliberately *exact* where the simulation is exact
//! (query conservation, partition isolation, refuser silence) and only
//! *directional* where behaviour is stochastic (starvation under the
//! dynamic mode), so it never needs per-scenario recalibration.

use crate::config::Mode;
use crate::metrics::RunReport;
use crate::world::GnutellaWorld;
use ddr_sim::NodeId;
use ddr_stats::MeasurementWindow;
use ddr_telemetry::TraceSink;

/// Check every invariant against a finished run: the merged `report` plus
/// the final per-shard `worlds` (any shard count, including the serial
/// single world). Returns the first violation as a description, so test
/// failures read like a diagnosis rather than a boolean.
pub fn check_invariants<T: TraceSink>(
    report: &RunReport,
    worlds: &[GnutellaWorld<T>],
) -> Result<(), String> {
    if worlds.is_empty() {
        return Err("no worlds to check".into());
    }
    let config = worlds[0].config();
    let m = &report.metrics;

    // --- Conservation of queries -------------------------------------
    // Every issued query is finalised exactly once, abandoned at logoff,
    // or still pending at the horizon. The deepening strategy re-keys a
    // pending query per wave but issues and finalises it exactly once.
    let issued = m.runtime.queries.total();
    let pending: usize = worlds.iter().map(|w| w.pending_queries()).sum();
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

    // --- Refusers never serve ----------------------------------------
    // Free-riders and liars refuse structurally; a single served result
    // from either means the serving gate regressed.
    for w in worlds {
        let loads = w.served_loads();
        for (k, &load) in loads.iter().enumerate() {
            let node = NodeId::from_index(w.base() + k);
            if (w.is_free_rider(node) || w.is_liar(node)) && load > 0.0 {
                return Err(format!(
                    "refuser {node} served {load} results (free_rider={}, liar={})",
                    w.is_free_rider(node),
                    w.is_liar(node)
                ));
            }
        }
    }

    // --- Starvation direction (dynamic mode) -------------------------
    // The benefit function should isolate refusers: averaged over the
    // population, online refusers must not end up better connected than
    // online contributors. Directional (1.25x slack) so it holds at smoke
    // scale; the scenario tests pin the tight calibrated bound.
    if config.mode == Mode::Dynamic {
        let refuser = degree_of(worlds, |w, n| w.is_free_rider(n) || w.is_liar(n));
        let contributor = degree_of(worlds, |w, n| !w.is_free_rider(n) && !w.is_liar(n));
        if let (Some(r), Some(c)) = (refuser, contributor) {
            if r > c * 1.25 {
                return Err(format!(
                    "refusers better connected than contributors: {r:.2} vs {c:.2} mean degree"
                ));
            }
        }
    }

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

    Ok(())
}

/// Population-wide mean degree over online nodes matching `pred`, pooled
/// across all shards (`None` when no online node matches anywhere).
fn degree_of<T: TraceSink, P: Fn(&GnutellaWorld<T>, NodeId) -> bool>(
    worlds: &[GnutellaWorld<T>],
    pred: P,
) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for w in worlds {
        for k in 0..w.owned_nodes() {
            let node = NodeId::from_index(w.base() + k);
            if w.is_online(node) && pred(w, node) {
                sum += w.neighbors_of(node).len() as f64;
                n += 1;
            }
        }
    }
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Mode, PartitionWindow, ScenarioConfig};
    use crate::sharded::{run_scenario_sharded, ShardedRun};

    fn small(mode: Mode) -> ScenarioConfig {
        let mut c = ScenarioConfig::scaled(mode, 2, 50, 6);
        c.seed = 21;
        c
    }

    #[test]
    fn benign_runs_satisfy_all_invariants() {
        for mode in [Mode::Static, Mode::Dynamic] {
            let ShardedRun { report, worlds, .. } = run_scenario_sharded(small(mode), 1, 1, false);
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
        let ShardedRun { report, worlds, .. } = run_scenario_sharded(c, 2, 1, false);
        check_invariants(&report, &worlds).unwrap();
        assert!(report.metrics.partition_drops > 0);
    }

    #[test]
    fn checker_detects_tampered_conservation() {
        let ShardedRun {
            mut report, worlds, ..
        } = run_scenario_sharded(small(Mode::Static), 1, 1, false);
        report.metrics.queries_finalized += 1;
        let err = check_invariants(&report, &worlds).unwrap_err();
        assert!(err.contains("conservation"), "unexpected error: {err}");
    }

    #[test]
    fn checker_detects_phantom_partition_drops() {
        let ShardedRun {
            mut report, worlds, ..
        } = run_scenario_sharded(small(Mode::Static), 1, 1, false);
        report.metrics.partition_drops = 5;
        let err = check_invariants(&report, &worlds).unwrap_err();
        assert!(err.contains("without a configured partition"), "{err}");
    }
}
