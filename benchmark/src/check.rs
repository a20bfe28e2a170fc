//! `--check`: a seconds-long miniature of all seven workloads that runs
//! every correctness check and holds the emitted metric names against
//! the names `BENCHMARK.json` declares, in both directions.

use crate::declared::{self, DeclaredMetric};
use crate::names::WORKLOADS;
use crate::output;
use crate::runner::{self, Budget};
use crate::sim_workloads::Size;
use std::collections::BTreeSet;
use std::path::Path;

/// Characters the benchmark contract allows in a name.
fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Differences between the names the runner reports and the declared
/// ones, as diagnoses.
fn name_mismatches(
    kind: &str,
    reported: &[(String, &'static str)],
    declared: &[DeclaredMetric],
) -> Vec<String> {
    let mut problems = Vec::new();
    let ours: BTreeSet<&str> = reported.iter().map(|(n, _)| n.as_str()).collect();
    let theirs: BTreeSet<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    for name in ours.difference(&theirs) {
        problems.push(format!("{kind} `{name}` is reported but not declared"));
    }
    for name in theirs.difference(&ours) {
        problems.push(format!("{kind} `{name}` is declared but never reported"));
    }
    for name in ours.union(&theirs).filter(|n| !well_formed(n)) {
        problems.push(format!("{kind} `{name}` is not a well-formed name"));
    }
    for (name, unit) in reported {
        if let Some(d) = declared.iter().find(|m| &m.name == name) {
            if d.unit != *unit {
                problems.push(format!(
                    "{kind} `{name}` is declared in `{}` but reported in `{unit}`",
                    d.unit
                ));
            }
        }
    }
    problems
}

/// Run the miniature battery; `Err` carries every problem found.
pub fn run(seed: u64, out_dir: &Path) -> Result<(), Vec<String>> {
    let declared = declared::load();
    let mut problems = name_mismatches(
        "end-to-end metric",
        &output::reported(false),
        &declared.end_to_end,
    );
    problems.extend(name_mismatches(
        "per-layer metric",
        &output::reported(true),
        &declared.per_layer,
    ));
    let ours: Vec<&str> = WORKLOADS.to_vec();
    let theirs: Vec<&str> = declared.workloads.iter().map(String::as_str).collect();
    if ours != theirs {
        problems.push(format!("workloads {ours:?} != declared {theirs:?}"));
    }

    // No measuring time: every sim workload makes its floor of two
    // repetitions, the bus its shortest injection window.
    let budget = Budget {
        seconds: 0.0,
        size: Size::Check,
    };
    // Every applicable metric must be a reported name, and over the whole
    // battery every reported name must apply to some workload.
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for workload in WORKLOADS {
        for traced in [false, true] {
            let result = runner::run(workload, seed, traced, budget, out_dir)
                .expect("WORKLOADS names only known workloads");
            let mode = if traced { "traced" } else { "untraced" };
            println!(
                "check {workload:<15} {mode:<8} reps/ops={:<6} metrics={:<3} {}",
                result.attempted,
                result.metrics.len(),
                if result.correct { "ok" } else { "FAILED" }
            );
            if !result.correct || result.failed > 0 || !output::all_finite(&result) {
                problems.push(format!(
                    "{workload} ({mode}): {} of {} ops failed; {}",
                    result.failed,
                    result.attempted,
                    result.diagnoses.join("; ")
                ));
            }
            let reported = output::reported(traced);
            for (name, _) in &result.metrics {
                if !reported.iter().any(|(n, _)| n == name) {
                    problems.push(format!("{workload} ({mode}) emitted unknown `{name}`"));
                }
                seen.insert(name.clone());
            }
            if !traced && result.metrics.len() != reported.len() {
                problems.push(format!(
                    "{workload}: an end-to-end metric is missing ({} of {})",
                    result.metrics.len(),
                    reported.len()
                ));
            }
        }
    }
    for (name, _) in output::reported(true) {
        if !seen.contains(&name) {
            problems.push(format!("per-layer `{name}` applies to no workload"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        assert!(well_formed("sim.sharded2_t1.ns_per_event"));
        assert!(well_formed("9lives"));
        assert!(!well_formed(".hidden"));
        assert!(!well_formed("has space"));
        assert!(!well_formed(&"x".repeat(65)));
    }

    #[test]
    fn mismatches_are_reported_in_both_directions() {
        let declared = vec![
            DeclaredMetric {
                name: "a".into(),
                unit: "s".into(),
                lower_is_better: true,
                bound: None,
            },
            DeclaredMetric {
                name: "b".into(),
                unit: "s".into(),
                lower_is_better: true,
                bound: None,
            },
        ];
        let reported = vec![("a".to_string(), "ms"), ("c".to_string(), "s")];
        let problems = name_mismatches("metric", &reported, &declared);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("`c` is reported")));
        assert!(problems.iter().any(|p| p.contains("`b` is declared")));
        assert!(problems
            .iter()
            .any(|p| p.contains("`a` is declared in `s`")));
    }
}
