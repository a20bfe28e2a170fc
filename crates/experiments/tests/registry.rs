//! Registry integration: the `ddr` CLI's experiment registry is complete
//! and every entry actually runs.
//!
//! Each experiment executes in-process at a heavily reduced scale
//! (`--scale 50 --hours 6 --smoke`) against a capturing [`Emitter`], and
//! must produce at least one non-empty table. This is the guarantee
//! behind `ddr run --all --smoke` in CI: no registry entry can rot into
//! a name that panics or prints nothing. (What each entry prints at
//! `--smoke` is pinned byte for byte by `golden/all_smoke.txt`, which
//! ci.sh diffs against.)

use ddr_experiments::{banner, registry, Emitter, ExpOptions};
use std::collections::HashSet;

fn smoke_opts() -> ExpOptions {
    ExpOptions {
        scale: 50,
        hours: 6,
        scale_explicit: true,
        hours_explicit: true,
        smoke: true,
        ..ExpOptions::default()
    }
}

#[test]
fn registry_covers_every_legacy_binary() {
    let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
    // One entry per retired per-figure binary: `ddr run <name>` must
    // keep covering everything they did.
    for legacy in [
        "fig1",
        "fig2",
        "fig3a",
        "fig3b",
        "fig3b_ablation",
        "webcache_eval",
        "peerolap_eval",
        "ablations",
        "strategies",
        "diag",
        "fairness",
        "exploration_sweep",
    ] {
        assert!(names.contains(&legacy), "registry is missing {legacy}");
    }
}

#[test]
fn registry_names_are_unique_with_descriptions() {
    let reg = registry();
    let unique: HashSet<&str> = reg.iter().map(|e| e.name).collect();
    assert_eq!(unique.len(), reg.len(), "duplicate experiment names");
    for e in &reg {
        assert!(!e.name.is_empty(), "an experiment has no name");
        assert!(!e.description.is_empty(), "{} has no description", e.name);
    }
}

#[test]
fn every_experiment_runs_and_emits_tables() {
    let opts = smoke_opts();
    for e in registry() {
        let mut em = Emitter::capture();
        (e.run)(&opts, &mut em);
        assert!(
            em.tables_emitted() > 0,
            "experiment {} emitted no table at smoke scale",
            e.name
        );
        assert!(
            em.rows_emitted() > 0,
            "experiment {} emitted only empty tables",
            e.name
        );
        let out = em.captured().expect("capture emitter holds output");
        assert!(!out.trim().is_empty(), "{} produced no output", e.name);
        // No metric cell may be NaN or infinite: a division by an empty
        // window renders as "NaN"/"inf" in the formatted table, so the
        // text is a faithful detector.
        for token in out.split(|c: char| !c.is_ascii_alphanumeric() && c != '.' && c != '-') {
            assert!(
                !matches!(token, "NaN" | "-NaN" | "nan" | "inf" | "-inf"),
                "experiment {} emitted a non-finite metric cell ({token:?})",
                e.name
            );
        }
    }
}

/// `ddr run` logs the banner before an experiment sizes itself (`tuned`,
/// the smoke clamp, the case studies' own horizons), so it names no
/// `--scale` / `--hours` that the run may not use.
#[test]
fn the_banner_names_no_size_an_experiment_overrides() {
    let args = ["--smoke", "--seed", "7", "--threads", "1"].map(String::from);
    let (opts, _) = ExpOptions::parse(args).unwrap();
    assert_eq!(
        banner("fig1", &opts),
        "[fig1] seed=Some(7) smoke=true workers=1"
    );
}
