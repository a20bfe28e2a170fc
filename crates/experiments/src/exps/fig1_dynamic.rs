//! Figure 1's dynamic half on the conservative sharded kernel.
//!
//! Runs the paper's fig1 dynamic configuration (hops = 2) through
//! [`ddr_gnutella::run_scenario_sharded`]: the world is split into
//! `--shards N` contiguous node slices (`--threads` caps the worker
//! pool) and the merged report is **bit-identical** to the serial
//! `fig1` dynamic run at any shard count — the Gnutella world is a
//! slice world (per-node RNG streams, message-passing reconfiguration,
//! shard-local membership; DESIGN.md §12).
//!
//! The emitted `digest:` note makes that property checkable from the
//! outside: CI runs this experiment at `--shards 1` and `--shards 2`
//! and compares the lines byte-for-byte (`ci.sh`), and the
//! `shard_parity` test does the same in-process for shards {1, 2, 4}.

use super::smoke_scale;
use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_gnutella::{run_scenario_sharded, Mode};
use ddr_stats::Table;
use ddr_telemetry::shard_profile_report;

pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let opts = smoke_scale(opts.clone());
    let shards = opts.shard_count();
    // One worker per shard unless --threads caps it lower; extra threads
    // beyond the shard count would sit idle.
    let threads = opts.workers().min(shards);
    let config = opts.scenario(Mode::Dynamic, 2);
    // `--metrics FILE` (via config.telemetry) samples a timeline;
    // `--profile` wall-clocks the kernel's work/barrier/merge phases.
    // Both only observe: the report and its digest line cannot move.
    let run = run_scenario_sharded(config, shards, threads, opts.profile);
    let report = &run.report;

    let mut t = Table::new(
        format!("Figure 1 (dynamic) on the sharded kernel: shards={shards}"),
        &["Hour", "hits", "messages"],
    );
    let hits = report.hits_series();
    let messages = report.messages_series();
    let base = report.window.from_hour as usize;
    let every = 15.min(hits.len().max(1));
    for (i, (h, m)) in hits.iter().zip(&messages).enumerate() {
        if i % every == 0 {
            t.row(vec![
                format!("{}", base + i),
                format!("{h:.0}"),
                format!("{m:.0}"),
            ]);
        }
    }
    em.table(&t);

    em.note(&format!(
        "summary: hits/hour={:.0} msgs/hour={:.0} (shards={shards}, threads={threads})",
        report.mean_hits_per_hour(),
        report.mean_messages_per_hour(),
    ));
    // The parity gate: this line must not move by a byte across shard
    // counts (ci.sh diffs it; shard_parity.rs asserts it in-process).
    em.note(&format!("digest: {:016x}", report.digest()));

    if let Some(p) = &run.profile {
        em.note(&shard_profile_report(p, threads));
    }

    opts.write_json("fig1_dynamic_sharded_report", report);
    opts.write_csv("fig1_dynamic_sharded_hours", &t);
}
