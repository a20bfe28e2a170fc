//! Gate: `--shards` must never change results (DESIGN.md §12).
//!
//! * Every registry entry marked `shardable` goes through the one
//!   Gnutella runner, which picks the serial driver when `shards` is
//!   `None` and the sharded kernel otherwise: the whole captured output —
//!   every table, summary, digest and end-state cell — must be
//!   byte-identical between the two. (The runner asserts the scenario
//!   invariants on each of these runs, so a violation panics the test.)
//! * The CLI rejects `--shards` for serial-kernel worlds (exit 2, covered
//!   in `cli.rs`); if the option reaches one anyway it must be inert.
//!
//! That the sharded kernel itself equals its serial reference is proven
//! differentially in `ddr-sim/tests/prop_sharded.rs`.

use ddr_experiments::{find, registry, Emitter, ExpOptions};

/// The registry test's reduced scale (40 users, 6 h) on one worker
/// thread: 13 experiments run twice here, in a debug build, and the
/// property is about slices, not threads (`ddr-gnutella` pins that a
/// thread pool over the same slices changes nothing).
fn captured(name: &str, shards: Option<usize>) -> String {
    captured_on(name, shards, 1)
}

fn captured_on(name: &str, shards: Option<usize>, threads: usize) -> String {
    let opts = ExpOptions {
        scale: 50,
        hours: 6,
        scale_explicit: true,
        hours_explicit: true,
        smoke: true,
        threads: Some(threads),
        shards,
        ..ExpOptions::default()
    };
    let mut em = Emitter::capture();
    (find(name).expect("registered experiment").run)(&opts, &mut em);
    em.captured().expect("capture emitter").to_string()
}

#[test]
fn every_shardable_experiment_prints_the_same_bytes_serial_and_sharded() {
    for e in registry().iter().filter(|e| e.shardable) {
        let serial = captured(e.name, None);
        assert!(!serial.is_empty(), "{} emitted nothing", e.name);
        assert_eq!(
            serial,
            captured(e.name, Some(2)),
            "{}: --shards 2 changed the output",
            e.name
        );
    }
}

#[test]
fn more_shards_than_workers_prints_the_same_bytes_without_a_thread_per_shard() {
    // `--threads 2 --shards 8`: two workers cannot cover eight slices, so
    // the runner must stay on the single-threaded window loop instead of
    // spawning eight barrier-bound threads, which once hung the run on a
    // two-core host. The output is pinned here; the thread decision
    // itself in `exps::tests`.
    assert_eq!(
        captured("fig1", None),
        captured_on("fig1", Some(8), 2),
        "fig1: --shards 8 --threads 2 changed the output"
    );
}

#[test]
fn shards_option_is_inert_for_serial_kernel_worlds() {
    // The CLI rejects --shards for these experiments; if the option ever
    // reaches one anyway (direct registry call), it must not move the
    // output by a byte.
    let serial = captured("webcache_eval", None);
    let sharded = captured("webcache_eval", Some(3));
    assert!(!serial.is_empty(), "webcache_eval emitted nothing");
    assert_eq!(serial, sharded, "webcache_eval: --shards changed output");
}
