//! The sweep engine's determinism contract, exercised on a real case
//! study (not the harness's toy world): running the same batch of
//! Gnutella configurations serially and in parallel must produce
//! bit-identical reports, in input order, regardless of worker count or
//! completion order.

use ddr_repro::gnutella::{GnutellaScenario, Mode, ScenarioConfig};
use ddr_repro::harness::{run, run_many};

fn cfg(mode: Mode, seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::scaled(mode, 2, 20, 4);
    c.seed = seed;
    c
}

#[test]
fn parallel_batch_is_bit_identical_to_serial() {
    let configs: Vec<ScenarioConfig> = (0..6)
        .map(|i| {
            let mode = if i % 2 == 0 {
                Mode::Static
            } else {
                Mode::Dynamic
            };
            cfg(mode, 0xDDA0 + i)
        })
        .collect();

    let serial = run_many(configs.clone(), 1, run::<GnutellaScenario>);
    let parallel = run_many(configs, 4, run::<GnutellaScenario>);

    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s.label, p.label,
            "point {i}: order changed under parallelism"
        );
        assert_eq!(
            s.hits_series(),
            p.hits_series(),
            "point {i}: hits diverged under parallelism"
        );
        assert_eq!(
            s.messages_series(),
            p.messages_series(),
            "point {i}: messages diverged under parallelism"
        );
    }
    // Input order preserved: even indices were Static, odd Dynamic.
    assert_eq!(serial[0].label, "Gnutella");
    assert_eq!(serial[1].label, "Dynamic_Gnutella");
}
