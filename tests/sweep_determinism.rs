//! A sweep's determinism contract, exercised on a real case study (not
//! the harness's toy world): mapping the same batch of Gnutella
//! configurations through `map_chunked` serially and in parallel, one
//! configuration a claim as `ddr run` does, must produce bit-identical
//! reports, in input order, regardless of worker count or completion
//! order.

use ddr_repro::gnutella::{GnutellaScenario, Mode, ScenarioConfig};
use ddr_repro::harness::run;
use ddr_repro::sim::map_chunked;

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

    let sweep = |workers: usize| {
        map_chunked(
            configs.len(),
            workers,
            1,
            || (),
            |_, i| run::<GnutellaScenario>(configs[i].clone()),
        )
    };
    let serial = sweep(1);
    let parallel = sweep(4);

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
