//! The sweep engine's determinism contract, exercised on a real case
//! study (not the harness's toy world): running the same batch of
//! Gnutella configurations serially and in parallel must produce
//! bit-identical reports, in input order, regardless of worker count or
//! completion order.

use ddr_repro::gnutella::{GnutellaScenario, Mode, ScenarioConfig};
use ddr_repro::harness::{derive_seed, run, run_many, Sweep};

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
            cfg(mode, derive_seed(0xDDA, i))
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

#[test]
fn sweep_axis_results_come_back_in_axis_order() {
    let hops = [1u8, 2, 3];
    let sweep = Sweep::<GnutellaScenario>::new().axis(hops.iter().copied(), |&h| {
        let mut c = ScenarioConfig::scaled(Mode::Static, h, 20, 4);
        c.seed = 7;
        c
    });
    assert_eq!(sweep.labels(), vec!["1", "2", "3"]);

    let results = sweep.run(3);
    assert_eq!(results.len(), 3);
    for (i, (label, _)) in results.iter().enumerate() {
        assert_eq!(label, &hops[i].to_string(), "axis order lost");
    }
    // More hops reach more peers: messages must be monotone increasing.
    let msgs: Vec<f64> = results.iter().map(|(_, r)| r.total_messages()).collect();
    assert!(
        msgs[0] < msgs[1] && msgs[1] < msgs[2],
        "hop sweep not monotone in messages: {msgs:?}"
    );
}

#[test]
fn derived_seeds_change_results() {
    let a = run_many(
        vec![
            cfg(Mode::Static, derive_seed(1, 0)),
            cfg(Mode::Static, derive_seed(1, 1)),
        ],
        2,
        run::<GnutellaScenario>,
    );
    assert_ne!(
        a[0].hits_series(),
        a[1].hits_series(),
        "distinct derived seeds must produce distinct runs"
    );
}
