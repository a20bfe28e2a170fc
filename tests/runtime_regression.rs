//! Determinism regression: pinned hourly hits/messages series for one
//! fixed small `(config, seed)` per case study and per mode. Any refactor
//! that claims to be behaviour-preserving must keep every series
//! **bit-identical**.
//!
//! Last re-pinned for the shard-native Gnutella world (per-node RNG and
//! delay streams, message-passing reconfiguration, shard-local
//! membership) and the per-node `NodeDelayStream` jitter migration in the
//! web-cache and PeerOlap worlds — see EXPERIMENTS.md for the rationale.
//!
//! If you change simulation semantics deliberately, re-derive the
//! constants (run each config below and print the series) and explain
//! the change in EXPERIMENTS.md.

use ddr_repro::gnutella::{run_scenario, Mode, ScenarioConfig};
use ddr_repro::peerolap::{run_peerolap, OlapMode, PeerOlapConfig};
use ddr_repro::sim::SimDuration;
use ddr_repro::webcache::{run_webcache, CacheMode, WebCacheConfig};

// ---- captured on the shard-native world + per-node delay streams ----

const GNUTELLA_STATIC_HITS: &[f64] = &[122.0, 135.0, 155.0, 156.0, 156.0];
const GNUTELLA_STATIC_MESSAGES: &[f64] = &[6033.0, 6204.0, 7451.0, 7562.0, 7438.0];
const GNUTELLA_DYNAMIC_HITS: &[f64] = &[122.0, 134.0, 176.0, 188.0, 166.0];
const GNUTELLA_DYNAMIC_MESSAGES: &[f64] = &[4740.0, 5328.0, 6393.0, 6928.0, 5872.0];
const WEBCACHE_STATIC_HITS: &[f64] = &[13713.0, 13877.0, 13797.0, 13819.0, 13737.0];
const WEBCACHE_STATIC_MESSAGES: &[f64] = &[187533.0, 187710.0, 188358.0, 188961.0, 187683.0];
const WEBCACHE_DYNAMIC_HITS: &[f64] = &[20897.0, 20933.0, 21012.0, 21087.0, 20841.0];
const WEBCACHE_DYNAMIC_MESSAGES: &[f64] = &[193558.0, 193761.0, 194409.0, 194990.0, 193700.0];
const PEEROLAP_STATIC_HITS: &[f64] = &[105346.0, 105246.0, 104863.0, 104524.0];
const PEEROLAP_STATIC_MESSAGES: &[f64] = &[275684.0, 274755.0, 274330.0, 275049.0];
const PEEROLAP_DYNAMIC_HITS: &[f64] = &[103690.0, 104614.0, 104405.0, 102760.0];
const PEEROLAP_DYNAMIC_MESSAGES: &[f64] = &[263729.0, 263178.0, 262263.0, 263247.0];

fn assert_series(name: &str, got: &[f64], want: &[f64]) {
    assert_eq!(
        got, want,
        "{name} diverged from the pre-refactor snapshot\n got: {got:?}\nwant: {want:?}"
    );
}

fn gnutella_cfg(mode: Mode) -> ScenarioConfig {
    let mut c = ScenarioConfig::scaled(mode, 2, 20, 6);
    c.seed = 3;
    c
}

#[test]
fn gnutella_series_match_pre_refactor_snapshot() {
    for (mode, hits, messages) in [
        (Mode::Static, GNUTELLA_STATIC_HITS, GNUTELLA_STATIC_MESSAGES),
        (
            Mode::Dynamic,
            GNUTELLA_DYNAMIC_HITS,
            GNUTELLA_DYNAMIC_MESSAGES,
        ),
    ] {
        let r = run_scenario(gnutella_cfg(mode));
        assert_series(
            &format!("gnutella/{} hits", r.label),
            &r.hits_series(),
            hits,
        );
        assert_series(
            &format!("gnutella/{} messages", r.label),
            &r.messages_series(),
            messages,
        );
    }
}

fn webcache_cfg(mode: CacheMode) -> WebCacheConfig {
    let mut c = WebCacheConfig::default_scenario(mode);
    c.proxies = 32;
    c.groups = 4;
    c.pages_per_group = 4_000;
    c.global_pages = 4_000;
    c.cache_capacity = 500;
    c.sim_hours = 6;
    c.warmup_hours = 1;
    c.mean_request_interval = SimDuration::from_millis(1_000);
    c.seed = 11;
    c
}

#[test]
fn webcache_series_match_pre_refactor_snapshot() {
    for (mode, hits, messages) in [
        (
            CacheMode::Static,
            WEBCACHE_STATIC_HITS,
            WEBCACHE_STATIC_MESSAGES,
        ),
        (
            CacheMode::Dynamic,
            WEBCACHE_DYNAMIC_HITS,
            WEBCACHE_DYNAMIC_MESSAGES,
        ),
    ] {
        let r = run_webcache(webcache_cfg(mode));
        assert_series(
            &format!("webcache/{} neighbor_hits", r.label),
            &r.window.series(&r.metrics.runtime.hits),
            hits,
        );
        assert_series(
            &format!("webcache/{} messages", r.label),
            &r.window.series(&r.metrics.runtime.messages),
            messages,
        );
    }
}

fn peerolap_cfg(mode: OlapMode) -> PeerOlapConfig {
    let mut c = PeerOlapConfig::default_scenario(mode);
    c.peers = 24;
    c.groups = 4;
    c.chunks_per_region = 2_048;
    c.cache_capacity = 512;
    c.sim_hours = 5;
    c.warmup_hours = 1;
    c.mean_query_interval = SimDuration::from_millis(2_000);
    c.seed = 4;
    c
}

#[test]
fn peerolap_series_match_pre_refactor_snapshot() {
    for (mode, hits, messages) in [
        (
            OlapMode::Static,
            PEEROLAP_STATIC_HITS,
            PEEROLAP_STATIC_MESSAGES,
        ),
        (
            OlapMode::Dynamic,
            PEEROLAP_DYNAMIC_HITS,
            PEEROLAP_DYNAMIC_MESSAGES,
        ),
    ] {
        let r = run_peerolap(peerolap_cfg(mode));
        assert_series(
            &format!("peerolap/{} chunks_peer", r.label),
            &r.window.series(&r.metrics.runtime.hits),
            hits,
        );
        assert_series(
            &format!("peerolap/{} messages", r.label),
            &r.window.series(&r.metrics.runtime.messages),
            messages,
        );
    }
}
