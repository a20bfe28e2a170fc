//! Deterministic parallel sweep engine.
//!
//! Every experiment binary used to carry its own scoped-thread /
//! `Mutex<VecDeque>` fan-out copy. This module is the one shared engine:
//!
//! * [`run_many`] — apply one per-configuration function (usually
//!   [`run::<S>`](crate::run)) to a batch of configurations on a shared
//!   worker pool (lock-free atomic work index + bounded result channel)
//!   and return the results **in input order** regardless of completion
//!   order. Each run is single-threaded and deterministic, so parallelism
//!   affects wall-clock time only — never results.
//! * [`Sweep`] — named parameter axes on top of `run_many`: each point
//!   carries a label, so results feed straight into result tables.
//! * [`derive_seed`] — splitmix64-style per-point seed derivation for
//!   sweeps whose points must be statistically independent.

use crate::scenario::{run, Scenario};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Derive a per-point seed from a root seed and the point's index.
///
/// SplitMix64 finalizer over `root + (index+1)·φ`: deterministic,
/// collision-resistant across small index ranges, and stable across
/// platforms — the sweep contract that "point `i` of sweep `s` always
/// sees the same seed" regardless of worker scheduling.
pub fn derive_seed(root: u64, index: u64) -> u64 {
    let mut z = root.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Apply `run_one` to every configuration, fanning out across up to
/// `workers` threads, and return the results in input order.
///
/// Work distribution is a shared atomic index over the config slice (no
/// queue lock); results flow back through a **bounded** channel sized to
/// the worker count, so a slow consumer can never accumulate unbounded
/// in-flight reports. As long as `run_one` is a pure function of its
/// config (every [`Scenario`] driver is), `run_many(c, 1, f)` and
/// `run_many(c, n, f)` are bit-identical.
pub fn run_many<C, R>(configs: Vec<C>, workers: usize, run_one: impl Fn(C) -> R + Sync) -> Vec<R>
where
    C: Clone + Send + Sync,
    R: Send,
{
    let n = configs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        return configs.into_iter().map(run_one).collect();
    }

    let next = AtomicUsize::new(0);
    let (res_tx, res_rx) = mpsc::sync_channel::<(usize, R)>(workers);
    let configs = &configs;
    let next_ref = &next;
    let run_one = &run_one;
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let res_tx = res_tx.clone();
            scope.spawn(move || loop {
                let idx = next_ref.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let report = run_one(configs[idx].clone());
                if res_tx.send((idx, report)).is_err() {
                    break; // collector vanished; nothing left to do
                }
            });
        }
        drop(res_tx);
        while let Ok((idx, report)) = res_rx.recv() {
            slots[idx] = Some(report);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("worker died before finishing"))
        .collect()
}

/// One labelled point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint<C> {
    /// Human-readable point label (axis value), used as the table key.
    pub label: String,
    /// Full run configuration.
    pub config: C,
}

/// A named-axis parameter sweep over one scenario.
///
/// Build points either one at a time ([`point`](Sweep::point)) or from an
/// axis of values ([`axis`](Sweep::axis)); then [`run`](Sweep::run) fans
/// out on the shared worker pool and returns `(label, report)` pairs in
/// axis order.
pub struct Sweep<S: Scenario> {
    points: Vec<SweepPoint<S::Config>>,
}

impl<S: Scenario> Default for Sweep<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scenario> Sweep<S> {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep { points: Vec::new() }
    }

    /// Append one labelled point.
    pub fn point(mut self, label: impl Into<String>, config: S::Config) -> Self {
        self.points.push(SweepPoint {
            label: label.into(),
            config,
        });
        self
    }

    /// Append one point per axis value; the label is the value's
    /// `Display` form and `make` builds the config for that value.
    pub fn axis<T, I, F>(mut self, values: I, mut make: F) -> Self
    where
        T: std::fmt::Display,
        I: IntoIterator<Item = T>,
        F: FnMut(&T) -> S::Config,
    {
        for v in values {
            let config = make(&v);
            self.points.push(SweepPoint {
                label: v.to_string(),
                config,
            });
        }
        self
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point labels, in axis order.
    pub fn labels(&self) -> Vec<&str> {
        self.points.iter().map(|p| p.label.as_str()).collect()
    }

    /// Run every point across `workers` threads; results come back as
    /// `(label, report)` in axis order regardless of completion order.
    pub fn run(self, workers: usize) -> Vec<(String, S::Report)>
    where
        S::Config: Send + Sync,
        S::Report: Send,
    {
        let (labels, configs): (Vec<String>, Vec<S::Config>) =
            self.points.into_iter().map(|p| (p.label, p.config)).unzip();
        labels
            .into_iter()
            .zip(run_many(configs, workers, run::<S>))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::toy::*;

    #[test]
    fn derive_seed_is_stable_and_spread() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(0xDDA, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "seed collision in small range");
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0), "root must matter");
    }

    #[test]
    fn run_many_empty_is_empty() {
        assert!(run_many(Vec::<TickConfig>::new(), 4, run::<TickScenario>).is_empty());
    }

    #[test]
    fn run_many_parallel_matches_serial_in_order() {
        let configs: Vec<TickConfig> = (0..9).map(|i| cfg(derive_seed(5, i))).collect();
        let serial = run_many(configs.clone(), 1, run::<TickScenario>);
        let parallel = run_many(configs, 4, run::<TickScenario>);
        assert_eq!(serial, parallel, "parallelism changed sweep results");
    }

    #[test]
    fn sweep_axis_labels_and_order() {
        let sweep = Sweep::<TickScenario>::new()
            .axis([250u64, 500, 1_000], |&step| {
                let mut c = cfg(3);
                c.step_ms = step;
                c
            })
            .point("extra", cfg(9));
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep.labels(), vec!["250", "500", "1000", "extra"]);
        let results = sweep.run(3);
        assert_eq!(results.len(), 4);
        // ordered by axis point: faster tick → more events, monotone here
        assert_eq!(results[0].0, "250");
        assert!(results[0].1.fired > results[1].1.fired);
        assert!(results[1].1.fired > results[2].1.fired);
        assert_eq!(results[3].0, "extra");
    }
}
