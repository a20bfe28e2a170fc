//! Deterministic parallel sweep engine.
//!
//! Every experiment binary used to carry its own scoped-thread /
//! `Mutex<VecDeque>` fan-out copy. This module is the one shared engine:
//! [`run_many`] applies one per-configuration function (usually
//! [`run::<S>`](crate::run)) to a batch of configurations on a shared
//! worker pool (lock-free atomic work index + bounded result channel) and
//! returns the results **in input order** regardless of completion order.
//! Each run is single-threaded and deterministic, so parallelism affects
//! wall-clock time only — never results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Apply `run_one` to every configuration, fanning out across up to
/// `workers` threads, and return the results in input order.
///
/// Work distribution is a shared atomic index over the config slice (no
/// queue lock); results flow back through a **bounded** channel sized to
/// the worker count, so a slow consumer can never accumulate unbounded
/// in-flight reports. As long as `run_one` is a pure function of its
/// config (every [`Scenario`](crate::Scenario) driver is),
/// `run_many(c, 1, f)` and `run_many(c, n, f)` are bit-identical.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run;
    use crate::scenario::toy::*;

    #[test]
    fn run_many_empty_is_empty() {
        assert!(run_many(Vec::<TickConfig>::new(), 4, run::<TickScenario>).is_empty());
    }

    #[test]
    fn run_many_parallel_matches_serial_in_order() {
        let configs: Vec<TickConfig> = (0..9).map(cfg).collect();
        let serial = run_many(configs.clone(), 1, run::<TickScenario>);
        let parallel = run_many(configs, 4, run::<TickScenario>);
        assert_eq!(serial, parallel, "parallelism changed sweep results");
    }
}
