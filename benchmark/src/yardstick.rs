//! A host-speed yardstick: a fixed piece of benchmark-owned memory work,
//! timed right before and after each piece of measured work.
//!
//! The hosts this runs on are shared. Measured over 400 s, identical
//! one-second repetitions of one world spread 23 % between their
//! quartiles, with an autocorrelation of 0.5 at ten seconds and 0.35 at
//! twenty: whole runs land in slow or fast stretches, and no statistic
//! taken *inside* a run of any affordable length — median, quartile,
//! minimum, per-chunk minimum — tells a slow host from slow code (all
//! were tried; the spread between runs stayed at 15–30 %). What slows
//! the simulator down is contention for the memory system, not for the
//! core: a pure arithmetic loop follows the slow stretches only loosely
//! (correlation 0.6 with repetition time), dependent pointer-chasing not
//! at all (0.2), independent random reads over a table a few times the
//! L2 cache well (0.8).
//!
//! So each repetition is bracketed by two slices of exactly that, and its
//! timings are divided by how much slower than nominal the slices ran.
//! The yardstick shares no code with the crates under test, so a change
//! to the repository cannot move it, while the host moves it and the
//! workload together. Across five workloads and eight runs each, in a
//! stretch where unadjusted medians spread 18–38 % between runs, adjusted
//! ones spread 4–8 %. The unadjusted numbers are printed beside them.

use crate::relay::mix;
use std::time::Instant;

/// Table entries: 16 MiB of `u64`, four times this host's L2 per core.
const ENTRIES: usize = 2 << 20;

/// Independent random reads per slice: about 12 ms on a quiet host.
const READS: u64 = 1_500_000;

/// What one slice takes on the recording host when it is quiet. It only
/// fixes the scale of adjusted timings — they read as host time when the
/// host is quiet — and no comparison depends on it.
pub const NOMINAL_S: f64 = 0.012;

/// The table the slices read. Allocated and touched once, before the
/// first repetition, so it is a constant 16 MiB of every run's peak RSS.
pub struct Yardstick {
    table: Vec<u64>,
}

impl Yardstick {
    pub fn new() -> Self {
        Yardstick {
            table: (0..ENTRIES as u64).collect(),
        }
    }

    /// Time one slice, in seconds. The reads do not depend on each other,
    /// so many are in flight at once: throughput, not latency, is what a
    /// busy neighbour takes away.
    pub fn slice(&self) -> f64 {
        let start = Instant::now();
        let mask = ENTRIES as u64 - 1;
        let mut acc = 0u64;
        for i in 0..READS {
            acc = acc.wrapping_add(self.table[(mix(i, 0x77) & mask) as usize]);
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

/// How much slower than nominal the host ran between two slices taken
/// just before and just after a piece of measured work.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_of_the_bracketing_slices_over_nominal() {
        assert_eq!(slowdown(NOMINAL_S, NOMINAL_S), 1.0);
        assert_eq!(slowdown(NOMINAL_S, 3.0 * NOMINAL_S), 2.0);
    }

    #[test]
    fn a_slice_takes_measurable_time() {
        assert!(Yardstick::new().slice() > 0.0);
    }
}
