//! Lightweight observability for simulations: named counters.
//!
//! The experiment harness reports aggregate metrics through `ddr-stats`;
//! [`Counters`] serves debugging and white-box tests (e.g. asserting a
//! reconfiguration fired exactly once). Query-lifecycle tracing lives in
//! `ddr_telemetry::QueryTracer`.

use crate::hash::FastHashMap;

/// A set of named monotone counters.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    values: FastHashMap<&'static str, u64>,
}

impl Counters {
    /// Empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to counter `name` (creating it at zero).
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.values.entry(name).or_insert(0) += n;
    }

    /// Increment counter `name` by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name for stable output.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.values.iter().map(|(&k, &n)| (k, n)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Reset every counter to zero, keeping the names.
    pub fn reset(&mut self) {
        for v in self.values.values_mut() {
            *v = 0;
        }
    }

    /// Fold another counter set into this one, summing shared names and
    /// adopting new ones — how per-shard counters from parallel sweeps
    /// are combined.
    pub fn merge(&mut self, other: &Counters) {
        for (&name, &n) in other.values.iter() {
            self.add(name, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        c.incr("hits");
        c.incr("hits");
        c.add("messages", 10);
        assert_eq!(c.get("hits"), 2);
        assert_eq!(c.get("messages"), 10);
        assert_eq!(c.get("absent"), 0);
    }

    #[test]
    fn snapshot_is_sorted() {
        let mut c = Counters::new();
        c.incr("zeta");
        c.incr("alpha");
        let snap = c.snapshot();
        assert_eq!(snap, vec![("alpha", 1), ("zeta", 1)]);
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let mut c = Counters::new();
        c.add("x", 5);
        c.reset();
        assert_eq!(c.get("x"), 0);
        assert_eq!(c.snapshot(), vec![("x", 0)]);
    }

    #[test]
    fn merge_sums_shared_and_adopts_new_names() {
        let mut a = Counters::new();
        a.add("hits", 2);
        a.add("messages", 10);
        let mut b = Counters::new();
        b.add("hits", 3);
        b.add("drops", 1);
        a.merge(&b);
        assert_eq!(
            a.snapshot(),
            vec![("drops", 1), ("hits", 5), ("messages", 10)]
        );
        // The source is unchanged.
        assert_eq!(b.get("hits"), 3);
    }

    #[test]
    fn merge_after_reset_preserves_snapshot_order() {
        let mut a = Counters::new();
        a.add("zeta", 7);
        a.reset();
        let mut b = Counters::new();
        b.add("alpha", 1);
        a.merge(&b);
        assert_eq!(a.snapshot(), vec![("alpha", 1), ("zeta", 0)]);
    }
}
