//! The single source of truth for host parallelism defaults.
//!
//! Three layers historically carried their own "how many workers" default
//! (the sweep engine, `ExpOptions::workers()`, and the serve backend's
//! shard count); they all resolve here now, so a `--threads`/`--shards`
//! override and the one-per-core fallback behave identically everywhere —
//! including the sharded simulation kernel's default shard count.
//!
//! [`map_chunked`] is the one data-parallel map: a world's per-node
//! columns are built through it, over contiguous node chunks on scoped
//! threads, each item written straight into its slot.

use std::mem::MaybeUninit;

/// Default worker count: one per core (1 if the host won't say).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve an optional user override against the one-per-core default.
/// Zero is treated as "no override" so CLI plumbing can pass parsed
/// values straight through.
pub fn resolve_workers(requested: Option<usize>) -> usize {
    match requested {
        Some(n) if n > 0 => n,
        _ => default_workers(),
    }
}

/// Fewest items a [`map_chunked`] chunk holds: below `2 × MIN_CHUNK`
/// items the calling thread maps them all.
///
/// Sized so that starting threads costs ≤ 1 % of building the chunk, on
/// the one caller, a Gnutella world's per-node pass. Measured on a
/// 2-core x86-64 host (release build, 50,000 users, one thread): a
/// scoped thread's spawn and join take 43–55 µs, and one node's entries
/// ≈ 17 µs (its profile 16 µs, its summary 0.8 µs, each RNG stream
/// 60 ns). The pass maps four columns, so a chunk of nodes starts four
/// threads: 4 × 55 µs = 220 µs ≤ 1 % of 2,048 × 17 µs = 348 µs, where
/// 1,024 nodes would give 174 µs.
pub const MIN_CHUNK: usize = 2048;

/// Map `0..n` through `f` into one `Vec`, in index order, over at most
/// `workers` contiguous chunks of at least [`MIN_CHUNK`] items each.
/// Each chunk gets its own scratch value from `init`; the calling thread
/// maps the last chunk and a scoped thread each other one. Every result
/// is written straight into its slot of the one pre-sized `Vec`, so no
/// partial column is ever concatenated or held twice.
///
/// Item `i` is `f(scratch, i)` whatever the chunking, so the output is
/// the serial map's whenever `f` depends only on `i` and reads the
/// scratch only as a buffer it overwrites (item order within a chunk
/// is ascending). A panic in any chunk propagates once every chunk has
/// stopped; the items already written are leaked, never dropped.
pub fn map_chunked<T: Send, S>(
    n: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let chunks = workers.min(n / MIN_CHUNK).max(1);
    let fill = |start: usize, slots: &mut [MaybeUninit<T>]| {
        let mut scratch = init();
        for (k, slot) in slots.iter_mut().enumerate() {
            slot.write(f(&mut scratch, start + k));
        }
    };
    let mut out = Vec::with_capacity(n);
    let mut rest = &mut out.spare_capacity_mut()[..n];
    if chunks == 1 {
        fill(0, rest);
    } else {
        let fill = &fill;
        std::thread::scope(|scope| {
            for c in 0..chunks {
                let (start, end) = (c * n / chunks, (c + 1) * n / chunks);
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
                rest = tail;
                if c + 1 == chunks {
                    fill(start, head);
                } else {
                    scope.spawn(move || fill(start, head));
                }
            }
        });
    }
    // SAFETY: the chunks tile `0..n` and `fill` wrote every slot of its
    // chunk; a chunk that panicked unwinds out of `scope` (after joining
    // the others) before this line, leaving the length 0.
    unsafe { out.set_len(n) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::RngFactory;
    use rand::rngs::SmallRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

    /// Every size around a chunk boundary, at every worker count, equals
    /// the serial map, with one scratch value per chunk and ascending
    /// indices within it. `SmallRng` has no niche, so a slot wrapper
    /// would show in its size.
    #[test]
    fn map_chunked_equals_the_serial_map() {
        let rngs = RngFactory::new(5);
        for n in [
            0,
            1,
            MIN_CHUNK - 1,
            MIN_CHUNK,
            MIN_CHUNK + 1,
            2 * MIN_CHUNK + 3,
        ] {
            let serial: Vec<SmallRng> = (0..n).map(|i| rngs.stream("item", i as u64)).collect();
            for workers in [1, 2, 3, 8] {
                let inits = AtomicUsize::new(0);
                let init = || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    None
                };
                let got = map_chunked(n, workers, init, |last: &mut Option<usize>, i| {
                    assert!(last.is_none_or(|l| l + 1 == i), "{last:?} then {i}");
                    *last = Some(i);
                    rngs.stream("item", i as u64)
                });
                assert!(got == serial, "n {n}, workers {workers}");
                let chunks = workers.min(n / MIN_CHUNK).max(1);
                assert_eq!(inits.into_inner(), chunks, "n {n}, workers {workers}");
            }
        }
    }

    /// Counts its own drops in a shared per-index table.
    struct Tracked<'a>(usize, &'a [AtomicU8]);

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.1[self.0].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A panic in a spawned chunk or in the calling thread's chunk
    /// propagates and leaks what was written, dropping nothing; without
    /// one, every item is dropped exactly once, with the `Vec`.
    #[test]
    fn a_panicking_chunk_propagates_and_drops_nothing_twice() {
        let n = 2 * MIN_CHUNK + 3;
        for bad in [MIN_CHUNK / 2, n - 1, n] {
            let drops: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            let result = catch_unwind(AssertUnwindSafe(|| {
                map_chunked(
                    n,
                    2,
                    || (),
                    |_, i| {
                        assert_ne!(i, bad, "item {bad} fails");
                        Tracked(i, &drops)
                    },
                )
            }));
            assert_eq!(result.is_err(), bad < n, "item {bad}");
            drop(result);
            let want = u8::from(bad == n);
            assert!(drops.iter().all(|d| d.load(Ordering::Relaxed) == want));
        }
    }

    #[test]
    fn default_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn resolve_honours_override_and_falls_back() {
        assert_eq!(resolve_workers(Some(3)), 3);
        assert_eq!(resolve_workers(None), default_workers());
        assert_eq!(resolve_workers(Some(0)), default_workers());
    }
}
