//! The single source of truth for host parallelism defaults.
//!
//! Three layers historically carried their own "how many workers" default
//! (the sweeps, `ExpOptions::workers()`, and the serve backend's
//! shard count); they all resolve here now, so a `--threads`/`--shards`
//! override and the one-per-core fallback behave identically everywhere —
//! including the sharded simulation kernel's default shard count.
//!
//! [`map_chunked`] is the one data-parallel map: `ddr run` maps a
//! sweep's configurations through it one a claim, and a world's build
//! its per-node columns [`MIN_CHUNK`] nodes a claim. Scoped threads
//! claim the next chunk as they finish one, and each item is written
//! straight into its slot.

use std::sync::Mutex;

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

/// The claim unit of a world's per-node columns: [`map_chunked`] hands
/// them out `MIN_CHUNK` nodes at a time, and below `2 × MIN_CHUNK`
/// nodes the calling thread maps them all.
///
/// Sized so that starting threads costs ≤ 1 % of building a chunk, on
/// the one caller that passes it, a Gnutella world's per-node pass.
/// Measured on a 2-core x86-64 host (release build, 50,000 users, one
/// thread): a scoped thread's spawn and join take 43–55 µs, and one
/// node's entries ≈ 16.5 µs (its profile 16 µs, its `PeerState` 0.4 µs,
/// each RNG stream 60 ns). The pass maps four columns, so a build on two
/// threads starts four: 4 × 55 µs = 220 µs, under 1 % of one chunk's
/// build (1 % of 2,048 × 16.5 µs is 338 µs; of 1,024 nodes, 169 µs).
pub const MIN_CHUNK: usize = 2048;

/// Map `0..n` through `f` into one `Vec`, in index order, on at most
/// `workers` threads, the calling thread among them.
///
/// The output is pre-split into chunks of `min_chunk` items (the last
/// may be shorter), and each thread claims the next unclaimed chunk
/// until none is left, so a sweep whose items differ in cost keeps
/// every thread busy. There are `min(workers, n / min_chunk)` threads
/// (at least one): below `2 × min_chunk` items the calling thread maps
/// them all. Each chunk gets its own scratch value from `init` and maps
/// its items in ascending order. Every result is written straight into
/// its slot of the one pre-sized `Vec`, so no partial output is ever
/// concatenated or held twice.
///
/// Item `i` is `f(scratch, i)` whatever the threads, so the output is
/// the serial map's whenever `f` depends only on `i` and reads the
/// scratch only as a buffer it overwrites. A panic in any item
/// propagates once every thread has stopped; the items already written
/// are leaked, never dropped. Panics if `min_chunk` is 0.
pub fn map_chunked<T: Send, S>(
    n: usize,
    workers: usize,
    min_chunk: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let threads = workers.min(n / min_chunk).max(1);
    let mut out = Vec::with_capacity(n);
    let chunks = Mutex::new(
        out.spare_capacity_mut()[..n]
            .chunks_mut(min_chunk)
            .enumerate(),
    );
    let claim = || loop {
        let next = chunks
            .lock()
            .expect("the lock is held only to pop a chunk, never while an item is mapped")
            .next();
        let Some((c, slots)) = next else {
            return;
        };
        let mut scratch = init();
        for (k, slot) in slots.iter_mut().enumerate() {
            slot.write(f(&mut scratch, c * min_chunk + k));
        }
    };
    if threads == 1 {
        claim();
    } else {
        let claim = &claim;
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(claim);
            }
            claim();
        });
    }
    // SAFETY: the chunks tile `0..n`, every one was claimed, and its
    // claimer wrote each of its slots; an item that panicked unwinds
    // out of `scope` (after joining the other threads) before this
    // line, leaving the length 0.
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
    use std::time::{Duration, Instant};

    /// Every size around a chunk boundary, at every worker count and
    /// at both claim units the callers pass, equals the serial map, with
    /// one scratch value per chunk and ascending indices within it.
    /// `SmallRng` has no niche, so a slot wrapper would show in its size.
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
            let item = |last: &mut Option<usize>, i: usize| {
                assert!(last.is_none_or(|l| l + 1 == i), "{last:?} then {i}");
                *last = Some(i);
                rngs.stream("item", i as u64)
            };
            for min_chunk in [1, MIN_CHUNK] {
                for workers in [1, 2, 3, 8] {
                    let inits = AtomicUsize::new(0);
                    let init = || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        None
                    };
                    let got = map_chunked(n, workers, min_chunk, init, item);
                    let at = format!("n {n}, min_chunk {min_chunk}, workers {workers}");
                    assert!(got == serial, "{at}");
                    assert_eq!(inits.into_inner(), n.div_ceil(min_chunk), "{at}");
                }
            }
        }
    }

    /// Threads claim chunks as they go: at one item a chunk on two
    /// workers, item 0 can wait until items 1–3 are done, because the
    /// other thread claims each of them in turn. A split into fixed
    /// halves would put item 1 behind item 0 on one thread, and the
    /// wait would time out.
    #[test]
    fn an_idle_thread_claims_the_next_chunk() {
        let done = AtomicUsize::new(0);
        let waited = map_chunked(
            4,
            2,
            1,
            || (),
            |_, i| {
                if i == 0 {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while done.load(Ordering::Acquire) < 3 && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                }
                done.fetch_add(1, Ordering::Release)
            },
        );
        assert_eq!(waited[0], 3, "item 0 saw {} items done", waited[0]);
    }

    /// Counts its own drops in a shared per-index table.
    struct Tracked<'a>(usize, &'a [AtomicU8]);

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.1[self.0].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A panic on a spawned thread or on the calling thread, at either
    /// claim unit, propagates and leaks what was written, dropping
    /// nothing; without one, every item is dropped exactly once, with
    /// the `Vec`.
    #[test]
    fn a_panicking_chunk_propagates_and_drops_nothing_twice() {
        let n = 2 * MIN_CHUNK + 3;
        for min_chunk in [1, MIN_CHUNK] {
            for bad in [MIN_CHUNK / 2, n - 1, n] {
                let drops: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    map_chunked(
                        n,
                        2,
                        min_chunk,
                        || (),
                        |_, i| {
                            assert_ne!(i, bad, "item {bad} fails");
                            Tracked(i, &drops)
                        },
                    )
                }));
                assert_eq!(
                    result.is_err(),
                    bad < n,
                    "item {bad}, min_chunk {min_chunk}"
                );
                drop(result);
                let want = u8::from(bad == n);
                assert!(drops.iter().all(|d| d.load(Ordering::Relaxed) == want));
            }
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
