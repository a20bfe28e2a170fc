//! Reproducible randomness plumbing.
//!
//! Every stochastic component of the simulation (churn, query generation,
//! latency sampling, topology bootstrap, …) draws from its *own* RNG stream
//! derived from a single root seed. This keeps components statistically
//! independent and — crucially — makes each component's stream insensitive
//! to how many random numbers *other* components consume, so adding a
//! feature does not perturb unrelated parts of a run.
//!
//! Streams are derived with SplitMix64 (Steele, Lea & Flood 2014), the
//! standard seed-sequencer for xoshiro-family generators; the per-stream
//! generator is `rand::rngs::SmallRng`, seeded from eight SplitMix64 outputs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One SplitMix64 step: advances `state` and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives independent named RNG streams from a root seed.
///
/// A stream is identified by a `(label, index)` pair, e.g.
/// `("churn", user_id)`. The same pair always yields the same stream for a
/// given root seed, regardless of derivation order.
///
/// ```
/// use ddr_sim::RngFactory;
/// use rand::Rng;
///
/// let f = RngFactory::new(42);
/// let a: u64 = f.stream("churn", 7).gen();
/// let b: u64 = f.stream("churn", 7).gen();
/// assert_eq!(a, b, "same (label, index) → same stream");
/// assert_ne!(a, f.stream("query", 7).gen::<u64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    root: u64,
}

impl RngFactory {
    /// Create a factory from the experiment's root seed.
    pub fn new(root_seed: u64) -> Self {
        RngFactory { root: root_seed }
    }

    /// Derive the 64-bit sub-seed for `(label, index)`.
    pub fn sub_seed(&self, label: &str, index: u64) -> u64 {
        // Mix the label bytes and index into the root via SplitMix64 steps.
        let mut state = self.root ^ 0xD6E8_FEB8_6659_FD93;
        for chunk in label.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            state ^= u64::from_le_bytes(word);
            splitmix64(&mut state);
        }
        state ^= index.wrapping_mul(0x2545_F491_4F6C_DD1D);
        splitmix64(&mut state)
    }

    /// A `SmallRng` for the `(label, index)` stream.
    pub fn stream(&self, label: &str, index: u64) -> SmallRng {
        let mut state = self.sub_seed(label, index);
        let mut seed = [0u8; 32];
        for word in seed.chunks_exact_mut(8) {
            word.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        SmallRng::from_seed(seed)
    }
}

/// One standard-normal sample via Box–Muller (the cosine branch only; the
/// sine branch is discarded to keep the sampler stateless). Shared by the
/// latency model (`ddr-net`) and the workload samplers (`ddr-workload`).
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_pair_same_stream() {
        let f = RngFactory::new(42);
        let a: Vec<u64> = f
            .stream("churn", 7)
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        let b: Vec<u64> = f
            .stream("churn", 7)
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngFactory::new(42);
        let a: u64 = f.stream("churn", 0).gen();
        let b: u64 = f.stream("query", 0).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_indices_differ() {
        let f = RngFactory::new(42);
        let a: u64 = f.stream("churn", 0).gen();
        let b: u64 = f.stream("churn", 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_roots_differ() {
        let a: u64 = RngFactory::new(1).stream("x", 0).gen();
        let b: u64 = RngFactory::new(2).stream("x", 0).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn label_prefixes_do_not_collide() {
        // "ab" + index 0 must differ from "a" + any small index; guards the
        // chunked label mixing against trivial prefix collisions.
        let f = RngFactory::new(1234);
        let ab = f.sub_seed("ab", 0);
        for i in 0..256 {
            assert_ne!(ab, f.sub_seed("a", i), "collision at index {i}");
        }
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values from the SplitMix64 paper's public-domain code
        // with seed 1234567.
        let mut s = 1234567u64;
        let v1 = splitmix64(&mut s);
        let v2 = splitmix64(&mut s);
        assert_ne!(v1, v2);
        // Determinism check (regression pin, not an external vector).
        let mut s2 = 1234567u64;
        assert_eq!(v1, splitmix64(&mut s2));
    }

    #[test]
    fn standard_normal_is_centred() {
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| standard_normal(&mut rng)).sum();
        assert!((sum / n as f64).abs() < 0.02);
    }
}
