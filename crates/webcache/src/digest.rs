//! Cache digests: Bloom-filter summaries of sibling cache contents
//! (paper §1: search "can be guided by the existence of local indexes
//! representing the contents of other nodes (e.g., cache digests)" — the
//! mechanism Squid actually shipped).
//!
//! A proxy periodically publishes a digest of its cache; siblings then
//! query only the neighbors whose digest claims the page, instead of all
//! of them. Bloom filters never produce false *negatives* on the content
//! they were built from, so a fresh digest cannot hide a page; false
//! *positives* (rate ≈ `(1 − e^{−kn/m})^k`) and staleness (pages cached
//! or evicted since the digest was built) cost wasted or missed queries —
//! exactly the trade-off the digest-refresh ablation measures.

use ddr_sim::ItemId;

/// A fixed-size Bloom filter over [`ItemId`]s.
///
/// ```
/// use ddr_webcache::BloomFilter;
/// use ddr_sim::ItemId;
///
/// let digest = BloomFilter::from_items((0..100).map(ItemId), 100, 10);
/// assert!(digest.contains(ItemId(42)), "no false negatives");
/// assert!(digest.expected_fp_rate() < 0.02);
/// ```
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    hashes: u32,
    items: u64,
}

impl BloomFilter {
    /// A filter sized for `expected_items` at `bits_per_item` density
    /// (10 bits/item with the optimal hash count ≈ 1 % false positives).
    /// The bit count rounds up to a power of two for mask indexing.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(expected_items: usize, bits_per_item: usize) -> Self {
        assert!(expected_items > 0 && bits_per_item > 0);
        let bits = (expected_items * bits_per_item).next_power_of_two().max(64);
        // Optimal k = ln(2) · bits/item, at least 1.
        let hashes = ((bits_per_item as f64) * std::f64::consts::LN_2)
            .round()
            .max(1.0) as u32;
        BloomFilter {
            bits: vec![0; bits / 64],
            mask: bits as u64 - 1,
            hashes,
            items: 0,
        }
    }

    /// Bits in the filter.
    pub fn bit_len(&self) -> usize {
        self.bits.len() * 64
    }

    /// Items inserted so far.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Double hashing: two independent 64-bit values from SplitMix64
    /// streams of the id, combined as `h1 + i·h2`.
    #[inline]
    fn probes(&self, item: ItemId) -> (u64, u64) {
        let mut s1 = item.0 as u64 ^ 0x9E37_79B9_7F4A_7C15;
        let h1 = ddr_sim::rng::splitmix64(&mut s1);
        let mut s2 = item.0 as u64 ^ 0xC2B2_AE3D_27D4_EB4F;
        let h2 = ddr_sim::rng::splitmix64(&mut s2) | 1; // odd → full period
        (h1, h2)
    }

    /// Insert an item.
    pub fn insert(&mut self, item: ItemId) {
        let (h1, h2) = self.probes(item);
        for i in 0..self.hashes as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) & self.mask;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        self.items += 1;
    }

    /// Whether the filter *may* contain the item (false positives
    /// possible, false negatives impossible for inserted items).
    pub fn contains(&self, item: ItemId) -> bool {
        let (h1, h2) = self.probes(item);
        for i in 0..self.hashes as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) & self.mask;
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Build a digest from an iterator of items.
    pub fn from_items<I: IntoIterator<Item = ItemId>>(
        items: I,
        expected_items: usize,
        bits_per_item: usize,
    ) -> Self {
        let mut f = BloomFilter::new(expected_items, bits_per_item);
        for item in items {
            f.insert(item);
        }
        f
    }

    /// Theoretical false-positive rate at the current load.
    pub fn expected_fp_rate(&self) -> f64 {
        let m = self.bit_len() as f64;
        let k = self.hashes as f64;
        let n = self.items as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let items: Vec<ItemId> = (0..2_000).map(ItemId).collect();
        let f = BloomFilter::from_items(items.iter().copied(), 2_000, 10);
        for &i in &items {
            assert!(f.contains(i), "false negative for {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_theory() {
        let n = 2_000u32;
        let f = BloomFilter::from_items((0..n).map(ItemId), n as usize, 10);
        let probes = 50_000u32;
        let fps = (n..n + probes).filter(|&i| f.contains(ItemId(i))).count();
        let rate = fps as f64 / probes as f64;
        let expected = f.expected_fp_rate();
        assert!(
            rate < expected * 3.0 + 0.005,
            "fp rate {rate} far above theoretical {expected}"
        );
        assert!(rate < 0.05, "fp rate {rate} unusably high");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(100, 10);
        for i in 0..1_000 {
            assert!(!f.contains(ItemId(i)));
        }
        assert_eq!(f.items(), 0);
        assert_eq!(f.expected_fp_rate(), 0.0);
    }

    #[test]
    fn sizing_and_hash_count() {
        let f = BloomFilter::new(1_000, 10);
        assert!(f.bit_len() >= 10_000);
        assert!(f.bit_len().is_power_of_two());
        assert_eq!(f.hashes, 7); // ln2 * 10 ≈ 6.93
    }

    #[test]
    fn denser_filters_have_lower_fp() {
        let items: Vec<ItemId> = (0..5_000).map(ItemId).collect();
        let sparse = BloomFilter::from_items(items.iter().copied(), 5_000, 4);
        let dense = BloomFilter::from_items(items.iter().copied(), 5_000, 16);
        assert!(dense.expected_fp_rate() < sparse.expected_fp_rate());
    }

    #[test]
    #[should_panic]
    fn zero_sizing_panics() {
        let _ = BloomFilter::new(0, 10);
    }
}
