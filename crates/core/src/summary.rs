//! Summarized content information (paper §3.4, solution (b) to the
//! invitation-assessment problem: "the exchange of summarized
//! information, according to which the invitee can assess the potential
//! benefit" — and §3.2's "use summary info if available").
//!
//! A [`CategorySummary`] is a per-category histogram of a node's library:
//! tiny (one counter per category, 50 in the paper's catalog), cheap to
//! compare, and exactly the kind of digest a Gnutella extension could
//! piggyback on invitations. Similarity is the cosine between histograms,
//! which is 1.0 for identical taste profiles and ≈ 0 for disjoint ones.

use ddr_sim::ItemId;

/// A per-category item-count histogram of one node's content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategorySummary {
    counts: Vec<u32>,
    /// Σ `counts`, fixed at construction: neighbor planning asks every
    /// candidate for it, and one word beats fifty counters behind a
    /// pointer.
    total: u64,
}

impl CategorySummary {
    /// Build from an item list and a category-of mapping.
    pub fn build<F>(items: &[ItemId], categories: usize, category_of: F) -> Self
    where
        F: Fn(ItemId) -> usize,
    {
        let mut counts = vec![0u32; categories];
        for &item in items {
            let c = category_of(item);
            debug_assert!(c < categories, "category {c} out of range");
            counts[c] += 1;
        }
        let total = counts.iter().map(|&c| u64::from(c)).sum();
        CategorySummary { counts, total }
    }

    /// An empty summary over `categories` categories.
    pub fn empty(categories: usize) -> Self {
        CategorySummary {
            counts: vec![0; categories],
            total: 0,
        }
    }

    /// Number of categories.
    pub fn categories(&self) -> usize {
        self.counts.len()
    }

    /// Total items summarised.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Item count of one category.
    pub fn count(&self, category: usize) -> u32 {
        self.counts.get(category).copied().unwrap_or(0)
    }

    /// Cosine similarity in `[0, 1]`; 0 when either summary is empty.
    ///
    /// # Panics
    /// Panics when the category dimensions differ — comparing summaries
    /// from different catalogs is a logic error.
    pub fn similarity(&self, other: &CategorySummary) -> f64 {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "summary dimension mismatch"
        );
        let mut dot = 0.0f64;
        let mut na = 0.0f64;
        let mut nb = 0.0f64;
        for (&a, &b) in self.counts.iter().zip(&other.counts) {
            dot += a as f64 * b as f64;
            na += (a as f64) * (a as f64);
            nb += (b as f64) * (b as f64);
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na.sqrt() * nb.sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(counts: &[u32]) -> CategorySummary {
        let items: Vec<ItemId> = counts
            .iter()
            .enumerate()
            .flat_map(|(c, &n)| std::iter::repeat_n(ItemId(c as u32), n as usize))
            .collect();
        CategorySummary::build(&items, counts.len(), |i| i.0 as usize)
    }

    #[test]
    fn build_counts_by_category() {
        let s = summary(&[2, 0, 3]);
        assert_eq!(s.count(0), 2);
        assert_eq!(s.count(1), 0);
        assert_eq!(s.count(2), 3);
        assert_eq!(s.total(), 5);
        assert_eq!(s.categories(), 3);
        assert_eq!(s.count(99), 0, "out-of-range reads are zero");
    }

    #[test]
    fn total_is_the_count_sum() {
        for counts in [&[2, 0, 3][..], &[], &[0, 0], &[7; 50]] {
            let s = summary(counts);
            let sum: u64 = (0..s.categories()).map(|c| u64::from(s.count(c))).sum();
            assert_eq!(s.total(), sum, "{counts:?}");
        }
        let empty = CategorySummary::empty(50);
        assert_eq!(empty.total(), 0);
        assert_eq!(empty, summary(&[0; 50]), "empty == built from no items");
    }

    #[test]
    fn identical_profiles_have_similarity_one() {
        let a = summary(&[10, 5, 0, 1]);
        assert!((a.similarity(&a) - 1.0).abs() < 1e-12);
        // scale invariance of cosine
        let b = summary(&[20, 10, 0, 2]);
        assert!((a.similarity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_profiles_have_similarity_zero() {
        let a = summary(&[10, 0, 0]);
        let b = summary(&[0, 10, 0]);
        assert_eq!(a.similarity(&b), 0.0);
    }

    #[test]
    fn partial_overlap_in_between() {
        let a = summary(&[10, 10, 0]);
        let b = summary(&[10, 0, 10]);
        let s = a.similarity(&b);
        assert!(s > 0.0 && s < 1.0, "got {s}");
    }

    #[test]
    fn empty_similarity_is_zero() {
        let a = CategorySummary::empty(3);
        let b = summary(&[1, 2, 3]);
        assert_eq!(a.similarity(&b), 0.0);
        assert_eq!(b.similarity(&a), 0.0);
        assert_eq!(a.similarity(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dimensions_panic() {
        let a = CategorySummary::empty(3);
        let b = CategorySummary::empty(4);
        let _ = a.similarity(&b);
    }

    #[test]
    fn similarity_ignores_argument_order() {
        let a = summary(&[3, 1, 4, 1, 5]);
        let b = summary(&[2, 7, 1, 8, 2]);
        assert!((a.similarity(&b) - b.similarity(&a)).abs() < 1e-15);
    }
}
