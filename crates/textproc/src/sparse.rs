//! Sparse term-weight vectors.
//!
//! The workhorse data structure for all text similarity in the paper:
//! documents, document sections, queries, and context centroids are all
//! sparse vectors over [`TermId`]s, compared with cosine similarity.
//!
//! Entries are kept sorted by term id, which makes dot products linear
//! merges and keeps construction allocation-friendly.

use crate::vocab::TermId;
use serde::{Deserialize, Serialize};

/// A sparse vector of `(term, weight)` entries, sorted by term id with no
/// duplicate terms and no explicitly stored zeros.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SparseVector {
    entries: Vec<(TermId, f64)>,
}

impl SparseVector {
    /// The empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unsorted (possibly duplicated) pairs; duplicate term
    /// weights are summed, zero weights dropped.
    pub fn from_pairs(mut pairs: Vec<(TermId, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(t, _)| t);
        let mut entries: Vec<(TermId, f64)> = Vec::with_capacity(pairs.len());
        for (t, w) in pairs {
            match entries.last_mut() {
                Some((lt, lw)) if *lt == t => *lw += w,
                _ => entries.push((t, w)),
            }
        }
        entries.retain(|&(_, w)| w != 0.0);
        Self { entries }
    }

    /// Build a term-frequency vector by counting `terms`: sort a copy,
    /// then count each run. The entries are allocated at their exact
    /// final length.
    pub fn from_counts(terms: &[TermId]) -> Self {
        let mut sorted = terms.to_vec();
        sorted.sort_unstable();
        let distinct = sorted.chunk_by(|a, b| a == b).count();
        let mut entries = Vec::with_capacity(distinct);
        entries.extend(
            sorted
                .chunk_by(|a, b| a == b)
                .filter_map(|run| Some((*run.first()?, run.len() as f64))),
        );
        Self { entries }
    }

    /// Replace each weight `w` of term `t` with `f(t, w)`, in term
    /// order, and drop the entries that become zero.
    pub(crate) fn map_weights(&mut self, mut f: impl FnMut(TermId, f64) -> f64) {
        for (t, w) in &mut self.entries {
            *w = f(*t, *w);
        }
        let len = self.entries.len();
        self.entries.retain(|&(_, w)| w != 0.0);
        if self.entries.len() < len {
            self.entries.shrink_to_fit();
        }
    }

    /// The entries, sorted by term id.
    pub fn entries(&self) -> &[(TermId, f64)] {
        &self.entries
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True if the vector has no non-zero entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight of `term` (0.0 if absent).
    pub fn get(&self, term: TermId) -> f64 {
        match self.entries.binary_search_by_key(&term, |&(t, _)| t) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Sum of weights (L1 mass for non-negative vectors).
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w).sum()
    }

    /// Dot product by sorted merge: O(nnz(a) + nnz(b)).
    pub fn dot(&self, other: &Self) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Cosine similarity; 0.0 when either vector is empty or zero-norm.
    pub fn cosine(&self, other: &Self) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            (self.dot(other) / denom).clamp(-1.0, 1.0)
        }
    }

    /// In-place scale by `factor`.
    pub fn scale(&mut self, factor: f64) {
        if factor == 0.0 {
            self.entries.clear();
            return;
        }
        for (_, w) in &mut self.entries {
            *w *= factor;
        }
    }

    /// Element-wise sum of two vectors.
    pub fn add(&self, other: &Self) -> Self {
        let (a, b) = (&self.entries, &other.entries);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let w = a[i].1 + b[j].1;
                    if w != 0.0 {
                        out.push((a[i].0, w));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Self { entries: out }
    }

    /// Normalize to unit L2 norm (no-op on zero vectors).
    pub fn normalized(&self) -> Self {
        let mut v = self.clone();
        v.normalize();
        v
    }

    /// Scale in place to unit L2 norm (no-op on zero vectors).
    pub(crate) fn normalize(&mut self) {
        let n = self.norm();
        if n != 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// Centroid (arithmetic mean) of a set of vectors; empty input gives
    /// the empty vector. Used by the AC-answer-set text expansion.
    pub fn centroid<'a>(vectors: impl IntoIterator<Item = &'a SparseVector>) -> Self {
        let mut acc = SparseVector::new();
        let mut n = 0usize;
        for v in vectors {
            acc = acc.add(v);
            n += 1;
        }
        if n > 0 {
            acc.scale(1.0 / n as f64);
        }
        acc
    }

    /// Iterate over term ids present in the vector.
    pub fn terms(&self) -> impl Iterator<Item = TermId> + '_ {
        self.entries.iter().map(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)).collect())
    }

    #[test]
    fn from_pairs_sorts_merges_and_drops_zeros() {
        let a = v(&[(3, 1.0), (1, 2.0), (3, 2.0), (2, 0.0)]);
        assert_eq!(a.entries(), &[(TermId(1), 2.0), (TermId(3), 3.0)]);
    }

    #[test]
    fn from_counts_counts() {
        let terms = vec![TermId(5), TermId(2), TermId(5), TermId(5)];
        let a = SparseVector::from_counts(&terms);
        assert_eq!(a.get(TermId(5)), 3.0);
        assert_eq!(a.get(TermId(2)), 1.0);
        assert_eq!(a.get(TermId(7)), 0.0);
    }

    #[test]
    fn from_counts_is_sorted_and_exact() {
        let a = SparseVector::from_counts(&[TermId(9), TermId(1), TermId(9), TermId(4)]);
        assert_eq!(
            a.entries(),
            &[(TermId(1), 1.0), (TermId(4), 1.0), (TermId(9), 2.0)]
        );
        assert_eq!(a.entries.capacity(), 3);
        assert!(SparseVector::from_counts(&[]).is_empty());
    }

    #[test]
    fn map_weights_drops_zeros_and_keeps_exact_length() {
        let mut a = v(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        a.map_weights(|t, w| if t == TermId(2) { 0.0 } else { w * 10.0 });
        assert_eq!(a.entries(), &[(TermId(1), 10.0), (TermId(3), 30.0)]);
        assert_eq!(a.entries.capacity(), 2);
    }

    #[test]
    fn dot_of_disjoint_is_zero() {
        let a = v(&[(1, 1.0), (3, 1.0)]);
        let b = v(&[(2, 5.0), (4, 5.0)]);
        assert_eq!(a.dot(&b), 0.0);
    }

    #[test]
    fn cosine_of_identical_is_one() {
        let a = v(&[(1, 2.0), (7, 3.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_empty_is_zero() {
        let a = v(&[(1, 2.0)]);
        let e = SparseVector::new();
        assert_eq!(a.cosine(&e), 0.0);
        assert_eq!(e.cosine(&e), 0.0);
    }

    #[test]
    fn add_merges() {
        let a = v(&[(1, 1.0), (2, 1.0)]);
        let b = v(&[(2, 2.0), (3, 3.0)]);
        let c = a.add(&b);
        assert_eq!(
            c.entries(),
            &[(TermId(1), 1.0), (TermId(2), 3.0), (TermId(3), 3.0)]
        );
    }

    #[test]
    fn add_cancellation_removes_entry() {
        let a = v(&[(1, 1.0)]);
        let b = v(&[(1, -1.0)]);
        assert!(a.add(&b).is_empty());
    }

    #[test]
    fn centroid_averages() {
        let a = v(&[(1, 2.0)]);
        let b = v(&[(1, 4.0), (2, 2.0)]);
        let c = SparseVector::centroid([&a, &b]);
        assert_eq!(c.get(TermId(1)), 3.0);
        assert_eq!(c.get(TermId(2)), 1.0);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let a = v(&[(1, 3.0), (2, 4.0)]);
        assert!((a.normalized().norm() - 1.0).abs() < 1e-12);
    }

    proptest::proptest! {
        #[test]
        fn cosine_is_symmetric_and_bounded(
            xs in proptest::collection::vec((0u32..50, 0.1f64..10.0), 0..20),
            ys in proptest::collection::vec((0u32..50, 0.1f64..10.0), 0..20),
        ) {
            let a = v(&xs.iter().map(|&(t, w)| (t, w)).collect::<Vec<_>>());
            let b = v(&ys.iter().map(|&(t, w)| (t, w)).collect::<Vec<_>>());
            let ab = a.cosine(&b);
            let ba = b.cosine(&a);
            proptest::prop_assert!((ab - ba).abs() < 1e-12);
            proptest::prop_assert!((0.0..=1.0).contains(&ab));
        }

        #[test]
        fn dot_matches_naive(
            xs in proptest::collection::vec((0u32..30, -5.0f64..5.0), 0..20),
            ys in proptest::collection::vec((0u32..30, -5.0f64..5.0), 0..20),
        ) {
            let a = v(&xs);
            let b = v(&ys);
            let naive: f64 = (0..30).map(|t| a.get(TermId(t)) * b.get(TermId(t))).sum();
            proptest::prop_assert!((a.dot(&b) - naive).abs() < 1e-9);
        }

        #[test]
        fn add_is_commutative(
            xs in proptest::collection::vec((0u32..30, -5.0f64..5.0), 0..20),
            ys in proptest::collection::vec((0u32..30, -5.0f64..5.0), 0..20),
        ) {
            let a = v(&xs);
            let b = v(&ys);
            proptest::prop_assert_eq!(a.add(&b), b.add(&a));
        }
    }
}
