//! Top-k overlapping ratio between two score functions (paper §2,
//! Fig 5.3).
//!
//! `TopKOverlappingRatio(S1, S2) = |P_{S1-TopK} ∩ P_{S2-TopK}| / K`,
//! where `P_{Sj-TopK}` is the set of papers with the k highest Sj
//! scores. The paper's tie rule: if papers tie with the kth paper's
//! score, they are all included, and the denominator becomes
//! `min(|P_{S1-TopK}|, |P_{S2-TopK}|)`.
//!
//! The experiments use top-k *percent* because deep contexts are much
//! smaller than shallow ones (an absolute k would bias them).

use std::collections::HashSet;

/// The paper-set of the k top-scored items, including everything tied
/// with the kth score.
fn top_k_set(scored: &[(u32, f64)], k: usize) -> HashSet<u32> {
    if k == 0 || scored.is_empty() {
        return HashSet::new();
    }
    let mut sorted: Vec<(u32, f64)> = scored.to_vec();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let k = k.min(sorted.len());
    let kth_score = sorted[k - 1].1;
    sorted
        .into_iter()
        .take_while(|&(_, s)| s >= kth_score)
        .map(|(id, _)| id)
        .collect()
}

/// Top-k overlapping ratio with the paper's tie handling.
pub fn top_k_overlap(s1: &[(u32, f64)], s2: &[(u32, f64)], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let t1 = top_k_set(s1, k);
    let t2 = top_k_set(s2, k);
    if t1.is_empty() || t2.is_empty() {
        return 0.0;
    }
    let inter = t1.intersection(&t2).count();
    let denom = if t1.len() > k || t2.len() > k {
        t1.len().min(t2.len())
    } else {
        k
    };
    inter as f64 / denom as f64
}

/// Top-k% overlapping ratio: `k = max(1, round(pct · n))` where `n` is
/// the (common) item count of the two score lists.
pub fn top_k_percent_overlap(s1: &[(u32, f64)], s2: &[(u32, f64)], pct: f64) -> f64 {
    let n = s1.len().max(s2.len());
    if n == 0 {
        return 0.0;
    }
    let k = ((pct * n as f64).round() as usize).max(1);
    top_k_overlap(s1, s2, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored(xs: &[(u32, f64)]) -> Vec<(u32, f64)> {
        xs.to_vec()
    }

    #[test]
    fn identical_rankings_overlap_fully() {
        let s = scored(&[(1, 0.9), (2, 0.8), (3, 0.7), (4, 0.1)]);
        assert_eq!(top_k_overlap(&s, &s, 2), 1.0);
    }

    #[test]
    fn disjoint_top_sets_overlap_zero() {
        let s1 = scored(&[(1, 0.9), (2, 0.8), (3, 0.1), (4, 0.1)]);
        let s2 = scored(&[(1, 0.1), (2, 0.1), (3, 0.9), (4, 0.8)]);
        assert_eq!(top_k_overlap(&s1, &s2, 2), 0.0);
    }

    #[test]
    fn partial_overlap() {
        let s1 = scored(&[(1, 0.9), (2, 0.8), (3, 0.1)]);
        let s2 = scored(&[(1, 0.9), (3, 0.8), (2, 0.1)]);
        assert_eq!(top_k_overlap(&s1, &s2, 2), 0.5);
    }

    #[test]
    fn ties_expand_the_set_and_adjust_denominator() {
        // s1 has a 3-way tie at the 2nd position: top-2 set = {1,2,3}.
        let s1 = scored(&[(1, 0.9), (2, 0.5), (3, 0.5), (4, 0.1)]);
        let s2 = scored(&[(1, 0.9), (2, 0.8), (3, 0.7), (4, 0.1)]);
        // t1 = {1,2,3} (|t1|=3 > k), t2 = {1,2}; denom = min(3,2) = 2.
        let r = top_k_overlap(&s1, &s2, 2);
        assert!((r - 1.0).abs() < 1e-12, "{r}");
    }

    #[test]
    fn all_tied_scores_include_everything() {
        let s1 = scored(&[(1, 0.5), (2, 0.5), (3, 0.5)]);
        let s2 = scored(&[(1, 0.9), (2, 0.8), (3, 0.7)]);
        // t1 = all 3, t2 = {1}; denom = min(3,1)=1; overlap {1}.
        assert_eq!(top_k_overlap(&s1, &s2, 1), 1.0);
    }

    #[test]
    fn k_larger_than_list_keeps_literal_denominator() {
        // Degenerate call (k > n): both top sets are the whole list but
        // the requested K stays the denominator, per the formula.
        let s = scored(&[(1, 0.9), (2, 0.8)]);
        assert!((top_k_overlap(&s, &s, 10) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn percent_variant_scales_with_size() {
        let s1: Vec<(u32, f64)> = (0..100).map(|i| (i, 1.0 - i as f64 / 100.0)).collect();
        let mut s2 = s1.clone();
        s2.reverse(); // same scores, same ids → same ranking actually
        assert_eq!(top_k_percent_overlap(&s1, &s2, 0.05), 1.0);
        let s3: Vec<(u32, f64)> = (0..100).map(|i| (i, i as f64 / 100.0)).collect();
        // Reversed ranking: top-5% sets disjoint.
        assert_eq!(top_k_percent_overlap(&s1, &s3, 0.05), 0.0);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(top_k_overlap(&[], &[], 3), 0.0);
        assert_eq!(top_k_percent_overlap(&[], &[], 0.1), 0.0);
        let s = scored(&[(1, 0.5)]);
        assert_eq!(top_k_overlap(&s, &[], 1), 0.0);
        assert_eq!(top_k_overlap(&s, &s, 0), 0.0);
    }

    /// Distinct ids with scores in 1/8ths: ties at the kth score are
    /// common, so the tie rule is exercised on most inputs.
    fn tie_heavy(raw: &[(u32, u8)]) -> Vec<(u32, f64)> {
        let mut seen = HashSet::new();
        raw.iter()
            .filter(|&&(id, _)| seen.insert(id))
            .map(|&(id, q)| (id, q as f64 / 8.0))
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn overlap_does_not_depend_on_input_order(
            raw1 in proptest::collection::vec((0u32..64, 0u8..=8), 0..48),
            raw2 in proptest::collection::vec((0u32..64, 0u8..=8), 0..48),
            pct_times_100 in 1u32..=50,
        ) {
            let (s1, s2) = (tie_heavy(&raw1), tie_heavy(&raw2));
            let pct = pct_times_100 as f64 / 100.0;
            let reversed = |s: &[(u32, f64)]| s.iter().rev().copied().collect::<Vec<_>>();
            proptest::prop_assert_eq!(
                top_k_percent_overlap(&s1, &s2, pct).to_bits(),
                top_k_percent_overlap(&reversed(&s1), &reversed(&s2), pct).to_bits()
            );
        }
    }
}
