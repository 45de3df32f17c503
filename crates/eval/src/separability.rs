//! Separability: score-distribution uniformity within a context (paper
//! §2, §5.2, Figs 5.4–5.7).
//!
//! Scores in a context (assumed in [0, 1]) are divided into `n` equal
//! ranges; with perfect separability each range holds `100/n` percent
//! of the papers. The paper's statistic is
//! `SD = sqrt((1/n) Σ (X_i − 100/n)²)` with `X_i` the percentage of
//! papers in range `i`. SD near 0 ⇒ uniform (good); a score function
//! that assigns many identical scores piles everything into one bin and
//! gets a large SD (the citation-based function's failure mode on
//! sparse context graphs).

/// The paper's separability standard deviation of one context's scores,
/// using `n_bins` equal ranges over [0, 1]. Scores outside [0, 1] are
/// clamped. Returns 0.0 for an empty context (nothing to separate).
pub fn separability_sd(scores: &[f64], n_bins: usize) -> f64 {
    assert!(n_bins >= 1, "need at least one bin");
    let mut counts = vec![0u64; n_bins];
    for &s in scores {
        counts[separability_bin(s, n_bins)] += 1;
    }
    separability_sd_of_counts(&counts)
}

/// The range, of `n_bins` (at least 1) equal ranges over [0, 1], that
/// `score` falls in: clamped to [0, 1], and a score of exactly 1.0 in
/// the last range.
pub fn separability_bin(score: f64, n_bins: usize) -> usize {
    let bin = (score.clamp(0.0, 1.0) * n_bins as f64) as usize;
    bin.min(n_bins - 1)
}

/// The separability SD from the per-range counts [`separability_bin`]
/// gives (`counts.len()` ranges); 0.0 when every count is 0.
pub fn separability_sd_of_counts(counts: &[u64]) -> f64 {
    let n_bins = counts.len();
    let total = counts.iter().sum::<u64>();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    let expected = 100.0 / n_bins as f64;
    let var = counts
        .iter()
        .map(|&c| {
            let pct = 100.0 * c as f64 / total;
            (pct - expected) * (pct - expected)
        })
        .sum::<f64>()
        / n_bins as f64;
    var.sqrt()
}

/// Histogram of per-context SDs: percentage of contexts whose SD falls
/// in each `bucket_width`-wide bucket over `[0, max_sd]`; the last
/// bucket absorbs anything larger. Returns (bucket upper edges, pct).
pub fn sd_histogram(context_sds: &[f64], bucket_width: f64, max_sd: f64) -> (Vec<f64>, Vec<f64>) {
    assert!(bucket_width > 0.0 && max_sd > 0.0);
    let n_buckets = (max_sd / bucket_width).ceil() as usize;
    let mut counts = vec![0usize; n_buckets];
    for &sd in context_sds {
        let mut b = (sd / bucket_width) as usize;
        if b >= n_buckets {
            b = n_buckets - 1;
        }
        counts[b] += 1;
    }
    let total = context_sds.len().max(1) as f64;
    let edges: Vec<f64> = (1..=n_buckets).map(|i| i as f64 * bucket_width).collect();
    let pct: Vec<f64> = counts.iter().map(|&c| 100.0 * c as f64 / total).collect();
    (edges, pct)
}

/// The theoretical worst-case SD for `n_bins` (everything in one bin):
/// useful to sanity-check ranges in tests and plots.
pub fn worst_case_sd(n_bins: usize) -> f64 {
    let n = n_bins as f64;
    let expected = 100.0 / n;
    // One bin holds 100%, the rest 0%.
    (((100.0 - expected) * (100.0 - expected) + (n - 1.0) * expected * expected) / n).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_scores_have_zero_sd() {
        // 10 scores hitting each of 10 bins once.
        let scores: Vec<f64> = (0..10).map(|i| (i as f64 + 0.5) / 10.0).collect();
        assert!(separability_sd(&scores, 10) < 1e-9);
    }

    #[test]
    fn identical_scores_have_worst_sd() {
        let scores = vec![0.5; 100];
        let sd = separability_sd(&scores, 10);
        assert!((sd - worst_case_sd(10)).abs() < 1e-9);
        assert!(sd > 28.0, "worst case for 10 bins is 30: {sd}");
    }

    #[test]
    fn sd_monotone_in_concentration() {
        let uniform: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let half: Vec<f64> = (0..100).map(|i| 0.5 * i as f64 / 100.0).collect();
        let point = vec![0.1; 100];
        let a = separability_sd(&uniform, 10);
        let b = separability_sd(&half, 10);
        let c = separability_sd(&point, 10);
        assert!(a < b && b < c, "{a} < {b} < {c}");
    }

    #[test]
    fn score_one_lands_in_last_bin() {
        let sd = separability_sd(&[1.0], 10);
        assert!(sd.is_finite());
    }

    #[test]
    fn empty_context_is_zero() {
        assert_eq!(separability_sd(&[], 10), 0.0);
    }

    #[test]
    fn out_of_range_scores_are_clamped() {
        let sd = separability_sd(&[-0.5, 1.5, 2.0], 10);
        assert!(sd.is_finite());
    }

    #[test]
    fn histogram_percentages_sum_to_100() {
        let sds = vec![2.0, 7.0, 12.0, 33.0, 99.0];
        let (edges, pct) = sd_histogram(&sds, 5.0, 40.0);
        assert_eq!(edges.len(), 8);
        assert!((pct.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        // 99.0 lands in the last bucket.
        assert!(pct[7] > 0.0);
    }

    #[test]
    fn histogram_buckets_are_correct() {
        let sds = vec![0.0, 4.9, 5.0, 9.9];
        let (_, pct) = sd_histogram(&sds, 5.0, 10.0);
        assert!((pct[0] - 50.0).abs() < 1e-9);
        assert!((pct[1] - 50.0).abs() < 1e-9);
    }

    proptest::proptest! {
        #[test]
        fn sd_bounded_by_worst_case(
            scores in proptest::collection::vec(0.0f64..=1.0, 1..200),
        ) {
            let sd = separability_sd(&scores, 10);
            proptest::prop_assert!(sd >= -1e-9);
            proptest::prop_assert!(sd <= worst_case_sd(10) + 1e-9);
        }
    }
}
