//! Frequent contiguous phrase (n-gram) mining.
//!
//! The pattern-based score function (paper §3.3) builds its "significant
//! terms" from frequent terms/phrases in a context's training papers,
//! "combined using a procedure similar to the apriori algorithm" (paper
//! ref \[5\]). This module implements that: level-wise mining of contiguous
//! token sequences with document-level support, where the candidate
//! (n+1)-grams are generated only from frequent n-grams (the apriori
//! pruning property — every sub-phrase of a frequent phrase is frequent).

use crate::vocab::{FxHasher, TermId};
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

// The miner's keys are n-grams of corpus text, so its maps hash with
// FxHash; its output is sorted, so their order never shows.
type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// A mined phrase with its document-level support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentPhrase {
    /// The phrase as a contiguous token-id sequence (length ≥ 1).
    pub tokens: Vec<TermId>,
    /// Number of documents containing the phrase at least once.
    pub support: u32,
}

/// Mine phrases of length `1..=max_len` appearing in at least
/// `min_support` documents.
///
/// Results are sorted by descending support then ascending token
/// sequence, for deterministic output.
pub fn frequent_phrases(
    docs: &[Vec<TermId>],
    min_support: u32,
    max_len: usize,
) -> Vec<FrequentPhrase> {
    if max_len == 0 || docs.is_empty() {
        return Vec::new();
    }
    let mut result: Vec<FrequentPhrase> = Vec::new();

    // Level 1: unigram document frequencies.
    let mut frequent_prev: FxSet<Vec<TermId>> = FxSet::default();
    let mut counts: FxMap<Vec<TermId>, u32> = FxMap::default();
    let mut seen: FxSet<&[TermId]> = FxSet::default();
    for doc in docs {
        seen.clear();
        for unigram in doc.chunks(1) {
            if seen.insert(unigram) {
                count(&mut counts, unigram);
            }
        }
    }
    collect_level(&mut counts, min_support, &mut frequent_prev, &mut result);

    // Levels 2..=max_len: count candidate n-grams whose two (n-1)-length
    // sub-phrases are both frequent.
    for n in 2..=max_len {
        if frequent_prev.is_empty() {
            break;
        }
        let mut counts: FxMap<Vec<TermId>, u32> = FxMap::default();
        for doc in docs {
            seen.clear();
            for window in doc.windows(n) {
                if seen.contains(window) {
                    continue;
                }
                // Apriori pruning: both length-(n-1) sub-windows frequent.
                if !frequent_prev.contains(&window[..n - 1])
                    || !frequent_prev.contains(&window[1..])
                {
                    continue;
                }
                seen.insert(window);
                count(&mut counts, window);
            }
        }
        frequent_prev.clear();
        collect_level(&mut counts, min_support, &mut frequent_prev, &mut result);
    }

    result.sort_by(|a, b| b.support.cmp(&a.support).then(a.tokens.cmp(&b.tokens)));
    result
}

/// Count one more document holding `phrase`; the key is copied only
/// the first time.
fn count(counts: &mut FxMap<Vec<TermId>, u32>, phrase: &[TermId]) {
    match counts.get_mut(phrase) {
        Some(support) => *support += 1,
        None => {
            counts.insert(phrase.to_vec(), 1);
        }
    }
}

fn collect_level(
    counts: &mut FxMap<Vec<TermId>, u32>,
    min_support: u32,
    frequent: &mut FxSet<Vec<TermId>>,
    result: &mut Vec<FrequentPhrase>,
) {
    for (phrase, support) in counts.drain() {
        if support >= min_support {
            frequent.insert(phrase.clone());
            result.push(FrequentPhrase {
                tokens: phrase,
                support,
            });
        }
    }
}

/// Find all start positions where `needle` occurs contiguously in
/// `haystack`.
pub fn find_occurrences(haystack: &[TermId], needle: &[TermId]) -> Vec<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return Vec::new();
    }
    haystack
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| *w == needle)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<TermId> {
        xs.iter().map(|&x| TermId(x)).collect()
    }

    #[test]
    fn unigrams_counted_per_document() {
        let docs = vec![ids(&[1, 1, 2]), ids(&[1, 3])];
        let phrases = frequent_phrases(&docs, 2, 1);
        assert_eq!(phrases.len(), 1);
        assert_eq!(phrases[0].tokens, ids(&[1]));
        assert_eq!(phrases[0].support, 2);
    }

    #[test]
    fn bigrams_require_frequent_parts() {
        // "1 2" occurs in both docs; "3 4" only in one.
        let docs = vec![ids(&[1, 2, 3, 4]), ids(&[1, 2, 5])];
        let phrases = frequent_phrases(&docs, 2, 2);
        let bigrams: Vec<_> = phrases.iter().filter(|p| p.tokens.len() == 2).collect();
        assert_eq!(bigrams.len(), 1);
        assert_eq!(bigrams[0].tokens, ids(&[1, 2]));
    }

    #[test]
    fn trigram_mining() {
        let docs = vec![ids(&[1, 2, 3]), ids(&[0, 1, 2, 3]), ids(&[1, 2, 3, 9])];
        let phrases = frequent_phrases(&docs, 3, 3);
        assert!(phrases.iter().any(|p| p.tokens == ids(&[1, 2, 3])));
    }

    #[test]
    fn support_is_document_level() {
        // Phrase repeated many times in one doc still counts support 1.
        let docs = vec![ids(&[7, 8, 7, 8, 7, 8])];
        let phrases = frequent_phrases(&docs, 1, 2);
        let p = phrases.iter().find(|p| p.tokens == ids(&[7, 8])).unwrap();
        assert_eq!(p.support, 1);
    }

    #[test]
    fn empty_inputs() {
        assert!(frequent_phrases(&[], 1, 3).is_empty());
        assert!(frequent_phrases(&[ids(&[1])], 1, 0).is_empty());
        let none = frequent_phrases(&[ids(&[])], 1, 2);
        assert!(none.is_empty());
    }

    #[test]
    fn find_occurrences_finds_all() {
        let hay = ids(&[1, 2, 1, 2, 1]);
        assert_eq!(find_occurrences(&hay, &ids(&[1, 2])), vec![0, 2]);
        assert_eq!(find_occurrences(&hay, &ids(&[2, 1])), vec![1, 3]);
        assert!(find_occurrences(&hay, &ids(&[9])).is_empty());
        assert!(find_occurrences(&hay, &ids(&[])).is_empty());
    }

    proptest::proptest! {
        /// Apriori downward-closure: every sub-phrase of a reported
        /// frequent phrase must itself be frequent with >= support.
        #[test]
        fn downward_closure(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 0..12), 1..8),
            min_support in 1u32..3,
        ) {
            let docs: Vec<Vec<TermId>> = docs.iter().map(|d| ids(d)).collect();
            let phrases = frequent_phrases(&docs, min_support, 3);
            let by_tokens: HashMap<&[TermId], u32> =
                phrases.iter().map(|p| (p.tokens.as_slice(), p.support)).collect();
            for p in &phrases {
                if p.tokens.len() >= 2 {
                    let left = &p.tokens[..p.tokens.len() - 1];
                    let right = &p.tokens[1..];
                    proptest::prop_assert!(by_tokens.get(left).copied().unwrap_or(0) >= p.support);
                    proptest::prop_assert!(by_tokens.get(right).copied().unwrap_or(0) >= p.support);
                }
            }
        }
    }
}
