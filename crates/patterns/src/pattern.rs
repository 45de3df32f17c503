//! Pattern type and regular-pattern construction.
//!
//! A regular pattern is the paper's ⟨left, middle, right⟩ triple: the
//! middle tuple is a significant-term word sequence, the left and right
//! tuples are the word *sets* observed around its occurrences in the
//! context's training papers (window of `window` words each side).

use crate::join;
use crate::score::{regular_pattern_score, total_term_score, RegularScoreInputs, Selectivity};
use crate::sigterms::SignificantPhrase;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::BuildHasherDefault;
use textproc::{FxHasher, TermId};

// Keyed by phrases of corpus text, never by a request.
type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// How a pattern was constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Directly from a significant phrase's occurrences.
    Regular,
    /// Side-joined from two patterns with right/left tuple overlap.
    SideJoined,
    /// Middle-joined from two patterns with middle/side tuple overlap.
    MiddleJoined,
}

/// One ⟨left, middle, right⟩ pattern with its score.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// Word set observed immediately left of the middle.
    pub left: BTreeSet<TermId>,
    /// The middle tuple: a contiguous word sequence.
    pub middle: Vec<TermId>,
    /// Word set observed immediately right of the middle.
    pub right: BTreeSet<TermId>,
    /// Construction kind.
    pub kind: PatternKind,
    /// The pattern's score (unnormalized; context-level max-normalization
    /// happens in the prestige function).
    pub score: f64,
}

/// Configuration for pattern construction.
#[derive(Debug, Clone)]
pub struct PatternConfig {
    /// Words captured on each side of a middle occurrence.
    pub window: usize,
    /// Minimum training-document support for mined frequent phrases.
    pub min_support: u32,
    /// Maximum mined phrase length.
    pub max_phrase_len: usize,
    /// The paper's `t` exponent on `1/PaperCoverage`.
    pub coverage_exponent: f64,
    /// The paper's `c` weight on the frequency terms.
    pub freq_weight: f64,
    /// Keep at most this many regular patterns (best-scored first).
    pub max_regular: usize,
    /// Construct at most this many extended patterns.
    pub max_extended: usize,
}

impl Default for PatternConfig {
    fn default() -> Self {
        Self {
            window: 2,
            min_support: 2,
            max_phrase_len: 4,
            coverage_exponent: 0.35,
            freq_weight: 0.5,
            max_regular: 48,
            max_extended: 32,
        }
    }
}

/// Build the scored pattern set of one context.
///
/// * `significant` — from [`crate::sigterms::extract_significant_terms`],
/// * `context_words` — analyzed context-term name tokens,
/// * `training_docs` — analyzed training-paper token streams,
/// * `selectivity` — word selectivity across all context names,
/// * `coverage_of` — estimator of the fraction of *all database* papers
///   containing a middle tuple (the caller supplies it since only the
///   full corpus index can answer; a min-unigram-DF estimate is fine),
/// * `config` — knobs.
///
/// Regular patterns are built first, then extended patterns are joined
/// from the regular ones ([`crate::join`]). Output is sorted by
/// descending score.
///
/// One pass over the training papers counts every significant phrase,
/// the best `max_regular` are kept, and a second pass collects the side
/// windows of those alone. A phrase listed twice gets the same counts
/// and windows on each copy; an empty phrase occurs nowhere.
pub fn build_patterns(
    significant: &[SignificantPhrase],
    context_words: &[TermId],
    training_docs: &[Vec<TermId>],
    selectivity: &Selectivity,
    coverage_of: &dyn Fn(&[TermId]) -> f64,
    config: &PatternConfig,
) -> Vec<Pattern> {
    let context_set: HashSet<TermId> = context_words.iter().copied().collect();
    let n_training = training_docs.len();
    let (slots, counts) = count_phrases(significant, training_docs);
    let mut ctx_selectivities: Vec<f64> = Vec::new();
    let scores: Vec<f64> = significant
        .iter()
        .zip(&slots)
        .map(|(phrase, &slot)| {
            let count = &counts[slot];
            ctx_selectivities.clear();
            ctx_selectivities.extend(
                phrase
                    .tokens
                    .iter()
                    .filter(|t| context_set.contains(t))
                    .map(|&t| selectivity.selectivity(t)),
            );
            let inputs = RegularScoreInputs {
                source: phrase.source,
                total_term_score: total_term_score(&ctx_selectivities),
                occurrences: count.occurrences,
                training_paper_fraction: if n_training == 0 {
                    0.0
                } else {
                    count.papers as f64 / n_training as f64
                },
                coverage: coverage_of(&phrase.tokens),
            };
            regular_pattern_score(&inputs, config.coverage_exponent, config.freq_weight)
        })
        .collect();

    // The order `sort_by_score` gives these patterns: a stable sort
    // under the same comparator, over the same input order.
    let mut kept: Vec<usize> = (0..significant.len()).collect();
    kept.sort_by(|&a, &b| {
        score_order(
            (scores[a], &significant[a].tokens),
            (scores[b], &significant[b].tokens),
        )
    });
    kept.truncate(config.max_regular);
    let middles: Vec<&[TermId]> = kept
        .iter()
        .map(|&i| significant[i].tokens.as_slice())
        .collect();
    let sides = side_windows(&middles, training_docs, config.window);
    let mut patterns: Vec<Pattern> = kept
        .iter()
        .zip(sides)
        .map(|(&i, (left, right))| Pattern {
            left,
            middle: significant[i].tokens.clone(),
            right,
            kind: PatternKind::Regular,
            score: scores[i],
        })
        .collect();

    let extended = join::extend_patterns(&patterns, config.max_extended);
    patterns.extend(extended);
    sort_by_score(&mut patterns);
    patterns
}

/// Occurrences of one phrase in the training papers, overlapping ones
/// included, and the papers holding at least one.
#[derive(Clone, Copy, Default)]
struct PhraseCount {
    occurrences: u32,
    papers: u32,
    /// One past the index of the last paper counted in `papers`.
    last_paper: usize,
}

/// Slot each distinct phrase of `phrases` in a map keyed by its tokens:
/// `slots[i]` is phrase `i`'s, shared by its repeats. Also the distinct
/// non-zero phrase lengths, ascending: context-name phrases can be
/// longer than the miner's `max_phrase_len`.
fn slot_phrases<'p>(
    phrases: impl IntoIterator<Item = &'p [TermId]>,
) -> (FxMap<&'p [TermId], usize>, Vec<usize>, Vec<usize>) {
    let mut slot_of: FxMap<&[TermId], usize> = FxMap::default();
    let slots: Vec<usize> = phrases
        .into_iter()
        .map(|tokens| {
            let next = slot_of.len();
            *slot_of.entry(tokens).or_insert(next)
        })
        .collect();
    let mut lengths: Vec<usize> = slot_of.keys().map(|t| t.len()).filter(|&n| n > 0).collect();
    lengths.sort_unstable();
    lengths.dedup();
    (slot_of, slots, lengths)
}

/// Call `hit(slot, doc, start, len)` for every occurrence in `docs` of
/// a phrase of `slot_of`, overlapping ones included: at each start
/// position, the window of each length in `lengths` (ascending) is
/// looked up once.
fn for_each_occurrence(
    docs: &[Vec<TermId>],
    slot_of: &FxMap<&[TermId], usize>,
    lengths: &[usize],
    mut hit: impl FnMut(usize, usize, usize, usize),
) {
    for (d, doc) in docs.iter().enumerate() {
        for start in 0..doc.len() {
            let rest = &doc[start..];
            for &len in lengths {
                let Some(window) = rest.get(..len) else { break };
                if let Some(&slot) = slot_of.get(window) {
                    hit(slot, d, start, len);
                }
            }
        }
    }
}

/// Count every significant phrase in the training papers in one pass:
/// each phrase's slot, and the counts by slot.
fn count_phrases(
    significant: &[SignificantPhrase],
    training_docs: &[Vec<TermId>],
) -> (Vec<usize>, Vec<PhraseCount>) {
    let (slot_of, slots, lengths) = slot_phrases(significant.iter().map(|p| p.tokens.as_slice()));
    let mut counts = vec![PhraseCount::default(); slot_of.len()];
    for_each_occurrence(training_docs, &slot_of, &lengths, |slot, d, _, _| {
        let count = &mut counts[slot];
        count.occurrences += 1;
        if count.last_paper != d + 1 {
            count.last_paper = d + 1;
            count.papers += 1;
        }
    });
    (slots, counts)
}

/// The left and right word sets seen within `window` words of every
/// occurrence of each of `middles` in the training papers, in the order
/// of `middles`.
fn side_windows(
    middles: &[&[TermId]],
    training_docs: &[Vec<TermId>],
    window: usize,
) -> Vec<(BTreeSet<TermId>, BTreeSet<TermId>)> {
    let (slot_of, slots, lengths) = slot_phrases(middles.iter().copied());
    let mut sides = vec![(BTreeSet::new(), BTreeSet::new()); slot_of.len()];
    for_each_occurrence(training_docs, &slot_of, &lengths, |slot, d, start, len| {
        let doc = &training_docs[d];
        let (left, right) = &mut sides[slot];
        left.extend(doc[start.saturating_sub(window)..start].iter().copied());
        let end = start + len;
        right.extend(doc[end..(end + window).min(doc.len())].iter().copied());
    });
    // A repeated middle's earlier copies take clones; its last copy
    // takes the sets.
    let mut last_user = vec![0; sides.len()];
    for (k, &slot) in slots.iter().enumerate() {
        last_user[slot] = k;
    }
    slots
        .iter()
        .enumerate()
        .map(|(k, &slot)| {
            if last_user[slot] == k {
                std::mem::take(&mut sides[slot])
            } else {
                sides[slot].clone()
            }
        })
        .collect()
}

pub(crate) fn sort_by_score(patterns: &mut [Pattern]) {
    patterns.sort_by(|a, b| score_order((a.score, &a.middle), (b.score, &b.middle)));
}

/// Descending score, then ascending middle.
fn score_order(a: (f64, &[TermId]), b: (f64, &[TermId])) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then_with(|| a.1.cmp(b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sigterms::extract_significant_terms;

    fn ids(xs: &[u32]) -> Vec<TermId> {
        xs.iter().map(|&x| TermId(x)).collect()
    }

    fn uniform_coverage(_: &[TermId]) -> f64 {
        0.1
    }

    fn build(context: &[u32], docs: &[Vec<TermId>], config: &PatternConfig) -> Vec<Pattern> {
        let ctx = ids(context);
        let sig = extract_significant_terms(&ctx, docs, config.min_support, config.max_phrase_len);
        let sel = Selectivity::new([ctx.as_slice()]);
        build_patterns(&sig, &ctx, docs, &sel, &uniform_coverage, config)
    }

    #[test]
    fn captures_surrounding_windows() {
        // Context word 5 occurs as "... 1 2 [5] 3 4 ..." in training.
        let docs = vec![ids(&[1, 2, 5, 3, 4]), ids(&[9, 1, 5, 3, 8])];
        let ps = build(&[5], &docs, &PatternConfig::default());
        let p = ps
            .iter()
            .find(|p| p.middle == ids(&[5]) && p.kind == PatternKind::Regular)
            .expect("middle [5]");
        assert!(p.left.contains(&TermId(1)));
        assert!(p.left.contains(&TermId(2)));
        assert!(p.right.contains(&TermId(3)));
        assert!(p.right.contains(&TermId(4)));
        assert!(p.right.contains(&TermId(8)));
    }

    #[test]
    fn window_is_bounded() {
        let docs = vec![ids(&[1, 2, 3, 4, 5, 6, 7, 8, 9])];
        let ps = build(
            &[5],
            &docs,
            &PatternConfig {
                window: 1,
                ..Default::default()
            },
        );
        let p = ps.iter().find(|p| p.middle == ids(&[5])).unwrap();
        assert_eq!(p.left.iter().copied().collect::<Vec<_>>(), ids(&[4]));
        assert_eq!(p.right.iter().copied().collect::<Vec<_>>(), ids(&[6]));
    }

    #[test]
    fn patterns_sorted_by_score() {
        let docs = vec![
            ids(&[1, 5, 2, 7, 7]),
            ids(&[1, 5, 3, 7, 7]),
            ids(&[1, 5, 4]),
        ];
        let ps = build(&[5], &docs, &PatternConfig::default());
        for w in ps.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert!(!ps.is_empty());
    }

    #[test]
    fn context_phrase_without_training_still_patterns() {
        // No training docs at all: the context's own words become a
        // pattern with empty sides — the basis of the paper's
        // "simplified pattern" context assignment (§4).
        let ps = build(&[5, 6], &[], &PatternConfig::default());
        assert!(ps.iter().any(|p| p.middle == ids(&[5, 6])));
        for p in &ps {
            assert!(p.left.is_empty() && p.right.is_empty());
            assert!(p.score > 0.0);
        }
    }

    #[test]
    fn truncation_respects_max_regular() {
        let docs: Vec<Vec<TermId>> = (0..6).map(|i| ids(&[i, i + 1, 5, i + 2, i + 3])).collect();
        let ps = build(
            &[5],
            &docs,
            &PatternConfig {
                max_regular: 2,
                max_extended: 0,
                min_support: 1,
                ..Default::default()
            },
        );
        assert!(ps.len() <= 2);
    }

    #[test]
    fn rarer_context_words_score_higher() {
        // Two contexts sharing selectivity data: word 1 appears in both
        // names, word 2 in one.
        let names = [ids(&[1, 2]), ids(&[1, 3])];
        let sel = Selectivity::new(names.iter().map(Vec::as_slice));
        let docs = vec![ids(&[9, 1, 8]), ids(&[9, 2, 8])];
        let ctx = ids(&[1, 2]);
        let sig = extract_significant_terms(&ctx, &docs, 2, 3);
        let ps = build_patterns(
            &sig,
            &ctx,
            &docs,
            &sel,
            &uniform_coverage,
            &Default::default(),
        );
        let score_of = |mid: &[u32]| {
            ps.iter()
                .find(|p| p.middle == ids(mid))
                .map(|p| p.score)
                .unwrap()
        };
        assert!(
            score_of(&[2]) > score_of(&[1]),
            "more selective context word must outscore"
        );
    }
}
