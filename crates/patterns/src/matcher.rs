//! Pattern ↔ paper matching and the pattern-based paper score.
//!
//! Paper §3.3: `Score(P) = Σ_{pt ∈ Ptr(P)} Score(pt) · M(P, pt)` where
//! `Ptr(P)` are the patterns matching paper `P`, and the matching
//! strength `M(P, pt)` is influenced by (1) the paper *section*
//! containing the match and (2) the similarity between the pattern and
//! the matching phrase — here, the fidelity of the words surrounding
//! the occurrence to the pattern's left/right tuples.

use crate::pattern::Pattern;
use std::collections::HashSet;
use textproc::phrase::find_occurrences;
use textproc::TermId;

/// A paper's sections as token streams, in the shape the matcher needs.
#[derive(Debug, Clone, Copy)]
pub struct SectionTokens<'a> {
    /// Title tokens.
    pub title: &'a [TermId],
    /// Abstract tokens.
    pub abstract_text: &'a [TermId],
    /// Body tokens.
    pub body: &'a [TermId],
    /// Index-term tokens.
    pub index_terms: &'a [TermId],
}

impl<'a> SectionTokens<'a> {
    /// The four streams in `section_weights` order.
    fn all(&self) -> [&'a [TermId]; 4] {
        [self.title, self.abstract_text, self.body, self.index_terms]
    }
}

/// Matching configuration.
#[derive(Debug, Clone)]
pub struct MatcherConfig {
    /// Section weights: a title or index-term match signals more than a
    /// body mention. Order: title, abstract, body, index terms.
    pub section_weights: [f64; 4],
    /// Words inspected on each side of an occurrence for left/right
    /// tuple fidelity.
    pub window: usize,
    /// Weight of surrounding-context fidelity inside `M` (0 ⇒ only the
    /// section matters, 1 ⇒ only fidelity).
    pub context_weight: f64,
    /// The simplified §4 variant: match middles only, ignoring
    /// left/right tuples entirely (used for the pattern-based context
    /// paper set).
    pub middle_only: bool,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        Self {
            section_weights: [1.0, 0.75, 0.5, 0.9],
            window: 2,
            context_weight: 0.4,
            middle_only: false,
        }
    }
}

/// Matching strength `M(P, pt)` of one pattern against one paper: the
/// best occurrence quality across all sections, 0.0 if the pattern's
/// middle never occurs. In the middle-only variant that is
/// [`middle_only_strength`] of the sections the middle occurs in.
pub fn match_strength(
    pattern: &Pattern,
    sections: &SectionTokens<'_>,
    config: &MatcherConfig,
) -> f64 {
    let streams = sections.all();
    if config.middle_only {
        let mut mask = 0u8;
        for (i, tokens) in streams.iter().enumerate() {
            if !find_occurrences(tokens, &pattern.middle).is_empty() {
                mask |= 1 << i;
            }
        }
        return middle_only_strength(mask, config);
    }
    let mut best = 0.0f64;
    for (tokens, weight) in streams.into_iter().zip(config.section_weights) {
        if weight <= 0.0 || tokens.len() < pattern.middle.len() {
            continue;
        }
        for start in find_occurrences(tokens, &pattern.middle) {
            let fidelity = side_fidelity(pattern, tokens, start, config.window);
            let quality = occurrence_quality(weight, fidelity, config);
            if quality > best {
                best = quality;
            }
        }
    }
    best
}

/// Middle-only matching strength (the simplified §4 variant) of a
/// middle that occurs in the sections of `mask`: bit `i` is section `i`
/// of [`MatcherConfig::section_weights`] (title, abstract, body, index
/// terms). The best weighted section wins; an empty mask gives 0.0.
pub fn middle_only_strength(mask: u8, config: &MatcherConfig) -> f64 {
    let mut best = 0.0f64;
    for (i, weight) in config.section_weights.into_iter().enumerate() {
        let quality = occurrence_quality(weight, 1.0, config);
        if mask & (1 << i) != 0 && weight > 0.0 && quality > best {
            best = quality;
        }
    }
    best
}

/// The quality of one occurrence: its section's weight, scaled by the
/// side fidelity as far as `context_weight` lets it count.
fn occurrence_quality(weight: f64, fidelity: f64, config: &MatcherConfig) -> f64 {
    weight * ((1.0 - config.context_weight) + config.context_weight * fidelity)
}

/// Fraction of the pattern's side words observed around the occurrence
/// (1.0 when the pattern has no side words).
fn side_fidelity(pattern: &Pattern, tokens: &[TermId], start: usize, window: usize) -> f64 {
    let n_side = pattern.left.len() + pattern.right.len();
    if n_side == 0 {
        return 1.0;
    }
    let lo = start.saturating_sub(window);
    let end = start + pattern.middle.len();
    let hi = (end + window).min(tokens.len());
    let left_window: HashSet<TermId> = tokens[lo..start].iter().copied().collect();
    let right_window: HashSet<TermId> = tokens[end..hi].iter().copied().collect();
    let hit = pattern
        .left
        .iter()
        .filter(|t| left_window.contains(t))
        .count()
        + pattern
            .right
            .iter()
            .filter(|t| right_window.contains(t))
            .count();
    hit as f64 / n_side as f64
}

/// The paper's pattern-based score of one paper against one context's
/// pattern set: `Σ Score(pt) · M(P, pt)`.
pub fn score_paper(
    patterns: &[Pattern],
    sections: &SectionTokens<'_>,
    config: &MatcherConfig,
) -> f64 {
    patterns
        .iter()
        .map(|pt| {
            let m = match_strength(pt, sections, config);
            if m > 0.0 {
                pt.score * m
            } else {
                0.0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternKind;
    use std::collections::BTreeSet;

    fn ids(xs: &[u32]) -> Vec<TermId> {
        xs.iter().map(|&x| TermId(x)).collect()
    }

    fn set(xs: &[u32]) -> BTreeSet<TermId> {
        xs.iter().map(|&x| TermId(x)).collect()
    }

    fn pat(left: &[u32], middle: &[u32], right: &[u32], score: f64) -> Pattern {
        Pattern {
            left: set(left),
            middle: ids(middle),
            right: set(right),
            kind: PatternKind::Regular,
            score,
        }
    }

    fn sections<'a>(
        title: &'a [TermId],
        abstract_text: &'a [TermId],
        body: &'a [TermId],
        index_terms: &'a [TermId],
    ) -> SectionTokens<'a> {
        SectionTokens {
            title,
            abstract_text,
            body,
            index_terms,
        }
    }

    #[test]
    fn no_occurrence_means_zero() {
        let p = pat(&[], &[5], &[], 2.0);
        let t = ids(&[1, 2, 3]);
        let s = sections(&t, &t, &t, &t);
        assert_eq!(match_strength(&p, &s, &MatcherConfig::default()), 0.0);
        assert_eq!(score_paper(&[p], &s, &MatcherConfig::default()), 0.0);
    }

    #[test]
    fn title_match_beats_body_match() {
        let p = pat(&[], &[5], &[], 2.0);
        let title = ids(&[5]);
        let body = ids(&[5]);
        let empty = ids(&[]);
        let cfg = MatcherConfig::default();
        let title_hit = match_strength(&p, &sections(&title, &empty, &empty, &empty), &cfg);
        let body_hit = match_strength(&p, &sections(&empty, &empty, &body, &empty), &cfg);
        assert!(title_hit > body_hit);
    }

    #[test]
    fn side_fidelity_raises_strength() {
        let p = pat(&[1], &[5], &[2], 1.0);
        let with_context = ids(&[1, 5, 2]);
        let without = ids(&[8, 5, 9]);
        let empty = ids(&[]);
        let cfg = MatcherConfig::default();
        let hi = match_strength(&p, &sections(&with_context, &empty, &empty, &empty), &cfg);
        let lo = match_strength(&p, &sections(&without, &empty, &empty, &empty), &cfg);
        assert!(hi > lo, "{hi} vs {lo}");
        assert!(lo > 0.0, "middle-only match still counts some");
    }

    #[test]
    fn middle_only_mode_ignores_sides() {
        let p = pat(&[1], &[5], &[2], 1.0);
        let without = ids(&[8, 5, 9]);
        let empty = ids(&[]);
        let cfg = MatcherConfig {
            middle_only: true,
            ..Default::default()
        };
        let m = match_strength(&p, &sections(&without, &empty, &empty, &empty), &cfg);
        assert_eq!(m, cfg.section_weights[0]);
    }

    #[test]
    fn middle_only_strength_is_the_strength_of_the_sections_in_the_mask() {
        let p = pat(&[1], &[5], &[2], 1.0);
        let (hit, miss) = (ids(&[8, 5, 9]), ids(&[8, 9]));
        let cfg = MatcherConfig {
            middle_only: true,
            section_weights: [1.0, 0.0, 0.5, 0.9],
            ..Default::default()
        };
        for mask in 0u8..16 {
            let s = |i: usize| if mask & (1 << i) != 0 { &hit } else { &miss };
            let sections = sections(s(0), s(1), s(2), s(3));
            assert_eq!(
                middle_only_strength(mask, &cfg).to_bits(),
                match_strength(&p, &sections, &cfg).to_bits(),
                "mask {mask:04b}"
            );
        }
        assert_eq!(
            middle_only_strength(0b0010, &cfg),
            0.0,
            "weight 0 counts nothing"
        );
        assert_eq!(middle_only_strength(0b1100, &cfg), 0.9);
    }

    #[test]
    fn score_paper_sums_weighted_scores() {
        let p1 = pat(&[], &[5], &[], 2.0);
        let p2 = pat(&[], &[6], &[], 3.0);
        let p3 = pat(&[], &[99], &[], 100.0); // never matches
        let title = ids(&[5, 6]);
        let empty = ids(&[]);
        let cfg = MatcherConfig {
            section_weights: [1.0, 0.0, 0.0, 0.0],
            context_weight: 0.0,
            ..Default::default()
        };
        let s = score_paper(
            &[p1, p2, p3],
            &sections(&title, &empty, &empty, &empty),
            &cfg,
        );
        assert!((s - 5.0).abs() < 1e-12);
    }

    #[test]
    fn multi_word_middles_match_contiguously() {
        let p = pat(&[], &[5, 6], &[], 1.0);
        let has = ids(&[4, 5, 6, 7]);
        let scattered = ids(&[5, 9, 6]);
        let empty = ids(&[]);
        let cfg = MatcherConfig::default();
        assert!(match_strength(&p, &sections(&has, &empty, &empty, &empty), &cfg) > 0.0);
        assert_eq!(
            match_strength(&p, &sections(&scattered, &empty, &empty, &empty), &cfg),
            0.0
        );
    }

    #[test]
    fn empty_pattern_set_scores_zero() {
        let t = ids(&[1]);
        let s = sections(&t, &t, &t, &t);
        assert_eq!(score_paper(&[], &s, &MatcherConfig::default()), 0.0);
    }
}
