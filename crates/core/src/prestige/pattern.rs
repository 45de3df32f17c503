//! Pattern-based prestige (paper §3.3 / §4): a paper's prestige in a
//! context is `Σ_{pt matches} Score(pt) · M(paper, pt)` over the
//! context's pattern set, max-normalized within the context. Contexts
//! that inherited their paper set from an ancestor (§4 fallback) reuse
//! the ancestor's scores decayed by `RateOfDecay = I(ancs)/I(desc)`.

use crate::assign::ContextPatterns;
use crate::config::EngineConfig;
use crate::context::{ContextId, ContextPaperSets};
use crate::indexes::CorpusIndex;
use crate::prestige::{max_normalize, PrestigeScores, ScoreFunction};
use corpus::{Corpus, PaperId};
use ontology::{rate_of_decay, Ontology};
use patterns::matcher::{match_strength, middle_only_strength};
use patterns::{MatcherConfig, SectionTokens};
use std::collections::HashMap;

/// Compute pattern-based prestige for every context in `sets`.
///
/// `simplified` selects the §4 variant (middle-only matching), used for
/// the pattern-based context paper set experiments; the full §3.3
/// matcher also weighs left/right tuple fidelity.
///
/// `_index` is not read: the papers each pattern can match are the
/// hits in `patterns`, found when the patterns were built. It keeps the
/// stage's signature, which the benches and the benchmark's traced
/// prepare call.
pub fn pattern_prestige(
    ontology: &Ontology,
    sets: &ContextPaperSets,
    corpus: &Corpus,
    _index: &CorpusIndex,
    patterns: &ContextPatterns,
    config: &EngineConfig,
    simplified: bool,
) -> PrestigeScores {
    let matcher = MatcherConfig {
        middle_only: simplified,
        ..config.matcher.clone()
    };

    // Score contexts that own their paper sets.
    // `sets.contexts()` iterates ascending — deterministic population.
    let own_contexts: Vec<ContextId> = sets
        .contexts()
        .filter(|c| !sets.inherited_from.contains_key(c))
        .collect();
    let computed: Vec<(ContextId, Vec<(PaperId, f64)>)> =
        crate::parallel_map(config.threads, &own_contexts, |&context| {
            (
                context,
                score_context(sets, corpus, patterns, &matcher, context),
            )
        });
    let mut by_context: HashMap<ContextId, Vec<(PaperId, f64)>> = computed.into_iter().collect();

    // Inherited contexts: ancestor's scores × RateOfDecay.
    let inherited: Vec<(ContextId, ContextId)> = {
        let mut v: Vec<_> = sets.inherited_from.iter().map(|(&c, &a)| (c, a)).collect();
        v.sort_unstable();
        v
    };
    for (context, ancestor) in inherited {
        let decay = rate_of_decay(ontology, ancestor, context);
        let decayed: Vec<(PaperId, f64)> = by_context
            .get(&ancestor)
            .map(|scores| scores.iter().map(|&(p, s)| (p, s * decay)).collect())
            .unwrap_or_default();
        by_context.insert(context, decayed);
    }

    PrestigeScores::new(by_context, ScoreFunction::Pattern)
}

fn score_context(
    sets: &ContextPaperSets,
    corpus: &Corpus,
    patterns: &ContextPatterns,
    matcher: &MatcherConfig,
    context: ContextId,
) -> Vec<(PaperId, f64)> {
    let members = sets.members(context);
    let mut acc: HashMap<PaperId, f64> = HashMap::with_capacity(members.len());
    // Hit-driven accumulation: only members whose sections hold a
    // pattern's middle are ever scored against it, instead of scanning
    // every member against every pattern.
    for (pat, hits) in patterns.with_hits(context) {
        for hit in hits {
            if members.binary_search(&hit.paper).is_err() {
                continue;
            }
            let m = if matcher.middle_only {
                middle_only_strength(hit.sections, matcher)
            } else {
                let a = corpus.analyzed(hit.paper);
                let sections = SectionTokens {
                    title: &a.title,
                    abstract_text: &a.abstract_text,
                    body: &a.body,
                    index_terms: &a.index_terms,
                };
                match_strength(pat, &sections, matcher)
            };
            if m > 0.0 {
                *acc.entry(hit.paper).or_insert(0.0) += pat.score * m;
            }
        }
    }
    let mut scores: Vec<(PaperId, f64)> = members
        .iter()
        .map(|&p| (p, acc.get(&p).copied().unwrap_or(0.0)))
        .collect();
    max_normalize(&mut scores);
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{build_pattern_sets, patterns_by_context};
    use citegraph::PageRankConfig;
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig};

    fn setup() -> (
        Ontology,
        Corpus,
        CorpusIndex,
        EngineConfig,
        ContextPatterns,
        ContextPaperSets,
    ) {
        let onto = generate_ontology(&GeneratorConfig {
            n_terms: 80,
            seed: 3,
            ..Default::default()
        });
        let corpus = generate_corpus(
            &onto,
            &CorpusConfig {
                n_papers: 150,
                seed: 5,
                body_len: (40, 60),
                abstract_len: (20, 30),
                ..Default::default()
            },
        );
        let config = EngineConfig::default();
        let index = CorpusIndex::build(&onto, &corpus, &PageRankConfig::default());
        let pats = patterns_by_context(&onto, &corpus, &index, &config);
        let sets = build_pattern_sets(&onto, &corpus, &index, &pats, &config);
        (onto, corpus, index, config, pats, sets)
    }

    #[test]
    fn every_context_gets_scores_for_all_members() {
        let (onto, corpus, index, config, pats, sets) = setup();
        let prestige = pattern_prestige(&onto, &sets, &corpus, &index, &pats, &config, true);
        for c in sets.contexts() {
            assert_eq!(
                prestige.scores(c).len(),
                sets.members(c).len(),
                "context {c}"
            );
        }
    }

    #[test]
    fn scores_are_unit_range() {
        let (onto, corpus, index, config, pats, sets) = setup();
        let prestige = pattern_prestige(&onto, &sets, &corpus, &index, &pats, &config, true);
        for c in prestige.contexts() {
            for &(_, s) in prestige.scores(c).iter() {
                assert!((0.0..=1.0).contains(&s), "{s}");
            }
        }
    }

    #[test]
    fn direct_contexts_differentiate_members() {
        let (onto, corpus, index, config, pats, sets) = setup();
        let prestige = pattern_prestige(&onto, &sets, &corpus, &index, &pats, &config, true);
        let mut differentiated = 0;
        for c in sets.contexts_with_min_size(5) {
            if sets.inherited_from.contains_key(&c) {
                continue;
            }
            let distinct: std::collections::HashSet<u64> = prestige
                .score_values(c)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            if distinct.len() > 1 {
                differentiated += 1;
            }
        }
        assert!(differentiated > 0, "some context must have varied scores");
    }

    #[test]
    fn inherited_contexts_are_decayed_copies() {
        let (onto, corpus, index, config, pats, sets) = setup();
        let prestige = pattern_prestige(&onto, &sets, &corpus, &index, &pats, &config, true);
        for (&c, &a) in &sets.inherited_from {
            let decay = rate_of_decay(&onto, a, c);
            let anc = prestige.scores(a);
            let desc = prestige.scores(c);
            assert_eq!(anc.len(), desc.len());
            for (&(pa, sa), &(pd, sd)) in anc.iter().zip(desc.iter()) {
                assert_eq!(pa, pd);
                assert!((sd - sa * decay).abs() < 1e-9);
            }
            // Decay strictly shrinks unless ancestor IC dominates.
            assert!(decay <= 1.0);
        }
    }

    #[test]
    fn full_and_simplified_matching_can_disagree() {
        let (onto, corpus, index, config, pats, sets) = setup();
        let simp = pattern_prestige(&onto, &sets, &corpus, &index, &pats, &config, true);
        let full = pattern_prestige(&onto, &sets, &corpus, &index, &pats, &config, false);
        // Same coverage either way.
        assert_eq!(simp.contexts().count(), full.contexts().count());
        // At least one paper somewhere should score differently (side
        // tuples matter in full matching).
        let mut any_diff = false;
        for c in sets.contexts_with_min_size(3) {
            for (&(p1, s1), &(p2, s2)) in simp.scores(c).iter().zip(full.scores(c).iter()) {
                assert_eq!(p1, p2);
                if (s1 - s2).abs() > 1e-9 {
                    any_diff = true;
                }
            }
        }
        assert!(any_diff, "full matching should differ somewhere");
    }
}
