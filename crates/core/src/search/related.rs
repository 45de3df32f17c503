//! "More like this": related-paper retrieval within shared contexts.
//!
//! A natural consumer feature the paradigm gets for free: the §3.2
//! combined similarity (section cosines + author overlap + citation
//! coupling) already measures paper↔paper relatedness, and the context
//! assignment already scopes the candidate set topically — related
//! papers are the most §3.2-similar co-members of the source paper's
//! contexts, which avoids the whole-corpus scan a flat system needs.

use crate::config::EngineConfig;
use crate::context::{ContextId, ContextPaperSets};
use crate::indexes::CorpusIndex;
use crate::prestige::text::Representative;
use corpus::{Corpus, PaperId};

/// One related paper.
#[derive(Debug, Clone, Copy)]
pub struct RelatedPaper {
    /// The related paper.
    pub paper: PaperId,
    /// The §3.2 combined similarity to the source paper.
    pub similarity: f64,
    /// A context both papers share (the lowest-id one).
    pub shared_context: ContextId,
}

/// Find up to `limit` papers related to `source` through shared
/// contexts, most similar first. Returns an empty vector when the
/// source belongs to no context of `sets`.
pub fn more_like_this(
    corpus: &Corpus,
    index: &CorpusIndex,
    config: &EngineConfig,
    sets: &ContextPaperSets,
    source: PaperId,
    limit: usize,
) -> Vec<RelatedPaper> {
    // Concatenate the source's context member columns (contexts come
    // ascending), then one sort + dedup keeps each candidate's lowest
    // shared context — no hashing, and the §3.2 similarity runs once
    // per distinct candidate.
    let mut candidates: Vec<(PaperId, ContextId)> = Vec::new();
    for context in sets.contexts() {
        if !sets.is_member(context, source) {
            continue;
        }
        candidates.extend(
            sets.members(context)
                .iter()
                .filter(|&&p| p != source)
                .map(|&p| (p, context)),
        );
    }
    candidates.sort_unstable();
    candidates.dedup_by_key(|&mut (p, _)| p);
    let source_rep = Representative::new(corpus, index, source);
    let mut out: Vec<RelatedPaper> = candidates
        .into_iter()
        .map(|(paper, shared_context)| RelatedPaper {
            paper,
            similarity: source_rep.similarity(corpus, index, config, paper),
            shared_context,
        })
        .collect();
    out.sort_by(|a, b| {
        b.similarity
            .total_cmp(&a.similarity)
            .then(a.paper.cmp(&b.paper))
    });
    if limit > 0 {
        out.truncate(limit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{build_pattern_sets, patterns_by_context};
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig, Ontology};

    /// The pattern-based sets and everything the similarity reads; no
    /// prestige tables.
    fn testbed() -> (
        Ontology,
        Corpus,
        EngineConfig,
        CorpusIndex,
        ContextPaperSets,
    ) {
        let onto = generate_ontology(&GeneratorConfig {
            n_terms: 80,
            seed: 3,
            ..Default::default()
        });
        let corp = generate_corpus(
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
        let index = CorpusIndex::build(&onto, &corp, &config.pagerank);
        let patterns = patterns_by_context(&onto, &corp, &index, &config);
        let sets = build_pattern_sets(&onto, &corp, &index, &patterns, &config);
        (onto, corp, config, index, sets)
    }

    #[test]
    fn related_papers_share_a_context_and_sort_by_similarity() {
        let (_, corp, config, index, sets) = testbed();
        let source = PaperId(10);
        let related = more_like_this(&corp, &index, &config, &sets, source, 10);
        assert!(!related.is_empty(), "paper 10 should have relatives");
        for r in &related {
            assert_ne!(r.paper, source);
            assert!(sets.is_member(r.shared_context, source));
            assert!(sets.is_member(r.shared_context, r.paper));
            assert!((0.0..=1.0 + 1e-9).contains(&r.similarity));
        }
        for w in related.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
    }

    #[test]
    fn top_relative_tends_to_share_a_topic() {
        let (onto, corp, config, index, sets) = testbed();
        let mut topical_hits = 0;
        let mut checked = 0;
        for source in (0..60).map(PaperId) {
            let related = more_like_this(&corp, &index, &config, &sets, source, 1);
            let Some(top) = related.first() else { continue };
            checked += 1;
            let src_topics = &corp.paper(source).true_topics;
            let rel_topics = &corp.paper(top.paper).true_topics;
            let shares = src_topics.iter().any(|t| rel_topics.contains(t));
            let related_branch = src_topics.iter().any(|&a| {
                rel_topics
                    .iter()
                    .any(|&b| onto.is_descendant(a, b) || onto.is_descendant(b, a))
            });
            if shares || related_branch {
                topical_hits += 1;
            }
        }
        assert!(checked > 20);
        assert!(
            topical_hits * 2 >= checked,
            "top relative should usually be topical: {topical_hits}/{checked}"
        );
    }

    #[test]
    fn limit_and_missing_source() {
        let (_, corp, config, index, sets) = testbed();
        let related = more_like_this(&corp, &index, &config, &sets, PaperId(5), 3);
        assert!(related.len() <= 3);
        // A paper id outside every context (fabricated empty sets).
        let empty = ContextPaperSets::new(Default::default(), sets.kind);
        let none = more_like_this(&corp, &index, &config, &empty, PaperId(5), 3);
        assert!(none.is_empty());
    }
}
