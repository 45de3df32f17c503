//! Text-based prestige (paper §3.2): a paper's prestige in a context is
//! its weighted similarity to the context's *representative paper*
//! across six components — title, abstract, body, and index-term
//! TF-IDF cosines, author overlap (level 0 + level 1), and citation
//! similarity (bibliographic coupling + co-citation).

use crate::config::EngineConfig;
use crate::context::{ContextId, ContextPaperSets};
use crate::indexes::{section_index, CorpusIndex};
use crate::prestige::{PrestigeScores, ScoreFunction};
use citegraph::coupling::citation_similarity;
use corpus::{Corpus, PaperId, Section};
use std::collections::HashMap;
use textproc::SparseVector;

/// Compute text-based prestige for every context that has a
/// representative paper. Contexts without one (no annotation evidence)
/// get no text scores — mirroring the paper, where only 5,632 contexts
/// carried them.
pub fn text_prestige(
    sets: &ContextPaperSets,
    corpus: &Corpus,
    index: &CorpusIndex,
    config: &EngineConfig,
) -> PrestigeScores {
    // `sets.contexts()` iterates ascending, so this is already the
    // deterministic population for the parallel map.
    let contexts: Vec<ContextId> = sets
        .contexts()
        .filter(|c| sets.representatives.contains_key(c))
        .collect();
    let computed: Vec<(ContextId, Vec<(PaperId, f64)>)> =
        crate::parallel_map(config.build_threads, &contexts, |&context| {
            let rep = Representative::new(corpus, index, sets.representatives[&context]);
            // Absolute similarities (already in [0, 1]): diffuse
            // upper-level contexts legitimately yield small scores — the
            // paper's Fig 5.5 observation depends on this.
            let scores: Vec<(PaperId, f64)> = sets
                .members(context)
                .iter()
                .map(|&p| (p, rep.similarity(corpus, index, config, p)))
                .collect();
            (context, scores)
        });
    PrestigeScores::new(
        computed.into_iter().collect::<HashMap<_, _>>(),
        ScoreFunction::Text,
    )
}

/// A paper that many others are compared with by the §3.2 similarity: a
/// context's representative, or the source of "more like this".
///
/// Its four section vectors are scattered into dense arrays over the
/// vocabulary, beside their norms, so a section cosine walks only the
/// other paper's entries. The result has the bits of
/// [`CorpusIndex::section_cosine`]'s sorted merge:
/// - the common terms' products are added in the same ascending order,
///   and products commute exactly;
/// - a term this paper lacks adds `x · 0.0 = +0.0`, and stored weights
///   are positive, so the sum does not change;
/// - the denominator is the same two norms multiplied in the same
///   order, with the same zero check and clamp.
pub(crate) struct Representative {
    paper: PaperId,
    /// Section `s`'s weight of each vocabulary term, 0.0 where absent.
    sections: [Vec<f64>; 4],
    norms: [f64; 4],
}

impl Representative {
    /// Scatter `paper`'s section vectors.
    pub fn new(corpus: &Corpus, index: &CorpusIndex, paper: PaperId) -> Self {
        let words = corpus.vocab().len();
        let vectors = index.section_vectors.each_ref().map(|v| &v[paper.index()]);
        Self {
            paper,
            sections: vectors.map(|v| {
                let mut dense = vec![0.0; words];
                for &(t, w) in v.entries() {
                    dense[t.index()] = w;
                }
                dense
            }),
            norms: vectors.map(SparseVector::norm),
        }
    }

    /// The §3.2 similarity `Sim(PX, PC) = Σ weight_i · Sim_i(PX, PC)` of
    /// `paper` (PX) to this one (PC).
    pub fn similarity(
        &self,
        corpus: &Corpus,
        index: &CorpusIndex,
        config: &EngineConfig,
        paper: PaperId,
    ) -> f64 {
        let w = &config.text_sim;
        let cosine = |section| self.section_cosine(index, section, paper);
        let s_title = cosine(Section::Title);
        let s_abs = cosine(Section::Abstract);
        let s_body = cosine(Section::Body);
        let s_idx = cosine(Section::IndexTerms);
        let s_auth = index.author_similarity(corpus, paper, self.paper, w);
        let s_ref = citation_similarity(&index.graph, paper.0, self.paper.0, w.bib_weight);
        w.title * s_title
            + w.abstract_text * s_abs
            + w.body * s_body
            + w.index_terms * s_idx
            + w.authors * s_auth
            + w.references * s_ref
    }

    /// [`CorpusIndex::section_cosine`] of `paper` with this one.
    fn section_cosine(&self, index: &CorpusIndex, section: Section, paper: PaperId) -> f64 {
        let s = section_index(section);
        let v = &index.section_vectors[s][paper.index()];
        let denom = v.norm() * self.norms[s];
        if denom == 0.0 {
            return 0.0;
        }
        let dense = &self.sections[s];
        let mut dot = 0.0;
        for &(t, x) in v.entries() {
            dot += x * dense[t.index()];
        }
        (dot / denom).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::build_text_sets;
    use citegraph::PageRankConfig;
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig, Ontology};

    fn setup() -> (Ontology, Corpus, CorpusIndex, EngineConfig) {
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
        (onto, corpus, index, config)
    }

    #[test]
    fn representative_scores_maximal() {
        let (onto, corpus, index, config) = setup();
        let sets = build_text_sets(&onto, &corpus, &index, &config);
        let prestige = text_prestige(&sets, &corpus, &index, &config);
        let mut checked = 0;
        for (&c, &rep) in &sets.representatives {
            if let Some(s) = prestige.get(c, rep) {
                // The representative's self-similarity dominates every
                // other member's similarity to it.
                for &(p, other) in prestige.scores(c).iter() {
                    if p != rep {
                        assert!(s >= other - 1e-9, "rep {s} vs {p:?} {other} in {c}");
                    }
                }
                checked += 1;
            }
        }
        assert!(checked > 3);
    }

    #[test]
    fn scores_are_in_unit_range_and_varied() {
        let (onto, corpus, index, config) = setup();
        let sets = build_text_sets(&onto, &corpus, &index, &config);
        let prestige = text_prestige(&sets, &corpus, &index, &config);
        let big = sets
            .contexts_with_min_size(5)
            .into_iter()
            .next()
            .expect("some sizable context");
        let values = prestige.score_values(big);
        assert!(values.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let distinct: std::collections::HashSet<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert!(
            distinct.len() > 1,
            "text scores should differentiate members"
        );
    }

    #[test]
    fn only_contexts_with_representatives_get_scores() {
        let (onto, corpus, index, config) = setup();
        let mut sets = build_text_sets(&onto, &corpus, &index, &config);
        // Drop one representative; its context must get no scores.
        let victim = sets.contexts().next().unwrap();
        sets.representatives.remove(&victim);
        let prestige = text_prestige(&sets, &corpus, &index, &config);
        assert!(prestige.scores(victim).is_empty());
    }

    #[test]
    fn similarity_is_bounded() {
        let (_, corpus, index, config) = setup();
        for b in 0..10u32 {
            let rep = Representative::new(&corpus, &index, PaperId(b));
            for a in 0..10u32 {
                let s = rep.similarity(&corpus, &index, &config, PaperId(a));
                assert!((0.0..=1.0 + 1e-9).contains(&s), "sim {s}");
            }
        }
    }

    #[test]
    fn self_similarity_is_maximal_among_pairs() {
        let (_, corpus, index, config) = setup();
        let sim = |a: u32, b: u32| {
            Representative::new(&corpus, &index, PaperId(b)).similarity(
                &corpus,
                &index,
                &config,
                PaperId(a),
            )
        };
        let s_self = sim(3, 3);
        for b in 0..20u32 {
            if b != 3 {
                let s = sim(3, b);
                assert!(s_self >= s - 1e-9, "self {s_self} vs {b}: {s}");
            }
        }
    }

    #[test]
    fn section_cosines_have_the_sorted_merges_bits() {
        let (_, corpus, index, _) = setup();
        for b in 0..30u32 {
            let rep = Representative::new(&corpus, &index, PaperId(b));
            for a in 0..30u32 {
                for section in Section::ALL {
                    let got = rep.section_cosine(&index, section, PaperId(a));
                    let expected = index.section_cosine(section, PaperId(a), PaperId(b));
                    assert_eq!(got.to_bits(), expected.to_bits(), "{section:?} {a} {b}");
                }
            }
        }
    }
}
