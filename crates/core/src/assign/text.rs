//! Text-based context paper set (paper §4).
//!
//! "Created by using the text-based similarity measure between a
//! representative paper of a context and papers in our database."
//!
//! The representative of a context is the annotation-evidence paper
//! closest to the centroid of all its evidence papers (the single
//! evidence paper when there is only one). Every corpus paper whose
//! whole-text cosine to the representative reaches the assignment
//! threshold joins the context; evidence papers always belong.
//! Contexts without evidence get no representative and no paper set —
//! exactly the paper's situation, where only 5,632 of the contexts
//! carried text-based sets.

use crate::config::EngineConfig;
use crate::context::{ContextId, ContextPaperSets, ContextSetKind};
use crate::indexes::CorpusIndex;
use corpus::{Corpus, PaperId};
use ontology::Ontology;
use std::collections::HashMap;
use textproc::SparseVector;

/// Build the text-based context paper set.
pub fn build_text_sets(
    ontology: &Ontology,
    corpus: &Corpus,
    index: &CorpusIndex,
    config: &EngineConfig,
) -> ContextPaperSets {
    let candidates: Vec<ContextId> = ontology
        .term_ids()
        .filter(|&t| !corpus.evidence_for(t).is_empty())
        .collect();

    let threshold = config.assign.text_threshold;
    let results: Vec<(ContextId, PaperId, Vec<PaperId>)> =
        crate::parallel_map(config.build_threads, &candidates, |&context| {
            let evidence = corpus.evidence_for(context);
            let rep = pick_representative(index, evidence);
            let rep_vec = &index.doc_vectors[rep.index()];
            // `search` is strict (score > min); nudge so score == t joins.
            let mut members: Vec<PaperId> = index
                .keyword_search(rep_vec, threshold - 1e-12)
                .into_iter()
                .map(|(p, _)| p)
                .collect();
            members.extend_from_slice(evidence);
            (context, rep, members)
        });

    let mut members: HashMap<ContextId, Vec<PaperId>> = HashMap::with_capacity(results.len());
    let mut representatives: HashMap<ContextId, PaperId> = HashMap::with_capacity(results.len());
    for (context, rep, papers) in results {
        representatives.insert(context, rep);
        members.insert(context, papers);
    }
    let mut sets = ContextPaperSets::new(members, ContextSetKind::TextBased);
    sets.representatives = representatives;
    sets
}

/// The evidence paper closest to the evidence centroid ("a paper that
/// best characterizes the context", §1).
fn pick_representative(index: &CorpusIndex, evidence: &[PaperId]) -> PaperId {
    debug_assert!(!evidence.is_empty());
    if evidence.len() == 1 {
        return evidence[0];
    }
    let centroid = SparseVector::centroid(evidence.iter().map(|p| &index.doc_vectors[p.index()]));
    evidence
        .iter()
        .copied()
        .max_by(|&a, &b| {
            let sa = index.whole_cosine(a, &centroid);
            let sb = index.whole_cosine(b, &centroid);
            sa.total_cmp(&sb).then(b.0.cmp(&a.0))
        })
        .expect("non-empty evidence")
}

#[cfg(test)]
mod tests {
    use super::*;
    use citegraph::PageRankConfig;
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig};

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
    fn contexts_with_evidence_get_sets_and_representatives() {
        let (onto, corpus, index, config) = setup();
        let sets = build_text_sets(&onto, &corpus, &index, &config);
        assert!(sets.n_contexts() > 5);
        for c in sets.contexts() {
            assert!(
                sets.representatives.contains_key(&c),
                "every text context has a representative"
            );
            assert!(!corpus.evidence_for(c).is_empty());
        }
    }

    #[test]
    fn representative_is_an_evidence_paper_and_a_member() {
        let (onto, corpus, index, config) = setup();
        let sets = build_text_sets(&onto, &corpus, &index, &config);
        for (&c, &rep) in &sets.representatives {
            assert!(corpus.evidence_for(c).contains(&rep));
            assert!(sets.is_member(c, rep), "representative belongs to set");
        }
    }

    #[test]
    fn members_meet_similarity_threshold_or_are_evidence() {
        let (onto, corpus, index, config) = setup();
        let sets = build_text_sets(&onto, &corpus, &index, &config);
        let c = sets.contexts().next().unwrap();
        let rep = sets.representatives[&c];
        let rep_vec = &index.doc_vectors[rep.index()];
        for &p in sets.members(c) {
            let sim = index.whole_cosine(p, rep_vec);
            let is_evidence = corpus.evidence_for(c).contains(&p);
            assert!(
                sim >= config.assign.text_threshold - 1e-9 || is_evidence,
                "member {p:?} sim {sim}"
            );
        }
    }

    #[test]
    fn contexts_without_evidence_have_no_set() {
        let (onto, corpus, index, config) = setup();
        let sets = build_text_sets(&onto, &corpus, &index, &config);
        for t in onto.term_ids() {
            if corpus.evidence_for(t).is_empty() {
                assert!(!sets.contains_context(t));
            }
        }
    }

    #[test]
    fn higher_threshold_means_smaller_contexts() {
        let (onto, corpus, index, mut config) = setup();
        let loose = build_text_sets(&onto, &corpus, &index, &config);
        config.assign.text_threshold = 0.5;
        let tight = build_text_sets(&onto, &corpus, &index, &config);
        assert!(tight.mean_size() <= loose.mean_size());
    }
}
