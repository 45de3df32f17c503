//! Result explanation: decompose one search hit's relevancy into its
//! ingredients — which context won, both score components, and the
//! query terms that actually matched (with their contribution to the
//! cosine). A ranking a user can't interrogate is a ranking they won't
//! trust; the paper's paradigm makes this easy because every part of
//! `R(p,q,c)` is inspectable.

use crate::context::ContextId;
use crate::indexes::CorpusIndex;
use crate::search::SearchResult;
use corpus::{Corpus, PaperId};
use ontology::Ontology;

/// One matched query term and its contribution.
#[derive(Debug, Clone)]
pub struct TermContribution {
    /// The surface term (stemmed form, as indexed).
    pub term: String,
    /// Its share of the query↔paper cosine (the product of the two
    /// normalized TF-IDF weights).
    pub contribution: f64,
}

/// The decomposition of one search hit.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The paper being explained.
    pub paper: PaperId,
    /// The context that produced the best relevancy.
    pub context: ContextId,
    /// That context's name.
    pub context_name: String,
    /// That context's level in the hierarchy.
    pub context_level: u32,
    /// The prestige component of the relevancy.
    pub prestige: f64,
    /// The matching component.
    pub matching: f64,
    /// The combined relevancy.
    pub relevancy: f64,
    /// Matched query terms, largest contribution first.
    pub matched_terms: Vec<TermContribution>,
}

impl Explanation {
    /// Render a compact human-readable explanation.
    pub fn render(&self) -> String {
        let mut out = format!(
            "R = {:.3} = w_p·{:.3} (prestige in {:?}, level {}) + w_m·{:.3} (match)\n",
            self.relevancy, self.prestige, self.context_name, self.context_level, self.matching
        );
        out.push_str("matched terms:");
        for t in &self.matched_terms {
            out.push_str(&format!(" {}({:.3})", t.term, t.contribution));
        }
        out
    }
}

/// Explain one search hit.
pub fn explain_hit(
    ontology: &Ontology,
    corpus: &Corpus,
    index: &CorpusIndex,
    query: &str,
    hit: &SearchResult,
) -> Explanation {
    let qvec = index.query_vector(corpus, query);
    let dvec = &index.doc_vectors[hit.paper.index()];
    let mut matched_terms: Vec<TermContribution> = qvec
        .entries()
        .iter()
        .filter_map(|&(t, qw)| {
            let dw = dvec.get(t);
            if dw > 0.0 {
                Some(TermContribution {
                    term: corpus.vocab().term(t).unwrap_or("<unknown>").to_string(),
                    contribution: qw * dw,
                })
            } else {
                None
            }
        })
        .collect();
    matched_terms.sort_by(|a, b| {
        b.contribution
            .total_cmp(&a.contribution)
            .then_with(|| a.term.cmp(&b.term))
    });
    let term = ontology.term(hit.context);
    Explanation {
        paper: hit.paper,
        context: hit.context,
        context_name: term.name.clone(),
        context_level: ontology.level(hit.context),
        prestige: hit.prestige,
        matching: hit.matching,
        relevancy: hit.relevancy,
        matched_terms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::snapshot::{EngineSnapshot, PrepareOptions};
    use crate::{ContextSetKind, ScoreFunction};
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig};
    use std::sync::Arc;

    /// A snapshot holding only the (pattern set, `function`) table.
    fn snapshot(function: ScoreFunction) -> Arc<EngineSnapshot> {
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
        EngineSnapshot::prepare_with(
            onto,
            corp,
            EngineConfig::default(),
            PrepareOptions {
                pairs: vec![(ContextSetKind::PatternBased, function)],
            },
        )
    }

    #[test]
    fn explanation_reconstructs_the_hit() {
        let e = snapshot(ScoreFunction::Pattern);
        let term = e
            .ontology()
            .term_ids()
            .find(|&t| e.ontology().level(t) == 3)
            .unwrap();
        let query = e.ontology().term(term).name.clone();
        let hits = e
            .searcher()
            .query(
                &query,
                ContextSetKind::PatternBased,
                ScoreFunction::Pattern,
                3,
            )
            .unwrap();
        assert!(!hits.is_empty());
        for hit in &hits {
            let ex = explain_hit(e.ontology(), e.corpus(), e.index(), &query, hit);
            assert_eq!(ex.paper, hit.paper);
            assert_eq!(ex.relevancy, hit.relevancy);
            // The matched-term contributions must sum to the cosine
            // (both vectors are unit-normalized).
            let total: f64 = ex.matched_terms.iter().map(|t| t.contribution).sum();
            // The engine accumulates matching through f32 postings;
            // the explanation recomputes in f64, so tolerances are loose.
            assert!(
                (total - hit.matching).abs() < 1e-5,
                "contributions {total} vs matching {}",
                hit.matching
            );
            // Sorted descending.
            for w in ex.matched_terms.windows(2) {
                assert!(w[0].contribution >= w[1].contribution);
            }
            // Render doesn't panic and mentions the context.
            assert!(ex.render().contains(&ex.context_name));
        }
    }

    #[test]
    fn unmatched_terms_are_absent() {
        let e = snapshot(ScoreFunction::Citation);
        let term = e
            .ontology()
            .term_ids()
            .find(|&t| e.ontology().level(t) == 3)
            .unwrap();
        let query = e.ontology().term(term).name.clone();
        let hits = e
            .searcher()
            .query(
                &query,
                ContextSetKind::PatternBased,
                ScoreFunction::Citation,
                1,
            )
            .unwrap();
        if let Some(hit) = hits.first() {
            let ex = explain_hit(e.ontology(), e.corpus(), e.index(), &query, hit);
            for t in &ex.matched_terms {
                assert!(t.contribution > 0.0);
            }
        }
    }
}
