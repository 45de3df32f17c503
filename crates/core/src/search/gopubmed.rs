//! A GoPubMed-style comparator (paper §6, ref \[22\]).
//!
//! GoPubMed is the only related system the paper credits with using
//! context hierarchies: it submits the query to PubMed, retrieves the
//! matching *abstracts*, and categorizes them under GO terms — but the
//! "categorization fully relies on the existence of GO term words in
//! the abstracts" (the paper measured only 78 % of PubMed abstracts to
//! contain any GO term word), and it "does not rank results or provide
//! importance scores".
//!
//! This module implements that behavior so the experiment harness can
//! contrast it with context-based search: keyword search first, then
//! group hits under every ontology term whose (analyzed) name words
//! all occur in the hit's abstract.

use crate::context::ContextId;
use crate::indexes::CorpusIndex;
use corpus::{Corpus, PaperId};
use ontology::Ontology;
use std::collections::HashSet;

/// GoPubMed-style categorized search output.
#[derive(Debug, Clone)]
pub struct GoPubMedResult {
    /// `(term, papers)` categories, largest first; a paper may appear
    /// under many terms (every ancestor of a matching term matches too,
    /// since GO names are compositional).
    pub categories: Vec<(ContextId, Vec<PaperId>)>,
    /// Hits whose abstract contains no term's complete word set.
    pub uncategorized: Vec<PaperId>,
    /// Total keyword hits categorization ran on.
    pub n_hits: usize,
}

impl GoPubMedResult {
    /// Fraction of hits that got at least one category (the paper's
    /// "78 % of abstracts contain words occurring in a GO term").
    pub fn coverage(&self) -> f64 {
        if self.n_hits == 0 {
            return 0.0;
        }
        1.0 - self.uncategorized.len() as f64 / self.n_hits as f64
    }

    /// Categories restricted to the most specific matching terms per
    /// paper: a term is dropped for a paper when one of its descendants
    /// also categorizes that paper (what the GoPubMed tree view shows
    /// at its leaves).
    pub fn most_specific(&self, ontology: &Ontology) -> Vec<(ContextId, Vec<PaperId>)> {
        let mut per_paper: std::collections::HashMap<PaperId, Vec<ContextId>> =
            std::collections::HashMap::new();
        for (c, papers) in &self.categories {
            for &p in papers {
                per_paper.entry(p).or_default().push(*c);
            }
        }
        let mut out: std::collections::HashMap<ContextId, Vec<PaperId>> =
            std::collections::HashMap::new();
        for (paper, terms) in per_paper {
            for &t in &terms {
                let has_more_specific = terms
                    .iter()
                    .any(|&other| other != t && ontology.is_descendant(other, t));
                if !has_more_specific {
                    out.entry(t).or_default().push(paper);
                }
            }
        }
        let mut v: Vec<(ContextId, Vec<PaperId>)> = out
            .into_iter()
            .map(|(c, mut ps)| {
                ps.sort_unstable();
                (c, ps)
            })
            .collect();
        v.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        v
    }
}

/// Run a GoPubMed-style categorized search.
pub fn gopubmed_search(
    ontology: &Ontology,
    corpus: &Corpus,
    index: &CorpusIndex,
    query: &str,
    min_score: f64,
) -> GoPubMedResult {
    let qvec = index.query_vector(corpus, query);
    let hits: Vec<PaperId> = index
        .keyword_search(&qvec, min_score)
        .into_iter()
        .map(|(p, _)| p)
        .collect();

    let mut categories: std::collections::HashMap<ContextId, Vec<PaperId>> =
        std::collections::HashMap::new();
    let mut uncategorized = Vec::new();
    for &paper in &hits {
        let abstract_words: HashSet<textproc::TermId> = corpus
            .analyzed(paper)
            .abstract_text
            .iter()
            .copied()
            .collect();
        let mut categorized = false;
        for term in ontology.term_ids() {
            let name = &index.term_name_tokens[term.index()];
            if name.is_empty() {
                continue;
            }
            if name.iter().all(|w| abstract_words.contains(w)) {
                categories.entry(term).or_default().push(paper);
                categorized = true;
            }
        }
        if !categorized {
            uncategorized.push(paper);
        }
    }
    let mut categories: Vec<(ContextId, Vec<PaperId>)> = categories.into_iter().collect();
    categories.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
    GoPubMedResult {
        categories,
        uncategorized,
        n_hits: hits.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig};

    /// The ontology, corpus and index the baseline reads; no context
    /// sets or prestige tables.
    fn testbed() -> (Ontology, Corpus, CorpusIndex) {
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
                abstract_len: (30, 50),
                ..Default::default()
            },
        );
        let index = CorpusIndex::build(&onto, &corp, &EngineConfig::default().pagerank);
        (onto, corp, index)
    }

    #[test]
    fn categorization_groups_hits_under_terms() {
        let (onto, corp, index) = testbed();
        let term = onto.term_ids().find(|&t| onto.level(t) == 2).unwrap();
        let query = onto.term(term).name.clone();
        let r = gopubmed_search(&onto, &corp, &index, &query, 0.05);
        assert!(r.n_hits > 0);
        assert!(!r.categories.is_empty(), "some category should match");
        // Categories are sorted by size.
        for w in r.categories.windows(2) {
            assert!(w[0].1.len() >= w[1].1.len());
        }
    }

    #[test]
    fn categorized_papers_contain_all_term_words() {
        let (onto, corp, index) = testbed();
        let query = corp.paper(corpus::PaperId(3)).title.clone();
        let r = gopubmed_search(&onto, &corp, &index, &query, 0.05);
        for (term, papers) in r.categories.iter().take(5) {
            let name = &index.term_name_tokens[term.index()];
            for &p in papers.iter().take(5) {
                let words: HashSet<textproc::TermId> =
                    corp.analyzed(p).abstract_text.iter().copied().collect();
                assert!(
                    name.iter().all(|w| words.contains(w)),
                    "paper {p:?} lacks words of its category"
                );
            }
        }
    }

    #[test]
    fn coverage_is_partial_not_total() {
        // The paper's point: categorization by abstract words misses
        // papers (their 78% figure). Our abstracts usually carry topic
        // phrases, but not always.
        let (onto, corp, index) = testbed();
        let term = onto.term_ids().find(|&t| onto.level(t) == 2).unwrap();
        let query = onto.term(term).name.clone();
        let r = gopubmed_search(&onto, &corp, &index, &query, 0.0);
        let cov = r.coverage();
        assert!((0.0..=1.0).contains(&cov));
        assert!(r.n_hits >= r.uncategorized.len());
    }

    #[test]
    fn most_specific_drops_redundant_ancestors() {
        let (onto, corp, index) = testbed();
        let term = onto.term_ids().find(|&t| onto.level(t) == 3).unwrap();
        let query = onto.term(term).name.clone();
        let r = gopubmed_search(&onto, &corp, &index, &query, 0.05);
        let specific = r.most_specific(&onto);
        // For every (term, paper) pair kept, no kept descendant of the
        // term may also hold that paper.
        for (t, papers) in &specific {
            for (t2, papers2) in &specific {
                if t2 != t && onto.is_descendant(*t2, *t) {
                    for p in papers {
                        assert!(
                            !papers2.contains(p),
                            "paper {p:?} kept under both {t} and descendant {t2}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_query_yields_empty_result() {
        let (onto, corp, index) = testbed();
        let r = gopubmed_search(&onto, &corp, &index, "zzz", 0.1);
        assert_eq!(r.n_hits, 0);
        assert_eq!(r.coverage(), 0.0);
    }
}
