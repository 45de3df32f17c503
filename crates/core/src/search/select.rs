//! Query-time context selection (task 3 of the paradigm): map a
//! keyword query onto the contexts it should search.
//!
//! A context matches a query by IDF-weighted Dice overlap between the
//! query's tokens and the context term's name tokens. The symmetric
//! (Dice) form matters in an ontology with compositional names: a
//! query paraphrasing "regulation of transport" also hits every
//! descendant of that term (their names *contain* those words), but the
//! descendants' extra words lower their Dice score, so the most
//! specific *exactly-matching* term ranks first.

use crate::config::SelectionConfig;
use crate::context::{ContextId, ContextPaperSets};
use crate::indexes::CorpusIndex;
use textproc::TermId;

/// Rank the contexts of `sets` against query tokens; returns
/// `(context, match score)` pairs, best first, filtered and truncated
/// per `config`.
///
/// Only contexts that share a word with the query are looked at: the
/// query's distinct words, walked in ascending order, each add their
/// IDF to the contexts of their [name postings]. Each name's IDF mass
/// is prepared at index build ([`CorpusIndex::name_idf_mass`]).
///
/// [name postings]: CorpusIndex::contexts_naming
pub fn select_contexts(
    query_tokens: &[TermId],
    index: &CorpusIndex,
    sets: &ContextPaperSets,
    config: &SelectionConfig,
) -> Vec<(ContextId, f64)> {
    // IDF masses are summed in ascending word order — the query mass
    // and every context's shared mass here, the prepared name masses at
    // build. Summing over hash-set iteration would give each thread its
    // own ULP-level rounding (per-thread hash seeds), letting near-tied
    // contexts swap ranks across serving threads.
    let mut query_terms: Vec<TermId> = query_tokens.to_vec();
    query_terms.sort_unstable();
    query_terms.dedup();
    if query_terms.is_empty() {
        return Vec::new();
    }
    let query_mass: f64 = query_terms.iter().map(|&t| index.model.idf(t)).sum();
    // Shared mass per context, `None` until a query word names it.
    let mut shared: Vec<Option<f64>> = vec![None; index.name_idf_mass.len()];
    let mut named: Vec<ContextId> = Vec::new();
    for &t in &query_terms {
        let idf = index.model.idf(t);
        for &c in index.contexts_naming(t) {
            match shared.get_mut(c.index()) {
                Some(Some(mass)) => *mass += idf,
                Some(slot) => {
                    *slot = Some(idf);
                    named.push(c);
                }
                None => {}
            }
        }
    }
    let mut scored: Vec<(ContextId, f64)> = named
        .into_iter()
        .filter_map(|c| {
            let shared = (*shared.get(c.index())?)?;
            if shared <= 0.0 || !sets.contains_context(c) {
                return None;
            }
            let name_mass = *index.name_idf_mass.get(c.index())?;
            let dice = 2.0 * shared / (query_mass + name_mass);
            Some((c, dice))
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.retain(|&(_, s)| s >= config.min_match);
    scored.truncate(config.max_contexts);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::context::ContextSetKind;
    use citegraph::PageRankConfig;
    use corpus::{generate_corpus, CorpusConfig, PaperId};
    use ontology::{generate_ontology, GeneratorConfig, Ontology};
    use std::collections::HashMap;

    fn setup() -> (Ontology, corpus::Corpus, CorpusIndex) {
        let onto = generate_ontology(&GeneratorConfig {
            n_terms: 80,
            seed: 3,
            ..Default::default()
        });
        let corpus = generate_corpus(
            &onto,
            &CorpusConfig {
                n_papers: 120,
                seed: 5,
                body_len: (40, 60),
                abstract_len: (20, 30),
                ..Default::default()
            },
        );
        let index = CorpusIndex::build(&onto, &corpus, &PageRankConfig::default());
        (onto, corpus, index)
    }

    fn all_contexts_sets(onto: &Ontology) -> ContextPaperSets {
        let members: HashMap<ContextId, Vec<PaperId>> =
            onto.term_ids().map(|t| (t, vec![PaperId(0)])).collect();
        ContextPaperSets::new(members, ContextSetKind::PatternBased)
    }

    #[test]
    fn exact_name_query_selects_the_term_first() {
        let (onto, corpus, index) = setup();
        let sets = all_contexts_sets(&onto);
        let cfg = EngineConfig::default().selection;
        // Pick a mid-level term and query its exact name.
        let target = onto.max_level().clamp(3, 4);
        let term = onto
            .term_ids()
            .find(|&t| onto.level(t) == target)
            .expect("mid-level term");
        let q = corpus.analyze_known(&onto.term(term).name);
        let selected = select_contexts(&q, &index, &sets, &cfg);
        assert!(!selected.is_empty());
        assert_eq!(selected[0].0, term, "exact match must rank first");
    }

    #[test]
    fn descendants_rank_below_exact_match() {
        let (onto, corpus, index) = setup();
        let sets = all_contexts_sets(&onto);
        let cfg = crate::config::SelectionConfig {
            max_contexts: 50,
            min_match: 0.0,
        };
        let term = onto
            .term_ids()
            .filter(|&t| onto.level(t) >= 2 && !onto.children(t).is_empty())
            .max_by_key(|&t| onto.level(t))
            .expect("internal term");
        let q = corpus.analyze_known(&onto.term(term).name);
        let selected = select_contexts(&q, &index, &sets, &cfg);
        let pos = |c: ContextId| selected.iter().position(|&(x, _)| x == c);
        let term_pos = pos(term).expect("term selected");
        for &child in onto.children(term) {
            if let Some(p) = pos(child) {
                assert!(term_pos < p, "parent exact match before child");
            }
        }
    }

    #[test]
    fn unrelated_query_selects_nothing() {
        let (onto, _, index) = setup();
        let sets = all_contexts_sets(&onto);
        let cfg = EngineConfig::default().selection;
        let selected = select_contexts(&[], &index, &sets, &cfg);
        assert!(selected.is_empty());
    }

    #[test]
    fn max_contexts_is_respected() {
        let (onto, corpus, index) = setup();
        let sets = all_contexts_sets(&onto);
        let cfg = crate::config::SelectionConfig {
            max_contexts: 3,
            min_match: 0.0,
        };
        // A common root word matches many contexts.
        let root = onto.roots()[0];
        let q = corpus.analyze_known(&onto.term(root).name);
        let selected = select_contexts(&q, &index, &sets, &cfg);
        assert!(selected.len() <= 3);
    }

    #[test]
    fn scores_descend() {
        let (onto, corpus, index) = setup();
        let sets = all_contexts_sets(&onto);
        let cfg = crate::config::SelectionConfig {
            max_contexts: 20,
            min_match: 0.0,
        };
        let term = onto.term_ids().find(|&t| onto.level(t) >= 3).unwrap();
        let q = corpus.analyze_known(&onto.term(term).name);
        let selected = select_contexts(&q, &index, &sets, &cfg);
        for w in selected.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
