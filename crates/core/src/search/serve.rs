//! Lock-free serving over an immutable [`EngineSnapshot`].
//!
//! A [`Searcher`] is a cheap, cloneable handle (`Arc` clone) that any
//! number of threads can use concurrently: every query reads only the
//! snapshot's immutable state through [`QueryParts`], so the hot path
//! takes zero locks — no `RwLock`, no lazy initialization, no interior
//! mutability of any kind. Results are deterministic and identical
//! across threads (asserted by the `snapshot_serving` integration
//! test). Offline hooks that no endpoint serves (the keyword baseline,
//! AC-answer sets, snippets, prestige recomputation) live on
//! [`EngineSnapshot`] itself.

use crate::context::{ContextId, ContextPaperSets, ContextSetKind};
use crate::prestige::{PrestigeScores, ScoreFunction};
use crate::search::exec::{QueryParts, QueryStats, SearchResult};
use crate::snapshot::EngineSnapshot;
use std::collections::HashMap;
use std::sync::Arc;

/// A serve-time problem: the snapshot lacks a requested table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The snapshot was prepared without this (paper set, function)
    /// prestige pair.
    MissingPrestige {
        /// The requested paper-set kind.
        kind: ContextSetKind,
        /// The requested score function.
        function: ScoreFunction,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingPrestige { kind, function } => write!(
                f,
                "snapshot has no prestige table for ({}, {}); prepare it with that pair",
                kind.name(),
                function.name()
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// A lock-free query handle over a shared [`EngineSnapshot`].
#[derive(Clone)]
pub struct Searcher {
    snapshot: Arc<EngineSnapshot>,
    /// Immutable prestige-table overrides consulted before the
    /// snapshot's own tables: the perturbation/ablation hook (what-if
    /// serving, quality-drift injection in tests). `None` on the
    /// ordinary serve path, so the common case costs one branch.
    overrides: Option<Arc<HashMap<(ContextSetKind, ScoreFunction), PrestigeScores>>>,
}

impl Searcher {
    /// Wrap a snapshot.
    pub fn new(snapshot: Arc<EngineSnapshot>) -> Self {
        Self {
            snapshot,
            overrides: None,
        }
    }

    /// A handle that serves `(kind, function)` from `scores` instead of
    /// the snapshot's prepared table. Other pairs are unaffected; the
    /// snapshot itself is untouched, so handles with and without the
    /// override serve concurrently from the same memory. This is the
    /// what-if/ablation hook — the quality gate's tests use it to
    /// inject a degraded prestige function and prove drift detection
    /// fires.
    pub fn with_prestige_override(
        &self,
        kind: ContextSetKind,
        function: ScoreFunction,
        scores: PrestigeScores,
    ) -> Self {
        let mut map = self
            .overrides
            .as_ref()
            .map(|m| (**m).clone())
            .unwrap_or_default();
        map.insert((kind, function), scores);
        Self {
            snapshot: Arc::clone(&self.snapshot),
            overrides: Some(Arc::new(map)),
        }
    }

    /// The underlying snapshot.
    pub fn snapshot(&self) -> &Arc<EngineSnapshot> {
        &self.snapshot
    }

    /// The ontology.
    pub fn ontology(&self) -> &ontology::Ontology {
        self.snapshot.ontology()
    }

    /// The corpus.
    pub fn corpus(&self) -> &corpus::Corpus {
        self.snapshot.corpus()
    }

    /// The configuration.
    pub fn config(&self) -> &crate::config::EngineConfig {
        self.snapshot.config()
    }

    /// The prepared index state.
    pub fn index(&self) -> &crate::indexes::CorpusIndex {
        self.snapshot.index()
    }

    /// One of the two §4 context paper sets.
    pub fn sets(&self, kind: ContextSetKind) -> &ContextPaperSets {
        self.snapshot.sets(kind)
    }

    /// A prepared prestige table, if the snapshot (or an override
    /// installed with
    /// [`with_prestige_override`](Self::with_prestige_override)) has
    /// it.
    pub fn prestige(
        &self,
        kind: ContextSetKind,
        function: ScoreFunction,
    ) -> Option<&PrestigeScores> {
        if let Some(overrides) = &self.overrides {
            if let Some(table) = overrides.get(&(kind, function)) {
                return Some(table);
            }
        }
        self.snapshot.prestige(kind, function)
    }

    fn parts(&self) -> QueryParts<'_> {
        QueryParts {
            ontology: self.snapshot.ontology(),
            corpus: self.snapshot.corpus(),
            config: self.snapshot.config(),
            index: self.snapshot.index(),
        }
    }

    /// Serve one query against a prepared (paper set, function) pair.
    pub fn query(
        &self,
        query: &str,
        kind: ContextSetKind,
        function: ScoreFunction,
        limit: usize,
    ) -> Result<Vec<SearchResult>, ServeError> {
        self.query_with_stats(query, kind, function, limit)
            .map(|(results, _)| results)
    }

    /// [`query`](Self::query) plus the execution's [`QueryStats`].
    /// This is the serve path proper: it carries the `serve.query` span
    /// (the end-to-end latency series the rolling windows and SLOs
    /// watch) and the `serve.queries` / `serve.errors` counters.
    pub fn query_with_stats(
        &self,
        query: &str,
        kind: ContextSetKind,
        function: ScoreFunction,
        limit: usize,
    ) -> Result<(Vec<SearchResult>, QueryStats), ServeError> {
        let _span = obs::span("serve.query");
        obs::counter("serve.queries", 1);
        let Some(prestige) = self.prestige(kind, function) else {
            obs::counter("serve.errors", 1);
            return Err(ServeError::MissingPrestige { kind, function });
        };
        Ok(self
            .parts()
            .search_with_stats(query, self.sets(kind), prestige, limit))
    }

    /// Tasks 4 + 5 with explicit tables (the experiment harness passes
    /// ablation variants through here).
    pub fn search(
        &self,
        query: &str,
        sets: &ContextPaperSets,
        prestige: &PrestigeScores,
        limit: usize,
    ) -> Vec<SearchResult> {
        self.parts().search(query, sets, prestige, limit)
    }

    /// [`search`](Self::search) plus the execution's [`QueryStats`].
    pub fn search_with_stats(
        &self,
        query: &str,
        sets: &ContextPaperSets,
        prestige: &PrestigeScores,
        limit: usize,
    ) -> (Vec<SearchResult>, QueryStats) {
        self.parts().search_with_stats(query, sets, prestige, limit)
    }

    /// Task 3: select the contexts a query should search.
    pub fn select_contexts(&self, query: &str, sets: &ContextPaperSets) -> Vec<(ContextId, f64)> {
        self.parts().select_contexts(query, sets).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig};

    fn testbed() -> (ontology::Ontology, corpus::Corpus) {
        let onto = generate_ontology(&GeneratorConfig {
            n_terms: 70,
            seed: 11,
            ..Default::default()
        });
        let corp = generate_corpus(
            &onto,
            &CorpusConfig {
                n_papers: 160,
                seed: 13,
                body_len: (40, 60),
                abstract_len: (20, 30),
                ..Default::default()
            },
        );
        (onto, corp)
    }

    #[test]
    fn missing_pair_is_a_clean_error() {
        let (onto, corp) = testbed();
        let snap = EngineSnapshot::prepare_with(
            onto,
            corp,
            EngineConfig::default(),
            crate::snapshot::PrepareOptions {
                pairs: vec![(ContextSetKind::TextBased, ScoreFunction::Citation)],
            },
        );
        let err = snap
            .searcher()
            .query(
                "binding",
                ContextSetKind::PatternBased,
                ScoreFunction::Pattern,
                5,
            )
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::MissingPrestige {
                kind: ContextSetKind::PatternBased,
                function: ScoreFunction::Pattern
            }
        );
        assert!(err.to_string().contains("pattern"));
    }

    #[test]
    fn cloned_handles_share_the_snapshot() {
        let (onto, corp) = testbed();
        let snap = EngineSnapshot::prepare_with(
            onto,
            corp,
            EngineConfig::default(),
            crate::snapshot::PrepareOptions {
                pairs: vec![(ContextSetKind::TextBased, ScoreFunction::Citation)],
            },
        );
        let a = snap.searcher();
        let b = a.clone();
        assert!(Arc::ptr_eq(a.snapshot(), b.snapshot()));
    }

    /// A searcher over the (pattern, pattern) and (pattern, citation)
    /// tables, and the name of a mid-level term, which maps to that term.
    fn pattern_searcher() -> (Searcher, String, ontology::TermId) {
        let (onto, corp) = testbed();
        let snap = EngineSnapshot::prepare_with(
            onto,
            corp,
            EngineConfig::default(),
            crate::snapshot::PrepareOptions {
                pairs: vec![
                    (ContextSetKind::PatternBased, ScoreFunction::Pattern),
                    (ContextSetKind::PatternBased, ScoreFunction::Citation),
                ],
            },
        );
        let onto = snap.ontology();
        let target = onto.max_level().clamp(3, 4);
        let term = onto
            .term_ids()
            .find(|&t| onto.level(t) == target)
            .expect("mid-level term");
        let name = onto.term(term).name.clone();
        (snap.searcher(), name, term)
    }

    fn pattern_query(s: &Searcher, query: &str, limit: usize) -> Vec<SearchResult> {
        s.query(
            query,
            ContextSetKind::PatternBased,
            ScoreFunction::Pattern,
            limit,
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_search_returns_ranked_results() {
        let (s, q, _) = pattern_searcher();
        let hits = pattern_query(&s, &q, 20);
        assert!(!hits.is_empty(), "query {q:?} found nothing");
        for w in hits.windows(2) {
            assert!(w[0].relevancy >= w[1].relevancy);
        }
        let sets = s.sets(ContextSetKind::PatternBased);
        for h in &hits {
            assert!((0.0..=1.0 + 1e-9).contains(&h.relevancy));
            assert!(sets.is_member(h.context, h.paper));
        }
    }

    #[test]
    fn search_results_are_topically_relevant() {
        let (s, q, term) = pattern_searcher();
        let hits = pattern_query(&s, &q, 10);
        // At least one top hit's true topics relate to the query term
        // (itself, an ancestor, or a descendant).
        let onto = s.ontology();
        let related =
            hits.iter().any(|h| {
                s.corpus().paper(h.paper).true_topics.iter().any(|&t| {
                    t == term || onto.is_descendant(t, term) || onto.is_descendant(term, t)
                })
            });
        assert!(related, "no topically related paper in top hits for {q:?}");
    }

    #[test]
    fn limit_zero_means_unlimited() {
        let (s, q, _) = pattern_searcher();
        let all = pattern_query(&s, &q, 0);
        let limited = pattern_query(&s, &q, 3);
        assert!(limited.len() <= 3);
        assert!(all.len() >= limited.len());
    }

    #[test]
    fn nonsense_query_returns_empty() {
        let (s, _, _) = pattern_searcher();
        let hits = s
            .query(
                "zzz qqq xxx",
                ContextSetKind::PatternBased,
                ScoreFunction::Citation,
                10,
            )
            .unwrap();
        assert!(hits.is_empty());
    }
}
