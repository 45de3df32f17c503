//! The immutable prepared artifact of the paradigm.
//!
//! [`EngineSnapshot::prepare`] runs the whole offline phase in order on
//! the calling thread: corpus index, the text-based context sets,
//! pattern mining and the pattern-based sets, then every requested
//! (paper set, score function) prestige table and its hierarchy
//! propagation. Each stage is parallel across contexts on up to
//! `build_threads` threads of [`EngineConfig`]. The output is an
//! `Arc<EngineSnapshot>`: immutable, shareable, and servable lock-free
//! by any number of [`Searcher`](crate::Searcher) handles.
//!
//! Every per-context computation is a pure function of its inputs, so
//! any thread count is result-identical to `build_threads == 1`
//! (asserted by the tests below). Each stage runs under its own `obs`
//! span (`prepare.index`, `prepare.prestige.pattern_citation`, …)
//! nested in `prepare.total`, so the stages' times add up to the whole
//! in metrics snapshots and traces.

use crate::ac_answer::ac_answer_set;
use crate::assign::{build_pattern_sets, build_text_sets, patterns_by_context, ContextPatterns};
use crate::config::EngineConfig;
use crate::context::{ContextPaperSets, ContextSetKind};
use crate::indexes::CorpusIndex;
use crate::prestige::citation_weighted::{weighted_citation_prestige, CrossContextWeights};
use crate::prestige::{
    citation::citation_prestige, pattern::pattern_prestige, text::text_prestige, PrestigeScores,
    ScoreFunction,
};
use crate::search::related::{more_like_this, RelatedPaper};
use crate::search::serve::Searcher;
use corpus::{Corpus, PaperId};
use ontology::Ontology;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A (paper set, score function) prestige pair.
pub type PrestigePair = (ContextSetKind, ScoreFunction);

/// Which prestige tables [`EngineSnapshot::prepare_with`] computes.
#[derive(Debug, Clone)]
pub struct PrepareOptions {
    /// The (paper set, score function) pairs to prepare. Duplicates are
    /// ignored. The special pair (pattern set, text function) scores
    /// only the contexts that have a text-set representative, as in the
    /// paper's Fig 5.3 setup.
    pub pairs: Vec<PrestigePair>,
}

impl Default for PrepareOptions {
    /// The five standard tables of the paper's §5 experiments.
    fn default() -> Self {
        Self {
            pairs: vec![
                (ContextSetKind::TextBased, ScoreFunction::Text),
                (ContextSetKind::TextBased, ScoreFunction::Citation),
                (ContextSetKind::PatternBased, ScoreFunction::Pattern),
                (ContextSetKind::PatternBased, ScoreFunction::Citation),
                (ContextSetKind::PatternBased, ScoreFunction::Text),
            ],
        }
    }
}

/// Stage names for one prestige pair: `(compute, propagate)`. Static
/// because `obs` span names are `&'static str`.
fn stage_names(pair: PrestigePair) -> (&'static str, &'static str) {
    use ContextSetKind::*;
    use ScoreFunction::*;
    match pair {
        (TextBased, Text) => ("prepare.prestige.text_text", "prepare.propagate.text_text"),
        (TextBased, Citation) => (
            "prepare.prestige.text_citation",
            "prepare.propagate.text_citation",
        ),
        (TextBased, Pattern) => (
            "prepare.prestige.text_pattern",
            "prepare.propagate.text_pattern",
        ),
        (PatternBased, Text) => (
            "prepare.prestige.pattern_text",
            "prepare.propagate.pattern_text",
        ),
        (PatternBased, Citation) => (
            "prepare.prestige.pattern_citation",
            "prepare.propagate.pattern_citation",
        ),
        (PatternBased, Pattern) => (
            "prepare.prestige.pattern_pattern",
            "prepare.propagate.pattern_pattern",
        ),
    }
}

/// The immutable output of the prepare phase: everything the online
/// phase reads, and nothing it writes.
///
/// Invariants: every field is fixed at construction; the snapshot is
/// shared by `Arc`, so serving threads never contend on anything. A
/// snapshot loaded from disk ([`crate::persist::load_snapshot`]) has
/// `patterns() == None` — mined patterns are a build intermediate the
/// query path never touches.
///
/// Queries go through [`Searcher`]; the snapshot's own methods past
/// [`searcher`](Self::searcher) are the offline hooks no endpoint
/// serves: the keyword baseline, AC-answer sets, snippets, "more like
/// this" and prestige recomputation for ablations.
pub struct EngineSnapshot {
    ontology: Ontology,
    corpus: Corpus,
    config: EngineConfig,
    index: CorpusIndex,
    text_sets: ContextPaperSets,
    pattern_sets: ContextPaperSets,
    prestige: HashMap<PrestigePair, PrestigeScores>,
    patterns: Option<ContextPatterns>,
}

impl std::fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("papers", &self.corpus.len())
            .field("terms", &self.ontology.len())
            .field("text_contexts", &self.text_sets.n_contexts())
            .field("pattern_contexts", &self.pattern_sets.n_contexts())
            .field("pairs", &self.pairs())
            .field("has_patterns", &self.patterns.is_some())
            .finish()
    }
}

impl EngineSnapshot {
    /// Run prepare with the default five prestige tables.
    pub fn prepare(ontology: Ontology, corpus: Corpus, config: EngineConfig) -> Arc<Self> {
        Self::prepare_with(ontology, corpus, config, PrepareOptions::default())
    }

    /// Run prepare for an explicit set of prestige pairs: each stage in
    /// order on the calling thread, under its own span.
    pub fn prepare_with(
        ontology: Ontology,
        corpus: Corpus,
        config: EngineConfig,
        options: PrepareOptions,
    ) -> Arc<Self> {
        let _total = obs::span("prepare.total");
        obs::gauge("corpus.papers", corpus.len() as f64);
        obs::gauge("ontology.terms", ontology.len() as f64);
        obs::gauge("prepare.build_threads", config.build_threads as f64);

        let mut pairs: Vec<PrestigePair> = Vec::new();
        for p in options.pairs {
            if !pairs.contains(&p) {
                pairs.push(p);
            }
        }
        let needs_patterns = pairs
            .iter()
            .any(|&(k, f)| k == ContextSetKind::PatternBased || f == ScoreFunction::Pattern);

        let index = {
            let _span = obs::span("prepare.index");
            CorpusIndex::build(&ontology, &corpus, &config.pagerank)
        };
        let text_sets = {
            let _span = obs::span("prepare.text_sets");
            build_text_sets(&ontology, &corpus, &index, &config)
        };
        let (patterns, pattern_sets) = if needs_patterns {
            let patterns = {
                let _span = obs::span("prepare.patterns");
                patterns_by_context(&ontology, &corpus, &index, &config)
            };
            let pattern_sets = {
                let _span = obs::span("prepare.pattern_sets");
                build_pattern_sets(&ontology, &corpus, &index, &patterns, &config)
            };
            (Some(patterns), pattern_sets)
        } else {
            let empty = ContextPaperSets::new(HashMap::new(), ContextSetKind::PatternBased);
            (None, empty)
        };

        let mut snapshot = Self {
            ontology,
            corpus,
            config,
            index,
            text_sets,
            pattern_sets,
            prestige: HashMap::with_capacity(pairs.len()),
            patterns,
        };
        for pair in pairs {
            let (compute_name, propagate_name) = stage_names(pair);
            let (kind, function) = pair;
            let sets = snapshot.sets(kind);
            let mut scores = {
                let _span = obs::span(compute_name);
                if pair == (ContextSetKind::PatternBased, ScoreFunction::Text) {
                    // Text scores over the pattern-based set exist only
                    // for contexts with a representative: score a view of
                    // the pattern sets carrying the text set's
                    // representatives (paper Fig 5.3).
                    let mut view = sets.clone();
                    view.representatives = snapshot.text_sets.representatives.clone();
                    snapshot.prestige_with_options(&view, function, true, false)
                } else {
                    // `true`: the §4 simplified (middle-only) pattern
                    // variant; the other functions ignore it.
                    snapshot.prestige_with_options(sets, function, true, false)
                }
            };
            {
                // Propagation only reads membership, and the pattern_text
                // representative view has identical members, so the plain
                // set is always the right argument here.
                let _span = obs::span(propagate_name);
                scores.propagate_hierarchy_max(&snapshot.ontology, sets);
            }
            snapshot.prestige.insert(pair, scores);
        }
        Arc::new(snapshot)
    }

    /// Assemble a snapshot from already-prepared parts (the warm-start
    /// loader; `patterns` is `None` there because mined patterns are a
    /// build intermediate, not a serve-path input).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        ontology: Ontology,
        corpus: Corpus,
        config: EngineConfig,
        index: CorpusIndex,
        text_sets: ContextPaperSets,
        pattern_sets: ContextPaperSets,
        prestige: HashMap<PrestigePair, PrestigeScores>,
        patterns: Option<ContextPatterns>,
    ) -> Self {
        Self {
            ontology,
            corpus,
            config,
            index,
            text_sets,
            pattern_sets,
            prestige,
            patterns,
        }
    }

    /// The ontology.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The configuration the snapshot was prepared with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The prepared corpus index.
    pub fn index(&self) -> &CorpusIndex {
        &self.index
    }

    /// One of the two §4 context paper sets.
    pub fn sets(&self, kind: ContextSetKind) -> &ContextPaperSets {
        match kind {
            ContextSetKind::TextBased => &self.text_sets,
            ContextSetKind::PatternBased => &self.pattern_sets,
        }
    }

    /// The prestige table for one (paper set, function) pair, if it was
    /// prepared.
    pub fn prestige(
        &self,
        kind: ContextSetKind,
        function: ScoreFunction,
    ) -> Option<&PrestigeScores> {
        self.prestige.get(&(kind, function))
    }

    /// The prepared pairs, in a stable (name-sorted) order.
    pub fn pairs(&self) -> Vec<PrestigePair> {
        let mut out: Vec<PrestigePair> = self.prestige.keys().copied().collect();
        out.sort_by_key(|&(k, f)| (k.name(), f.name()));
        out
    }

    /// The mined per-context patterns (`None` on a warm-loaded
    /// snapshot — the serve path never needs them).
    pub fn patterns(&self) -> Option<&ContextPatterns> {
        self.patterns.as_ref()
    }

    /// A lock-free serving handle over this snapshot.
    pub fn searcher(self: &Arc<Self>) -> Searcher {
        Searcher::new(Arc::clone(self))
    }

    /// The PubMed-style keyword-search baseline over the whole corpus.
    pub fn keyword_search(&self, query: &str, min_score: f64) -> Vec<(PaperId, f64)> {
        let qvec = self.index.query_vector(&self.corpus, query);
        self.index.keyword_search(&qvec, min_score)
    }

    /// The §2 AC-answer ground-truth set for a query.
    pub fn ac_answer_set(&self, query: &str) -> HashSet<PaperId> {
        let qvec = self.index.query_vector(&self.corpus, query);
        ac_answer_set(&self.index, &self.config.ac, &qvec)
    }

    /// Display snippet for a hit: the abstract window best covering the
    /// query (falls back to the title when nothing matches there).
    pub fn snippet(&self, paper: PaperId, query: &str) -> String {
        let terms = self.corpus.analyze_known(query);
        let p = self.corpus.paper(paper);
        textproc::snippet::best_snippet(
            &p.abstract_text,
            &terms,
            self.corpus.vocab(),
            &self.index.model,
            &textproc::snippet::SnippetConfig::default(),
        )
        .unwrap_or_else(|| p.title.clone())
    }

    /// "More like this": papers related to `source` through shared
    /// contexts, ranked by the §3.2 combined similarity.
    pub fn more_like_this(
        &self,
        sets: &ContextPaperSets,
        source: PaperId,
        limit: usize,
    ) -> Vec<RelatedPaper> {
        more_like_this(&self.corpus, &self.index, &self.config, sets, source, limit)
    }

    /// Recompute a prestige table with explicit options (the ablation
    /// hook): `simplified` picks the §4 middle-only pattern matching
    /// (ignored for other functions); `propagate` toggles the hierarchy
    /// max rule.
    ///
    /// # Panics
    /// For [`ScoreFunction::Pattern`] on a warm-loaded snapshot: mined
    /// patterns are not persisted, so pattern prestige cannot be
    /// recomputed from disk.
    pub fn prestige_with_options(
        &self,
        sets: &ContextPaperSets,
        function: ScoreFunction,
        simplified: bool,
        propagate: bool,
    ) -> PrestigeScores {
        let mut scores = match function {
            ScoreFunction::Citation => citation_prestige(sets, &self.index.graph, &self.config),
            ScoreFunction::Text => text_prestige(sets, &self.corpus, &self.index, &self.config),
            ScoreFunction::Pattern => pattern_prestige(
                &self.ontology,
                sets,
                &self.corpus,
                &self.index,
                self.patterns.as_ref().expect(
                    "pattern prestige needs mined patterns; \
                     warm-loaded snapshots do not carry them",
                ),
                &self.config,
                simplified,
            ),
        };
        if propagate {
            scores.propagate_hierarchy_max(&self.ontology, sets);
        }
        scores
    }

    /// The paper's §7 future-work score function: citation prestige
    /// with weighted cross-context relationships (see
    /// [`crate::prestige::citation_weighted`]), hierarchy-propagated.
    pub fn weighted_citation_prestige(
        &self,
        sets: &ContextPaperSets,
        weights: &CrossContextWeights,
    ) -> PrestigeScores {
        let mut scores = weighted_citation_prestige(
            &self.ontology,
            sets,
            &self.index.graph,
            &self.config,
            weights,
        );
        scores.propagate_hierarchy_max(&self.ontology, sets);
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{context_sets_to_json, prestige_to_json};
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig};

    fn testbed() -> (Ontology, Corpus) {
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

    fn prepare_with_threads(threads: usize) -> Arc<EngineSnapshot> {
        let (onto, corp) = testbed();
        let config = EngineConfig {
            build_threads: threads,
            ..Default::default()
        };
        EngineSnapshot::prepare(onto, corp, config)
    }

    #[test]
    fn prepare_builds_all_default_tables() {
        let snap = prepare_with_threads(1);
        assert!(snap.sets(ContextSetKind::TextBased).n_contexts() > 0);
        assert!(snap.sets(ContextSetKind::PatternBased).n_contexts() > 0);
        assert_eq!(snap.pairs().len(), 5);
        for (k, f) in snap.pairs() {
            let p = snap.prestige(k, f).expect("prepared");
            assert!(p.contexts().count() > 0, "{}/{} empty", k.name(), f.name());
        }
        assert!(snap.patterns().is_some(), "cold build keeps mined patterns");
    }

    #[test]
    fn parallel_prepare_is_result_identical_to_sequential() {
        // The acceptance criterion: --build-threads 1 vs default must
        // produce byte-identical context sets and prestige tables. The
        // canonical sorted JSON form is the equality witness.
        let seq = prepare_with_threads(1);
        let par = prepare_with_threads(4);
        for kind in [ContextSetKind::TextBased, ContextSetKind::PatternBased] {
            assert_eq!(
                context_sets_to_json(seq.sets(kind)).unwrap(),
                context_sets_to_json(par.sets(kind)).unwrap(),
                "context sets differ for {}",
                kind.name()
            );
        }
        assert_eq!(seq.pairs(), par.pairs());
        for (k, f) in seq.pairs() {
            assert_eq!(
                prestige_to_json(seq.prestige(k, f).unwrap()).unwrap(),
                prestige_to_json(par.prestige(k, f).unwrap()).unwrap(),
                "prestige differs for {}/{}",
                k.name(),
                f.name()
            );
        }
        // And the query results match exactly.
        let (sa, sb) = (seq.searcher(), par.searcher());
        for query in ["biological process", "molecular function", "binding"] {
            let a = sa.query(
                query,
                ContextSetKind::PatternBased,
                ScoreFunction::Pattern,
                0,
            );
            let b = sb.query(
                query,
                ContextSetKind::PatternBased,
                ScoreFunction::Pattern,
                0,
            );
            let (a, b) = (a.unwrap(), b.unwrap());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.paper, y.paper);
                assert_eq!(x.relevancy, y.relevancy);
                assert_eq!(x.context, y.context);
            }
        }
    }

    #[test]
    fn prepare_matches_the_stage_functions_called_directly() {
        // Prepare must not change any prepared number: its sets equal
        // the stage functions called one by one, and its tables equal
        // `prestige_with_options` with the defaults it prepares under.
        let snap = prepare_with_threads(1);
        let (onto, corp) = testbed();
        let config = EngineConfig::default();
        let index = CorpusIndex::build(&onto, &corp, &config.pagerank);
        let text_sets = build_text_sets(&onto, &corp, &index, &config);
        let patterns = patterns_by_context(&onto, &corp, &index, &config);
        let pattern_sets = build_pattern_sets(&onto, &corp, &index, &patterns, &config);
        assert_eq!(
            context_sets_to_json(snap.sets(ContextSetKind::TextBased)).unwrap(),
            context_sets_to_json(&text_sets).unwrap()
        );
        assert_eq!(
            context_sets_to_json(snap.sets(ContextSetKind::PatternBased)).unwrap(),
            context_sets_to_json(&pattern_sets).unwrap()
        );
        // The Fig 5.3 special pair scores text prestige over the pattern
        // set with the text set's representatives injected.
        let mut view = pattern_sets.clone();
        view.representatives = text_sets.representatives.clone();
        let cases = [
            (ContextSetKind::TextBased, ScoreFunction::Text, &text_sets),
            (
                ContextSetKind::TextBased,
                ScoreFunction::Citation,
                &text_sets,
            ),
            (
                ContextSetKind::PatternBased,
                ScoreFunction::Pattern,
                &pattern_sets,
            ),
            (
                ContextSetKind::PatternBased,
                ScoreFunction::Citation,
                &pattern_sets,
            ),
            (ContextSetKind::PatternBased, ScoreFunction::Text, &view),
        ];
        for (k, f, sets) in cases {
            assert_eq!(
                prestige_to_json(snap.prestige(k, f).unwrap()).unwrap(),
                prestige_to_json(&snap.prestige_with_options(sets, f, true, true)).unwrap(),
                "{}/{} differs from the direct call",
                k.name(),
                f.name()
            );
        }
    }

    #[test]
    fn prepare_with_subset_skips_unrequested_work() {
        let (onto, corp) = testbed();
        let snap = EngineSnapshot::prepare_with(
            onto,
            corp,
            EngineConfig::default(),
            PrepareOptions {
                pairs: vec![
                    (ContextSetKind::TextBased, ScoreFunction::Citation),
                    // duplicate must be ignored
                    (ContextSetKind::TextBased, ScoreFunction::Citation),
                ],
            },
        );
        assert_eq!(snap.pairs().len(), 1);
        assert!(
            snap.patterns().is_none(),
            "no pattern pair requested → no mining"
        );
        assert_eq!(snap.sets(ContextSetKind::PatternBased).n_contexts(), 0);
    }

    /// A snapshot of the engine testbed holding only `pairs`.
    fn prepare_pairs(pairs: &[PrestigePair]) -> Arc<EngineSnapshot> {
        let (onto, corp) = testbed();
        EngineSnapshot::prepare_with(
            onto,
            corp,
            EngineConfig::default(),
            PrepareOptions {
                pairs: pairs.to_vec(),
            },
        )
    }

    /// The name of a mid-level term; it maps to that term.
    fn a_query(snap: &EngineSnapshot) -> String {
        let onto = snap.ontology();
        let target = onto.max_level().clamp(3, 4);
        let term = onto
            .term_ids()
            .find(|&t| onto.level(t) == target)
            .expect("mid-level term");
        onto.term(term).name.clone()
    }

    #[test]
    fn context_search_output_is_smaller_than_keyword_search() {
        // The paper's headline: context-based search reduces output size.
        let pair = (ContextSetKind::PatternBased, ScoreFunction::Pattern);
        let snap = prepare_pairs(&[pair]);
        let q = a_query(&snap);
        let keyword = snap.keyword_search(&q, 0.0);
        let context = snap.searcher().query(&q, pair.0, pair.1, 0).unwrap();
        assert!(
            context.len() <= keyword.len(),
            "context {} vs keyword {}",
            context.len(),
            keyword.len()
        );
    }

    #[test]
    fn prestige_functions_cover_expected_contexts() {
        use ContextSetKind::{PatternBased, TextBased};
        let snap = prepare_pairs(&[
            (PatternBased, ScoreFunction::Citation),
            (PatternBased, ScoreFunction::Pattern),
            (TextBased, ScoreFunction::Text),
        ]);
        let psets = snap.sets(PatternBased);
        // Citation and pattern scores exist for all pattern contexts.
        for f in [ScoreFunction::Citation, ScoreFunction::Pattern] {
            let table = snap.prestige(PatternBased, f).unwrap();
            assert_eq!(table.contexts().count(), psets.n_contexts());
        }
        // Text scores only where representatives exist.
        let txt = snap.prestige(TextBased, ScoreFunction::Text).unwrap();
        assert_eq!(
            txt.contexts().count(),
            snap.sets(TextBased).representatives.len()
        );
    }

    #[test]
    fn snippets_cover_query_or_fall_back_to_title() {
        let pair = (ContextSetKind::PatternBased, ScoreFunction::Pattern);
        let snap = prepare_pairs(&[pair]);
        let q = a_query(&snap);
        for h in snap.searcher().query(&q, pair.0, pair.1, 5).unwrap() {
            assert!(!snap.snippet(h.paper, &q).is_empty());
        }
        // Nonsense query → title fallback.
        let s = snap.snippet(PaperId(0), "zzznonsense");
        assert_eq!(s, snap.corpus().paper(PaperId(0)).title);
    }

    #[test]
    fn weighted_citation_prestige_reduces_ties() {
        let pair = (ContextSetKind::PatternBased, ScoreFunction::Citation);
        let snap = prepare_pairs(&[pair]);
        let sets = snap.sets(pair.0);
        let plain = snap.prestige(pair.0, pair.1).unwrap();
        let weighted = snap.weighted_citation_prestige(sets, &CrossContextWeights::default());
        let tie_fraction = |p: &PrestigeScores| {
            let (mut total, mut distinct) = (0usize, 0usize);
            for c in sets.contexts_with_min_size(5) {
                let values: Vec<u64> = p.score_values(c).iter().map(|s| s.to_bits()).collect();
                total += values.len();
                distinct += values.iter().collect::<HashSet<_>>().len();
            }
            1.0 - distinct as f64 / total.max(1) as f64
        };
        assert!(
            tie_fraction(&weighted) <= tie_fraction(plain) + 1e-9,
            "weighted variant must not add ties"
        );
        // Coverage identical.
        assert_eq!(plain.contexts().count(), weighted.contexts().count());
    }
}
