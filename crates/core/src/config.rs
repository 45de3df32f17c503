//! Engine configuration: every weight and threshold of the paradigm,
//! grouped by the paper section that introduces it.

use patterns::{MatcherConfig, PatternConfig};

/// Weights of the text-based similarity components (§3.2):
/// `Sim(PX, PC) = Σ weight_i · Sim_i` over title, abstract, body, index
/// terms, authors, and references.
#[derive(Debug, Clone)]
pub struct TextSimWeights {
    /// Title cosine weight.
    pub title: f64,
    /// Abstract cosine weight.
    pub abstract_text: f64,
    /// Body cosine weight.
    pub body: f64,
    /// Index-term cosine weight.
    pub index_terms: f64,
    /// Author-overlap weight.
    pub authors: f64,
    /// Citation-similarity (bib coupling + co-citation) weight.
    pub references: f64,
    /// Level-0 author overlap weight inside SimAuthors.
    pub l0_author: f64,
    /// Level-1 author overlap weight inside SimAuthors.
    pub l1_author: f64,
    /// BibWeight inside SimReferences (1 − BibWeight goes to
    /// co-citation).
    pub bib_weight: f64,
}

impl Default for TextSimWeights {
    fn default() -> Self {
        Self {
            title: 0.2,
            abstract_text: 0.25,
            body: 0.2,
            index_terms: 0.1,
            authors: 0.1,
            references: 0.15,
            l0_author: 0.7,
            l1_author: 0.3,
            bib_weight: 0.5,
        }
    }
}

/// AC-answer-set construction knobs (§2).
#[derive(Debug, Clone)]
pub struct AcAnswerConfig {
    /// High keyword-search threshold for the initial (seed) set.
    pub seed_threshold: f64,
    /// Cosine-to-centroid threshold for the text-based expansion.
    pub text_expansion_threshold: f64,
    /// Maximum citation-path length for citation expansion (paper: 2).
    pub max_citation_depth: u32,
    /// A citation-expansion candidate needs a global PageRank score at
    /// or above this quantile of all papers ("high citation scores").
    pub citation_score_quantile: f64,
}

impl Default for AcAnswerConfig {
    fn default() -> Self {
        Self {
            seed_threshold: 0.30,
            text_expansion_threshold: 0.15,
            max_citation_depth: 2,
            citation_score_quantile: 0.90,
        }
    }
}

/// Context-assignment knobs (§4).
#[derive(Debug, Clone)]
pub struct AssignConfig {
    /// A paper joins a text-based context if its whole-text cosine to
    /// the representative paper reaches this.
    pub text_threshold: f64,
    /// A paper joins a pattern-based context if its simplified pattern
    /// score is positive and its best middle match reaches this.
    pub pattern_min_strength: f64,
    /// Contexts smaller than this are excluded from experiments (the
    /// paper drops contexts ≤ 100 papers at 72k scale).
    pub min_context_size: usize,
}

impl Default for AssignConfig {
    fn default() -> Self {
        Self {
            text_threshold: 0.12,
            pattern_min_strength: 0.3,
            min_context_size: 20,
        }
    }
}

/// Top-level engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Text-similarity weights (§3.2).
    pub text_sim: TextSimWeights,
    /// PageRank parameters for the citation-based function (§3.1).
    pub pagerank: citegraph::PageRankConfig,
    /// Pattern construction knobs (§3.3).
    pub pattern: PatternConfig,
    /// Pattern matching knobs; `middle_only` is forced on for the
    /// simplified §4 variant regardless of this value.
    pub matcher: MatcherConfig,
    /// Whether pattern prestige uses extended (side-/middle-joined)
    /// patterns; §4's simplified variant does not.
    pub use_extended_patterns: bool,
    /// Context assignment (§4).
    pub assign: AssignConfig,
    /// AC-answer sets (§2).
    pub ac: AcAnswerConfig,
    /// Relevancy weights (§3): `w_prestige` and `w_matching`.
    pub relevancy: RelevancyWeights,
    /// Query-time context selection.
    pub selection: SelectionConfig,
    /// Worker threads for prepare's per-context computations
    /// ([`crate::EngineSnapshot::prepare`] runs its stages in order, each
    /// parallel across contexts): 0 ⇒ available parallelism, 1 ⇒ one
    /// thread. Result-identical at any value. It does not bound
    /// [`crate::indexes::CorpusIndex::build`], which always runs its
    /// three independent parts side by side.
    pub build_threads: usize,
}

/// `R(p,q,c) = w_prestige · prestige + w_matching · match` (§3).
#[derive(Debug, Clone)]
pub struct RelevancyWeights {
    /// Weight of the pre-computed prestige score.
    pub prestige: f64,
    /// Weight of the query-to-paper text-matching score.
    pub matching: f64,
}

impl Default for RelevancyWeights {
    fn default() -> Self {
        Self {
            prestige: 0.5,
            matching: 0.5,
        }
    }
}

/// Query-time context selection knobs.
#[derive(Debug, Clone)]
pub struct SelectionConfig {
    /// Maximum number of contexts searched per query.
    pub max_contexts: usize,
    /// Minimum name-match score for a context to be selected.
    pub min_match: f64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        Self {
            max_contexts: 3,
            min_match: 0.3,
        }
    }
}

/// A configuration problem found by [`EngineConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid engine config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl EngineConfig {
    /// Check invariants the score functions rely on. `build`-time use is
    /// optional (the defaults always pass); call it when accepting
    /// external configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let w = &self.text_sim;
        for (name, v) in [
            ("title", w.title),
            ("abstract", w.abstract_text),
            ("body", w.body),
            ("index_terms", w.index_terms),
            ("authors", w.authors),
            ("references", w.references),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(ConfigError(format!(
                    "text weight {name} = {v} out of [0,1]"
                )));
            }
        }
        let section_sum =
            w.title + w.abstract_text + w.body + w.index_terms + w.authors + w.references;
        if (section_sum - 1.0).abs() > 1e-6 {
            return Err(ConfigError(format!(
                "text similarity weights sum to {section_sum}, expected 1 (keeps Sim in [0,1])"
            )));
        }
        if (w.l0_author + w.l1_author - 1.0).abs() > 1e-6 {
            return Err(ConfigError("author level weights must sum to 1".into()));
        }
        if !(0.0..=1.0).contains(&w.bib_weight) {
            return Err(ConfigError("BibWeight must be in [0,1]".into()));
        }
        if !(0.0..=1.0).contains(&self.pagerank.damping) {
            return Err(ConfigError("PageRank damping must be in [0,1]".into()));
        }
        if (self.relevancy.prestige + self.relevancy.matching - 1.0).abs() > 1e-6 {
            return Err(ConfigError(
                "relevancy weights must sum to 1 (keeps R in [0,1])".into(),
            ));
        }
        if self.selection.max_contexts == 0 {
            return Err(ConfigError("max_contexts must be positive".into()));
        }
        if self.ac.max_citation_depth > 4 {
            return Err(ConfigError(
                "citation expansion beyond 4 hops loses context (paper uses 2)".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        let w = &c.text_sim;
        let section_sum =
            w.title + w.abstract_text + w.body + w.index_terms + w.authors + w.references;
        assert!((section_sum - 1.0).abs() < 1e-9, "weights sum to 1");
        assert!((w.l0_author + w.l1_author - 1.0).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&w.bib_weight));
        assert!((c.relevancy.prestige + c.relevancy.matching - 1.0).abs() < 1e-9);
        assert!(c.ac.max_citation_depth == 2, "paper uses paths ≤ 2");
        c.validate().expect("defaults validate");
    }

    #[test]
    fn validation_rejects_bad_weights() {
        let mut c = EngineConfig::default();
        c.text_sim.title = 0.9; // sections no longer sum to 1
        assert!(c.validate().is_err());

        let mut c = EngineConfig::default();
        c.relevancy.prestige = 0.9;
        assert!(c.validate().is_err());

        let mut c = EngineConfig::default();
        c.pagerank.damping = 1.5;
        assert!(c.validate().is_err());

        let mut c = EngineConfig::default();
        c.selection.max_contexts = 0;
        assert!(c.validate().is_err());

        let mut c = EngineConfig::default();
        c.ac.max_citation_depth = 9;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("loses context"));
    }
}
