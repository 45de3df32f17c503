//! Umbrella crate for the context-based literature search reproduction
//! (Ratprasartporn et al., ICDE 2007).
//!
//! Re-exports every workspace crate and provides [`demo`] — a one-call
//! builder of a synthetic ontology + corpus + prepared snapshot used by
//! the examples and integration tests.

pub extern crate bench;
pub use citegraph;
pub use context_search;
pub use corpus;
pub use eval;
pub use ontology;
pub use patterns;
pub use serve;
pub use textproc;

/// Convenience builders for a ready-to-search demo setup.
///
/// ```
/// use litsearch::context_search::{ContextSetKind, ScoreFunction};
/// use litsearch::demo::{snapshot_with, Scale};
///
/// let pair = (ContextSetKind::PatternBased, ScoreFunction::Pattern);
/// let snapshot = snapshot_with(Scale::Tiny, 42, &[pair]);
/// let hits = snapshot.searcher().query("biological process", pair.0, pair.1, 5).unwrap();
/// assert!(hits.len() <= 5);
/// ```
pub mod demo {
    use context_search::snapshot::PrestigePair;
    use context_search::{EngineConfig, EngineSnapshot, PrepareOptions};
    use corpus::CorpusConfig;
    use ontology::GeneratorConfig;
    use std::sync::Arc;

    /// Scale of a demo setup.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Scale {
        /// ~100 terms / ~200 papers — CI-friendly, builds in seconds.
        Tiny,
        /// ~400 terms / ~2,000 papers — interactive exploration.
        Small,
        /// ~1,200 terms / ~12,000 papers — the default experiment scale.
        Medium,
    }

    /// Ontology + corpus generator configs for a scale and seed.
    pub fn configs(scale: Scale, seed: u64) -> (GeneratorConfig, CorpusConfig) {
        let (n_terms, n_papers) = match scale {
            Scale::Tiny => (100, 200),
            Scale::Small => (400, 2_000),
            Scale::Medium => (1_200, 12_000),
        };
        let onto = GeneratorConfig {
            n_terms,
            seed,
            ..Default::default()
        };
        let mut corp = CorpusConfig {
            n_papers,
            seed: seed.wrapping_add(1),
            ..Default::default()
        };
        if scale == Scale::Tiny {
            corp.body_len = (40, 80);
            corp.abstract_len = (20, 40);
        }
        (onto, corp)
    }

    /// Prepare a snapshot at the given scale holding only the `pairs`
    /// prestige tables.
    pub fn snapshot_with(scale: Scale, seed: u64, pairs: &[PrestigePair]) -> Arc<EngineSnapshot> {
        let (ocfg, ccfg) = configs(scale, seed);
        let onto = ontology::generate_ontology(&ocfg);
        let corp = corpus::generate_corpus(&onto, &ccfg);
        let options = PrepareOptions {
            pairs: pairs.to_vec(),
        };
        EngineSnapshot::prepare_with(onto, corp, EngineConfig::default(), options)
    }

    /// Prepare a full immutable snapshot (all five standard prestige
    /// tables) at the given scale.
    pub fn snapshot(scale: Scale, seed: u64) -> Arc<EngineSnapshot> {
        snapshot_with(scale, seed, &PrepareOptions::default().pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::demo::{snapshot_with, Scale};
    use context_search::{ContextSetKind, ScoreFunction};

    #[test]
    fn tiny_demo_engine_builds_and_searches() {
        let pair = (ContextSetKind::PatternBased, ScoreFunction::Citation);
        let snap = snapshot_with(Scale::Tiny, 42, &[pair]);
        assert!(snap.corpus().len() == 200);
        assert!(snap.sets(pair.0).n_contexts() > 10);
        let hits = snap
            .searcher()
            .query("biological process", pair.0, pair.1, 5);
        assert!(hits.unwrap().len() <= 5);
    }
}
