//! Property-based integration tests: random small ontologies and
//! corpora must always produce valid snapshots, scores, and metrics.

use litsearch::context_search::{
    ContextSetKind, EngineConfig, EngineSnapshot, PrepareOptions, ScoreFunction,
};
use litsearch::corpus::{generate_corpus, CorpusConfig};
use litsearch::eval::{separability_sd, top_k_percent_overlap};
use litsearch::ontology::{generate_ontology, GeneratorConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// A random small snapshot holding the pattern-based set's tables for
/// `functions`.
fn tiny_snapshot(
    ont_seed: u64,
    corp_seed: u64,
    n_terms: usize,
    n_papers: usize,
    functions: &[ScoreFunction],
) -> Arc<EngineSnapshot> {
    let onto = generate_ontology(&GeneratorConfig {
        n_terms,
        seed: ont_seed,
        ..Default::default()
    });
    let corp = generate_corpus(
        &onto,
        &CorpusConfig {
            n_papers,
            seed: corp_seed,
            body_len: (20, 40),
            abstract_len: (10, 20),
            ..Default::default()
        },
    );
    let pairs = functions
        .iter()
        .map(|&f| (ContextSetKind::PatternBased, f))
        .collect();
    EngineSnapshot::prepare_with(
        onto,
        corp,
        EngineConfig::default(),
        PrepareOptions { pairs },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_engines_always_produce_valid_state(
        ont_seed in 0u64..1000,
        corp_seed in 0u64..1000,
        n_terms in 20usize..60,
        n_papers in 30usize..80,
    ) {
        let functions = [ScoreFunction::Citation, ScoreFunction::Pattern];
        let e = tiny_snapshot(ont_seed, corp_seed, n_terms, n_papers, &functions);
        let sets = e.sets(ContextSetKind::PatternBased);
        // Every member id is a real paper; sets are sorted and deduped.
        for c in sets.contexts() {
            let members = sets.members(c);
            for w in members.windows(2) {
                prop_assert!(w[0] < w[1], "sorted, deduped");
            }
            for &p in members {
                prop_assert!(p.index() < e.corpus().len());
            }
        }
        // All prestige functions bounded.
        for f in functions {
            let prestige = e.prestige(ContextSetKind::PatternBased, f).unwrap();
            for c in prestige.contexts() {
                for &(_, s) in prestige.scores(c).iter() {
                    prop_assert!(s.is_finite() && (0.0..=1.0 + 1e-9).contains(&s));
                }
                let sd = separability_sd(prestige.score_values(c), 10);
                prop_assert!(sd.is_finite() && sd >= 0.0);
            }
        }
    }

    #[test]
    fn overlap_ratio_of_any_two_functions_is_bounded(
        seed in 0u64..500,
    ) {
        let functions = [ScoreFunction::Citation, ScoreFunction::Pattern];
        let e = tiny_snapshot(seed, seed + 1, 30, 50, &functions);
        let sets = e.sets(ContextSetKind::PatternBased);
        let a = e.prestige(ContextSetKind::PatternBased, ScoreFunction::Citation).unwrap();
        let b = e.prestige(ContextSetKind::PatternBased, ScoreFunction::Pattern).unwrap();
        for c in sets.contexts_with_min_size(5) {
            let pa: Vec<(u32, f64)> = a.scores(c).iter().map(|&(p, s)| (p.0, s)).collect();
            let pb: Vec<(u32, f64)> = b.scores(c).iter().map(|&(p, s)| (p.0, s)).collect();
            for pct in [0.05, 0.10, 0.20] {
                let r = top_k_percent_overlap(&pa, &pb, pct);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&r), "overlap {r}");
            }
        }
    }

    #[test]
    fn search_never_panics_on_arbitrary_queries(
        seed in 0u64..300,
        query in "[a-z ]{0,40}",
    ) {
        let e = tiny_snapshot(seed, seed + 7, 25, 40, &[ScoreFunction::Pattern]);
        let hits = e
            .searcher()
            .query(&query, ContextSetKind::PatternBased, ScoreFunction::Pattern, 10)
            .unwrap();
        for w in hits.windows(2) {
            prop_assert!(w[0].relevancy >= w[1].relevancy);
        }
        let _ = e.ac_answer_set(&query);
        let _ = e.keyword_search(&query, 0.0);
    }
}
