//! Integration tests spanning every crate: the full pipeline from
//! ontology generation to ranked context-based search output.

use litsearch::context_search::assign::{build_pattern_sets, patterns_by_context};
use litsearch::context_search::{ContextSetKind, EngineSnapshot, ScoreFunction};
use litsearch::corpus::queries::{generate_queries, QueryConfig};
use litsearch::demo::{snapshot_with, Scale};
use std::sync::Arc;

use ContextSetKind::{PatternBased, TextBased};

fn tiny_snapshot(seed: u64, pairs: &[(ContextSetKind, ScoreFunction)]) -> Arc<EngineSnapshot> {
    snapshot_with(Scale::Tiny, seed, pairs)
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let pair = (PatternBased, ScoreFunction::Pattern);
    let (e1, e2) = (tiny_snapshot(5, &[pair]), tiny_snapshot(5, &[pair]));
    let (s1, s2) = (e1.sets(PatternBased), e2.sets(PatternBased));
    assert_eq!(s1.n_contexts(), s2.n_contexts());
    let p1 = e1.prestige(pair.0, pair.1).unwrap();
    let p2 = e2.prestige(pair.0, pair.1).unwrap();
    for c in s1.contexts() {
        assert_eq!(p1.scores(c), p2.scores(c), "context {c}");
    }
    let q = "membrane transport regulation";
    let h1 = e1.searcher().query(q, pair.0, pair.1, 10).unwrap();
    let h2 = e2.searcher().query(q, pair.0, pair.1, 10).unwrap();
    assert_eq!(h1.len(), h2.len());
    for (a, b) in h1.iter().zip(&h2) {
        assert_eq!(a.paper, b.paper);
        assert!((a.relevancy - b.relevancy).abs() < 1e-12);
    }
}

#[test]
fn all_three_score_functions_produce_valid_scores() {
    let pairs = [
        (PatternBased, ScoreFunction::Citation),
        (PatternBased, ScoreFunction::Pattern),
        (TextBased, ScoreFunction::Text),
    ];
    let e = tiny_snapshot(9, &pairs);
    for (kind, function) in pairs {
        let prestige = e.prestige(kind, function).unwrap();
        let mut n_scores = 0usize;
        for c in prestige.contexts() {
            for &(p, s) in prestige.scores(c).iter() {
                assert!(
                    s.is_finite() && (0.0..=1.0 + 1e-9).contains(&s),
                    "{function:?} score {s} for {p:?} in {c}"
                );
                n_scores += 1;
            }
        }
        assert!(n_scores > 0, "{function:?} produced no scores");
    }
}

#[test]
fn hierarchy_propagation_gives_ancestors_at_least_descendant_scores() {
    let e = tiny_snapshot(13, &[(PatternBased, ScoreFunction::Pattern)]);
    let sets = e.sets(PatternBased);
    let prestige = e.prestige(PatternBased, ScoreFunction::Pattern).unwrap();
    let onto = e.ontology();
    for c in sets.contexts() {
        for &child in onto.children(c) {
            for &(p, s_child) in prestige.scores(child).iter() {
                if sets.is_member(c, p) {
                    let s_parent = prestige
                        .get(c, p)
                        .expect("member papers have scores after propagation");
                    assert!(
                        s_parent >= s_child - 1e-9,
                        "paper {p:?}: parent {c} has {s_parent}, child {child} has {s_child}"
                    );
                }
            }
        }
    }
}

#[test]
fn citation_scores_tie_more_than_text_scores() {
    // The mechanism behind the paper's separability result: sparse
    // in-context citation graphs produce masses of identical scores.
    let e = tiny_snapshot(
        21,
        &[
            (TextBased, ScoreFunction::Citation),
            (TextBased, ScoreFunction::Text),
        ],
    );
    let tsets = e.sets(TextBased);
    let citation = e.prestige(TextBased, ScoreFunction::Citation).unwrap();
    let text = e.prestige(TextBased, ScoreFunction::Text).unwrap();
    let tie_fraction = |p: &litsearch::context_search::PrestigeScores| {
        let (mut total, mut distinct) = (0usize, 0usize);
        for c in tsets.contexts_with_min_size(10) {
            let values = p.score_values(c);
            let set: std::collections::HashSet<u64> = values.iter().map(|v| v.to_bits()).collect();
            total += values.len();
            distinct += set.len();
        }
        1.0 - distinct as f64 / total.max(1) as f64
    };
    let cit_ties = tie_fraction(citation);
    let text_ties = tie_fraction(text);
    assert!(
        cit_ties > text_ties,
        "citation tie fraction {cit_ties:.3} should exceed text {text_ties:.3}"
    );
}

#[test]
fn queries_find_their_ground_truth_contexts() {
    // Context selection reads the pattern-based sets and no prestige
    // table: build the sets with prepare's stage functions.
    let e = tiny_snapshot(33, &[]);
    let (onto, corp, index, config) = (e.ontology(), e.corpus(), e.index(), e.config());
    let patterns = patterns_by_context(onto, corp, index, config);
    let sets = build_pattern_sets(onto, corp, index, &patterns, config);
    let queries = generate_queries(
        onto,
        corp,
        &QueryConfig {
            n_queries: 10,
            min_level: 2,
            ..Default::default()
        },
    );
    assert!(!queries.is_empty());
    let searcher = e.searcher();
    let mut hits = 0;
    for q in &queries {
        let selected = searcher.select_contexts(&q.text, &sets);
        let found = selected.iter().any(|&(c, _)| {
            c == q.mapped_term
                || onto.is_descendant(c, q.mapped_term)
                || onto.is_descendant(q.mapped_term, c)
        });
        if found {
            hits += 1;
        }
    }
    assert!(
        hits * 2 >= queries.len(),
        "selection should find the mapped term family for most queries: {hits}/{}",
        queries.len()
    );
}

#[test]
fn ac_answer_sets_are_reasonable_ground_truth() {
    let e = tiny_snapshot(44, &[]);
    let queries = generate_queries(
        e.ontology(),
        e.corpus(),
        &QueryConfig {
            n_queries: 8,
            min_level: 2,
            ..Default::default()
        },
    );
    let mut non_empty = 0;
    for q in &queries {
        let ac = e.ac_answer_set(&q.text);
        if !ac.is_empty() {
            non_empty += 1;
            assert!(
                ac.len() < e.corpus().len(),
                "AC set must not be the whole corpus"
            );
        }
    }
    assert!(non_empty * 2 >= queries.len());
}

#[test]
fn search_relevancy_ranks_above_pure_matching_for_prestigious_papers() {
    let pair = (PatternBased, ScoreFunction::Pattern);
    let e = tiny_snapshot(55, &[pair]);
    let term = e
        .ontology()
        .term_ids()
        .find(|&t| e.ontology().level(t) == 3)
        .unwrap();
    let q = e.ontology().term(term).name.clone();
    let hits = e.searcher().query(&q, pair.0, pair.1, 0).unwrap();
    if hits.len() >= 2 {
        // Relevancy must not equal pure matching order when prestige
        // varies — check that the components actually combine.
        for h in &hits {
            let expected = 0.5 * h.prestige + 0.5 * h.matching;
            assert!((h.relevancy - expected).abs() < 1e-9);
        }
    }
}
