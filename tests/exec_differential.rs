//! Differential proof for the columnar execution core: the dense-ID
//! scratch + merge-intersection + bounded top-k path must reproduce the
//! old map-shaped algorithm **byte for byte** — same papers, same
//! float bits, same winning contexts — prepared in memory and
//! warm-loaded from a snapshot directory, single-threaded and across 8
//! concurrent threads.
//!
//! The reference implementation below is the pre-columnar algorithm
//! kept verbatim: keyword scores collected into a `HashMap`, a nested
//! context × prestige-pair loop with first-wins best tracking, a full
//! sort, then truncate. Its context selection is the per-context Dice
//! loop that tests every context's name, also kept verbatim, and
//! compared on its own with the production selection below.

use litsearch::context_search::config::SelectionConfig;
use litsearch::context_search::indexes::CorpusIndex;
use litsearch::context_search::persist::{load_snapshot, save_snapshot};
use litsearch::context_search::search::{relevancy, select_contexts};
use litsearch::context_search::{
    ContextId, ContextPaperSets, ContextSetKind, EngineConfig, EngineSnapshot, PrestigeScores,
    ScoreFunction, SearchResult, Searcher,
};
use litsearch::corpus::PaperId;
use litsearch::demo::{snapshot, snapshot_with, Scale};
use litsearch::textproc::TermId;
use proptest::prelude::*;
use std::collections::HashMap;

/// The per-context Dice selection, reference copy: every context of
/// `sets` intersects its own sorted name with the query's words.
fn reference_select(
    query_tokens: &[TermId],
    index: &CorpusIndex,
    sets: &ContextPaperSets,
    config: &SelectionConfig,
) -> Vec<(ContextId, f64)> {
    let mut query_terms: Vec<TermId> = query_tokens.to_vec();
    query_terms.sort_unstable();
    query_terms.dedup();
    if query_terms.is_empty() {
        return Vec::new();
    }
    let query_mass: f64 = query_terms.iter().map(|&t| index.model.idf(t)).sum();
    let mut scored: Vec<(ContextId, f64)> = sets
        .contexts()
        .filter_map(|c| {
            let mut name_terms = index.term_name_tokens.get(c.index())?.clone();
            name_terms.sort_unstable();
            name_terms.dedup();
            if name_terms.is_empty() {
                return None;
            }
            let shared: f64 = name_terms
                .iter()
                .filter(|t| query_terms.binary_search(t).is_ok())
                .map(|&t| index.model.idf(t))
                .sum();
            if shared <= 0.0 {
                return None;
            }
            let name_mass: f64 = name_terms.iter().map(|&t| index.model.idf(t)).sum();
            let dice = 2.0 * shared / (query_mass + name_mass);
            Some((c, dice))
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.retain(|&(_, s)| s >= config.min_match);
    scored.truncate(config.max_contexts);
    scored
}

/// The pre-columnar execution algorithm, reference copy.
fn reference_search(
    e: &EngineSnapshot,
    sets: &ContextPaperSets,
    prestige: &PrestigeScores,
    query: &str,
    limit: usize,
) -> Vec<SearchResult> {
    let tokens = e.corpus().analyze_known(query);
    let contexts = reference_select(&tokens, e.index(), sets, &e.config().selection);
    let matching: HashMap<PaperId, f64> = e.keyword_search(query, 0.0).into_iter().collect();
    let mut best: HashMap<PaperId, SearchResult> = HashMap::new();
    for (context, _ctx_score) in contexts {
        for &(paper, pscore) in prestige.scores(context).iter() {
            let Some(&m) = matching.get(&paper) else {
                continue;
            };
            let r = relevancy(pscore, m, &e.config().relevancy);
            let candidate = SearchResult {
                paper,
                relevancy: r,
                matching: m,
                prestige: pscore,
                context,
            };
            best.entry(paper)
                .and_modify(|cur| {
                    if r > cur.relevancy {
                        *cur = candidate;
                    }
                })
                .or_insert(candidate);
        }
    }
    let mut out: Vec<SearchResult> = best.into_values().collect();
    out.sort_by(|a, b| {
        b.relevancy
            .total_cmp(&a.relevancy)
            .then(a.paper.cmp(&b.paper))
    });
    if limit > 0 {
        out.truncate(limit);
    }
    out
}

fn assert_bitwise_eq(a: &[SearchResult], b: &[SearchResult], tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: result counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.paper, y.paper, "{tag}: paper at rank {i}");
        assert_eq!(
            x.relevancy.to_bits(),
            y.relevancy.to_bits(),
            "{tag}: relevancy bits at rank {i} ({} vs {})",
            x.relevancy,
            y.relevancy
        );
        assert_eq!(
            x.matching.to_bits(),
            y.matching.to_bits(),
            "{tag}: matching bits at rank {i}"
        );
        assert_eq!(
            x.prestige.to_bits(),
            y.prestige.to_bits(),
            "{tag}: prestige bits at rank {i}"
        );
        assert_eq!(x.context, y.context, "{tag}: winning context at rank {i}");
    }
}

/// A query mix that exercises every execution shape: exact term names
/// (dense candidate overlap), multi-term paraphrases, an unknown word,
/// and the empty query.
fn query_mix(e: &EngineSnapshot) -> Vec<String> {
    let onto = e.ontology();
    let mut queries: Vec<String> = onto
        .term_ids()
        .take(8)
        .map(|t| onto.term(t).name.clone())
        .collect();
    let paired: Vec<String> = queries
        .chunks(2)
        .map(|pair| pair.join(" "))
        .take(4)
        .collect();
    queries.extend(paired);
    queries.push("membrane transport regulation".to_string());
    queries.push("zzzzz unknown words only".to_string());
    queries.push(String::new());
    queries
}

const LIMITS: [usize; 5] = [0, 1, 3, 10, 100];

#[test]
fn columnar_execution_matches_reference_bit_for_bit() {
    let pairs = [
        (ContextSetKind::PatternBased, ScoreFunction::Pattern),
        (ContextSetKind::PatternBased, ScoreFunction::Citation),
        (ContextSetKind::TextBased, ScoreFunction::Text),
    ];
    for seed in [9, 40] {
        let e = snapshot_with(Scale::Tiny, seed, &pairs);
        let searcher = e.searcher();
        for (kind, function) in pairs {
            let (sets, prestige) = (e.sets(kind), e.prestige(kind, function).unwrap());
            let tag = format!("{}/{}", kind.name(), function.name());
            for q in query_mix(&e) {
                for limit in LIMITS {
                    let columnar = searcher.query(&q, kind, function, limit).unwrap();
                    let reference = reference_search(&e, sets, prestige, &q, limit);
                    assert_bitwise_eq(
                        &columnar,
                        &reference,
                        &format!("seed {seed} {tag} limit {limit} query {q:?}"),
                    );
                }
            }
        }
    }
}

#[test]
fn columnar_execution_is_identical_across_8_threads() {
    // Each thread has its own scratch pool; results must not depend on
    // which thread (or how warm a scratch) executes the query.
    let (searcher, pair) = shared_searcher();
    let e = searcher.snapshot();
    let (sets, prestige) = (e.sets(pair.0), e.prestige(pair.0, pair.1).unwrap());
    let queries = query_mix(e);
    let reference: Vec<Vec<SearchResult>> = queries
        .iter()
        .map(|q| reference_search(e, sets, prestige, q, 10))
        .collect();
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let (queries, reference) = (&queries, &reference);
            scope.spawn(move || {
                // Interleave repeats so scratch reuse (epoch bumping)
                // is exercised against every query shape.
                for round in 0..3 {
                    for (q, want) in queries.iter().zip(reference) {
                        let got = searcher.query(q, pair.0, pair.1, 10).unwrap();
                        assert_bitwise_eq(
                            &got,
                            want,
                            &format!("worker {worker} round {round} query {q:?}"),
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn warm_snapshot_matches_the_cold_reference() {
    let snap = snapshot(Scale::Tiny, 9);
    let dir = std::env::temp_dir().join(format!("litsearch_execdiff_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_snapshot(&snap, &dir).expect("save");
    let warm = load_snapshot(&dir, EngineConfig::default()).expect("load");

    // The in-memory snapshot's own tables drive the reference
    // implementation; the warm-loaded copy serves through the
    // columnar path.
    let searcher = warm.searcher();
    for (kind, function) in snap.pairs() {
        let (sets, prestige) = (snap.sets(kind), snap.prestige(kind, function).unwrap());
        for q in query_mix(&snap) {
            for limit in [0usize, 10] {
                let want = reference_search(&snap, sets, prestige, &q, limit);
                let got = searcher
                    .query(&q, kind, function, limit)
                    .expect("warm query");
                let tag = format!(
                    "{}/{} limit {limit} query {q:?}",
                    kind.name(),
                    function.name()
                );
                assert_bitwise_eq(&got, &want, &format!("warm snapshot vs reference: {tag}"));
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One (pattern, pattern) searcher shared by the tests that only read
/// that table.
fn shared_searcher() -> &'static (Searcher, (ContextSetKind, ScoreFunction)) {
    static CELL: std::sync::OnceLock<(Searcher, (ContextSetKind, ScoreFunction))> =
        std::sync::OnceLock::new();
    CELL.get_or_init(|| {
        let pair = (ContextSetKind::PatternBased, ScoreFunction::Pattern);
        (snapshot_with(Scale::Tiny, 17, &[pair]).searcher(), pair)
    })
}

/// The shipped selection config and a permissive one that keeps every
/// context sharing a word.
fn selection_configs() -> [SelectionConfig; 2] {
    [
        EngineConfig::default().selection,
        SelectionConfig {
            max_contexts: 50,
            min_match: 0.0,
        },
    ]
}

/// Every context's name as the query: names of three or more words
/// share all of them, so a selection that sums its shared masses in
/// another order fails here (the random lists rarely share that many).
#[test]
fn selection_matches_the_reference_on_every_context_name() {
    let (searcher, _) = shared_searcher();
    let e = searcher.snapshot();
    for kind in [ContextSetKind::TextBased, ContextSetKind::PatternBased] {
        let sets = e.sets(kind);
        for config in selection_configs() {
            for name in &e.index().term_name_tokens {
                assert_eq!(
                    select_bits(&select_contexts(name, e.index(), sets, &config)),
                    select_bits(&reference_select(name, e.index(), sets, &config)),
                    "{} sets, {config:?}, name {name:?}",
                    kind.name()
                );
            }
        }
    }
}

/// Contexts and score bits, for exact comparison.
fn select_bits(selected: &[(ContextId, f64)]) -> Vec<(ContextId, u64)> {
    selected.iter().map(|&(c, s)| (c, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Selection over random word lists: known name words, words no
    /// name holds, ids past the vocabulary, repeats, and the empty
    /// list. Contexts and score bits match the reference for both set
    /// kinds, at the shipped and at a permissive config.
    #[test]
    fn selection_matches_the_reference_on_random_words(
        draws in proptest::collection::vec((0u32..400, 0u32..4), 0..10),
        repeats in 0usize..6,
    ) {
        let (searcher, _) = shared_searcher();
        let e = searcher.snapshot();
        let words = e.index().term_name_tokens.iter().flatten().map(|t| t.0).max().unwrap_or(0) + 1;
        let mut tokens: Vec<TermId> = draws
            .iter()
            .map(|&(x, class)| match class {
                // A word past the vocabulary.
                0 => TermId(10_000_000 + x),
                // Any vocabulary word, most of them in no name.
                1 => TermId(x * 7),
                // A word of some context's name.
                _ => TermId(x % words),
            })
            .collect();
        tokens.extend(tokens.clone().into_iter().take(repeats));
        for kind in [ContextSetKind::TextBased, ContextSetKind::PatternBased] {
            let sets = e.sets(kind);
            for config in selection_configs() {
                prop_assert_eq!(
                    select_bits(&select_contexts(&tokens, e.index(), sets, &config)),
                    select_bits(&reference_select(&tokens, e.index(), sets, &config)),
                    "{} sets, {:?}, words {:?}",
                    kind.name(),
                    config,
                    &tokens
                );
            }
        }
    }

    /// The bounded top-k heap is exactly full-sort-then-truncate, for
    /// arbitrary queries and limits. Real corpora make relevancy ties
    /// common (shared prestige values × identical match scores), so
    /// this continually exercises the PaperId tie-break through the
    /// heap's eviction decisions.
    #[test]
    fn bounded_top_k_equals_sort_then_truncate(
        query in "[a-z ]{2,30}",
        limit in 1usize..40,
    ) {
        let (searcher, (kind, function)) = shared_searcher();
        let full = searcher.query(&query, *kind, *function, 0).unwrap();
        let bounded = searcher.query(&query, *kind, *function, limit).unwrap();
        prop_assert_eq!(bounded.len(), full.len().min(limit));
        for (i, (x, y)) in bounded.iter().zip(&full).enumerate() {
            prop_assert_eq!(x.paper, y.paper, "rank {} of query {:?}", i, &query);
            prop_assert_eq!(x.relevancy.to_bits(), y.relevancy.to_bits());
            prop_assert_eq!(x.context, y.context);
        }
    }
}
