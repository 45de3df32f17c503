//! Criterion benchmarks of the paper's three prestige score functions
//! and the end-to-end pipeline stages, on a small shared testbed.

use context_search::assign::{build_pattern_sets, build_text_sets};
use context_search::{
    ContextSetKind, EngineConfig, EngineSnapshot, PrepareOptions, ScoreFunction, Searcher,
};
use corpus::{generate_corpus, CorpusConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use ontology::{generate_ontology, GeneratorConfig};
use std::hint::black_box;
use std::sync::Arc;

/// The table the query benchmarks serve.
const PAIR: (ContextSetKind, ScoreFunction) =
    (ContextSetKind::PatternBased, ScoreFunction::Pattern);

fn build_snapshot() -> Arc<EngineSnapshot> {
    let onto = generate_ontology(&GeneratorConfig {
        n_terms: 150,
        seed: 3,
        ..Default::default()
    });
    let corp = generate_corpus(
        &onto,
        &CorpusConfig {
            n_papers: 800,
            seed: 5,
            body_len: (80, 140),
            abstract_len: (30, 60),
            ..Default::default()
        },
    );
    let options = PrepareOptions { pairs: vec![PAIR] };
    EngineSnapshot::prepare_with(onto, corp, EngineConfig::default(), options)
}

/// A level-3 term name: a query that selects a few mid-level contexts.
fn level3_query(snap: &EngineSnapshot) -> String {
    let onto = snap.ontology();
    let term = onto
        .term_ids()
        .find(|&t| onto.level(t) == 3)
        .expect("level-3 term");
    onto.term(term).name.clone()
}

/// A one-word query that few papers hold but whose selected contexts
/// have long prestige columns: the name word with the most column
/// entries per keyword candidate. Rank reads every entry of those
/// columns to find a handful of candidates.
fn rare_word_in_broad_contexts(searcher: &Searcher) -> String {
    let table = searcher.prestige(PAIR.0, PAIR.1).expect("prepared pair");
    let (onto, corp, model) = (
        searcher.ontology(),
        searcher.corpus(),
        &searcher.index().model,
    );
    let entries_per_candidate = |word: &str| -> Option<f64> {
        let [t] = corp.analyze_known(word)[..] else {
            return None;
        };
        let selected = searcher.select_contexts(word, searcher.sets(PAIR.0));
        let entries: usize = selected
            .iter()
            .map(|&(c, _)| table.columns(c).0.len())
            .sum();
        (model.df(t) > 0).then(|| entries as f64 / model.df(t) as f64)
    };
    let mut words: Vec<&str> = onto
        .term_ids()
        .flat_map(|t| onto.term(t).name.split_whitespace())
        .collect();
    words.sort_unstable();
    words.dedup();
    words
        .into_iter()
        .filter_map(|w| Some((entries_per_candidate(w)?, w)))
        .max_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(a.1)))
        .map(|(_, w)| w.to_string())
        .expect("a name word that some paper holds")
}

fn bench_pipeline(c: &mut Criterion) {
    let snap = build_snapshot();
    let (onto, corp, index, config) = (snap.ontology(), snap.corpus(), snap.index(), snap.config());
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    group.bench_function("text_context_sets", |b| {
        b.iter(|| black_box(build_text_sets(onto, corp, index, config)))
    });
    let patterns = snap.patterns().expect("prepared with a pattern pair");
    group.bench_function("pattern_context_sets", |b| {
        // Patterns are mined once by prepare; this measures the
        // assignment sweep itself.
        b.iter(|| black_box(build_pattern_sets(onto, corp, index, patterns, config)))
    });

    let tsets = snap.sets(ContextSetKind::TextBased);
    let psets = snap.sets(ContextSetKind::PatternBased);
    for (name, sets, function) in [
        ("prestige/citation", psets, ScoreFunction::Citation),
        ("prestige/text", tsets, ScoreFunction::Text),
        ("prestige/pattern", psets, ScoreFunction::Pattern),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(snap.prestige_with_options(sets, function, true, true)))
        });
    }
    group.finish();

    let searcher = snap.searcher();
    let query = level3_query(&snap);
    let mut group = c.benchmark_group("query");
    group.bench_function("context_search", |b| {
        b.iter(|| black_box(search(&searcher, black_box(&query))))
    });
    let rare = rare_word_in_broad_contexts(&searcher);
    group.bench_function("context_search/rare_word_broad_contexts", |b| {
        b.iter(|| black_box(search(&searcher, black_box(&rare))))
    });
    group.bench_function("keyword_baseline", |b| {
        b.iter(|| black_box(snap.keyword_search(black_box(&query), 0.0)))
    });
    group.bench_function("ac_answer_set", |b| {
        b.iter(|| black_box(snap.ac_answer_set(black_box(&query))))
    });
    group.finish();
}

/// Tasks 4 + 5 over the prepared table, without the serve path's
/// `serve.query` span and counter.
fn search(searcher: &Searcher, query: &str) -> usize {
    let snap = searcher.snapshot();
    let prestige = snap.prestige(PAIR.0, PAIR.1).expect("prepared pair");
    searcher
        .search(query, snap.sets(PAIR.0), prestige, 20)
        .len()
}

/// The search hot path with telemetry off vs on. The disabled cost is
/// one relaxed atomic load per instrumentation site; enabled adds span
/// bookkeeping. Compare the two medians — enabled must stay within a
/// few percent of disabled.
fn bench_obs_overhead(c: &mut Criterion) {
    let snap = build_snapshot();
    let searcher = snap.searcher();
    let query = level3_query(&snap);

    let mut group = c.benchmark_group("obs_overhead");
    obs::disable();
    group.bench_function("search/telemetry_off", |b| {
        b.iter(|| black_box(search(&searcher, black_box(&query))))
    });
    obs::enable();
    group.bench_function("search/telemetry_on", |b| {
        b.iter(|| black_box(search(&searcher, black_box(&query))))
    });
    obs::disable();
    obs::reset();
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_obs_overhead);
criterion_main!(benches);
