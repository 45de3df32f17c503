//! Criterion micro-benchmarks for the substrate crates: stemming,
//! corpus analysis, TF-IDF vectorization, sparse cosine, inverted-index
//! search, PageRank and HITS, frequent-phrase mining, and ontology
//! operations.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_stemmer(c: &mut Criterion) {
    let words = [
        "transcriptional",
        "regulation",
        "phosphorylation",
        "activities",
        "binding",
        "characterization",
        "mitochondrial",
        "ubiquitination",
    ];
    c.bench_function("porter_stem/8_words", |b| {
        b.iter(|| {
            for w in words {
                black_box(textproc::stem::porter_stem(black_box(w)));
            }
        })
    });
}

/// The `i`-th of an unbounded run of distinct lowercase words.
fn nth_word(mut i: usize) -> String {
    let mut word = String::from("zq");
    loop {
        word.push(char::from(b'a' + (i % 26) as u8));
        i /= 26;
        if i == 0 {
            return word;
        }
    }
}

/// 200 papers of 100 body words each, the `i`-th word overall being
/// `word(i)`.
fn papers_of(word: impl Fn(usize) -> String) -> Vec<corpus::Paper> {
    (0..200u32)
        .map(|p| corpus::Paper {
            id: corpus::PaperId(p),
            title: String::new(),
            abstract_text: String::new(),
            body: (0..100)
                .map(|w| word(p as usize * 100 + w))
                .collect::<Vec<_>>()
                .join(" "),
            index_terms: Vec::new(),
            authors: Vec::new(),
            references: Vec::new(),
            year: 2000,
            true_topics: Vec::new(),
        })
        .collect()
}

/// `Corpus::new` analyzes each distinct raw word once: 20,000 tokens
/// drawn from 500 words, against the same count with no word repeated
/// (the memo's worst case: every token misses it).
fn bench_corpus_analysis(c: &mut Criterion) {
    for (name, papers) in [
        ("corpus/new_repeated", papers_of(|i| nth_word(i % 500))),
        ("corpus/new_distinct", papers_of(nth_word)),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || papers.clone(),
                |papers| {
                    black_box(corpus::Corpus::new(
                        papers,
                        Vec::new(),
                        Default::default(),
                        &[],
                    ))
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_tfidf_and_cosine(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let docs: Vec<Vec<textproc::TermId>> = (0..500)
        .map(|_| {
            (0..300)
                .map(|_| textproc::TermId(rng.gen_range(0..3000)))
                .collect()
        })
        .collect();
    let model = textproc::TfIdfModel::fit(docs.iter().map(Vec::as_slice));
    c.bench_function("tfidf/vectorize_300_tokens", |b| {
        b.iter(|| black_box(model.vectorize_normalized(black_box(&docs[0]))))
    });
    let va = model.vectorize_normalized(&docs[0]);
    let vb = model.vectorize_normalized(&docs[1]);
    c.bench_function("sparse/cosine_300nnz", |b| {
        b.iter(|| black_box(va.cosine(black_box(&vb))))
    });
}

fn bench_inverted_index(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let docs: Vec<Vec<textproc::TermId>> = (0..2000)
        .map(|_| {
            (0..200)
                .map(|_| textproc::TermId(rng.gen_range(0..5000)))
                .collect()
        })
        .collect();
    let model = textproc::TfIdfModel::fit(docs.iter().map(Vec::as_slice));
    let vectors: Vec<textproc::SparseVector> =
        docs.iter().map(|d| model.vectorize_normalized(d)).collect();
    let index = textproc::InvertedIndex::build(&vectors);
    let query = model.vectorize_normalized(&docs[7][..10]);
    c.bench_function("index/search_2k_docs", |b| {
        b.iter(|| black_box(index.search(black_box(&query), 0.0)))
    });
}

fn bench_pagerank_hits(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    let n = 2000u32;
    let edges: Vec<(u32, u32)> = (0..n as usize * 12)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let g = citegraph::CitationGraph::from_edges(n, &edges);
    c.bench_function("pagerank/2k_nodes_24k_edges", |b| {
        b.iter(|| {
            black_box(citegraph::pagerank(
                &g,
                &citegraph::PageRankConfig::default(),
            ))
        })
    });
    c.bench_function("hits/2k_nodes_24k_edges", |b| {
        b.iter(|| black_box(citegraph::hits(&g, &citegraph::HitsConfig::default())))
    });
    c.bench_function("graph/induced_subgraph_200_members", |b| {
        let members: Vec<u32> = (0..200).map(|i| i * 10).collect();
        b.iter(|| black_box(g.induced_subgraph(black_box(&members))))
    });
}

fn bench_phrase_mining(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(4);
    let docs: Vec<Vec<textproc::TermId>> = (0..20)
        .map(|_| {
            (0..400)
                .map(|_| textproc::TermId(rng.gen_range(0..150)))
                .collect()
        })
        .collect();
    c.bench_function("phrase/frequent_phrases_20x400", |b| {
        b.iter_batched(
            || docs.clone(),
            |d| black_box(textproc::phrase::frequent_phrases(&d, 3, 3)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_ontology(c: &mut Criterion) {
    let onto = ontology::generate_ontology(&ontology::GeneratorConfig {
        n_terms: 2000,
        ..Default::default()
    });
    c.bench_function("ontology/descendants_root", |b| {
        let root = onto.roots()[0];
        b.iter(|| black_box(onto.descendants(black_box(root))))
    });
    c.bench_function("ontology/generate_2k_terms", |b| {
        b.iter(|| {
            black_box(ontology::generate_ontology(&ontology::GeneratorConfig {
                n_terms: 2000,
                ..Default::default()
            }))
        })
    });
}

criterion_group!(
    benches,
    bench_stemmer,
    bench_corpus_analysis,
    bench_tfidf_and_cosine,
    bench_inverted_index,
    bench_pagerank_hits,
    bench_phrase_mining,
    bench_ontology
);
criterion_main!(benches);
