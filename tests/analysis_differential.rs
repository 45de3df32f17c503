//! Differential proof for warm-start analysis: the memoized corpus
//! build and the counting TF-IDF path must reproduce the per-occurrence
//! algorithm **bit for bit** — the same vocabulary in id order, the same
//! token stream for every section, the same document frequencies and
//! the same `f64` bits in every whole-paper and section vector — and a
//! snapshot must survive a prepare → save → load → save round trip
//! byte for byte.
//!
//! The reference below keeps the per-occurrence algorithm verbatim:
//! tokenize into owned strings, filter and stem every occurrence,
//! intern every stem, count document frequency through a `HashSet` and
//! term frequency through a `HashMap`, and compute idf per entry.

use litsearch::context_search::indexes::{section_index, CorpusIndex};
use litsearch::context_search::persist::{load_snapshot, save_snapshot};
use litsearch::context_search::{EngineConfig, EngineSnapshot};
use litsearch::corpus::{generate_corpus, Corpus, CorpusConfig, Paper, PaperId, Section};
use litsearch::ontology::{generate_ontology, GeneratorConfig, Ontology};
use litsearch::textproc::{analyze, SparseVector, TermId, Vocabulary};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// The per-occurrence analysis and weighting, reference copy.
mod reference {
    use super::*;
    use litsearch::textproc::stem::porter_stem;
    use litsearch::textproc::stopwords::is_stopword;

    pub fn tokenize(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                for lc in ch.to_lowercase().filter(|lc| lc.is_alphanumeric()) {
                    cur.push(lc);
                }
            } else if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }

    pub fn analyze(text: &str) -> Vec<String> {
        tokenize(text)
            .into_iter()
            .filter(|t| t.len() >= 2 && !is_stopword(t))
            .map(|t| porter_stem(&t))
            .collect()
    }

    fn intern(vocab: &mut Vocabulary, text: &str) -> Vec<TermId> {
        analyze(text).iter().map(|t| vocab.intern(t)).collect()
    }

    /// `Corpus::new`'s analyze-then-intern loop: the vocabulary and each
    /// paper's four sections in `Section::ALL` order.
    pub fn analyze_corpus(
        papers: &[Paper],
        extra_texts: &[String],
    ) -> (Vocabulary, Vec<[Vec<TermId>; 4]>) {
        let mut vocab = Vocabulary::new();
        for text in extra_texts {
            for tok in analyze(text) {
                vocab.intern(&tok);
            }
        }
        let sections = papers
            .iter()
            .map(|p| {
                [
                    intern(&mut vocab, &p.title),
                    intern(&mut vocab, &p.abstract_text),
                    intern(&mut vocab, &p.body),
                    intern(&mut vocab, &p.index_terms.join(" ")),
                ]
            })
            .collect();
        (vocab, sections)
    }

    pub struct Model {
        n_docs: u64,
        df: Vec<u32>,
    }

    impl Model {
        pub fn fit<'a>(docs: impl IntoIterator<Item = &'a [TermId]>) -> Self {
            let mut n_docs = 0;
            let mut df: Vec<u32> = Vec::new();
            for terms in docs {
                n_docs += 1;
                let distinct: HashSet<TermId> = terms.iter().copied().collect();
                for t in distinct {
                    let i = t.index();
                    if i >= df.len() {
                        df.resize(i + 1, 0);
                    }
                    df[i] += 1;
                }
            }
            Self { n_docs, df }
        }

        pub fn df(&self, term: TermId) -> u32 {
            self.df.get(term.index()).copied().unwrap_or(0)
        }

        pub fn idf(&self, term: TermId) -> f64 {
            ((self.n_docs as f64 + 1.0) / (self.df(term) as f64 + 1.0)).ln()
        }

        fn weight(&self, term: TermId, tf: f64) -> f64 {
            if tf <= 0.0 {
                return 0.0;
            }
            (1.0 + tf.ln()) * self.idf(term)
        }

        pub fn vectorize_normalized(&self, terms: &[TermId]) -> Vec<(TermId, f64)> {
            let mut counts: HashMap<TermId, f64> = HashMap::with_capacity(terms.len());
            for &t in terms {
                *counts.entry(t).or_insert(0.0) += 1.0;
            }
            let counts = from_pairs(counts.into_iter().collect());
            let mut v = from_pairs(
                counts
                    .iter()
                    .map(|&(t, tf)| (t, self.weight(t, tf)))
                    .collect(),
            );
            let n = v.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
            if n != 0.0 {
                let factor = 1.0 / n;
                if factor == 0.0 {
                    v.clear();
                }
                for (_, w) in &mut v {
                    *w *= factor;
                }
            }
            v
        }
    }

    fn from_pairs(mut pairs: Vec<(TermId, f64)>) -> Vec<(TermId, f64)> {
        pairs.sort_unstable_by_key(|&(t, _)| t);
        let mut entries: Vec<(TermId, f64)> = Vec::with_capacity(pairs.len());
        for (t, w) in pairs {
            match entries.last_mut() {
                Some((lt, lw)) if *lt == t => *lw += w,
                _ => entries.push((t, w)),
            }
        }
        entries.retain(|&(_, w)| w != 0.0);
        entries
    }
}

/// The CI toy workload's shape: 80 terms × 400 papers, generated as
/// `litsearch generate --terms 80 --papers 400 --seed <seed>` does.
fn generated(seed: u64) -> (Ontology, Corpus, Vec<String>) {
    let ontology = generate_ontology(&GeneratorConfig {
        n_terms: 80,
        seed,
        ..Default::default()
    });
    let corpus = generate_corpus(
        &ontology,
        &CorpusConfig {
            n_papers: 400,
            seed: seed.wrapping_add(1),
            ..Default::default()
        },
    );
    let term_names = ontology
        .term_ids()
        .map(|t| ontology.term(t).name.clone())
        .collect();
    (ontology, corpus, term_names)
}

fn assert_bits_eq(got: &SparseVector, expected: &[(TermId, f64)], tag: &str) {
    assert_eq!(got.nnz(), expected.len(), "{tag}: entry counts differ");
    for (&(t, w), &(rt, rw)) in got.entries().iter().zip(expected) {
        assert_eq!(t, rt, "{tag}: term order");
        assert_eq!(
            w.to_bits(),
            rw.to_bits(),
            "{tag}: weight bits of {t:?} ({w} vs {rw})"
        );
    }
}

fn assert_same_model(
    index_df: impl Fn(TermId) -> u32,
    index_idf: impl Fn(TermId) -> f64,
    reference: &reference::Model,
    n_terms: usize,
    tag: &str,
) {
    // A few ids past the vocabulary check the unseen-term idf too.
    for t in (0..n_terms as u32 + 3).map(TermId) {
        assert_eq!(index_df(t), reference.df(t), "{tag}: df of {t:?}");
        assert_eq!(
            index_idf(t).to_bits(),
            reference.idf(t).to_bits(),
            "{tag}: idf of {t:?}"
        );
    }
}

#[test]
fn memoized_corpus_build_matches_the_per_occurrence_reference() {
    for seed in [7, 42] {
        let (_, corpus, term_names) = generated(seed);
        let (vocab, sections) = reference::analyze_corpus(corpus.papers(), &term_names);
        assert!(
            vocab.len() > 100,
            "seed {seed}: a vocabulary worth comparing"
        );
        assert!(
            corpus.vocab().iter().eq(vocab.iter()),
            "seed {seed}: vocabularies differ in id order"
        );
        for id in corpus.paper_ids() {
            for section in Section::ALL {
                assert_eq!(
                    corpus.analyzed(id).section(section),
                    sections[id.index()][section_index(section)].as_slice(),
                    "seed {seed}: {section:?} tokens of paper {}",
                    id.0
                );
            }
        }
        // The JSON round trip rebuilds the same analysis.
        let reloaded = Corpus::from_json(&corpus.to_json(&term_names)).expect("round trip");
        assert!(
            reloaded.vocab().iter().eq(vocab.iter()),
            "seed {seed}: reloaded vocabulary"
        );
        for id in reloaded.paper_ids() {
            assert_eq!(reloaded.analyzed(id).concat(), corpus.analyzed(id).concat());
        }
    }
}

#[test]
fn counting_tfidf_matches_the_hashing_reference_bit_for_bit() {
    for seed in [7, 42] {
        let (ontology, corpus, _) = generated(seed);
        let index = CorpusIndex::build(&ontology, &corpus, &EngineConfig::default().pagerank);
        let n_terms = corpus.vocab().len();

        let whole: Vec<Vec<TermId>> = corpus
            .paper_ids()
            .map(|id| corpus.analyzed(id).concat())
            .collect();
        let model = reference::Model::fit(whole.iter().map(Vec::as_slice));
        assert_same_model(
            |t| index.model.df(t),
            |t| index.model.idf(t),
            &model,
            n_terms,
            "whole",
        );
        for (id, terms) in corpus.paper_ids().zip(&whole) {
            assert_bits_eq(
                &index.doc_vectors[id.index()],
                &model.vectorize_normalized(terms),
                &format!("seed {seed}: whole paper {}", id.0),
            );
        }

        for section in Section::ALL {
            let s = section_index(section);
            let docs: Vec<&[TermId]> = corpus
                .paper_ids()
                .map(|id| corpus.analyzed(id).section(section))
                .collect();
            let model = reference::Model::fit(docs.iter().copied());
            let m = &index.section_models[s];
            assert_same_model(
                |t| m.df(t),
                |t| m.idf(t),
                &model,
                n_terms,
                &format!("{section:?}"),
            );
            for (id, terms) in corpus.paper_ids().zip(&docs) {
                assert_bits_eq(
                    &index.section_vectors[s][id.index()],
                    &model.vectorize_normalized(terms),
                    &format!("seed {seed}: {section:?} of paper {}", id.0),
                );
            }
        }

        // The inverted index posts each whole-paper weight, in doc order.
        for t in (0..n_terms as u32).map(TermId) {
            let expected: Vec<(u32, u32)> = corpus
                .paper_ids()
                .filter_map(|PaperId(p)| {
                    let w = index.doc_vectors[p as usize].get(t);
                    (w != 0.0).then_some((p, (w as f32).to_bits()))
                })
                .collect();
            let got: Vec<(u32, u32)> = index
                .inverted
                .postings(t)
                .iter()
                .map(|p| (p.doc.0, p.weight.to_bits()))
                .collect();
            assert_eq!(got, expected, "seed {seed}: postings of {t:?}");
        }
    }
}

fn assert_analyze_matches_reference(text: &str) {
    assert_eq!(analyze(text), reference::analyze(text), "analyze({text:?})");
    assert_eq!(
        litsearch::textproc::tokenize::tokenize(text),
        reference::tokenize(text),
        "tokenize({text:?})"
    );
}

#[test]
fn analyze_matches_the_reference_on_edge_cases() {
    for text in [
        "",
        "a b c I x 7",                    // one-byte tokens
        "of the and or ETC al",           // stopwords, any case
        "1999 p53 3UTR 42nd 0x1F",        // digits and mixes
        "naïve Ärger ÉCOLE straße ΣΟΦΊΑ", // non-ASCII letters
        "İstanbul İİ KELVİN",             // İ lowercases to i and a mark
        "ǅungla ﬁle Ⅻ ²³ ٣",              // titlecase, ligature, numerics
        "beta-catenin's 3'-UTR (TNF-α)",  // connectors split tokens
        "\u{301}e\u{301} tab\tnew\nline", // combining marks, whitespace
        "kinases kinase KINASE Kinased",  // distinct raw tokens, one stem
    ] {
        assert_analyze_matches_reference(text);
    }
}

proptest! {
    #[test]
    fn analyze_matches_the_reference_on_any_text(text in "\\PC{0,200}") {
        prop_assert_eq!(analyze(&text), reference::analyze(&text));
        prop_assert_eq!(
            litsearch::textproc::tokenize::tokenize(&text),
            reference::tokenize(&text)
        );
    }
}

fn read_dir_sorted(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read snapshot dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (
                name,
                std::fs::read(entry.path()).expect("read snapshot file"),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn prepare_save_load_save_is_byte_identical() {
    let base = std::env::temp_dir().join(format!("litsearch_analysisdiff_{}", std::process::id()));
    let (first, second) = (base.join("prepared"), base.join("reloaded"));
    let (ontology, corpus, _) = generated(7);
    let prepared = EngineSnapshot::prepare(ontology, corpus, EngineConfig::default());
    save_snapshot(&prepared, &first).expect("save prepared");
    let loaded = load_snapshot(&first, EngineConfig::default()).expect("load");
    save_snapshot(&loaded, &second).expect("save reloaded");

    let (a, b) = (read_dir_sorted(&first), read_dir_sorted(&second));
    assert!(
        a.len() >= 5,
        "a full snapshot directory: {:?}",
        a.iter().map(|f| &f.0).collect::<Vec<_>>()
    );
    assert_eq!(
        a.iter().map(|f| &f.0).collect::<Vec<_>>(),
        b.iter().map(|f| &f.0).collect::<Vec<_>>(),
        "file sets differ"
    );
    for ((name, x), (_, y)) in a.iter().zip(&b) {
        assert!(x == y, "{name} differs after the round trip");
    }
    let _ = std::fs::remove_dir_all(&base);
}
