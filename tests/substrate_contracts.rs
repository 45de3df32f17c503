//! Cross-crate contract tests: generated artifacts must survive the
//! exchange formats (OBO, MEDLINE, JSON) and still drive the engine.

use litsearch::context_search::assign::{build_pattern_sets, patterns_by_context};
use litsearch::context_search::indexes::CorpusIndex;
use litsearch::context_search::{
    ContextPaperSets, ContextSetKind, EngineConfig, EngineSnapshot, PrepareOptions, ScoreFunction,
};
use litsearch::corpus::medline::{parse_medline, write_medline};
use litsearch::corpus::{generate_corpus, Corpus, CorpusConfig};
use litsearch::ontology::export::subontology;
use litsearch::ontology::obo::{parse_obo, write_obo};
use litsearch::ontology::{generate_ontology, GeneratorConfig};

fn small_ontology() -> litsearch::ontology::Ontology {
    generate_ontology(&GeneratorConfig {
        n_terms: 120,
        seed: 17,
        ..Default::default()
    })
}

fn small_corpus(onto: &litsearch::ontology::Ontology) -> Corpus {
    generate_corpus(
        onto,
        &CorpusConfig {
            n_papers: 180,
            seed: 18,
            body_len: (40, 70),
            abstract_len: (20, 40),
            ..Default::default()
        },
    )
}

/// The pattern-based context sets, built by prepare's stage functions
/// without any prestige table.
fn pattern_sets(onto: &litsearch::ontology::Ontology, corpus: &Corpus) -> ContextPaperSets {
    let config = EngineConfig::default();
    let index = CorpusIndex::build(onto, corpus, &config.pagerank);
    let patterns = patterns_by_context(onto, corpus, &index, &config);
    build_pattern_sets(onto, corpus, &index, &patterns, &config)
}

#[test]
fn generated_ontology_round_trips_through_obo() {
    let onto = small_ontology();
    let text = write_obo(&onto);
    let again = parse_obo(&text).expect("generated OBO parses");
    assert_eq!(again.len(), onto.len());
    for t in onto.term_ids() {
        let orig = onto.term(t);
        let t2 = again
            .find_by_accession(&orig.accession)
            .expect("accession kept");
        assert_eq!(again.term(t2).name, orig.name);
        assert_eq!(again.level(t2), onto.level(t));
        assert_eq!(again.parents(t2).len(), onto.parents(t).len());
    }
}

#[test]
fn generated_corpus_round_trips_through_medline() {
    let onto = small_ontology();
    let corpus = small_corpus(&onto);
    let names: Vec<String> = (0..corpus.n_authors())
        .map(|i| {
            corpus
                .author_name(litsearch::corpus::AuthorId(i as u32))
                .to_string()
        })
        .collect();
    let text = write_medline(corpus.papers(), |a| names[a.index()].clone());
    let imported = parse_medline(&text).expect("generated MEDLINE parses");
    assert_eq!(imported.papers.len(), corpus.len());
    assert_eq!(imported.dangling_references, 0);
    for (a, b) in corpus.papers().iter().zip(&imported.papers) {
        assert_eq!(a.title, b.title);
        assert_eq!(a.references, b.references);
        assert_eq!(a.index_terms, b.index_terms);
        assert_eq!(a.year, b.year);
        assert_eq!(a.authors.len(), b.authors.len());
    }
}

#[test]
fn engine_runs_on_medline_imported_corpus() {
    // Full circle: generate → export MEDLINE → import → rebuild corpus
    // (losing the generator's ground truth, like real data) → engine.
    let onto = small_ontology();
    let corpus = small_corpus(&onto);
    let names: Vec<String> = (0..corpus.n_authors())
        .map(|i| {
            corpus
                .author_name(litsearch::corpus::AuthorId(i as u32))
                .to_string()
        })
        .collect();
    let text = write_medline(corpus.papers(), |a| names[a.index()].clone());
    let imported = parse_medline(&text).unwrap();
    let term_names: Vec<String> = onto.term_ids().map(|t| onto.term(t).name.clone()).collect();
    // Imported data has no annotation evidence: like GoPubMed's input.
    let rebuilt = Corpus::new(
        imported.papers,
        imported.author_names,
        Default::default(),
        &term_names,
    );
    let pair = (ContextSetKind::PatternBased, ScoreFunction::Pattern);
    let snap = EngineSnapshot::prepare_with(
        onto,
        rebuilt,
        EngineConfig::default(),
        PrepareOptions { pairs: vec![pair] },
    );
    // Text sets need evidence → none; pattern sets still work from the
    // term names alone.
    let tsets = snap.sets(ContextSetKind::TextBased);
    assert_eq!(tsets.n_contexts(), 0, "no evidence ⇒ no text contexts");
    let psets = snap.sets(ContextSetKind::PatternBased);
    assert!(psets.n_contexts() > 0, "patterns need no evidence");
    let onto = snap.ontology();
    let term = onto.term_ids().find(|&t| onto.level(t) == 3).unwrap();
    let q = onto.term(term).name.clone();
    let hits = snap.searcher().query(&q, pair.0, pair.1, 5).unwrap();
    assert!(!hits.is_empty(), "search works on imported data");
}

#[test]
fn corpus_json_round_trip_preserves_search_behavior() {
    let onto = small_ontology();
    let corpus = small_corpus(&onto);
    let term_names: Vec<String> = onto.term_ids().map(|t| onto.term(t).name.clone()).collect();
    let json = corpus.to_json(&term_names);
    let reloaded = Corpus::from_json(&json).unwrap();

    let s1 = pattern_sets(&onto, &corpus);
    let s2 = pattern_sets(&onto, &reloaded);
    assert_eq!(s1.n_contexts(), s2.n_contexts());
    for c in s1.contexts() {
        assert_eq!(s1.members(c), s2.members(c), "context {c}");
    }
}

#[test]
fn subontology_supports_branch_scale_experiments() {
    let onto = small_ontology();
    // Take one level-2 branch and rebuild everything inside it.
    let branch_root = onto
        .term_ids()
        .find(|&t| onto.level(t) == 2 && !onto.children(t).is_empty())
        .expect("a level-2 branch");
    let (sub, mapping) = subontology(&onto, branch_root);
    assert!(sub.len() > 1);
    assert_eq!(sub.roots().len(), 1);
    // Generate a corpus over the branch only.
    let corpus = generate_corpus(
        &sub,
        &CorpusConfig {
            n_papers: 80,
            seed: 4,
            body_len: (30, 50),
            abstract_len: (15, 25),
            ..Default::default()
        },
    );
    let sets = pattern_sets(&sub, &corpus);
    assert!(sets.n_contexts() > 0);
    // Every mapped id round-trips to a valid original term.
    for &old in &mapping {
        assert!(old.index() < onto.len());
    }
}
