//! Quickstart: build a synthetic literature collection, assign papers
//! to ontology contexts, compute prestige scores, and run one
//! context-based search.
//!
//! Run with: `cargo run --release --example quickstart`

use litsearch::context_search::{ContextSetKind, ScoreFunction};
use litsearch::demo::{snapshot_with, Scale};

fn main() {
    // Tasks 1 and 2, the offline phase: assign papers to contexts (the
    // pattern-based paper set covers every context; the text-based set
    // needs annotation evidence) and pre-compute prestige scores.
    println!("preparing demo snapshot (tiny scale)...");
    let (kind, function) = (ContextSetKind::PatternBased, ScoreFunction::Pattern);
    let engine = snapshot_with(Scale::Tiny, 42, &[(kind, function)]);
    println!(
        "  ontology: {} terms (max level {})",
        engine.ontology().len(),
        engine.ontology().max_level()
    );
    println!("  corpus:   {} papers", engine.corpus().len());
    let sets = engine.sets(kind);
    println!(
        "  contexts: {} non-empty (mean size {:.1})",
        sets.n_contexts(),
        sets.mean_size()
    );

    // Tasks 3-5: search. Use a mid-level term's name as the query.
    let term = engine
        .ontology()
        .term_ids()
        .find(|&t| engine.ontology().level(t) == 3)
        .expect("a level-3 term exists");
    let query = engine.ontology().term(term).name.clone();
    println!("\nquery: {query:?}");

    let searcher = engine.searcher();
    let search = |limit| searcher.query(&query, kind, function, limit).unwrap();
    let hits = search(10);
    println!(
        "top {} results (relevancy = 0.5·prestige + 0.5·match):",
        hits.len()
    );
    for (rank, h) in hits.iter().enumerate() {
        let paper = engine.corpus().paper(h.paper);
        let context = engine.ontology().term(h.context);
        println!(
            "  {:>2}. R={:.3} (prestige {:.3}, match {:.3})  [{}]  {}",
            rank + 1,
            h.relevancy,
            h.prestige,
            h.matching,
            context.name,
            truncate(&paper.title, 60),
        );
    }

    // Compare with the keyword baseline.
    let baseline = engine.keyword_search(&query, 0.0);
    println!(
        "\nkeyword baseline returned {} papers; context-based search returned {}",
        baseline.len(),
        search(0).len()
    );
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}
