//! Side-by-side comparison of the paper's three prestige score
//! functions on one context: top papers under each function, their
//! pairwise top-k overlapping ratios (§2), and their separability (§5.2).
//!
//! Run with: `cargo run --release --example ranking_comparison`

use litsearch::context_search::{ContextSetKind, ScoreFunction};
use litsearch::demo::{snapshot_with, Scale};
use litsearch::eval::{separability_sd, top_k_percent_overlap};

use ContextSetKind::{PatternBased, TextBased};

fn main() {
    println!("preparing demo snapshot (tiny scale)...");
    // Text scores need a representative; they come from the text-based
    // sets.
    let engine = snapshot_with(
        Scale::Tiny,
        11,
        &[
            (PatternBased, ScoreFunction::Citation),
            (PatternBased, ScoreFunction::Pattern),
            (TextBased, ScoreFunction::Text),
        ],
    );
    let sets = engine.sets(PatternBased);

    // Pick the largest direct (non-inherited) context.
    let context = sets
        .contexts()
        .filter(|c| !sets.inherited_from.contains_key(c))
        .max_by_key(|&c| sets.members(c).len())
        .expect("some context");
    let term = engine.ontology().term(context);
    println!(
        "context: {:?} (level {}, {} papers)\n",
        term.name,
        engine.ontology().level(context),
        sets.members(context).len()
    );

    let table = |kind, function| engine.prestige(kind, function).expect("prepared");
    let citation = table(PatternBased, ScoreFunction::Citation);
    let pattern = table(PatternBased, ScoreFunction::Pattern);
    let text = table(TextBased, ScoreFunction::Text);

    for (name, scores) in [("citation", citation), ("pattern", pattern)] {
        println!("top 5 by {name}-based prestige:");
        let mut ranked: Vec<_> = scores.scores(context);
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        for (p, s) in ranked.iter().take(5) {
            println!(
                "  {:.3}  {}",
                s,
                truncate(&engine.corpus().paper(*p).title, 64)
            );
        }
        let sd = separability_sd(scores.score_values(context), 10);
        println!("  separability SD (0 = perfectly uniform): {sd:.1}\n");
    }

    // Pairwise agreement on this context.
    let as_pairs = |s: &litsearch::context_search::PrestigeScores| {
        s.scores(context)
            .iter()
            .map(|&(p, v)| (p.0, v))
            .collect::<Vec<_>>()
    };
    let cp = top_k_percent_overlap(&as_pairs(citation), &as_pairs(pattern), 0.10);
    println!("top-10% overlapping ratio citation↔pattern: {cp:.2}");
    if text.scores(context).len() > 1 {
        let tc = top_k_percent_overlap(&as_pairs(text), &as_pairs(citation), 0.10);
        let tp = top_k_percent_overlap(&as_pairs(text), &as_pairs(pattern), 0.10);
        println!("top-10% overlapping ratio text↔citation:    {tc:.2}");
        println!("top-10% overlapping ratio text↔pattern:     {tp:.2}");
    }
    println!("\n(the paper finds low agreement overall, and lower agreement");
    println!(" with the citation-based function in deeper contexts — its");
    println!(" in-context citation graphs are too sparse to rank reliably)");
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}
