//! The paper's motivating scenario: a researcher searches a genomics
//! literature collection where plain keyword search drowns relevant
//! work in topically diffuse output. Context-based search restricts the
//! search to ontology contexts matching the query and ranks by
//! prestige-combined relevancy.
//!
//! Reproduces, qualitatively, the claims of the paper's §1: output-size
//! reduction and better precision against the AC-answer ground truth.
//!
//! Run with: `cargo run --release --example genomics_search`

use litsearch::context_search::{ContextSetKind, ScoreFunction};
use litsearch::corpus::queries::{generate_queries, QueryConfig};
use litsearch::demo::{snapshot_with, Scale};
use litsearch::eval::precision;
use std::collections::HashSet;

fn main() {
    println!("preparing demo snapshot (small scale — a minute or so)...");
    let (kind, function) = (ContextSetKind::PatternBased, ScoreFunction::Pattern);
    let engine = snapshot_with(Scale::Small, 7, &[(kind, function)]);
    let searcher = engine.searcher();

    let queries = generate_queries(
        engine.ontology(),
        engine.corpus(),
        &QueryConfig {
            n_queries: 12,
            ..Default::default()
        },
    );
    println!("running {} synthesized queries\n", queries.len());
    println!(
        "{:<44} {:>8} {:>8} {:>9} {:>9}",
        "query", "keyword", "context", "prec(kw)", "prec(ctx)"
    );

    let mut total_reduction = 0.0;
    let mut n = 0;
    for q in &queries {
        let truth = engine.ac_answer_set(&q.text);
        if truth.is_empty() {
            continue;
        }
        // Same text-matching cut on both sides; the context side is
        // additionally restricted to members of the selected contexts —
        // that membership restriction is where the paper's output-size
        // reduction comes from.
        let keyword = engine.keyword_search(&q.text, 0.10);
        let context: Vec<_> = searcher
            .query(&q.text, kind, function, 0)
            .unwrap()
            .into_iter()
            .filter(|h| h.matching > 0.10)
            .collect();

        let kw_set: HashSet<u32> = keyword.iter().map(|&(p, _)| p.0).collect();
        let ctx_set: HashSet<u32> = context.iter().map(|h| h.paper.0).collect();
        let truth_ids: HashSet<u32> = truth.iter().map(|p| p.0).collect();

        let p_kw = precision(&kw_set, &truth_ids);
        let p_ctx = precision(&ctx_set, &truth_ids);
        if !keyword.is_empty() {
            total_reduction += 1.0 - ctx_set.len() as f64 / kw_set.len().max(1) as f64;
            n += 1;
        }
        println!(
            "{:<44} {:>8} {:>8} {:>9.3} {:>9.3}",
            truncate(&q.text, 42),
            kw_set.len(),
            ctx_set.len(),
            p_kw,
            p_ctx
        );
    }
    if n > 0 {
        println!(
            "\naverage output-size reduction vs keyword search: {:.0}%",
            100.0 * total_reduction / n as f64
        );
        println!("(the paper reports up to 70% on PubMed; the effect grows with");
        println!(" ontology depth — at this demo scale contexts are broad, at the");
        println!(" 8k-paper bench scale `baseline_vs_context` measures ~28%)");
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}
