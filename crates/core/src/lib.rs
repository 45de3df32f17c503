//! Context-based literature search (Ratprasartporn et al., ICDE 2007).
//!
//! The paradigm: before query time, (1) assign papers into
//! ontology-term *contexts* and (2) compute per-context *prestige*
//! scores with one of three score functions — citation-based (PageRank
//! on the within-context citation graph), text-based (similarity to the
//! context's representative paper), or pattern-based (textual-pattern
//! matching). At query time, (3) locate contexts for the query, (4)
//! search within them, and (5) rank results by the relevancy score
//! `R(p, q, c) = w_prestige · prestige(p, c) + w_matching · match(p, q)`.
//!
//! Crate layout:
//!
//! * [`config`] — every weight and threshold, with paper defaults,
//! * [`indexes`] — the prepared corpus state (per-section TF-IDF
//!   vectors, whole-paper search engine, citation graph, author maps),
//! * [`assign`] — the two context paper sets of §4 (text-based and
//!   simplified-pattern-based),
//! * [`prestige`] — the three §3 score functions plus the hierarchy
//!   max-propagation rule,
//! * [`search`] — context selection, relevancy scoring, and the
//!   lock-free [`Searcher`],
//! * [`ac_answer`] — the §2 AC(artificially-constructed)-answer sets
//!   used for precision evaluation,
//! * [`plan`] + [`snapshot`] — the prepare/serve architecture: a
//!   stage-DAG executor that builds an immutable [`EngineSnapshot`]
//!   served lock-free by [`Searcher`] handles (with save/load in
//!   [`persist`] for warm starts).
//!
//! # Quickstart
//!
//! ```
//! use context_search::{
//!     ContextSetKind, EngineConfig, EngineSnapshot, PrepareOptions, ScoreFunction,
//! };
//! use ontology::{generate_ontology, GeneratorConfig};
//! use corpus::{generate_corpus, CorpusConfig};
//!
//! let onto = generate_ontology(&GeneratorConfig { n_terms: 80, ..Default::default() });
//! let corp = generate_corpus(&onto, &CorpusConfig {
//!     n_papers: 120, body_len: (40, 60), abstract_len: (20, 30), ..Default::default()
//! });
//! let pair = (ContextSetKind::TextBased, ScoreFunction::Text);
//! let snapshot = EngineSnapshot::prepare_with(onto, corp, EngineConfig::default(),
//!     PrepareOptions { pairs: vec![pair] });
//! let searcher = snapshot.searcher();
//! let hits = searcher.query("transcription factor binding", pair.0, pair.1, 10).unwrap();
//! for hit in hits {
//!     println!("{:.3}  {}", hit.relevancy, searcher.corpus().paper(hit.paper).title);
//! }
//! ```

pub mod ac_answer;
pub mod assign;
pub mod config;
pub mod context;
pub mod indexes;
pub mod persist;
pub mod plan;
pub mod prestige;
pub mod search;
pub mod snapshot;

pub use config::EngineConfig;
pub use context::{ContextId, ContextPaperSets, ContextSetKind};
pub use prestige::{PrestigeScores, ScoreFunction};
pub use search::exec::{QueryStats, SearchResult};
pub use search::serve::{Searcher, ServeError};
pub use search::shadow::{shadow_evaluate, QualityShadow, ShadowConfig, SHADOW_FUNCTIONS};
pub use snapshot::{EngineSnapshot, PrepareOptions};

/// Map `f` over `items` on up to `threads` worker threads (0 ⇒ available
/// parallelism), preserving input order. The workhorse for per-context
/// computations: contexts are independent, so prestige and assignment
/// scale across cores.
pub(crate) fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        threads
    };
    let threads = threads.min(items.len().max(1));
    if threads <= 1 || items.len() < 8 {
        return items.iter().map(&f).collect();
    }
    let chunk_size = items.len().div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| {
                let f = &f;
                scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u32> = (0..1000).collect();
        let out = super::parallel_map(4, &items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_small_and_empty() {
        let out = super::parallel_map(8, &[1, 2, 3], |&x: &i32| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        let empty: Vec<i32> = vec![];
        assert!(super::parallel_map(0, &empty, |&x: &i32| x).is_empty());
    }
}
