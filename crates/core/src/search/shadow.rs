//! Shadow scoring: sampled re-ranking of served queries under every
//! prepared prestige function, off the serve path.
//!
//! The serve path ranks with *one* prestige function. The paper's
//! evaluation chapter shows the functions disagree in interesting ways
//! (top-k% overlap, Fig 5.3) and separate contexts differently (Figs
//! 5.4–5.7) — signals worth watching continuously, not only in offline
//! experiments. A [`QualityShadow`] does exactly that: a sampled
//! fraction of served queries is handed to a background worker over a
//! bounded channel; the worker re-executes each one under all three
//! [`ScoreFunction`]s against the same immutable snapshot, compares the
//! rankings with `eval`'s own top-k% overlap, and folds the comparison
//! into its [`QualityAggregator`].
//!
//! Serve-path cost when sampling is on: one modulo and, for sampled
//! queries, one bounded `try_send` of an owned copy of the query. The
//! worker never touches the snapshot mutably — [`Searcher`] is a
//! lock-free handle — so serve results are bit-identical with the
//! shadow on or off. The worker mutes its thread's telemetry
//! ([`obs::mute_thread`]), so its re-ranks stay out of the serving
//! rows; each sample is one `quality.shadow_eval` span.

use crate::context::ContextSetKind;
use crate::prestige::ScoreFunction;
use crate::search::serve::Searcher;
use eval::top_k_percent_overlap;
use obs::{QualityAggregator, QualityEvent, QualityReport};
use parking_lot::Mutex;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The three prestige functions, in the fixed order every event and
/// report uses.
pub const SHADOW_FUNCTIONS: [ScoreFunction; 3] = [
    ScoreFunction::Citation,
    ScoreFunction::Text,
    ScoreFunction::Pattern,
];

/// Top fraction compared between two functions' rankings (the paper's
/// top-k% overlapping ratio at k = 10 %).
const TOP_PCT: f64 = 0.10;

/// Bounded queue depth between serve threads and the worker; a sample
/// that finds it full is dropped (serving never blocks) and counted.
const QUEUE_CAPACITY: usize = 256;

/// Knobs for a [`QualityShadow`].
#[derive(Debug, Clone)]
pub struct ShadowConfig {
    /// Sample one of every `sample_every` observed queries (at least 1).
    pub sample_every: u64,
    /// Which §4 context paper set to rank against.
    pub kind: ContextSetKind,
    /// Result-list depth each function ranks to.
    pub limit: usize,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        Self {
            sample_every: 16,
            // The pattern-based set is the one a default prepare equips
            // with all three functions (§5's five tables).
            kind: ContextSetKind::PatternBased,
            limit: 50,
        }
    }
}

/// Handle to the shadow-scoring worker. Submission is cheap and
/// lock-free on the non-sampled path; [`finish`](Self::finish) drains
/// the queue and joins the worker so every accepted sample is in the
/// aggregator before a report is built.
pub struct QualityShadow {
    tx: Mutex<Option<SyncSender<String>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    aggregator: Arc<QualityAggregator>,
    sample_every: u64,
}

impl QualityShadow {
    /// Spawn the background worker and the aggregator it feeds.
    pub fn spawn(searcher: Searcher, config: ShadowConfig) -> Self {
        let (tx, rx) = sync_channel::<String>(QUEUE_CAPACITY);
        let aggregator = Arc::new(QualityAggregator::new());
        let agg = Arc::clone(&aggregator);
        let sample_every = config.sample_every;
        let worker = std::thread::spawn(move || {
            obs::mute_thread();
            while let Ok(query) = rx.recv() {
                agg.record(&shadow_evaluate(&searcher, &config, &query));
            }
        });
        Self {
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
            aggregator,
            sample_every,
        }
    }

    /// The run summary of every sample evaluated so far, without a
    /// drift verdict: the `/quality` payload and `top`'s quality panel.
    pub fn report(&self) -> QualityReport {
        QualityReport {
            summary: self.aggregator.summary(),
            drift: None,
        }
    }

    /// Observe served query number `seq`: it is sampled when
    /// `seq % sample_every == 0`, so a deterministic sequence (the
    /// server's count of served requests) samples the same queries on
    /// every run.
    pub fn observe(&self, seq: u64, query: &str) {
        if !seq.is_multiple_of(self.sample_every) {
            return;
        }
        let tx = self.tx.lock();
        let Some(tx) = tx.as_ref() else {
            return;
        };
        if tx.try_send(query.to_string()).is_err() {
            self.aggregator.add_dropped(1);
        }
    }

    /// Close the queue and join the worker: on return, every accepted
    /// sample has been evaluated and aggregated. Idempotent.
    pub fn finish(&self) {
        *self.tx.lock() = None;
        if let Some(worker) = self.worker.lock().take() {
            let _ = worker.join();
        }
    }
}

impl Drop for QualityShadow {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Re-rank `query` under every prepared prestige function and build
/// the quality event: pairwise top-k% overlap between the rankings,
/// winning-context agreement, top1−top2 margins, and the winning
/// context's prestige score values per function (separability input).
/// A query no prepared function answers yields an event with no
/// overlaps, margins or scores and no agreement: it is still a sample.
pub fn shadow_evaluate(searcher: &Searcher, config: &ShadowConfig, query: &str) -> QualityEvent {
    let _span = obs::background_span(obs::quality::SHADOW_EVAL_SPAN);
    let sets = searcher.sets(config.kind);

    // (function name, (paper, relevancy) ranking, winning context) per
    // prepared function, in SHADOW_FUNCTIONS order.
    let mut ranked = Vec::with_capacity(SHADOW_FUNCTIONS.len());
    let mut margins: Vec<(&'static str, f64)> = Vec::new();
    let mut scores: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for function in SHADOW_FUNCTIONS {
        let Some(prestige) = searcher.prestige(config.kind, function) else {
            continue;
        };
        let results = searcher.search(query, sets, prestige, config.limit);
        if results.is_empty() {
            continue;
        }
        let winner = results[0].context;
        let margin = if results.len() > 1 {
            (results[0].relevancy - results[1].relevancy).clamp(0.0, 1.0)
        } else {
            results[0].relevancy.clamp(0.0, 1.0)
        };
        margins.push((function.name(), margin));
        scores.push((function.name(), prestige.score_values(winner).to_vec()));
        let ranking: Vec<(u32, f64)> = results.iter().map(|r| (r.paper.0, r.relevancy)).collect();
        ranked.push((function.name(), ranking, winner));
    }
    let mut overlaps = Vec::new();
    for i in 0..ranked.len() {
        for j in (i + 1)..ranked.len() {
            let ratio = top_k_percent_overlap(&ranked[i].1, &ranked[j].1, TOP_PCT);
            overlaps.push((ranked[i].0, ranked[j].0, ratio));
        }
    }
    let agreement = if ranked.len() >= 2 {
        Some(ranked.iter().all(|(_, _, winner)| *winner == ranked[0].2))
    } else {
        None
    };

    QualityEvent {
        overlaps,
        agreement,
        margins,
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::snapshot::EngineSnapshot;
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig};

    fn testbed_searcher() -> Searcher {
        let onto = generate_ontology(&GeneratorConfig {
            n_terms: 70,
            seed: 11,
            ..Default::default()
        });
        let corp = generate_corpus(
            &onto,
            &CorpusConfig {
                n_papers: 160,
                seed: 13,
                body_len: (40, 60),
                abstract_len: (20, 30),
                ..Default::default()
            },
        );
        EngineSnapshot::prepare(onto, corp, EngineConfig::default()).searcher()
    }

    #[test]
    fn shadow_evaluate_compares_all_prepared_functions() {
        let searcher = testbed_searcher();
        let config = ShadowConfig::default();
        let event = shadow_evaluate(&searcher, &config, "biological process");
        // Default prepare has all three functions for the text-based
        // set: three pairwise overlaps, three margins, three sketches.
        assert_eq!(event.overlaps.len(), 3);
        assert_eq!(event.margins.len(), 3);
        assert_eq!(event.scores.len(), 3);
        assert!(event.agreement.is_some());
        for &(_, _, ratio) in &event.overlaps {
            assert!((0.0..=1.0).contains(&ratio));
        }
        for (_, values) in &event.scores {
            assert!(!values.is_empty(), "winning context has prestige scores");
        }
    }

    #[test]
    fn shadow_evaluate_is_deterministic() {
        let searcher = testbed_searcher();
        let config = ShadowConfig::default();
        let a = shadow_evaluate(&searcher, &config, "binding");
        let b = shadow_evaluate(&searcher, &config, "binding");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn a_query_no_function_answers_is_an_empty_sample() {
        let searcher = testbed_searcher();
        let event = shadow_evaluate(&searcher, &ShadowConfig::default(), "zzz qqq xxx");
        assert!(event.overlaps.is_empty());
        assert!(event.margins.is_empty());
        assert!(event.scores.is_empty());
        assert_eq!(event.agreement, None);
    }

    #[test]
    fn worker_drains_into_aggregator_on_finish() {
        let searcher = testbed_searcher();
        let shadow = QualityShadow::spawn(
            searcher,
            ShadowConfig {
                sample_every: 2,
                ..Default::default()
            },
        );
        let queries = ["biological process", "binding", "molecular function"];
        for (i, q) in queries.iter().enumerate() {
            shadow.observe(i as u64, q);
        }
        shadow.finish();
        // Sequences 0 and 2 sample; both must be aggregated by now.
        let summary = shadow.report().summary;
        assert_eq!(summary.sampled, 2);
        assert_eq!(summary.dropped, 0);
        assert!(!summary.overlaps.is_empty());
    }

    #[test]
    fn serve_results_identical_with_shadow_on() {
        let searcher = testbed_searcher();
        let baseline: Vec<_> = ["biological process", "binding"]
            .iter()
            .map(|q| {
                searcher
                    .query(q, ContextSetKind::TextBased, ScoreFunction::Text, 10)
                    .unwrap()
            })
            .collect();
        let shadow = QualityShadow::spawn(
            searcher.clone(),
            ShadowConfig {
                sample_every: 1,
                ..Default::default()
            },
        );
        let with_shadow: Vec<_> = ["biological process", "binding"]
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let r = searcher
                    .query(q, ContextSetKind::TextBased, ScoreFunction::Text, 10)
                    .unwrap();
                shadow.observe(i as u64, q);
                r
            })
            .collect();
        shadow.finish();
        assert_eq!(shadow.report().summary.sampled, 2);
        for (a, b) in baseline.iter().zip(&with_shadow) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.paper, y.paper);
                assert_eq!(x.relevancy.to_bits(), y.relevancy.to_bits());
            }
        }
    }

    #[test]
    fn prestige_override_degrades_the_shadow_signal() {
        let searcher = testbed_searcher();
        let config = ShadowConfig::default();
        let healthy = shadow_evaluate(&searcher, &config, "biological process");

        // Flatten the citation function: every paper in every context
        // gets the same score. Separability collapses to the worst
        // case for that function's sketch.
        let flat = {
            let table = searcher
                .prestige(config.kind, ScoreFunction::Citation)
                .unwrap();
            let mut by_context = std::collections::HashMap::new();
            for context in table.contexts() {
                let flat: Vec<_> = table
                    .scores(context)
                    .iter()
                    .map(|&(p, _)| (p, 1.0))
                    .collect();
                by_context.insert(context, flat);
            }
            crate::prestige::PrestigeScores::new(by_context, ScoreFunction::Citation)
        };
        let perturbed_searcher =
            searcher.with_prestige_override(config.kind, ScoreFunction::Citation, flat);
        let perturbed = shadow_evaluate(&perturbed_searcher, &config, "biological process");

        let flat_scores = &perturbed
            .scores
            .iter()
            .find(|(f, _)| *f == "citation")
            .unwrap()
            .1;
        assert!(flat_scores.iter().all(|&s| s == 1.0));
        let healthy_scores = &healthy
            .scores
            .iter()
            .find(|(f, _)| *f == "citation")
            .unwrap()
            .1;
        assert!(
            healthy_scores.iter().any(|&s| s < 1.0),
            "healthy citation scores are spread"
        );
    }
}
