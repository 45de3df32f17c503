//! Experiment configuration and the shared prepared state every figure
//! binary starts from.

use context_search::{
    ContextPaperSets, ContextSetKind, EngineConfig, EngineSnapshot, PrestigeScores, ScoreFunction,
    Searcher,
};
use corpus::queries::{generate_queries, EvalQuery, QueryConfig};
use corpus::{generate_corpus, CorpusConfig};
use ontology::{generate_ontology, GeneratorConfig};
use std::time::Instant;

/// Scale and sweep parameters of one experiment run.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Ontology size.
    pub n_terms: usize,
    /// Corpus size.
    pub n_papers: usize,
    /// Number of evaluation queries.
    pub n_queries: usize,
    /// Master seed.
    pub seed: u64,
    /// Contexts below this size are excluded from experiment
    /// populations (the paper drops ≤ 100 at 72k-paper scale).
    pub min_context_size: usize,
    /// Relevancy thresholds for the precision figures.
    pub thresholds: Vec<f64>,
    /// Context levels reported in the per-level figures.
    pub levels: Vec<u32>,
    /// Top-k percentages for the overlap figure.
    pub k_pcts: Vec<f64>,
    /// When set, `run_all` captures one Chrome-format trace per
    /// experiment into this directory (`<dir>/<experiment>.json`).
    pub trace_dir: Option<std::path::PathBuf>,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            n_terms: 800,
            n_papers: 8_000,
            n_queries: 120,
            seed: 2007,
            min_context_size: 30,
            thresholds: (0..=10).map(|i| i as f64 * 0.05).collect(),
            levels: vec![3, 5, 7],
            k_pcts: vec![0.05, 0.10, 0.15, 0.20],
            trace_dir: None,
        }
    }
}

impl ExpConfig {
    /// Parse CLI args: `--paper-scale`, `--terms N`, `--papers N`,
    /// `--queries N`, `--seed N`, `--min-context N`, `--quick`,
    /// `--trace-dir DIR`.
    pub fn from_args() -> Self {
        let mut cfg = Self::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--paper-scale" => {
                    cfg.n_terms = 2_000;
                    cfg.n_papers = 72_027;
                    cfg.min_context_size = 100;
                }
                "--quick" => {
                    cfg.n_terms = 200;
                    cfg.n_papers = 1_500;
                    cfg.n_queries = 40;
                    cfg.min_context_size = 10;
                }
                "--terms" => {
                    i += 1;
                    cfg.n_terms = args[i].parse().expect("--terms N");
                }
                "--papers" => {
                    i += 1;
                    cfg.n_papers = args[i].parse().expect("--papers N");
                }
                "--queries" => {
                    i += 1;
                    cfg.n_queries = args[i].parse().expect("--queries N");
                }
                "--seed" => {
                    i += 1;
                    cfg.seed = args[i].parse().expect("--seed N");
                }
                "--min-context" => {
                    i += 1;
                    cfg.min_context_size = args[i].parse().expect("--min-context N");
                }
                "--trace-dir" => {
                    i += 1;
                    cfg.trace_dir = Some(std::path::PathBuf::from(&args[i]));
                }
                other => panic!("unknown flag {other}"),
            }
            i += 1;
        }
        cfg
    }
}

/// Fully prepared experiment state: a lock-free [`Searcher`] over the
/// prepared snapshot, both §4 context paper sets, prestige under every
/// function, and the evaluation queries.
pub struct Setup {
    /// The configuration used.
    pub config: ExpConfig,
    /// Lock-free query handle over the prepared snapshot (which owns
    /// ontology + corpus + indexes + all prepared tables).
    pub searcher: Searcher,
    /// Text-based context paper set (§4).
    pub text_sets: ContextPaperSets,
    /// Pattern-based context paper set (§4).
    pub pattern_sets: ContextPaperSets,
    /// Text prestige on the text-based set.
    pub text_on_text: PrestigeScores,
    /// Citation prestige on the text-based set.
    pub citation_on_text: PrestigeScores,
    /// Pattern prestige (simplified) on the pattern-based set.
    pub pattern_on_pattern: PrestigeScores,
    /// Citation prestige on the pattern-based set.
    pub citation_on_pattern: PrestigeScores,
    /// Text prestige on the pattern-based set — only for contexts with
    /// a representative paper, as in the paper's Fig 5.3 setup.
    pub text_on_pattern: PrestigeScores,
    /// Evaluation queries with ground-truth term mappings.
    pub queries: Vec<EvalQuery>,
}

impl Setup {
    /// Build everything, logging wall-clock per stage.
    pub fn build(config: ExpConfig) -> Self {
        let t0 = Instant::now();
        let onto = generate_ontology(&GeneratorConfig {
            n_terms: config.n_terms,
            seed: config.seed,
            ..Default::default()
        });
        let corp = generate_corpus(
            &onto,
            &CorpusConfig {
                n_papers: config.n_papers,
                seed: config.seed.wrapping_add(1),
                ..Default::default()
            },
        );
        obs::progress(&format!(
            "[setup] generated {} terms / {} papers in {:.1?}",
            onto.len(),
            corp.len(),
            t0.elapsed()
        ));

        // The whole offline phase runs as one prepare: indexes, both
        // paper sets, pattern mining, and the five standard prestige
        // tables (including the Fig 5.3 representative-injected
        // text-on-pattern pair), stage by stage, each parallel across
        // contexts on `build_threads` threads.
        let t = Instant::now();
        let snapshot = EngineSnapshot::prepare(onto, corp, EngineConfig::default());
        let text_sets = snapshot.sets(ContextSetKind::TextBased).clone();
        let pattern_sets = snapshot.sets(ContextSetKind::PatternBased).clone();
        obs::progress(&format!(
            "[setup] prepared snapshot ({} text / {} pattern contexts, {} prestige tables) in {:.1?}",
            text_sets.n_contexts(),
            pattern_sets.n_contexts(),
            snapshot.pairs().len(),
            t.elapsed()
        ));
        let table = |kind, function| {
            snapshot
                .prestige(kind, function)
                .expect("default prepare builds all five tables")
                .clone()
        };
        let text_on_text = table(ContextSetKind::TextBased, ScoreFunction::Text);
        let citation_on_text = table(ContextSetKind::TextBased, ScoreFunction::Citation);
        let pattern_on_pattern = table(ContextSetKind::PatternBased, ScoreFunction::Pattern);
        let citation_on_pattern = table(ContextSetKind::PatternBased, ScoreFunction::Citation);
        let text_on_pattern = table(ContextSetKind::PatternBased, ScoreFunction::Text);

        let queries = generate_queries(
            snapshot.ontology(),
            snapshot.corpus(),
            &QueryConfig {
                n_queries: config.n_queries,
                seed: config.seed.wrapping_add(2),
                ..Default::default()
            },
        );
        obs::progress(&format!(
            "[setup] {} queries; total setup {:.1?}",
            queries.len(),
            t0.elapsed()
        ));

        Self {
            config,
            searcher: snapshot.searcher(),
            text_sets,
            pattern_sets,
            text_on_text,
            citation_on_text,
            pattern_on_pattern,
            citation_on_pattern,
            text_on_pattern,
            queries,
        }
    }

    /// Contexts of a set at an (approximate) level, meeting the minimum
    /// size. If the generated ontology is shallower than the requested
    /// level, the deepest available level substitutes (reported as-is).
    pub fn contexts_at_level(
        &self,
        sets: &ContextPaperSets,
        level: u32,
    ) -> Vec<context_search::ContextId> {
        let max = self.searcher.ontology().max_level();
        let level = level.min(max);
        sets.contexts_with_min_size(self.config.min_context_size)
            .into_iter()
            .filter(|&c| self.searcher.ontology().level(c) == level)
            .collect()
    }
}

/// Write `content` to `path`, naming the file in the error.
fn write_file(path: &std::path::Path, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Write a set of result tables to `results/<name>.md` (+ `.json`) and
/// print the markdown to stdout. I/O failures (missing permissions, a
/// full disk, `results/` shadowed by a file) are reported with the
/// offending path instead of silently dropping experiment output.
pub fn emit(name: &str, tables: &[eval::report::Table]) -> Result<(), String> {
    let mut md = String::new();
    for t in tables {
        md.push_str(&t.to_markdown());
        md.push('\n');
    }
    println!("{md}");
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    write_file(&dir.join(format!("{name}.md")), &md)?;
    let json: Vec<serde_json::Value> = tables
        .iter()
        .map(|t| serde_json::from_str(&t.to_json()).expect("valid json"))
        .collect();
    write_file(
        &dir.join(format!("{name}.json")),
        &serde_json::to_string_pretty(&json).expect("serializes"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro() -> ExpConfig {
        ExpConfig {
            n_terms: 60,
            n_papers: 150,
            n_queries: 8,
            seed: 5,
            min_context_size: 5,
            levels: vec![2, 3],
            ..Default::default()
        }
    }

    #[test]
    fn setup_builds_all_prestige_variants() {
        let setup = Setup::build(micro());
        assert_eq!(setup.searcher.corpus().len(), 150);
        assert!(setup.text_sets.n_contexts() > 0);
        assert!(setup.pattern_sets.n_contexts() > 0);
        assert!(setup.text_on_text.contexts().count() > 0);
        assert!(setup.citation_on_text.contexts().count() > 0);
        assert!(setup.pattern_on_pattern.contexts().count() > 0);
        assert!(setup.citation_on_pattern.contexts().count() > 0);
        assert!(!setup.queries.is_empty());
    }

    #[test]
    fn every_experiment_produces_tables() {
        let setup = Setup::build(micro());
        for (name, tables) in [
            ("fig5_1", crate::fig5_1(&setup)),
            ("fig5_2", crate::fig5_2(&setup)),
            ("fig5_3", crate::fig5_3(&setup)),
            ("fig5_4", crate::fig5_4(&setup)),
            ("fig5_5", crate::fig5_5(&setup)),
            ("fig5_6", crate::fig5_6(&setup)),
            ("fig5_7", crate::fig5_7(&setup)),
            ("baseline", crate::baseline_vs_context(&setup)),
            ("gopubmed", crate::related_gopubmed(&setup)),
            ("stats", crate::testbed_stats(&setup)),
        ] {
            assert!(!tables.is_empty(), "{name} returned no tables");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{name} table {:?} empty", t.title);
                let md = t.to_markdown();
                assert!(md.starts_with("### "), "{name} markdown malformed");
                let _ = t.to_json();
            }
        }
    }

    #[test]
    fn contexts_at_level_clamps_to_max_level() {
        let setup = Setup::build(micro());
        let deep = setup.contexts_at_level(&setup.pattern_sets, 99);
        let max = setup.searcher.ontology().max_level();
        for c in deep {
            assert_eq!(setup.searcher.ontology().level(c), max);
        }
    }
}
