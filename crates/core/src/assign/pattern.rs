//! Pattern-based context paper set (paper §4) and the shared
//! per-context pattern sets.
//!
//! The paper's simplified variant: "only middle tuples of patterns were
//! considered during pattern matching, extended patterns were not used,
//! and descendant contexts' papers were included with the ancestor
//! context. If the context contained zero papers, then the closest
//! ancestor's paper set was assigned to the context" — with the score
//! decay `RateOfDecay(Cancs, Cdesc) = I(Cancs)/I(Cdesc)` applied later
//! by the pattern prestige function.

use crate::config::EngineConfig;
use crate::context::{ContextId, ContextPaperSets, ContextSetKind};
use crate::indexes::CorpusIndex;
use corpus::{Corpus, PaperId, Section};
use ontology::Ontology;
use patterns::matcher::middle_only_strength;
use patterns::{build_patterns, extract_significant_terms, Pattern};
use std::collections::HashMap;
use textproc::TermId;

/// A paper whose sections contain a pattern's middle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhraseHit {
    /// The paper.
    pub paper: PaperId,
    /// The sections holding the middle: bit `i` is `Section::ALL[i]`,
    /// the order of `MatcherConfig::section_weights`.
    pub sections: u8,
}

/// The scored pattern sets of every context that has any, with each
/// pattern's phrase hits. Both are built together by
/// [`patterns_by_context`], so they stay in step.
#[derive(Default)]
pub struct ContextPatterns {
    /// Patterns per context, best-scored first.
    patterns: HashMap<ContextId, Vec<Pattern>>,
    /// `hits[c][i]`: the hits of `patterns[c][i]`'s middle, ascending
    /// by paper.
    hits: HashMap<ContextId, Vec<Vec<PhraseHit>>>,
}

impl ContextPatterns {
    /// Patterns of one context (empty slice if none).
    pub fn patterns(&self, context: ContextId) -> &[Pattern] {
        self.patterns.get(&context).map_or(&[], Vec::as_slice)
    }

    /// One context's patterns, each with its phrase hits.
    pub fn with_hits(
        &self,
        context: ContextId,
    ) -> impl Iterator<Item = (&Pattern, &[PhraseHit])> + '_ {
        let hits = self.hits.get(&context).map_or(&[][..], Vec::as_slice);
        self.patterns(context)
            .iter()
            .zip(hits.iter().map(Vec::as_slice))
    }
}

/// Build every context's pattern set from its term name and training
/// (annotation-evidence) papers, and find each pattern's phrase hits.
/// Contexts without evidence still get patterns from their term name
/// alone — that is what lets the pattern-based paper set cover *all*
/// contexts (§4), unlike the text-based one.
pub fn patterns_by_context(
    ontology: &Ontology,
    corpus: &Corpus,
    index: &CorpusIndex,
    config: &EngineConfig,
) -> ContextPatterns {
    let mut pattern_cfg = config.pattern.clone();
    if !config.use_extended_patterns {
        pattern_cfg.max_extended = 0;
    }
    let positions = WordPositions::build(corpus);
    let contexts: Vec<ContextId> = ontology.term_ids().collect();
    let built = crate::parallel_map(config.build_threads, &contexts, |&context| {
        let name_tokens = &index.term_name_tokens[context.index()];
        let training: Vec<Vec<TermId>> = corpus
            .evidence_for(context)
            .iter()
            .map(|&p| corpus.analyzed(p).concat())
            .collect();
        let sig = extract_significant_terms(
            name_tokens,
            &training,
            pattern_cfg.min_support,
            pattern_cfg.max_phrase_len,
        );
        let pats = build_patterns(
            &sig,
            name_tokens,
            &training,
            &index.selectivity,
            &|middle| index.coverage_estimate(middle),
            &pattern_cfg,
        );
        let hits = pats
            .iter()
            .map(|p| positions.hits(corpus, &p.middle))
            .collect::<Vec<_>>();
        (context, pats, hits)
    });
    let mut out = ContextPatterns::default();
    for (context, pats, hits) in built {
        if !pats.is_empty() {
            out.patterns.insert(context, pats);
            out.hits.insert(context, hits);
        }
    }
    out
}

/// Where every word occurs, per section: for section `s` (in
/// `Section::ALL` order) and word `w`, the `(paper, position)` entries
/// `entries[s][starts[s][w]..starts[s][w + 1]]`, ascending. Built and
/// dropped inside [`patterns_by_context`]; nothing keeps it.
struct WordPositions {
    starts: [Vec<usize>; 4],
    entries: [Vec<(PaperId, u32)>; 4],
}

impl WordPositions {
    fn build(corpus: &Corpus) -> Self {
        let words = corpus.vocab().len();
        let mut starts: [Vec<usize>; 4] = std::array::from_fn(|_| vec![0; words + 1]);
        for paper in corpus.paper_ids() {
            let a = corpus.analyzed(paper);
            for (s, section) in Section::ALL.into_iter().enumerate() {
                for w in a.section(section) {
                    starts[s][w.index() + 1] += 1;
                }
            }
        }
        for starts in &mut starts {
            for w in 0..words {
                starts[w + 1] += starts[w];
            }
        }
        let mut next = starts.clone();
        let mut entries: [Vec<(PaperId, u32)>; 4] =
            std::array::from_fn(|s| vec![(PaperId(0), 0); starts[s][words]]);
        for paper in corpus.paper_ids() {
            let a = corpus.analyzed(paper);
            for (s, section) in Section::ALL.into_iter().enumerate() {
                for (position, w) in a.section(section).iter().enumerate() {
                    let position =
                        u32::try_from(position).expect("a section holds fewer than 2^32 tokens");
                    let slot = &mut next[s][w.index()];
                    entries[s][*slot] = (paper, position);
                    *slot += 1;
                }
            }
        }
        Self { starts, entries }
    }

    /// The `(paper, position)` entries of `word` in section `s`.
    fn occurrences(&self, s: usize, word: TermId) -> &[(PaperId, u32)] {
        let starts = &self.starts[s];
        match (starts.get(word.index()), starts.get(word.index() + 1)) {
            (Some(&lo), Some(&hi)) => &self.entries[s][lo..hi],
            _ => &[],
        }
    }

    /// The papers whose sections contain `middle` contiguously, never
    /// across a section boundary, ascending, each with the mask of those
    /// sections. The middle is checked only where its least frequent
    /// word in the section occurs.
    fn hits(&self, corpus: &Corpus, middle: &[TermId]) -> Vec<PhraseHit> {
        let mut hits: Vec<PhraseHit> = Vec::new();
        for (s, section) in Section::ALL.into_iter().enumerate() {
            let Some((at, occurrences)) = middle
                .iter()
                .map(|&w| self.occurrences(s, w))
                .enumerate()
                .min_by_key(|(_, occurrences)| occurrences.len())
            else {
                return hits;
            };
            for &(paper, position) in occurrences {
                let Some(start) = (position as usize).checked_sub(at) else {
                    continue;
                };
                let tokens = corpus.analyzed(paper).section(section);
                if tokens.get(start..start + middle.len()) == Some(middle) {
                    hits.push(PhraseHit {
                        paper,
                        sections: 1 << s,
                    });
                }
            }
        }
        hits.sort_unstable_by_key(|hit| hit.paper);
        hits.dedup_by(|next, kept| {
            let same = next.paper == kept.paper;
            if same {
                kept.sections |= next.sections;
            }
            same
        });
        hits
    }
}

/// Build the pattern-based context paper set using the simplified
/// (middle-only) matching: a paper joins a context when one of the
/// context's patterns has a hit in it whose [`middle_only_strength`]
/// reaches `pattern_min_strength`.
///
/// `_corpus` and `_index` are not read: the hits in `patterns` were
/// found in the corpus when the patterns were built. They keep the
/// stage's signature, which the CLI, the benches and the benchmark's
/// traced prepare call.
pub fn build_pattern_sets(
    ontology: &Ontology,
    _corpus: &Corpus,
    _index: &CorpusIndex,
    patterns: &ContextPatterns,
    config: &EngineConfig,
) -> ContextPaperSets {
    let contexts: Vec<ContextId> = ontology.term_ids().collect();

    // Direct assignment: every hit strong enough under the middle-only
    // matcher.
    let direct: Vec<(ContextId, Vec<PaperId>)> =
        crate::parallel_map(config.build_threads, &contexts, |&context| {
            let mut members: Vec<PaperId> = patterns
                .with_hits(context)
                .flat_map(|(_, hits)| hits)
                .filter(|hit| {
                    middle_only_strength(hit.sections, &config.matcher)
                        >= config.assign.pattern_min_strength
                })
                .map(|hit| hit.paper)
                .collect();
            members.sort_unstable();
            members.dedup();
            (context, members)
        });
    let mut members: HashMap<ContextId, Vec<PaperId>> = direct.into_iter().collect();

    // Descendant aggregation: children's papers flow into ancestors.
    // Reverse topological order guarantees children are final first.
    let topo: Vec<ContextId> = ontology.topological_order().to_vec();
    for &c in topo.iter().rev() {
        let child_papers: Vec<PaperId> = ontology
            .children(c)
            .iter()
            .flat_map(|ch| members.get(ch).cloned().unwrap_or_default())
            .collect();
        if !child_papers.is_empty() {
            let e = members.entry(c).or_default();
            e.extend(child_papers);
            e.sort_unstable();
            e.dedup();
        }
    }

    // Empty contexts inherit the closest ancestor's set.
    let mut inherited_from: HashMap<ContextId, ContextId> = HashMap::new();
    for &c in &topo {
        // Topological order: ancestors settle before descendants, so an
        // inherited set can cascade further down.
        if members.get(&c).is_none_or(Vec::is_empty) {
            let mut cur = c;
            while let Some(ancestor) = ontology.closest_ancestor(cur) {
                if let Some(set) = members.get(&ancestor) {
                    if !set.is_empty() {
                        members.insert(c, set.clone());
                        // Record the *original* owner if the ancestor
                        // itself inherited.
                        let origin = inherited_from.get(&ancestor).copied().unwrap_or(ancestor);
                        inherited_from.insert(c, origin);
                        break;
                    }
                }
                cur = ancestor;
            }
        }
    }

    let mut sets = ContextPaperSets::new(members, ContextSetKind::PatternBased);
    sets.inherited_from = inherited_from;
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use citegraph::PageRankConfig;
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig};

    fn setup() -> (Ontology, Corpus, CorpusIndex, EngineConfig) {
        let onto = generate_ontology(&GeneratorConfig {
            n_terms: 80,
            seed: 3,
            ..Default::default()
        });
        let corpus = generate_corpus(
            &onto,
            &CorpusConfig {
                n_papers: 150,
                seed: 5,
                body_len: (40, 60),
                abstract_len: (20, 30),
                ..Default::default()
            },
        );
        let config = EngineConfig::default();
        let index = CorpusIndex::build(&onto, &corpus, &PageRankConfig::default());
        (onto, corpus, index, config)
    }

    #[test]
    fn all_terms_get_patterns() {
        let (onto, corpus, index, config) = setup();
        let pats = patterns_by_context(&onto, &corpus, &index, &config);
        // Every term has a name, so virtually every term has patterns.
        let with_patterns = onto
            .term_ids()
            .filter(|&c| !pats.patterns(c).is_empty())
            .count();
        assert!(with_patterns as f64 > onto.len() as f64 * 0.9);
    }

    fn paper(id: u32, title: &str, body: &str) -> corpus::Paper {
        corpus::Paper {
            id: PaperId(id),
            title: title.to_string(),
            abstract_text: String::new(),
            body: body.to_string(),
            index_terms: Vec::new(),
            authors: Vec::new(),
            references: Vec::new(),
            year: 2000,
            true_topics: Vec::new(),
        }
    }

    fn hit(paper: u32, sections: &[Section]) -> PhraseHit {
        PhraseHit {
            paper: PaperId(paper),
            sections: sections
                .iter()
                .map(|&s| 1u8 << crate::indexes::section_index(s))
                .sum(),
        }
    }

    #[test]
    fn a_middle_of_words_found_in_every_paper_hits_every_paper() {
        // "kinase" is in every paper, so its idf is 0 and it has no
        // whole-paper postings; the positions table still finds it.
        let corpus = Corpus::new(
            vec![
                paper(0, "protein folding", "kinase activity"),
                paper(1, "membrane kinase", "the kinase binds a membrane"),
                paper(2, "signal", "kinase cascade"),
            ],
            Vec::new(),
            HashMap::new(),
            &[],
        );
        let positions = WordPositions::build(&corpus);
        let find = |text: &str| positions.hits(&corpus, &corpus.analyze_known(text));
        assert_eq!(
            find("kinase"),
            vec![
                hit(0, &[Section::Body]),
                hit(1, &[Section::Title, Section::Body]),
                hit(2, &[Section::Body]),
            ]
        );
        assert_eq!(
            find("membrane"),
            vec![hit(1, &[Section::Title, Section::Body])]
        );
        assert_eq!(find("membrane kinase"), vec![hit(1, &[Section::Title])]);
        assert_eq!(find("kinase membrane"), Vec::<PhraseHit>::new());
        assert_eq!(positions.hits(&corpus, &[]), Vec::<PhraseHit>::new());
    }

    #[test]
    fn a_middle_never_matches_across_a_section_boundary() {
        // Paper 0's title ends in "alpha" and its body starts "beta".
        let corpus = Corpus::new(
            vec![
                paper(0, "gamma alpha", "beta delta"),
                paper(1, "alpha beta", "delta"),
            ],
            Vec::new(),
            HashMap::new(),
            &[],
        );
        let positions = WordPositions::build(&corpus);
        let middle = corpus.analyze_known("alpha beta");
        assert_eq!(
            positions.hits(&corpus, &middle),
            vec![hit(1, &[Section::Title])]
        );
    }

    #[test]
    fn pattern_sets_cover_far_more_contexts_than_text_sets() {
        let (onto, corpus, index, config) = setup();
        let pats = patterns_by_context(&onto, &corpus, &index, &config);
        let pattern_sets = build_pattern_sets(&onto, &corpus, &index, &pats, &config);
        let text_sets = crate::assign::build_text_sets(&onto, &corpus, &index, &config);
        assert!(
            pattern_sets.n_contexts() > text_sets.n_contexts(),
            "pattern: {} vs text: {}",
            pattern_sets.n_contexts(),
            text_sets.n_contexts()
        );
    }

    #[test]
    fn ancestors_contain_descendant_papers() {
        let (onto, corpus, index, config) = setup();
        let pats = patterns_by_context(&onto, &corpus, &index, &config);
        let sets = build_pattern_sets(&onto, &corpus, &index, &pats, &config);
        for c in onto.term_ids() {
            if !sets.contains_context(c) || sets.inherited_from.contains_key(&c) {
                continue;
            }
            for &child in onto.children(c) {
                if sets.inherited_from.contains_key(&child) {
                    continue;
                }
                for &p in sets.members(child) {
                    assert!(
                        sets.is_member(c, p),
                        "paper {p:?} in child {child} missing from ancestor {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn inherited_contexts_copy_ancestor_sets() {
        let (onto, corpus, index, config) = setup();
        let pats = patterns_by_context(&onto, &corpus, &index, &config);
        let sets = build_pattern_sets(&onto, &corpus, &index, &pats, &config);
        for (&c, &a) in &sets.inherited_from {
            assert!(onto.is_descendant(c, a), "{c} must descend from {a}");
            assert_eq!(sets.members(c), sets.members(a));
            assert!(
                !sets.inherited_from.contains_key(&a),
                "inheritance records the original owner"
            );
        }
    }

    #[test]
    fn direct_members_match_a_middle() {
        let (onto, corpus, index, config) = setup();
        let pats = patterns_by_context(&onto, &corpus, &index, &config);
        let sets = build_pattern_sets(&onto, &corpus, &index, &pats, &config);
        // Pick a leaf context with direct members (no children, not
        // inherited): each member must contain some pattern middle.
        let leaf = onto
            .term_ids()
            .find(|&t| {
                onto.children(t).is_empty()
                    && sets.contains_context(t)
                    && !sets.inherited_from.contains_key(&t)
            })
            .expect("some leaf with direct members");
        for &p in sets.members(leaf).iter().take(10) {
            let a = corpus.analyzed(p);
            let any_middle = pats.patterns(leaf).iter().any(|pat| {
                corpus::Section::ALL.iter().any(|&s| {
                    !textproc::phrase::find_occurrences(
                        match s {
                            corpus::Section::Title => &a.title,
                            corpus::Section::Abstract => &a.abstract_text,
                            corpus::Section::Body => &a.body,
                            corpus::Section::IndexTerms => &a.index_terms,
                        },
                        &pat.middle,
                    )
                    .is_empty()
                })
            });
            assert!(any_middle, "member {p:?} matches no middle");
        }
    }
}
