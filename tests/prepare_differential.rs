//! Differential proof for the prepare stages: author similarity from
//! two counts, text prestige against a dense representative, phrase
//! counts taken in one pass, phrase hits found once from word
//! positions, and the pattern sets and pattern prestige that read those
//! hits must reproduce the set-building, scanning algorithms **bit for
//! bit** — the same patterns, members and inherited-from links and the
//! same `f64` bits in every score, at one and at four threads.
//!
//! The reference below keeps those algorithms verbatim: author
//! similarity through three `HashSet`s (one the union of the paper's
//! authors' coauthor sets), text prestige through the sorted-merge
//! section cosine, `build_patterns` scanning every training paper once
//! per significant phrase, the phrase miner as a brute-force count of
//! every n-gram, a phrase check that scans every section of every
//! paper, `match_strength` with its per-occurrence middle-only branch,
//! and the direct-assignment, aggregation and inheritance loop of
//! `build_pattern_sets`.

use litsearch::citegraph::coupling::citation_similarity;
use litsearch::context_search::assign::{
    build_pattern_sets, build_text_sets, patterns_by_context, ContextPatterns, PhraseHit,
};
use litsearch::context_search::config::TextSimWeights;
use litsearch::context_search::indexes::CorpusIndex;
use litsearch::context_search::prestige::{pattern::pattern_prestige, text::text_prestige};
use litsearch::context_search::{
    ContextId, ContextPaperSets, ContextSetKind, EngineConfig, PrestigeScores, ScoreFunction,
};
use litsearch::corpus::{generate_corpus, AuthorId, Corpus, CorpusConfig, Paper, PaperId, Section};
use litsearch::ontology::{generate_ontology, GeneratorConfig, Ontology};
use litsearch::patterns::{
    build_patterns, extract_significant_terms, MatcherConfig, Pattern, PatternConfig, PhraseSource,
    SectionTokens, Selectivity, SignificantPhrase,
};
use litsearch::textproc::phrase::{frequent_phrases, FrequentPhrase};
use litsearch::textproc::TermId;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// The set-building, section-scanning prepare algorithms, reference copy.
mod reference {
    use super::*;
    use litsearch::ontology::rate_of_decay;

    /// §3.2 author similarity through three sets.
    pub fn author_similarity(
        corpus: &Corpus,
        coauthors: &HashMap<AuthorId, HashSet<AuthorId>>,
        a: PaperId,
        b: PaperId,
        weights: &TextSimWeights,
    ) -> f64 {
        let aa = &corpus.paper(a).authors;
        let ab = &corpus.paper(b).authors;
        if aa.is_empty() || ab.is_empty() {
            return 0.0;
        }
        let set_a: HashSet<AuthorId> = aa.iter().copied().collect();
        let set_b: HashSet<AuthorId> = ab.iter().copied().collect();
        let l0 =
            set_a.intersection(&set_b).count() as f64 / ((set_a.len() * set_b.len()) as f64).sqrt();
        let neighbors_a: HashSet<AuthorId> = set_a
            .iter()
            .flat_map(|x| coauthors.get(x).into_iter().flatten())
            .copied()
            .collect();
        let l1_hits = set_b.iter().filter(|x| neighbors_a.contains(x)).count() as f64;
        let l1 = (l1_hits / set_b.len() as f64).min(1.0);
        (weights.l0_author * l0 + weights.l1_author * l1).clamp(0.0, 1.0)
    }

    fn combined_similarity(
        corpus: &Corpus,
        index: &CorpusIndex,
        config: &EngineConfig,
        paper: PaperId,
        representative: PaperId,
    ) -> f64 {
        let w = &config.text_sim;
        let s_title = index.section_cosine(Section::Title, paper, representative);
        let s_abs = index.section_cosine(Section::Abstract, paper, representative);
        let s_body = index.section_cosine(Section::Body, paper, representative);
        let s_idx = index.section_cosine(Section::IndexTerms, paper, representative);
        let s_auth = author_similarity(corpus, &index.coauthors, paper, representative, w);
        let s_ref = citation_similarity(&index.graph, paper.0, representative.0, w.bib_weight);
        w.title * s_title
            + w.abstract_text * s_abs
            + w.body * s_body
            + w.index_terms * s_idx
            + w.authors * s_auth
            + w.references * s_ref
    }

    pub fn text_prestige(
        sets: &ContextPaperSets,
        corpus: &Corpus,
        index: &CorpusIndex,
        config: &EngineConfig,
    ) -> PrestigeScores {
        let mut by_context = HashMap::new();
        for context in sets.contexts() {
            let Some(&rep) = sets.representatives.get(&context) else {
                continue;
            };
            let scores: Vec<(PaperId, f64)> = sets
                .members(context)
                .iter()
                .map(|&p| (p, combined_similarity(corpus, index, config, p, rep)))
                .collect();
            by_context.insert(context, scores);
        }
        PrestigeScores::new(by_context, ScoreFunction::Text)
    }

    /// `build_patterns` scanning every training paper once per
    /// significant phrase, and collecting every phrase's side windows.
    pub fn build_patterns(
        significant: &[SignificantPhrase],
        context_words: &[TermId],
        training_docs: &[Vec<TermId>],
        selectivity: &Selectivity,
        coverage_of: &dyn Fn(&[TermId]) -> f64,
        config: &PatternConfig,
    ) -> Vec<Pattern> {
        use litsearch::patterns::score::{
            regular_pattern_score, total_term_score, RegularScoreInputs,
        };
        use litsearch::patterns::{join, PatternKind};
        use litsearch::textproc::phrase::find_occurrences;

        let context_set: HashSet<TermId> = context_words.iter().copied().collect();
        let n_training = training_docs.len();
        let mut patterns: Vec<Pattern> = Vec::with_capacity(significant.len());

        for phrase in significant {
            let mut left = BTreeSet::new();
            let mut right = BTreeSet::new();
            let mut occurrences = 0u32;
            let mut containing_docs = 0u32;
            for doc in training_docs {
                let occs = find_occurrences(doc, &phrase.tokens);
                if !occs.is_empty() {
                    containing_docs += 1;
                }
                occurrences += occs.len() as u32;
                for &start in &occs {
                    let lo = start.saturating_sub(config.window);
                    left.extend(doc[lo..start].iter().copied());
                    let end = start + phrase.tokens.len();
                    let hi = (end + config.window).min(doc.len());
                    right.extend(doc[end..hi].iter().copied());
                }
            }
            let ctx_selectivities: Vec<f64> = phrase
                .tokens
                .iter()
                .filter(|t| context_set.contains(t))
                .map(|&t| selectivity.selectivity(t))
                .collect();
            let inputs = RegularScoreInputs {
                source: phrase.source,
                total_term_score: total_term_score(&ctx_selectivities),
                occurrences,
                training_paper_fraction: if n_training == 0 {
                    0.0
                } else {
                    containing_docs as f64 / n_training as f64
                },
                coverage: coverage_of(&phrase.tokens),
            };
            patterns.push(Pattern {
                left,
                middle: phrase.tokens.clone(),
                right,
                kind: PatternKind::Regular,
                score: regular_pattern_score(&inputs, config.coverage_exponent, config.freq_weight),
            });
        }

        sort_by_score(&mut patterns);
        patterns.truncate(config.max_regular);

        let extended = join::extend_patterns(&patterns, config.max_extended);
        patterns.extend(extended);
        sort_by_score(&mut patterns);
        patterns
    }

    fn sort_by_score(patterns: &mut [Pattern]) {
        patterns.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.middle.cmp(&b.middle))
        });
    }

    /// Every n-gram of length `1..=max_len` with the number of documents
    /// holding it, those in at least `min_support` documents, by
    /// descending support then ascending tokens.
    pub fn frequent_phrases(
        docs: &[Vec<TermId>],
        min_support: u32,
        max_len: usize,
    ) -> Vec<FrequentPhrase> {
        let mut support: BTreeMap<Vec<TermId>, u32> = BTreeMap::new();
        for doc in docs {
            let grams: BTreeSet<&[TermId]> = (1..=max_len).flat_map(|n| doc.windows(n)).collect();
            for gram in grams {
                *support.entry(gram.to_vec()).or_insert(0) += 1;
            }
        }
        let mut out: Vec<FrequentPhrase> = support
            .into_iter()
            .filter(|&(_, support)| support >= min_support)
            .map(|(tokens, support)| FrequentPhrase { tokens, support })
            .collect();
        out.sort_by(|a, b| b.support.cmp(&a.support).then(a.tokens.cmp(&b.tokens)));
        out
    }

    /// For each of `middles`, every paper whose sections contain it,
    /// ascending, each with the mask of those sections (bit `i` =
    /// `Section::ALL[i]`): every window of every section of every paper,
    /// looked up among the middles.
    pub fn phrase_hits<'m>(
        corpus: &Corpus,
        middles: impl IntoIterator<Item = &'m [TermId]>,
    ) -> Hits {
        let mut out: Hits = middles
            .into_iter()
            .map(|m| (m.to_vec(), Vec::new()))
            .collect();
        let longest = out.keys().map(Vec::len).max().unwrap_or(0);
        for paper in corpus.paper_ids() {
            let a = corpus.analyzed(paper);
            for (i, section) in Section::ALL.into_iter().enumerate() {
                let tokens = a.section(section);
                for start in 0..tokens.len() {
                    for end in start + 1..=tokens.len().min(start + longest) {
                        let Some(hits) = out.get_mut(&tokens[start..end]) else {
                            continue;
                        };
                        match hits.last_mut() {
                            Some((p, mask)) if *p == paper => *mask |= 1 << i,
                            _ => hits.push((paper, 1 << i)),
                        }
                    }
                }
            }
        }
        out
    }

    fn sections(corpus: &Corpus, paper: PaperId) -> SectionTokens<'_> {
        let a = corpus.analyzed(paper);
        SectionTokens {
            title: &a.title,
            abstract_text: &a.abstract_text,
            body: &a.body,
            index_terms: &a.index_terms,
        }
    }

    /// Matching strength with the per-occurrence middle-only branch.
    pub fn match_strength(
        pattern: &Pattern,
        sections: &SectionTokens<'_>,
        config: &MatcherConfig,
    ) -> f64 {
        let streams = [
            (sections.title, config.section_weights[0]),
            (sections.abstract_text, config.section_weights[1]),
            (sections.body, config.section_weights[2]),
            (sections.index_terms, config.section_weights[3]),
        ];
        let mut best = 0.0f64;
        for (tokens, weight) in streams {
            if weight <= 0.0 || tokens.len() < pattern.middle.len() {
                continue;
            }
            for start in litsearch::textproc::phrase::find_occurrences(tokens, &pattern.middle) {
                let fidelity = if config.middle_only {
                    1.0
                } else {
                    side_fidelity(pattern, tokens, start, config.window)
                };
                let quality =
                    weight * ((1.0 - config.context_weight) + config.context_weight * fidelity);
                if quality > best {
                    best = quality;
                }
            }
        }
        best
    }

    fn side_fidelity(pattern: &Pattern, tokens: &[TermId], start: usize, window: usize) -> f64 {
        let n_side = pattern.left.len() + pattern.right.len();
        if n_side == 0 {
            return 1.0;
        }
        let lo = start.saturating_sub(window);
        let end = start + pattern.middle.len();
        let hi = (end + window).min(tokens.len());
        let left_window: HashSet<TermId> = tokens[lo..start].iter().copied().collect();
        let right_window: HashSet<TermId> = tokens[end..hi].iter().copied().collect();
        let hit = pattern
            .left
            .iter()
            .filter(|t| left_window.contains(t))
            .count()
            + pattern
                .right
                .iter()
                .filter(|t| right_window.contains(t))
                .count();
        hit as f64 / n_side as f64
    }

    /// Direct assignment by phrase scan and middle-only matching,
    /// descendant aggregation, then closest-ancestor inheritance.
    pub fn build_pattern_sets(
        ontology: &Ontology,
        corpus: &Corpus,
        patterns: &ContextPatterns,
        hits: &Hits,
        config: &EngineConfig,
    ) -> ContextPaperSets {
        let matcher = MatcherConfig {
            middle_only: true,
            ..config.matcher.clone()
        };
        let mut members: HashMap<ContextId, Vec<PaperId>> = HashMap::new();
        for context in ontology.term_ids() {
            let mut direct: Vec<PaperId> = Vec::new();
            for pat in patterns.patterns(context) {
                for &(paper, _) in &hits[&pat.middle] {
                    let strength = match_strength(pat, &sections(corpus, paper), &matcher);
                    if strength >= config.assign.pattern_min_strength {
                        direct.push(paper);
                    }
                }
            }
            direct.sort_unstable();
            direct.dedup();
            members.insert(context, direct);
        }

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

        let mut inherited_from: HashMap<ContextId, ContextId> = HashMap::new();
        for &c in &topo {
            if members.get(&c).is_none_or(Vec::is_empty) {
                let mut cur = c;
                while let Some(ancestor) = ontology.closest_ancestor(cur) {
                    if let Some(set) = members.get(&ancestor) {
                        if !set.is_empty() {
                            members.insert(c, set.clone());
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

    /// Pattern prestige: match every member among a pattern's scanned
    /// papers, max-normalize, decay inherited contexts.
    pub fn pattern_prestige(
        ontology: &Ontology,
        sets: &ContextPaperSets,
        corpus: &Corpus,
        patterns: &ContextPatterns,
        hits: &Hits,
        config: &EngineConfig,
        simplified: bool,
    ) -> PrestigeScores {
        let matcher = MatcherConfig {
            middle_only: simplified,
            ..config.matcher.clone()
        };
        let mut by_context: HashMap<ContextId, Vec<(PaperId, f64)>> = HashMap::new();
        for context in sets.contexts() {
            if sets.inherited_from.contains_key(&context) {
                continue;
            }
            let members = sets.members(context);
            let mut acc: HashMap<PaperId, f64> = HashMap::new();
            for pat in patterns.patterns(context) {
                for &(paper, _) in &hits[&pat.middle] {
                    if members.binary_search(&paper).is_err() {
                        continue;
                    }
                    let m = match_strength(pat, &sections(corpus, paper), &matcher);
                    if m > 0.0 {
                        *acc.entry(paper).or_insert(0.0) += pat.score * m;
                    }
                }
            }
            let mut scores: Vec<(PaperId, f64)> = members
                .iter()
                .map(|&p| (p, acc.get(&p).copied().unwrap_or(0.0)))
                .collect();
            let max = scores.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
            if max > 0.0 {
                for (_, s) in scores.iter_mut() {
                    *s /= max;
                }
            }
            by_context.insert(context, scores);
        }
        let mut inherited: Vec<(ContextId, ContextId)> =
            sets.inherited_from.iter().map(|(&c, &a)| (c, a)).collect();
        inherited.sort_unstable();
        for (context, ancestor) in inherited {
            let decay = rate_of_decay(ontology, ancestor, context);
            let decayed: Vec<(PaperId, f64)> = by_context
                .get(&ancestor)
                .map(|scores| scores.iter().map(|&(p, s)| (p, s * decay)).collect())
                .unwrap_or_default();
            by_context.insert(context, decayed);
        }
        PrestigeScores::new(by_context, ScoreFunction::Pattern)
    }
}

/// The reference phrase hits of every distinct pattern middle.
type Hits = HashMap<Vec<TermId>, Vec<(PaperId, u8)>>;

/// The CI toy workload's shape: 80 terms × 400 papers, generated as
/// `litsearch generate --terms 80 --papers 400 --seed <seed>` does.
fn generated(seed: u64) -> (Ontology, Corpus) {
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
    (ontology, corpus)
}

fn config(threads: usize) -> EngineConfig {
    EngineConfig {
        build_threads: threads,
        ..Default::default()
    }
}

fn assert_same_prestige(got: &PrestigeScores, expected: &PrestigeScores, tag: &str) {
    let contexts: Vec<ContextId> = got.contexts().collect();
    assert_eq!(
        contexts,
        expected.contexts().collect::<Vec<_>>(),
        "{tag}: contexts"
    );
    for c in contexts {
        let (papers, values) = got.columns(c);
        let (ref_papers, ref_values) = expected.columns(c);
        assert_eq!(papers, ref_papers, "{tag}: papers of context {c}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(values),
            bits(ref_values),
            "{tag}: scores of context {c}"
        );
    }
}

#[test]
fn text_prestige_matches_the_set_building_reference_bit_for_bit() {
    for seed in [42, 7] {
        let (ontology, corpus) = generated(seed);
        let base = config(1);
        let index = CorpusIndex::build(&ontology, &corpus, &base.pagerank);
        let text_sets = build_text_sets(&ontology, &corpus, &index, &base);
        let patterns = patterns_by_context(&ontology, &corpus, &index, &base);
        let mut pattern_view = build_pattern_sets(&ontology, &corpus, &index, &patterns, &base);
        pattern_view.representatives = text_sets.representatives.clone();
        assert!(
            text_sets.representatives.len() > 10,
            "seed {seed}: text sets worth comparing"
        );
        let expected_text = reference::text_prestige(&text_sets, &corpus, &index, &base);
        let expected_view = reference::text_prestige(&pattern_view, &corpus, &index, &base);
        for threads in [1, 4] {
            let config = config(threads);
            let tag = format!("seed {seed}, {threads} threads");
            assert_same_prestige(
                &text_prestige(&text_sets, &corpus, &index, &config),
                &expected_text,
                &format!("{tag}: text sets"),
            );
            assert_same_prestige(
                &text_prestige(&pattern_view, &corpus, &index, &config),
                &expected_view,
                &format!("{tag}: pattern sets with text representatives"),
            );
        }
    }
}

#[test]
fn pattern_stages_match_the_scanning_reference_bit_for_bit() {
    for seed in [42, 7] {
        let (ontology, corpus) = generated(seed);
        let index = CorpusIndex::build(&ontology, &corpus, &config(1).pagerank);
        let patterns = patterns_by_context(&ontology, &corpus, &index, &config(1));
        let middles = ontology
            .term_ids()
            .flat_map(|c| patterns.patterns(c).iter().map(|p| p.middle.as_slice()));
        let expected_hits = reference::phrase_hits(&corpus, middles);
        let expected_sets = reference::build_pattern_sets(
            &ontology,
            &corpus,
            &patterns,
            &expected_hits,
            &config(1),
        );
        let expected_prestige = [true, false].map(|simplified| {
            reference::pattern_prestige(
                &ontology,
                &expected_sets,
                &corpus,
                &patterns,
                &expected_hits,
                &config(1),
                simplified,
            )
        });
        for threads in [1, 4] {
            let config = config(threads);
            let tag = format!("seed {seed}, {threads} threads");
            let patterns = patterns_by_context(&ontology, &corpus, &index, &config);

            // Every pattern's hits are the scan's, in step with the
            // patterns.
            let mut n_hits = 0;
            for c in ontology.term_ids() {
                assert_eq!(
                    patterns.with_hits(c).count(),
                    patterns.patterns(c).len(),
                    "{tag}: context {c} has one hit list per pattern"
                );
                for (pat, hits) in patterns.with_hits(c) {
                    let got: Vec<(PaperId, u8)> = hits
                        .iter()
                        .map(|h: &PhraseHit| (h.paper, h.sections))
                        .collect();
                    assert_eq!(
                        got, expected_hits[&pat.middle],
                        "{tag}: hits of {:?} in context {c}",
                        pat.middle
                    );
                    n_hits += hits.len();
                }
            }
            assert!(n_hits > 1_000, "{tag}: hits worth comparing ({n_hits})");

            let sets = build_pattern_sets(&ontology, &corpus, &index, &patterns, &config);
            for c in ontology.term_ids() {
                assert_eq!(
                    sets.members(c),
                    expected_sets.members(c),
                    "{tag}: members of {c}"
                );
            }
            assert_eq!(
                sets.inherited_from, expected_sets.inherited_from,
                "{tag}: inherited_from"
            );

            for (simplified, expected) in [true, false].into_iter().zip(&expected_prestige) {
                assert_same_prestige(
                    &pattern_prestige(
                        &ontology, &sets, &corpus, &index, &patterns, &config, simplified,
                    ),
                    expected,
                    &format!("{tag}: pattern prestige, simplified {simplified}"),
                );
            }
        }
    }
}

/// A corpus of the given bylines (one word of text each) and its index.
fn byline_corpus(bylines: &[Vec<u32>]) -> (Corpus, CorpusIndex) {
    let ontology = generate_ontology(&GeneratorConfig {
        n_terms: 5,
        seed: 1,
        ..Default::default()
    });
    let papers: Vec<Paper> = bylines
        .iter()
        .enumerate()
        .map(|(i, authors)| Paper {
            id: PaperId(i as u32),
            title: "kinase".to_string(),
            abstract_text: String::new(),
            body: String::new(),
            index_terms: Vec::new(),
            authors: authors.iter().map(|&a| AuthorId(a)).collect(),
            references: Vec::new(),
            year: 2000,
            true_topics: Vec::new(),
        })
        .collect();
    let author_names = (0..8).map(|a| format!("author {a}")).collect();
    let corpus = Corpus::new(papers, author_names, HashMap::new(), &[]);
    let index = CorpusIndex::build(&ontology, &corpus, &EngineConfig::default().pagerank);
    (corpus, index)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two counts give the three-set similarity's bits for every
    /// ordered pair of papers: bylines from eight authors repeat
    /// authors within and across papers, and some are empty.
    #[test]
    fn author_similarity_matches_the_set_building_reference_on_random_bylines(
        bylines in proptest::collection::vec(proptest::collection::vec(0u32..8, 0..6), 1..8),
        l0_author in 0.0f64..1.0,
    ) {
        let (corpus, index) = byline_corpus(&bylines);
        let weights = TextSimWeights {
            l0_author,
            l1_author: 1.0 - l0_author,
            ..Default::default()
        };
        for a in corpus.paper_ids() {
            for b in corpus.paper_ids() {
                let got = index.author_similarity(&corpus, a, b, &weights);
                let expected =
                    reference::author_similarity(&corpus, &index.coauthors, a, b, &weights);
                prop_assert_eq!(got.to_bits(), expected.to_bits(), "papers {:?} {:?} of {:?}", a, b, &bylines);
            }
        }
    }
}

proptest! {

    /// One counting pass gives the per-phrase scan's patterns, in the
    /// same order, score bits included. Papers over six words repeat
    /// and overlap phrases, and some are empty; the context name can be
    /// longer than the mined phrases; `max_regular` truncates; and the
    /// significant list holds a repeated phrase and an empty one.
    #[test]
    fn build_patterns_matches_the_per_phrase_scan(
        docs in proptest::collection::vec(proptest::collection::vec(0u32..6, 0..14), 0..8),
        name in proptest::collection::vec(0u32..6, 1..7),
        other_name in proptest::collection::vec(0u32..6, 1..4),
        min_support in 1u32..3,
        max_phrase_len in 1usize..4,
        window in 0usize..3,
        max_regular in 1usize..8,
        max_extended in 0usize..4,
        repeated in 0usize..64,
        empty_at in 0usize..64,
    ) {
        let ids = |xs: &[u32]| xs.iter().map(|&x| TermId(x)).collect::<Vec<_>>();
        let docs: Vec<Vec<TermId>> = docs.iter().map(|d| ids(d)).collect();
        let (name, other_name) = (ids(&name), ids(&other_name));
        let mut significant = extract_significant_terms(&name, &docs, min_support, max_phrase_len);
        let copy = significant[repeated % significant.len()].clone();
        significant.push(copy);
        significant.insert(
            empty_at % (significant.len() + 1),
            SignificantPhrase {
                tokens: Vec::new(),
                source: PhraseSource::FrequentOnly,
                support: 0,
            },
        );
        let selectivity = Selectivity::new([name.as_slice(), other_name.as_slice()]);
        let coverage =
            |middle: &[TermId]| (1.0 + middle.iter().map(|t| f64::from(t.0)).sum::<f64>()) / 40.0;
        let config = PatternConfig {
            window,
            min_support,
            max_phrase_len,
            max_regular,
            max_extended,
            ..Default::default()
        };
        let got = build_patterns(&significant, &name, &docs, &selectivity, &coverage, &config);
        let expected =
            reference::build_patterns(&significant, &name, &docs, &selectivity, &coverage, &config);
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(&g.middle, &e.middle);
            prop_assert_eq!(g.kind, e.kind);
            prop_assert_eq!(g.score.to_bits(), e.score.to_bits(), "score of {:?}", &g.middle);
            prop_assert_eq!(&g.left, &e.left, "left of {:?}", &g.middle);
            prop_assert_eq!(&g.right, &e.right, "right of {:?}", &g.middle);
        }
    }

    /// The apriori miner finds exactly the n-grams a brute-force count
    /// of every n-gram finds, with the same supports, in the same order.
    #[test]
    fn frequent_phrases_match_the_brute_force_count(
        docs in proptest::collection::vec(proptest::collection::vec(0u32..6, 0..14), 0..8),
        min_support in 0u32..4,
        max_len in 0usize..5,
    ) {
        let docs: Vec<Vec<TermId>> =
            docs.iter().map(|d| d.iter().map(|&x| TermId(x)).collect()).collect();
        prop_assert_eq!(
            frequent_phrases(&docs, min_support, max_len),
            reference::frequent_phrases(&docs, min_support, max_len)
        );
    }
}
