//! Prepared corpus state shared by every stage of the paradigm:
//! per-section and whole-paper TF-IDF vectors, the inverted index that
//! backs both the keyword-search baseline and pattern-candidate
//! generation, the citation graph with a global PageRank, co-author
//! adjacency, and the analyzed ontology-term names.

use crate::config::TextSimWeights;
use crate::context::ContextId;
use citegraph::{pagerank, CitationGraph, PageRankConfig};
use corpus::{AuthorId, Corpus, PaperId, Section};
use ontology::Ontology;
use patterns::Selectivity;
use std::collections::{HashMap, HashSet};
use textproc::index::{DocId, InvertedIndex};
use textproc::{CandidateScratch, SparseVector, TermId, TfIdfModel};

/// Immutable prepared state over one (ontology, corpus) pair.
pub struct CorpusIndex {
    /// Whole-paper TF-IDF model (title+abstract+body+index terms).
    pub model: TfIdfModel,
    /// Unit-norm whole-paper vectors, by paper id.
    pub doc_vectors: Vec<SparseVector>,
    /// Inverted index over the whole-paper vectors.
    pub inverted: InvertedIndex,
    /// Per-section TF-IDF models, indexed by [`section_index`].
    pub section_models: [TfIdfModel; 4],
    /// Per-section unit-norm vectors, `section_vectors[s][paper]`.
    pub section_vectors: [Vec<SparseVector>; 4],
    /// The corpus citation graph (node i == paper i).
    pub graph: CitationGraph,
    /// Global (whole-corpus) PageRank as a probability distribution
    /// (used by the AC-answer citation expansion's quantile cut).
    pub global_pagerank: Vec<f64>,
    /// Co-author adjacency (excluding self).
    pub coauthors: HashMap<AuthorId, HashSet<AuthorId>>,
    /// Analyzed term-name tokens per ontology term (corpus vocabulary).
    pub term_name_tokens: Vec<Vec<TermId>>,
    /// Name postings: for each word, by vocabulary id, the contexts
    /// whose names contain it, ascending. Read through
    /// [`contexts_naming`](Self::contexts_naming).
    name_postings: Vec<Vec<ContextId>>,
    /// IDF mass of each term's name: its distinct words' IDF, summed in
    /// ascending word order at build time.
    pub name_idf_mass: Vec<f64>,
    /// Word selectivity across all term names (§3.3 TotalTermScore).
    pub selectivity: Selectivity,
}

/// Dense index of a [`Section`] into the per-section arrays.
pub fn section_index(section: Section) -> usize {
    match section {
        Section::Title => 0,
        Section::Abstract => 1,
        Section::Body => 2,
        Section::IndexTerms => 3,
    }
}

impl CorpusIndex {
    /// Build all prepared state. The heavyweight step of engine
    /// construction — everything after this is per-context work.
    ///
    /// Three independent parts run side by side, whatever the thread
    /// settings: the whole-paper model, its vectors and the inverted
    /// index on the calling thread; the four section models on a second
    /// thread; the citation graph, the global PageRank and the coauthor
    /// map on a third. Each part is the same sequential code on any
    /// thread, so the result is bit-identical to building them in turn.
    /// The term names, name postings and idf mass then follow on the
    /// caller. Spans opened on the two helpers count against no parent.
    pub fn build(ontology: &Ontology, corpus: &Corpus, pagerank_cfg: &PageRankConfig) -> Self {
        let _span = obs::span("index.build");
        let (whole, sections, citations) = std::thread::scope(|scope| {
            let sections = scope.spawn(|| section_models(corpus));
            let citations = scope.spawn(|| citations(corpus, pagerank_cfg));
            (whole_model(corpus), join(sections), join(citations))
        });
        let (model, doc_vectors, inverted) = whole;
        let (section_models, section_vectors) = sections;
        let (graph, global_pagerank, coauthors) = citations;

        // Term names (analyzed against the corpus vocabulary, which
        // interned them at corpus build), their postings and idf mass.
        let _aux = obs::span("index.aux_tables");
        let term_name_tokens: Vec<Vec<TermId>> = ontology
            .term_ids()
            .map(|t| corpus.analyze_known(&ontology.term(t).name))
            .collect();
        let selectivity = Selectivity::new(term_name_tokens.iter().map(Vec::as_slice));
        let mut name_postings: Vec<Vec<ContextId>> = Vec::new();
        let mut name_idf_mass: Vec<f64> = Vec::with_capacity(term_name_tokens.len());
        for (context, name) in ontology.term_ids().zip(&term_name_tokens) {
            let mut words = name.clone();
            words.sort_unstable();
            words.dedup();
            for &w in &words {
                if w.index() >= name_postings.len() {
                    name_postings.resize_with(w.index() + 1, Vec::new);
                }
                name_postings[w.index()].push(context);
            }
            name_idf_mass.push(words.iter().map(|&w| model.idf(w)).sum());
        }
        drop(_aux);

        Self {
            model,
            doc_vectors,
            inverted,
            section_models,
            section_vectors,
            graph,
            global_pagerank,
            coauthors,
            term_name_tokens,
            name_postings,
            name_idf_mass,
            selectivity,
        }
    }

    /// The contexts whose names contain `word`, ascending (empty for a
    /// word in no name). Context selection walks the query's words here
    /// instead of testing every context's name.
    pub fn contexts_naming(&self, word: TermId) -> &[ContextId] {
        self.name_postings
            .get(word.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Unit-norm query vector over the whole-paper model (unknown words
    /// dropped).
    pub fn query_vector(&self, corpus: &Corpus, text: &str) -> SparseVector {
        let ids = corpus.analyze_known(text);
        self.model.vectorize_normalized(&ids)
    }

    /// Keyword search (the PubMed-style baseline): cosine scores above
    /// `min_score`, descending.
    pub fn keyword_search(&self, query: &SparseVector, min_score: f64) -> Vec<(PaperId, f64)> {
        self.inverted
            .search(query, min_score)
            .into_iter()
            .map(|(DocId(d), s)| (PaperId(d), s))
            .collect()
    }

    /// Keyword search into a reusable scratch, which then answers each
    /// paper's score by lookup ([`CandidateScratch::score`]). Same
    /// candidate set and score bits as
    /// [`keyword_search`](Self::keyword_search), minus the descending
    /// sort (the caller's ranking stage replaces it) and the per-call
    /// allocation.
    pub fn keyword_search_columns(
        &self,
        query: &SparseVector,
        min_score: f64,
        scratch: &mut CandidateScratch,
    ) {
        self.inverted.search_columns(query, min_score, scratch);
    }

    /// Whole-paper cosine between a paper and an arbitrary unit vector.
    pub fn whole_cosine(&self, paper: PaperId, v: &SparseVector) -> f64 {
        self.doc_vectors[paper.index()].cosine(v)
    }

    /// Per-section cosine between two papers.
    pub fn section_cosine(&self, section: Section, a: PaperId, b: PaperId) -> f64 {
        let vecs = &self.section_vectors[section_index(section)];
        vecs[a.index()].cosine(&vecs[b.index()])
    }

    /// Estimated fraction of corpus papers containing a middle tuple:
    /// the minimum unigram document frequency of its words (an upper
    /// bound on the phrase frequency, adequate for the `(1/coverage)^t`
    /// boost). Floor `1/N` keeps the score finite.
    pub fn coverage_estimate(&self, middle: &[TermId]) -> f64 {
        let n = self.doc_vectors.len().max(1) as f64;
        let min_df = middle.iter().map(|&t| self.model.df(t)).min().unwrap_or(0) as f64;
        (min_df.max(1.0)) / n
    }

    /// The §3.2 author similarity of `paper` to `representative`:
    /// `SimAuthors = L0Weight·SimL0 + L1Weight·SimL1`, where level 0 is
    /// shared authors and level 1 is authors who co-wrote a third paper.
    ///
    /// Both levels are counts over distinct authors, taken without
    /// building a set:
    /// - level 0: the authors the two papers share;
    /// - level 1: the representative's authors `x` whose coauthor set
    ///   holds some author of the paper. `coauthors` is symmetric
    ///   ([`build`](Self::build) inserts both directions), so this is
    ///   the number of the representative's authors found among the
    ///   coauthors of the paper's authors.
    ///
    /// The cost is quadratic in the byline length, which is a handful.
    pub fn author_similarity(
        &self,
        corpus: &Corpus,
        paper: PaperId,
        representative: PaperId,
        weights: &TextSimWeights,
    ) -> f64 {
        let of_paper = &corpus.paper(paper).authors;
        let of_rep = &corpus.paper(representative).authors;
        if of_paper.is_empty() || of_rep.is_empty() {
            return 0.0;
        }
        let (mut shared, mut linked) = (0usize, 0usize);
        for x in distinct(of_rep) {
            shared += usize::from(of_paper.contains(&x));
            let co = self.coauthors.get(&x);
            linked += usize::from(co.is_some_and(|co| of_paper.iter().any(|y| co.contains(y))));
        }
        let (n_paper, n_rep) = (distinct(of_paper).count(), distinct(of_rep).count());
        let l0 = shared as f64 / ((n_paper * n_rep) as f64).sqrt();
        let l1 = (linked as f64 / n_rep as f64).min(1.0);

        (weights.l0_author * l0 + weights.l1_author * l1).clamp(0.0, 1.0)
    }
}

/// The whole-paper model, its unit-norm vectors and the inverted index.
/// Each paper's sections are concatenated once per pass and dropped,
/// never all at once.
fn whole_model(corpus: &Corpus) -> (TfIdfModel, Vec<SparseVector>, InvertedIndex) {
    let _s = obs::span("index.tfidf_whole");
    let whole = |id: PaperId| corpus.analyzed(id).concat();
    let model = TfIdfModel::fit(corpus.paper_ids().map(whole));
    let doc_vectors: Vec<SparseVector> = corpus
        .paper_ids()
        .map(|id| model.vectorize_normalized(&whole(id)))
        .collect();
    let inverted = InvertedIndex::build(&doc_vectors);
    (model, doc_vectors, inverted)
}

/// The four per-section models and their unit-norm vectors, in
/// [`section_index`] order.
fn section_models(corpus: &Corpus) -> ([TfIdfModel; 4], [Vec<SparseVector>; 4]) {
    let _s = obs::span("index.tfidf_sections");
    let fit = |section: Section| {
        let docs: Vec<&[TermId]> = corpus
            .paper_ids()
            .map(|id| corpus.analyzed(id).section(section))
            .collect();
        let m = TfIdfModel::fit(docs.iter().copied());
        let vecs: Vec<SparseVector> = docs.iter().map(|d| m.vectorize_normalized(d)).collect();
        (m, vecs)
    };
    let [title, abstract_text, body, index_terms] = Section::ALL.map(fit);
    (
        [title.0, abstract_text.0, body.0, index_terms.0],
        [title.1, abstract_text.1, body.1, index_terms.1],
    )
}

/// The citation graph with its global PageRank, and the coauthor map
/// (symmetric, self excluded).
type Citations = (
    CitationGraph,
    Vec<f64>,
    HashMap<AuthorId, HashSet<AuthorId>>,
);

fn citations(corpus: &Corpus, pagerank_cfg: &PageRankConfig) -> Citations {
    let _s = obs::span("index.citation_graph");
    let graph = CitationGraph::from_edges(corpus.len() as u32, &corpus.citation_edges());
    let global_pagerank = pagerank(&graph, pagerank_cfg).scores;
    let mut coauthors: HashMap<AuthorId, HashSet<AuthorId>> = HashMap::new();
    for p in corpus.papers() {
        for &a in &p.authors {
            for &b in &p.authors {
                if a != b {
                    coauthors.entry(a).or_default().insert(b);
                }
            }
        }
    }
    (graph, global_pagerank, coauthors)
}

/// The value of a helper thread of [`CorpusIndex::build`]; its panic
/// goes on in the caller.
fn join<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// The distinct authors of a byline, each at its first appearance.
fn distinct(byline: &[AuthorId]) -> impl Iterator<Item = AuthorId> + '_ {
    byline
        .iter()
        .enumerate()
        .filter(|&(i, x)| !byline[..i].contains(x))
        .map(|(_, &x)| x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::{generate_corpus, CorpusConfig};
    use ontology::{generate_ontology, GeneratorConfig};

    fn setup() -> (Ontology, Corpus, CorpusIndex) {
        let onto = generate_ontology(&GeneratorConfig {
            n_terms: 60,
            seed: 3,
            ..Default::default()
        });
        let corpus = generate_corpus(
            &onto,
            &CorpusConfig {
                n_papers: 80,
                seed: 5,
                body_len: (40, 60),
                abstract_len: (20, 30),
                ..Default::default()
            },
        );
        let idx = CorpusIndex::build(&onto, &corpus, &PageRankConfig::default());
        (onto, corpus, idx)
    }

    #[test]
    fn vectors_are_unit_norm() {
        let (_, corpus, idx) = setup();
        for id in corpus.paper_ids().take(10) {
            let v = &idx.doc_vectors[id.index()];
            assert!((v.norm() - 1.0).abs() < 1e-9 || v.is_empty());
        }
    }

    #[test]
    fn self_cosine_is_one() {
        let (_, _, idx) = setup();
        let p = PaperId(0);
        assert!((idx.whole_cosine(p, &idx.doc_vectors[0]) - 1.0).abs() < 1e-9);
        assert!((idx.section_cosine(Section::Title, p, p) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn keyword_search_finds_title_words() {
        let (_, corpus, idx) = setup();
        let title = corpus.paper(PaperId(3)).title.clone();
        let q = idx.query_vector(&corpus, &title);
        let hits = idx.keyword_search(&q, 0.05);
        assert!(
            hits.iter().take(5).any(|&(p, _)| p == PaperId(3)),
            "paper should rank highly for its own title"
        );
    }

    #[test]
    fn coverage_estimate_in_unit_range() {
        let (_, corpus, idx) = setup();
        let toks = corpus.analyze_known(&corpus.paper(PaperId(0)).title);
        let c = idx.coverage_estimate(&toks);
        assert!(c > 0.0 && c <= 1.0);
        // Unknown token → floor.
        let unknown = idx.coverage_estimate(&[TermId(9_999_999)]);
        assert!((unknown - 1.0 / corpus.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn author_similarity_self_is_high() {
        let (_, corpus, idx) = setup();
        let w = TextSimWeights::default();
        let s = idx.author_similarity(&corpus, PaperId(0), PaperId(0), &w);
        assert!(s > 0.5, "self author similarity: {s}");
        assert!(s <= 1.0);
    }

    #[test]
    fn global_pagerank_is_a_distribution() {
        let (_, _, idx) = setup();
        let total: f64 = idx.global_pagerank.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(idx.global_pagerank.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn side_by_side_builds_are_bit_identical() {
        // Every vector's weights as bits, every posting, and the global
        // PageRank, of one build.
        fn bits(idx: &CorpusIndex, n_terms: usize) -> Vec<Vec<(u32, u64)>> {
            let vector = |v: &SparseVector| {
                v.entries()
                    .iter()
                    .map(|&(t, w)| (t.0, w.to_bits()))
                    .collect()
            };
            let mut out: Vec<Vec<(u32, u64)>> = idx.doc_vectors.iter().map(vector).collect();
            for vectors in &idx.section_vectors {
                out.extend(vectors.iter().map(vector));
            }
            out.extend((0..n_terms as u32).map(|t| {
                let postings = idx.inverted.postings(TermId(t));
                postings
                    .iter()
                    .map(|p| (p.doc.0, u64::from(p.weight.to_bits())))
                    .collect()
            }));
            out.push(
                idx.global_pagerank
                    .iter()
                    .map(|x| (0, x.to_bits()))
                    .collect(),
            );
            out
        }
        let (onto, corpus, first) = setup();
        let n_terms = corpus.vocab().len();
        let expected = bits(&first, n_terms);
        for _ in 0..8 {
            let idx = CorpusIndex::build(&onto, &corpus, &PageRankConfig::default());
            assert!(
                bits(&idx, n_terms) == expected,
                "a build differs from the first"
            );
        }
    }

    #[test]
    fn term_names_are_analyzed() {
        let (onto, _, idx) = setup();
        let non_empty = idx
            .term_name_tokens
            .iter()
            .filter(|v| !v.is_empty())
            .count();
        assert!(non_empty > onto.len() / 2);
    }
}
