//! The corpus container.
//!
//! Holds the paper records, author names, per-ontology-term annotation
//! evidence sets (the "training papers" of §3.3), and — because every
//! downstream component works on interned token streams — a shared
//! [`Vocabulary`] plus the cached analyzed form of every paper section.

use crate::paper::{AuthorId, Paper, PaperId, Section};
use ontology::TermId as OntTermId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use textproc::{analyze, TermId, Vocabulary};

/// Stable on-disk form of a corpus (papers, authors, evidence; the
/// analysis caches are rebuilt on load).
#[derive(Debug, Serialize, Deserialize)]
pub struct CorpusFile {
    /// All paper records.
    pub papers: Vec<Paper>,
    /// Author display names, by id.
    pub author_names: Vec<String>,
    /// `(ontology term, evidence papers)` pairs, sorted by term.
    pub evidence: Vec<(u32, Vec<u32>)>,
    /// Extra texts (e.g. ontology term names) interned at build time.
    pub extra_texts: Vec<String>,
}

/// A paper's sections as interned, stemmed, stopword-free token streams.
#[derive(Debug, Clone, Default)]
pub struct AnalyzedPaper {
    /// Title tokens.
    pub title: Vec<TermId>,
    /// Abstract tokens.
    pub abstract_text: Vec<TermId>,
    /// Body tokens.
    pub body: Vec<TermId>,
    /// Index-term tokens (phrases flattened).
    pub index_terms: Vec<TermId>,
}

impl AnalyzedPaper {
    /// Token stream of one section.
    pub fn section(&self, section: Section) -> &[TermId] {
        match section {
            Section::Title => &self.title,
            Section::Abstract => &self.abstract_text,
            Section::Body => &self.body,
            Section::IndexTerms => &self.index_terms,
        }
    }

    /// All sections concatenated (allocates).
    pub fn concat(&self) -> Vec<TermId> {
        let mut out = Vec::with_capacity(
            self.title.len() + self.abstract_text.len() + self.body.len() + self.index_terms.len(),
        );
        out.extend_from_slice(&self.title);
        out.extend_from_slice(&self.abstract_text);
        out.extend_from_slice(&self.body);
        out.extend_from_slice(&self.index_terms);
        out
    }
}

/// An immutable-after-build collection of papers with analysis caches.
#[derive(Debug, Clone)]
pub struct Corpus {
    papers: Vec<Paper>,
    author_names: Vec<String>,
    evidence: HashMap<OntTermId, Vec<PaperId>>,
    vocab: Vocabulary,
    analyzed: Vec<AnalyzedPaper>,
}

impl Corpus {
    /// Build a corpus, analyzing every paper section once. `extra_texts`
    /// (e.g. ontology term names) are interned so later lookups of their
    /// words succeed even if no paper uses them.
    pub fn new(
        papers: Vec<Paper>,
        author_names: Vec<String>,
        evidence: HashMap<OntTermId, Vec<PaperId>>,
        extra_texts: &[String],
    ) -> Self {
        let mut vocab = Vocabulary::new();
        // Raw token → term, for this build only: the analysis of each
        // distinct word runs once, not once per occurrence.
        let mut interner = vocab.memoized();
        let mut tokens = Vec::new();
        for text in extra_texts {
            interner.intern_text(text, &mut tokens);
        }
        // One section's texts, analyzed in order as if joined by
        // spaces, kept at their exact length.
        let mut section = |texts: &[String]| {
            tokens.clear();
            for text in texts {
                interner.intern_text(text, &mut tokens);
            }
            tokens.to_vec()
        };
        let analyzed = papers
            .iter()
            .map(|p| AnalyzedPaper {
                title: section(std::slice::from_ref(&p.title)),
                abstract_text: section(std::slice::from_ref(&p.abstract_text)),
                body: section(std::slice::from_ref(&p.body)),
                index_terms: section(&p.index_terms),
            })
            .collect();
        Self {
            papers,
            author_names,
            evidence,
            vocab,
            analyzed,
        }
    }

    /// Number of papers.
    pub fn len(&self) -> usize {
        self.papers.len()
    }

    /// True if the corpus holds no papers.
    pub fn is_empty(&self) -> bool {
        self.papers.is_empty()
    }

    /// All papers in id order.
    pub fn papers(&self) -> &[Paper] {
        &self.papers
    }

    /// The paper with `id`.
    pub fn paper(&self, id: PaperId) -> &Paper {
        &self.papers[id.index()]
    }

    /// All paper ids.
    pub fn paper_ids(&self) -> impl Iterator<Item = PaperId> + '_ {
        (0..self.papers.len() as u32).map(PaperId)
    }

    /// The analyzed (interned/stemmed) form of the paper with `id`.
    pub fn analyzed(&self, id: PaperId) -> &AnalyzedPaper {
        &self.analyzed[id.index()]
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Analyze arbitrary text against the corpus vocabulary, dropping
    /// tokens the corpus has never seen (they cannot match anything).
    pub fn analyze_known(&self, text: &str) -> Vec<TermId> {
        analyze(text)
            .iter()
            .filter_map(|t| self.vocab.get(t))
            .collect()
    }

    /// Number of distinct authors.
    pub fn n_authors(&self) -> usize {
        self.author_names.len()
    }

    /// Display name of an author.
    pub fn author_name(&self, id: AuthorId) -> &str {
        &self.author_names[id.index()]
    }

    /// Citation edge list `(citing, cited)` as dense u32 pairs, suitable
    /// for `citegraph::CitationGraph::from_edges`.
    pub fn citation_edges(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for p in &self.papers {
            for &r in &p.references {
                edges.push((p.id.0, r.0));
            }
        }
        edges
    }

    /// Annotation-evidence (training) papers of an ontology term; empty
    /// slice if the term has none (common — the paper notes most GO
    /// terms lacked direct annotations in their 72k subset).
    pub fn evidence_for(&self, term: OntTermId) -> &[PaperId] {
        self.evidence.get(&term).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Terms that have at least one evidence paper.
    pub fn terms_with_evidence(&self) -> impl Iterator<Item = OntTermId> + '_ {
        self.evidence
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(&t, _)| t)
    }

    /// Serialize to JSON. Analysis caches are not stored; [`Corpus::from_json`]
    /// rebuilds them (deterministically — analysis is a pure function).
    pub fn to_json(&self, extra_texts: &[String]) -> String {
        let mut evidence: Vec<(u32, Vec<u32>)> = self
            .evidence
            .iter()
            .map(|(t, ps)| (t.0, ps.iter().map(|p| p.0).collect()))
            .collect();
        evidence.sort_unstable_by_key(|&(t, _)| t);
        let file = CorpusFile {
            papers: self.papers.clone(),
            author_names: self.author_names.clone(),
            evidence,
            extra_texts: extra_texts.to_vec(),
        };
        serde_json::to_string(&file).expect("corpus serializes")
    }

    /// Load a corpus serialized with [`Corpus::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let file: CorpusFile = serde_json::from_str(json)?;
        let evidence: HashMap<OntTermId, Vec<PaperId>> = file
            .evidence
            .into_iter()
            .map(|(t, ps)| (OntTermId(t), ps.into_iter().map(PaperId).collect()))
            .collect();
        Ok(Corpus::new(
            file.papers,
            file.author_names,
            evidence,
            &file.extra_texts,
        ))
    }

    /// Papers listing `author` among their authors.
    pub fn papers_by_author(&self) -> HashMap<AuthorId, Vec<PaperId>> {
        let mut map: HashMap<AuthorId, Vec<PaperId>> = HashMap::new();
        for p in &self.papers {
            for &a in &p.authors {
                map.entry(a).or_default().push(p.id);
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Corpus {
        let p = |id: u32, title: &str, refs: Vec<u32>, authors: Vec<u32>| Paper {
            id: PaperId(id),
            title: title.to_string(),
            abstract_text: format!("{title} abstract text"),
            body: format!("{title} body content words"),
            index_terms: vec![title.split(' ').next().unwrap().to_string()],
            authors: authors.into_iter().map(AuthorId).collect(),
            references: refs.into_iter().map(PaperId).collect(),
            year: 2000,
            true_topics: vec![],
        };
        let mut evidence = HashMap::new();
        evidence.insert(ontology::TermId(0), vec![PaperId(0), PaperId(1)]);
        Corpus::new(
            vec![
                p(0, "histone binding", vec![], vec![0, 1]),
                p(1, "kinase signaling", vec![0], vec![1]),
                p(2, "membrane transport", vec![0, 1], vec![2]),
            ],
            vec!["Ada A".into(), "Bob B".into(), "Cyd C".into()],
            evidence,
            &["chromatin assembly".to_string()],
        )
    }

    #[test]
    fn analyzed_sections_are_interned() {
        let c = tiny();
        let a = c.analyzed(PaperId(0));
        assert!(!a.title.is_empty());
        assert!(!a.body.is_empty());
        // Same word in title and body shares the id.
        let histone = c.vocab().get("histon").expect("stemmed histone");
        assert!(a.title.contains(&histone));
        assert!(a.body.contains(&histone));
    }

    #[test]
    fn extra_texts_are_interned() {
        let c = tiny();
        assert!(c.vocab().get("chromatin").is_some());
        assert!(c.vocab().get("assembl").is_some());
    }

    #[test]
    fn analyze_known_drops_unknown_tokens() {
        let c = tiny();
        let toks = c.analyze_known("histone zzzzz");
        assert_eq!(toks.len(), 1);
    }

    #[test]
    fn citation_edges_round_trip() {
        let c = tiny();
        let mut e = c.citation_edges();
        e.sort_unstable();
        assert_eq!(e, vec![(1, 0), (2, 0), (2, 1)]);
    }

    #[test]
    fn evidence_lookup() {
        let c = tiny();
        assert_eq!(
            c.evidence_for(ontology::TermId(0)),
            &[PaperId(0), PaperId(1)]
        );
        assert!(c.evidence_for(ontology::TermId(9)).is_empty());
        assert_eq!(c.terms_with_evidence().count(), 1);
    }

    #[test]
    fn papers_by_author_inverts_bylines() {
        let c = tiny();
        let by = c.papers_by_author();
        assert_eq!(by[&AuthorId(1)], vec![PaperId(0), PaperId(1)]);
        assert_eq!(by[&AuthorId(2)], vec![PaperId(2)]);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let c = tiny();
        let json = c.to_json(&["chromatin assembly".to_string()]);
        let loaded = Corpus::from_json(&json).unwrap();
        assert_eq!(loaded.len(), c.len());
        for (a, b) in c.papers().iter().zip(loaded.papers()) {
            assert_eq!(a.title, b.title);
            assert_eq!(a.references, b.references);
            assert_eq!(a.authors, b.authors);
        }
        assert_eq!(loaded.n_authors(), c.n_authors());
        assert_eq!(
            loaded.evidence_for(ontology::TermId(0)),
            c.evidence_for(ontology::TermId(0))
        );
        // Analysis caches rebuilt identically (same vocabulary walk).
        for id in c.paper_ids() {
            assert_eq!(c.analyzed(id).title, loaded.analyzed(id).title);
            assert_eq!(c.analyzed(id).body, loaded.analyzed(id).body);
        }
        assert!(loaded.vocab().get("chromatin").is_some());
    }

    #[test]
    fn malformed_corpus_json_errors() {
        assert!(Corpus::from_json("not json").is_err());
    }

    #[test]
    fn concat_combines_sections() {
        let c = tiny();
        let a = c.analyzed(PaperId(1));
        let all = a.concat();
        assert_eq!(
            all.len(),
            a.title.len() + a.abstract_text.len() + a.body.len() + a.index_terms.len()
        );
    }
}
