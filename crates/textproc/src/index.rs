//! Inverted index over documents.
//!
//! Maps each term to a postings list of `(document, weight)` pairs. With
//! unit-normalized document vectors, accumulating `query_weight *
//! posting_weight` over query terms computes exact cosine scores while
//! touching only postings of query terms.

use crate::sparse::SparseVector;
use crate::vocab::TermId;
use serde::{Deserialize, Serialize};

/// Index of a document within the collection the index was built over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DocId(pub u32);

impl DocId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single posting: a document and the indexed weight of the term in it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Posting {
    /// The document containing the term.
    pub doc: DocId,
    /// The (normalized TF-IDF) weight of the term in that document.
    pub weight: f32,
}

/// An immutable inverted index built from per-document sparse vectors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InvertedIndex {
    postings: Vec<Vec<Posting>>,
    n_docs: u32,
}

/// Reusable accumulation state for [`InvertedIndex::search_columns`].
///
/// Holds a dense per-document score array stamped with a query epoch —
/// a slot is "live" only when its stamp equals the current epoch, so
/// consecutive queries skip the O(n_docs) zeroing that
/// [`InvertedIndex::score_all`] pays per call. After a search exactly
/// the candidates are live: a caller walks its own ascending id column
/// (a context's prestige papers) and reads each id's score with
/// [`score`](Self::score), so no candidate list is ever sorted.
///
/// One scratch must not be shared across threads; keep one per worker
/// (the serve path pools one per thread).
#[derive(Debug, Default)]
pub struct CandidateScratch {
    /// Dense accumulator, indexed by doc id.
    slots: Vec<Slot>,
    /// The current query's epoch.
    epoch: u32,
    /// The current query's candidates, in first-touch order.
    touched: Vec<DocId>,
}

/// One document's accumulator: its score is live iff `stamp` equals
/// the scratch's epoch. Stamp and score share a slot so that a lookup
/// reads one cache line.
#[derive(Debug, Default, Clone, Copy)]
struct Slot {
    stamp: u32,
    score: f64,
}

impl CandidateScratch {
    /// An empty scratch; arrays grow to the index's size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The score of `doc` if it is a candidate of the most recent
    /// [`InvertedIndex::search_columns`] call. Any id is safe to ask
    /// about: one past the index's documents is simply no candidate.
    #[inline]
    pub fn score(&self, doc: DocId) -> Option<f64> {
        self.slots
            .get(doc.index())
            .filter(|slot| slot.stamp == self.epoch)
            .map(|slot| slot.score)
    }

    /// Number of candidates produced by the most recent search.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether the most recent search produced no candidates.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Advance to a fresh epoch, growing the dense array to `n` slots.
    /// On u32 wraparound every stamp is cleared so stale stamps from
    /// ~4 billion queries ago cannot alias the new epoch; epoch 0 is
    /// never live, so a cleared stamp is no candidate.
    fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.touched.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.iter_mut().for_each(|slot| slot.stamp = 0);
            self.epoch = 1;
        }
    }
}

impl InvertedIndex {
    /// Build from unit-normalized document vectors, in `DocId` order.
    pub fn build(doc_vectors: &[SparseVector]) -> Self {
        let _span = obs::span("textproc.inverted_index.build");
        // Count each term's postings first, so that every list is
        // allocated at its exact final length.
        let mut lengths: Vec<usize> = Vec::new();
        for t in doc_vectors.iter().flat_map(SparseVector::terms) {
            let i = t.index();
            if i >= lengths.len() {
                lengths.resize(i + 1, 0);
            }
            lengths[i] += 1;
        }
        let mut postings: Vec<Vec<Posting>> = lengths.into_iter().map(Vec::with_capacity).collect();
        for (d, v) in doc_vectors.iter().enumerate() {
            let doc = DocId(d as u32);
            for &(t, w) in v.entries() {
                postings[t.index()].push(Posting {
                    doc,
                    weight: w as f32,
                });
            }
        }
        obs::gauge("textproc.inverted_index.terms", postings.len() as f64);
        obs::gauge("textproc.inverted_index.docs", doc_vectors.len() as f64);
        Self {
            postings,
            n_docs: doc_vectors.len() as u32,
        }
    }

    /// Number of indexed documents.
    pub fn n_docs(&self) -> u32 {
        self.n_docs
    }

    /// Postings list for `term` (empty slice if the term is unindexed).
    pub fn postings(&self, term: TermId) -> &[Posting] {
        self.postings
            .get(term.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Documents containing `term`.
    pub fn docs_containing(&self, term: TermId) -> impl Iterator<Item = DocId> + '_ {
        self.postings(term).iter().map(|p| p.doc)
    }

    /// Score every document against a query vector by postings
    /// accumulation; returns dense per-document scores.
    pub fn score_all(&self, query: &SparseVector) -> Vec<f64> {
        let mut scores = vec![0.0f64; self.n_docs as usize];
        for &(t, qw) in query.entries() {
            for p in self.postings(t) {
                scores[p.doc.index()] += qw * p.weight as f64;
            }
        }
        scores
    }

    /// Candidate search: accumulate cosine scores into `scratch` and
    /// leave live exactly the documents strictly above `min_score`
    /// (read them with [`CandidateScratch::score`]).
    ///
    /// Candidate set and score bits are identical to [`search`] — the
    /// accumulation visits `(term, posting)` pairs in the same order, so
    /// every floating-point sum associates identically; nothing is
    /// sorted. Allocation-free after warm-up: the dense accumulator is
    /// epoch-stamped instead of re-zeroed.
    ///
    /// [`search`]: InvertedIndex::search
    pub fn search_columns(
        &self,
        query: &SparseVector,
        min_score: f64,
        scratch: &mut CandidateScratch,
    ) {
        scratch.begin(self.n_docs as usize);
        let CandidateScratch {
            slots,
            epoch,
            touched,
        } = scratch;
        for &(t, qw) in query.entries() {
            for p in self.postings(t) {
                let slot = &mut slots[p.doc.index()];
                if slot.stamp != *epoch {
                    slot.stamp = *epoch;
                    slot.score = 0.0;
                    touched.push(p.doc);
                }
                slot.score += qw * p.weight as f64;
            }
        }
        // Retire the documents at or below `min_score`: only candidates
        // stay live.
        touched.retain(|d| {
            let slot = &mut slots[d.index()];
            let keep = slot.score > min_score;
            if !keep {
                slot.stamp = 0;
            }
            keep
        });
    }

    /// Score and return `(doc, score)` pairs above `min_score`, sorted by
    /// descending score (ties broken by ascending doc id for determinism).
    pub fn search(&self, query: &SparseVector, min_score: f64) -> Vec<(DocId, f64)> {
        let scores = self.score_all(query);
        let mut hits: Vec<(DocId, f64)> = scores
            .into_iter()
            .enumerate()
            .filter(|&(_, s)| s > min_score)
            .map(|(d, s)| (DocId(d as u32), s))
            .collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tfidf::TfIdfModel;

    fn ids(xs: &[u32]) -> Vec<TermId> {
        xs.iter().map(|&x| TermId(x)).collect()
    }

    fn tiny_index() -> (InvertedIndex, TfIdfModel) {
        // doc0: {0,1}; doc1: {1,2}; doc2: {2,2,3}
        let docs = [ids(&[0, 1]), ids(&[1, 2]), ids(&[2, 2, 3])];
        let model = TfIdfModel::fit(docs.iter().map(Vec::as_slice));
        let vecs: Vec<SparseVector> = docs.iter().map(|d| model.vectorize_normalized(d)).collect();
        (InvertedIndex::build(&vecs), model)
    }

    #[test]
    fn postings_reflect_documents() {
        let (idx, _) = tiny_index();
        let d: Vec<u32> = idx.docs_containing(TermId(1)).map(|d| d.0).collect();
        assert_eq!(d, vec![0, 1]);
        let d: Vec<u32> = idx.docs_containing(TermId(3)).map(|d| d.0).collect();
        assert_eq!(d, vec![2]);
        assert!(idx.postings(TermId(99)).is_empty());
    }

    #[test]
    fn search_ranks_exact_match_first() {
        let (idx, model) = tiny_index();
        let q = model.vectorize_normalized(&ids(&[2, 3]));
        let hits = idx.search(&q, 0.0);
        assert_eq!(hits[0].0, DocId(2));
        assert!(hits[0].1 > hits.last().unwrap().1 || hits.len() == 1);
    }

    #[test]
    fn search_scores_are_cosines() {
        let (idx, model) = tiny_index();
        let docs = [ids(&[0, 1]), ids(&[1, 2]), ids(&[2, 2, 3])];
        let q = model.vectorize_normalized(&ids(&[1]));
        let hits = idx.search(&q, -1.0);
        for (doc, score) in hits {
            let dv = model.vectorize_normalized(&docs[doc.index()]);
            assert!((score - q.cosine(&dv)).abs() < 1e-6, "doc {doc:?}");
        }
    }

    #[test]
    fn min_score_filters() {
        let (idx, model) = tiny_index();
        let q = model.vectorize_normalized(&ids(&[1]));
        let all = idx.search(&q, 0.0);
        let none = idx.search(&q, 1.1);
        assert!(!all.is_empty());
        assert!(none.is_empty());
    }

    #[test]
    fn empty_query_matches_nothing() {
        let (idx, _) = tiny_index();
        let hits = idx.search(&SparseVector::new(), 0.0);
        assert!(hits.is_empty());
    }

    #[test]
    fn empty_index_is_sane() {
        let idx = InvertedIndex::build(&[]);
        assert_eq!(idx.n_docs(), 0);
        assert!(idx.search(&SparseVector::new(), 0.0).is_empty());
        let mut scratch = CandidateScratch::new();
        idx.search_columns(&SparseVector::new(), 0.0, &mut scratch);
        assert!(scratch.is_empty());
    }

    /// Every id's [`CandidateScratch::score`], one past the end
    /// included: `None` for non-candidates.
    fn live(idx: &InvertedIndex, scratch: &CandidateScratch) -> Vec<Option<u64>> {
        (0..=idx.n_docs())
            .map(|d| scratch.score(DocId(d)).map(f64::to_bits))
            .collect()
    }

    #[test]
    fn search_columns_matches_search_bit_for_bit() {
        let (idx, model) = tiny_index();
        let mut scratch = CandidateScratch::new();
        for (q, min) in [
            (ids(&[1]), 0.0),
            (ids(&[2, 3]), 0.0),
            (ids(&[0, 1, 2, 3]), 0.05),
            (ids(&[1]), 1.1),
        ] {
            let qv = model.vectorize_normalized(&q);
            let mut want = vec![None; idx.n_docs() as usize + 1];
            let reference = idx.search(&qv, min);
            for &(d, s) in &reference {
                want[d.index()] = Some(s.to_bits());
            }
            idx.search_columns(&qv, min, &mut scratch);
            assert_eq!(live(&idx, &scratch), want, "query {q:?}");
            assert_eq!(scratch.len(), reference.len(), "query {q:?}");
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_across_queries() {
        let (idx, model) = tiny_index();
        let mut scratch = CandidateScratch::new();
        // A broad query first, then a narrow one: stale accumulator
        // slots from the broad query must not surface.
        idx.search_columns(
            &model.vectorize_normalized(&ids(&[0, 1, 2, 3])),
            0.0,
            &mut scratch,
        );
        let broad = scratch.len();
        idx.search_columns(&model.vectorize_normalized(&ids(&[3])), 0.0, &mut scratch);
        assert!(scratch.len() < broad);
        let candidates = |scratch: &CandidateScratch| -> Vec<u32> {
            (0..idx.n_docs())
                .filter(|&d| scratch.score(DocId(d)).is_some())
                .collect()
        };
        assert_eq!(candidates(&scratch), [2], "only doc2 contains term 3");
        // And the epoch discipline survives many reuses.
        for _ in 0..100 {
            idx.search_columns(&model.vectorize_normalized(&ids(&[1])), 0.0, &mut scratch);
            assert_eq!(candidates(&scratch), [0, 1]);
        }
    }

    #[test]
    fn epoch_wraparound_clears_every_stamp() {
        let (idx, model) = tiny_index();
        let mut scratch = CandidateScratch::new();
        idx.search_columns(&model.vectorize_normalized(&ids(&[1])), 0.0, &mut scratch);
        // The next query's epoch wraps to 0, which is never live.
        scratch.epoch = u32::MAX;
        idx.search_columns(&model.vectorize_normalized(&ids(&[3])), 0.0, &mut scratch);
        assert_eq!(scratch.epoch, 1);
        assert_eq!(scratch.score(DocId(0)), None);
        assert!(scratch.score(DocId(2)).is_some());
    }
}
