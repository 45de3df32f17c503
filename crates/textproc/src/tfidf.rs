//! TF-IDF weighting (Salton's vector-space model, the paper's ref \[6\]).
//!
//! Weights are `(1 + ln tf) * ln((N + 1) / (df + 1))` — log-damped term
//! frequency times smoothed inverse document frequency. The +1 smoothing
//! keeps idf finite for terms that occur in every document and defined
//! for query terms never seen at fit time.

use crate::sparse::SparseVector;
use crate::vocab::TermId;

/// Accumulates document-frequency statistics one document at a time.
#[derive(Debug, Default, Clone)]
pub struct TfIdfBuilder {
    n_docs: u64,
    df: Vec<u32>,
    /// Per term, the number of the last document that counted it.
    last_doc: Vec<u64>,
}

impl TfIdfBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one document's terms (duplicates within the document are
    /// counted once toward document frequency).
    pub fn add_document(&mut self, terms: &[TermId]) {
        self.n_docs += 1;
        for &t in terms {
            let i = t.index();
            if i >= self.df.len() {
                self.df.resize(i + 1, 0);
                self.last_doc.resize(i + 1, 0);
            }
            if self.last_doc[i] != self.n_docs {
                self.last_doc[i] = self.n_docs;
                self.df[i] += 1;
            }
        }
    }

    /// Finalize into an immutable model, computing every term's idf.
    pub fn build(self) -> TfIdfModel {
        let n_docs = self.n_docs;
        TfIdfModel {
            n_docs,
            idf: self.df.iter().map(|&df| smoothed_idf(n_docs, df)).collect(),
            unseen_idf: smoothed_idf(n_docs, 0),
            df: self.df,
        }
    }
}

fn smoothed_idf(n_docs: u64, df: u32) -> f64 {
    ((n_docs as f64 + 1.0) / (df as f64 + 1.0)).ln()
}

/// An immutable TF-IDF weighting model fitted on a corpus.
#[derive(Debug, Clone)]
pub struct TfIdfModel {
    n_docs: u64,
    df: Vec<u32>,
    /// Smoothed idf per term id, parallel to `df`.
    idf: Vec<f64>,
    /// The idf of a term no fitted document holds.
    unseen_idf: f64,
}

impl TfIdfModel {
    /// Fit a model over an iterator of documents in one pass.
    pub fn fit<D: AsRef<[TermId]>>(docs: impl IntoIterator<Item = D>) -> Self {
        let mut b = TfIdfBuilder::new();
        for d in docs {
            b.add_document(d.as_ref());
        }
        b.build()
    }

    /// Number of documents the model was fitted on.
    pub fn n_docs(&self) -> u64 {
        self.n_docs
    }

    /// Document frequency of `term` (0 for unseen terms).
    pub fn df(&self, term: TermId) -> u32 {
        self.df.get(term.index()).copied().unwrap_or(0)
    }

    /// Smoothed inverse document frequency of `term`.
    pub fn idf(&self, term: TermId) -> f64 {
        self.idf
            .get(term.index())
            .copied()
            .unwrap_or(self.unseen_idf)
    }

    /// TF-IDF weight for a raw in-document frequency of `term`.
    pub fn weight(&self, term: TermId, tf: f64) -> f64 {
        if tf <= 0.0 {
            return 0.0;
        }
        (1.0 + tf.ln()) * self.idf(term)
    }

    /// Turn a token sequence into a TF-IDF vector (not normalized).
    pub fn vectorize(&self, terms: &[TermId]) -> SparseVector {
        let mut v = SparseVector::from_counts(terms);
        v.map_weights(|t, tf| self.weight(t, tf));
        v
    }

    /// Turn a token sequence into a unit-norm TF-IDF vector.
    pub fn vectorize_normalized(&self, terms: &[TermId]) -> SparseVector {
        let mut v = self.vectorize(terms);
        v.normalize();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(ids: &[u32]) -> Vec<TermId> {
        ids.iter().map(|&i| TermId(i)).collect()
    }

    #[test]
    fn rarer_terms_get_higher_idf() {
        // term 0 in all 3 docs, term 1 in 1 doc.
        let docs = [doc(&[0, 1]), doc(&[0]), doc(&[0])];
        let m = TfIdfModel::fit(docs.iter().map(Vec::as_slice));
        assert!(m.idf(TermId(1)) > m.idf(TermId(0)));
        assert_eq!(m.df(TermId(0)), 3);
        assert_eq!(m.df(TermId(1)), 1);
    }

    #[test]
    fn duplicate_terms_count_once_for_df() {
        let docs = [doc(&[7, 7, 7])];
        let m = TfIdfModel::fit(docs.iter().map(Vec::as_slice));
        assert_eq!(m.df(TermId(7)), 1);
    }

    #[test]
    fn idf_table_matches_the_formula_bit_for_bit() {
        let docs = [doc(&[0, 1, 1]), doc(&[0, 3]), doc(&[0])];
        let m = TfIdfModel::fit(docs.iter().map(Vec::as_slice));
        for t in 0..6 {
            let df = [3.0, 1.0, 0.0, 1.0, 0.0, 0.0][t as usize];
            let expected = ((3.0f64 + 1.0) / (df + 1.0)).ln();
            assert_eq!(m.idf(TermId(t)).to_bits(), expected.to_bits(), "term {t}");
        }
    }

    #[test]
    fn unseen_term_has_maximal_idf() {
        let docs = [doc(&[0]), doc(&[0])];
        let m = TfIdfModel::fit(docs.iter().map(Vec::as_slice));
        let idf_unseen = m.idf(TermId(99));
        assert!(idf_unseen >= m.idf(TermId(0)));
        assert!(idf_unseen.is_finite());
    }

    #[test]
    fn vectorize_uses_log_tf() {
        let docs = [doc(&[0, 1]), doc(&[2])];
        let m = TfIdfModel::fit(docs.iter().map(Vec::as_slice));
        let v = m.vectorize(&doc(&[0, 0, 0, 1]));
        // tf=3 → 1+ln3; tf=1 → 1.
        let w0 = v.get(TermId(0));
        let w1 = v.get(TermId(1));
        assert!((w0 / m.idf(TermId(0)) - (1.0 + 3f64.ln())).abs() < 1e-12);
        assert!((w1 / m.idf(TermId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vectorize_empty_doc_is_empty() {
        let docs = [doc(&[0])];
        let m = TfIdfModel::fit(docs.iter().map(Vec::as_slice));
        assert!(m.vectorize(&[]).is_empty());
    }

    #[test]
    fn normalized_vector_is_unit() {
        let docs = [doc(&[0, 1, 2]), doc(&[0])];
        let m = TfIdfModel::fit(docs.iter().map(Vec::as_slice));
        let v = m.vectorize_normalized(&doc(&[0, 1, 1, 2]));
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    proptest::proptest! {
        #[test]
        fn weights_are_nonnegative_and_finite(
            corpus in proptest::collection::vec(
                proptest::collection::vec(0u32..40, 1..30), 1..20),
            query in proptest::collection::vec(0u32..60, 0..30),
        ) {
            let docs: Vec<Vec<TermId>> = corpus.iter().map(|d| doc(d)).collect();
            let m = TfIdfModel::fit(docs.iter().map(Vec::as_slice));
            let v = m.vectorize(&doc(&query));
            for &(_, w) in v.entries() {
                proptest::prop_assert!(w >= 0.0 && w.is_finite());
            }
        }
    }
}
