//! Text-processing substrate for context-based literature search.
//!
//! This crate provides everything the search paradigm of Ratprasartporn et
//! al. (ICDE 2007) needs from "plain" information retrieval:
//!
//! * [`tokenize`] — unicode-aware word tokenization,
//! * [`stem`] — a from-scratch Porter stemmer,
//! * [`stopwords`] — a standard English stopword list,
//! * [`vocab`] — string interning into dense [`vocab::TermId`]s,
//! * [`sparse`] — sparse term-weight vectors with cosine similarity,
//! * [`tfidf`] — corpus-level TF-IDF weighting (Salton's vector model,
//!   the paper's reference \[6\]),
//! * [`index`] — an inverted index over documents, whose cosine
//!   [`InvertedIndex::search`] is the paper's "standard keyword-based
//!   search" baseline,
//! * [`phrase`] — n-gram/phrase counting used by the apriori-style
//!   significant-term mining of the pattern score function.
//!
//! The pipeline composes as: raw text → [`analyze`] (tokenize + stopword
//! filter + stem) → intern via [`vocab::Vocabulary`] → count into
//! [`sparse::SparseVector`]s → weight with [`tfidf::TfIdfModel`] → search
//! via [`index::InvertedIndex`].

pub mod index;
pub mod phrase;
pub mod snippet;
pub mod sparse;
pub mod stem;
pub mod stopwords;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use index::{CandidateScratch, InvertedIndex};
pub use sparse::SparseVector;
pub use tfidf::TfIdfModel;
pub use vocab::{FxHasher, TermId, Vocabulary};

/// Full analysis pipeline: tokenize, drop stopwords, drop very short
/// tokens, Porter-stem each remaining token.
///
/// This is the canonical way every component of the reproduction (corpus
/// generation, context assignment, pattern mining, query processing) turns
/// raw text into index terms, so that the same surface string always maps
/// to the same term. Bulk interning goes through
/// [`vocab::MemoInterner`], which yields the same terms.
pub fn analyze(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    tokenize::for_each_token(text, &mut String::new(), |t| out.extend(index_term(t)));
    out
}

/// The index term of one lowercase raw token: its Porter stem, or
/// `None` for a stopword or a token shorter than two bytes.
pub(crate) fn index_term(token: &str) -> Option<String> {
    (token.len() >= 2 && !stopwords::is_stopword(token)).then(|| stem::porter_stem(token))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_stems_and_filters() {
        let toks = analyze("The kinases are regulating the transcription of genes");
        // "the", "are", "of" are stopwords; the rest is stemmed.
        assert!(toks.contains(&"kinas".to_string()));
        assert!(toks.contains(&"regul".to_string()));
        assert!(toks.contains(&"transcript".to_string()));
        assert!(toks.contains(&"gene".to_string()));
        assert!(!toks.iter().any(|t| t == "the" || t == "are" || t == "of"));
    }

    #[test]
    fn analyze_empty_input() {
        assert!(analyze("").is_empty());
        assert!(analyze("   \t\n").is_empty());
    }
}
