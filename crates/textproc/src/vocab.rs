//! String interning: maps term strings to dense [`TermId`]s.
//!
//! Every component of the reproduction (TF-IDF vectors, the inverted
//! index, pattern tuples, context term words) speaks in `TermId`s so that
//! comparisons are integer comparisons and vectors are sparse arrays.

use crate::{index_term, tokenize};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Dense identifier of an interned term. `u32` keeps postings and sparse
/// vectors compact (see the type-size guidance in the Rust perf book).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only interner from term strings to [`TermId`]s.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    by_term: HashMap<String, TermId>,
    terms: Vec<String>,
}

/// A [`Vocabulary`] borrowed for bulk interning of analyzed text, from
/// [`Vocabulary::memoized`].
///
/// Remembers each raw token's term (`None` for a token analysis drops),
/// so the filter, stem and intern run once per distinct raw token; the
/// memory goes when the interner is dropped. Every token occurrence is
/// one memo lookup, so the memo hashes with [`FxHasher`] rather than
/// the std SipHash.
#[derive(Debug)]
pub struct MemoInterner<'a> {
    vocab: &'a mut Vocabulary,
    ids: HashMap<String, Option<TermId>, BuildHasherDefault<FxHasher>>,
    token: String,
}

/// FxHash's multiply-rotate hash over 8-byte words, for maps whose keys
/// come from the corpus files and never from a request: the raw-token
/// memo of [`MemoInterner`], the phrase miner's n-gram counts
/// ([`frequent_phrases`](crate::phrase::frequent_phrases)) and the
/// pattern builder's phrase counts.
///
/// It is several times cheaper per key than SipHash and does not
/// resist chosen collisions, so a key a client can choose must not
/// reach it; [`Vocabulary::get`], which the query path calls, keeps the
/// std hasher.
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if !bytes.is_empty() {
            // The tail, zero-padded, as a little-endian word.
            self.add(bytes.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b)));
        }
    }

    // A `TermId` slice hashes its length and then each id. These give
    // the word `write` makes of the same little-endian bytes, without
    // the byte loop.
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply mixes upward, and the table indexes by the low
        // bits: rotate the well-mixed high bits down.
        self.0.rotate_left(26)
    }
}

impl MemoInterner<'_> {
    /// Analyze `text` and append the ids of its terms to `out`,
    /// interning terms not seen before: the same ids, in the same order,
    /// as interning each term of [`analyze`](crate::analyze) in turn.
    pub fn intern_text(&mut self, text: &str, out: &mut Vec<TermId>) {
        let Self { vocab, ids, token } = self;
        tokenize::for_each_token(text, token, |raw| {
            let id = match ids.get(raw) {
                Some(&id) => id,
                None => {
                    let id = index_term(raw).map(|term| vocab.intern(&term));
                    ids.insert(raw.to_owned(), id);
                    id
                }
            };
            out.extend(id);
        });
    }
}

impl Vocabulary {
    /// Create an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `term`, returning its id (allocating a new one if unseen).
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id =
            TermId(u32::try_from(self.terms.len()).expect("vocabulary exceeds u32::MAX terms"));
        self.terms.push(term.to_string());
        self.by_term.insert(term.to_string(), id);
        id
    }

    /// Borrow this vocabulary for bulk interning through a raw-token
    /// memo; see [`MemoInterner`].
    pub fn memoized(&mut self) -> MemoInterner<'_> {
        MemoInterner {
            vocab: self,
            ids: HashMap::default(),
            token: String::new(),
        }
    }

    /// Look up an existing term without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.by_term.get(term).copied()
    }

    /// The string for `id`, if allocated.
    pub fn term(&self, id: TermId) -> Option<&str> {
        self.terms.get(id.index()).map(String::as_str)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterate over (id, term) pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("gene");
        let b = v.intern("gene");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut v = Vocabulary::new();
        let a = v.intern("alpha");
        let b = v.intern("beta");
        let c = v.intern("gamma");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(v.term(b), Some("beta"));
        assert_eq!(v.get("gamma"), Some(c));
        assert_eq!(v.get("delta"), None);
    }

    #[test]
    fn iter_round_trips() {
        let mut v = Vocabulary::new();
        for w in ["x", "y", "z"] {
            v.intern(w);
        }
        let collected: Vec<_> = v.iter().map(|(id, t)| (id.0, t.to_string())).collect();
        assert_eq!(
            collected,
            vec![(0, "x".into()), (1, "y".into()), (2, "z".into())]
        );
    }

    /// Intern `texts` through one memo and, as the reference, each term
    /// of `analyze` in turn; both must give the same ids and vocabulary.
    fn assert_memo_matches_analyze<'t>(texts: impl IntoIterator<Item = &'t str>) {
        let mut reference = Vocabulary::new();
        let mut v = Vocabulary::new();
        let mut interner = v.memoized();
        for text in texts {
            let expected: Vec<TermId> = crate::analyze(text)
                .iter()
                .map(|t| reference.intern(t))
                .collect();
            let mut got = vec![TermId(u32::MAX)];
            interner.intern_text(text, &mut got);
            assert_eq!(got[0], TermId(u32::MAX), "appends, keeps what was there");
            assert_eq!(&got[1..], expected.as_slice(), "{text:?}");
        }
        assert!(v.iter().eq(reference.iter()));
    }

    #[test]
    fn intern_text_matches_interning_analyze() {
        assert_memo_matches_analyze([
            "The kinases are regulating kinase transcription",
            "Regulation of DNA-binding; the KINASE p53",
            "",
            "a I of 42 x7 Ärger İstanbul",
            // The memo hashes 8 bytes at a time: words that share their
            // first 8 bytes, or differ only past them, stay apart.
            "phosphorylation phosphorylated phosphorylation phosphorylates",
            "abcdefgh abcdefghi abcdefgh abcdefghij abcdefg",
        ]);
    }

    #[test]
    fn fx_hasher_tells_apart_words_with_a_shared_prefix() {
        let hash = |s: &str| {
            let mut h = FxHasher::default();
            std::hash::Hash::hash(s, &mut h);
            h.finish()
        };
        assert_ne!(hash("phosphorylation"), hash("phosphorylated"));
        assert_ne!(hash("abcdefgh"), hash("abcdefgh\0"));
    }

    #[test]
    fn fx_hasher_integer_writes_hash_as_their_little_endian_bytes() {
        let finish = |write: &dyn Fn(&mut FxHasher)| {
            let mut h = FxHasher::default();
            write(&mut h);
            h.finish()
        };
        for n in [0u32, 1, 0xff, 0x1234_5678, u32::MAX] {
            assert_eq!(
                finish(&|h| h.write_u32(n)),
                finish(&|h| h.write(&n.to_le_bytes()))
            );
            let n = n as usize * 0x1_0001;
            assert_eq!(
                finish(&|h| h.write_usize(n)),
                finish(&|h| h.write(&n.to_le_bytes()))
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn intern_text_matches_interning_analyze_on_any_text(
            texts in proptest::collection::vec("\\PC{0,60}", 1..8)
        ) {
            assert_memo_matches_analyze(texts.iter().map(String::as_str));
        }

        #[test]
        fn interning_any_strings_round_trips(words in proptest::collection::vec("[a-z]{1,8}", 0..50)) {
            let mut v = Vocabulary::new();
            let ids: Vec<_> = words.iter().map(|w| v.intern(w)).collect();
            for (w, id) in words.iter().zip(&ids) {
                proptest::prop_assert_eq!(v.term(*id), Some(w.as_str()));
                proptest::prop_assert_eq!(v.get(w), Some(*id));
            }
            // Dense: ids all < len.
            for id in ids {
                proptest::prop_assert!(id.index() < v.len());
            }
        }
    }
}
