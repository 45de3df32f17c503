//! Word tokenization.
//!
//! Splits text into lowercase word tokens. A token is a maximal run of
//! alphanumeric characters; hyphens and apostrophes *inside* a word are
//! treated as connectors for biomedical-style tokens ("beta-catenin",
//! "3'-utr") and split into their alphanumeric parts as separate tokens
//! plus the joined form is NOT kept — the paper's TF-IDF setup works on
//! plain word tokens, so we keep tokenization deliberately simple and
//! deterministic.

/// Scan `text` once, calling `f` with each lowercase token in order.
///
/// A token is a maximal run of alphanumeric characters, lowercased;
/// every other character separates tokens. Of a character's lowercase
/// form only the alphanumeric chars are kept, so `İ` gives `i` rather
/// than `i` and a combining dot above. The token is built in `buf`
/// (cleared first, empty on return), so a caller that keeps one buffer
/// across calls allocates only when a token outgrows it.
pub(crate) fn for_each_token(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    buf.clear();
    for ch in text.chars() {
        // ASCII first: the general branch gives the same bytes for it,
        // but its lowercase iterator doubles the cost of the scan
        // (`corpus/new_repeated` in `crates/bench/benches/substrates.rs`).
        if ch.is_ascii_alphanumeric() {
            buf.push(ch.to_ascii_lowercase());
        } else if ch.is_alphanumeric() {
            buf.extend(ch.to_lowercase().filter(|c| c.is_alphanumeric()));
        } else if !buf.is_empty() {
            f(buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        f(buf);
        buf.clear();
    }
}

/// Tokenize `text` into lowercase alphanumeric word tokens.
///
/// Purely ASCII-alphanumeric-or-unicode-alphabetic runs are kept; all
/// other characters separate tokens. Tokens are lowercased. Pure numbers
/// are kept (gene names like "p53" mix digits and letters, and years are
/// filtered later by length/stopword policies if needed).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, &mut String::new(), |t| out.push(t.to_owned()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace_and_punct() {
        assert_eq!(
            tokenize("Hello, world! foo-bar"),
            vec!["hello", "world", "foo", "bar"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(
            tokenize("DNA Polymerase II"),
            vec!["dna", "polymerase", "ii"]
        );
    }

    #[test]
    fn keeps_alphanumeric_mixes() {
        assert_eq!(tokenize("p53 and 3utr"), vec!["p53", "and", "3utr"]);
    }

    #[test]
    fn empty_and_punct_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("...!?--").is_empty());
    }

    #[test]
    fn unicode_words() {
        assert_eq!(tokenize("naïve Bayes"), vec!["naïve", "bayes"]);
        assert_eq!(tokenize("İstanbul KELVİN"), vec!["istanbul", "kelvin"]);
    }

    /// Every `char`, each on its own: the ASCII branch and the general
    /// one together give what `is_alphanumeric` and `to_lowercase` say,
    /// keeping the alphanumeric chars of the lowercase form.
    #[test]
    fn every_char_follows_the_general_rule() {
        let all: Vec<char> = (char::MIN..=char::MAX).collect();
        let text: String = all.iter().flat_map(|&c| [c, ' ']).collect();
        let expected: Vec<String> = all
            .iter()
            .filter(|c| c.is_alphanumeric())
            .map(|c| c.to_lowercase().filter(|l| l.is_alphanumeric()).collect())
            .collect();
        assert_eq!(tokenize(&text), expected);
    }

    proptest::proptest! {
        /// Tokenization never panics and always yields lowercase,
        /// alphanumeric-only tokens.
        #[test]
        fn tokens_are_always_clean(input in "\\PC{0,200}") {
            for tok in tokenize(&input) {
                proptest::prop_assert!(!tok.is_empty());
                proptest::prop_assert!(tok.chars().all(char::is_alphanumeric));
                // Lowercased means: applying to_lowercase again changes
                // nothing (some uppercase codepoints, e.g. 𝒢, have no
                // lowercase mapping and pass through unchanged).
                proptest::prop_assert_eq!(
                    tok.clone(),
                    tok.chars().flat_map(char::to_lowercase).collect::<String>(),
                    "token not lowercased"
                );
            }
        }

        /// Tokenizing is insensitive to surrounding whitespace.
        #[test]
        fn whitespace_invariance(words in proptest::collection::vec("[a-z]{1,8}", 0..10)) {
            let tight = words.join(" ");
            let loose = words.join("   \t ");
            proptest::prop_assert_eq!(tokenize(&tight), tokenize(&loose));
        }
    }
}
