//! Fuzz of the snapshot loader over the files of an 80 × 400 snapshot
//! (the CI corpus: `generate --terms 80 --papers 400 --seed 7`, then
//! `prepare`).
//!
//! Each case damages one file — truncation at any byte, one byte
//! overwritten, a number pushed past `u32::MAX`, an id made negative, a
//! repeated or unknown key, nesting past the reader's bound — and hands
//! it to the function that reads it: `Corpus::from_json`,
//! `context_sets_from_json`, `prestige_from_json`. Every outcome must be
//! a value or a typed error, never a panic; a key the type does not name
//! and a repeated key change nothing; nesting past the bound is refused.
//! A handful of cases write the damaged file into a copy of the snapshot
//! and load it whole: `load_snapshot` must refuse it or load a snapshot
//! that answers a query. An id of the corpus past its range is refused,
//! and with two files damaged the load reports the earlier file's error,
//! although it reads the corpus and the tables on two threads.

use litsearch::context_search::persist::{
    context_sets_from_json, context_sets_to_json, load_snapshot, prestige_from_json,
    prestige_to_json, save_snapshot,
};
use litsearch::context_search::{EngineConfig, EngineSnapshot, PrepareOptions};
use litsearch::corpus::store::CorpusFile;
use litsearch::corpus::{generate_corpus, AuthorId, Corpus, CorpusConfig, Paper, PaperId};
use litsearch::ontology::{generate_ontology, GeneratorConfig, TermId};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The pristine snapshot's files, the JSON ones in load order.
struct Fixture {
    obo: String,
    files: Vec<(&'static str, String)>,
}

const FILES: [&str; 9] = [
    "snapshot.json",
    "corpus.json",
    "sets_text.json",
    "sets_pattern.json",
    "prestige_text_citation.json",
    "prestige_text_text.json",
    "prestige_pattern_citation.json",
    "prestige_pattern_pattern.json",
    "prestige_pattern_text.json",
];

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ontology = generate_ontology(&GeneratorConfig {
            n_terms: 80,
            seed: 7,
            ..Default::default()
        });
        let corpus = generate_corpus(
            &ontology,
            &CorpusConfig {
                n_papers: 400,
                seed: 8,
                ..Default::default()
            },
        );
        let snap = EngineSnapshot::prepare_with(
            ontology,
            corpus,
            EngineConfig::default(),
            PrepareOptions::default(),
        );
        let dir = scratch_dir("pristine");
        save_snapshot(&snap, &dir).expect("save");
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("read");
        let fixture = Fixture {
            obo: read("ontology.obo"),
            files: FILES.iter().map(|&name| (name, read(name))).collect(),
        };
        std::fs::remove_dir_all(&dir).expect("remove");
        fixture
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("litsearch_fuzz_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create");
    dir
}

/// What one file decodes to, rendered so two decodes can be compared.
fn decode(name: &str, text: &str) -> Result<String, String> {
    let rendered = if name == "corpus.json" {
        let corpus = Corpus::from_json(text).map_err(|e| e.to_string())?;
        let names: Vec<String> = Vec::new();
        corpus.to_json(&names)
    } else if name.starts_with("sets_") {
        let sets = context_sets_from_json(text).map_err(|e| e.to_string())?;
        context_sets_to_json(&sets).map_err(|e| e.to_string())?
    } else if name.starts_with("prestige_") {
        let table = prestige_from_json(text).map_err(|e| e.to_string())?;
        prestige_to_json(&table).map_err(|e| e.to_string())?
    } else {
        serde_json::from_str::<litsearch::context_search::persist::SnapshotHeader>(text)
            .map(|h| format!("{h:?}"))
            .map_err(|e| e.to_string())?
    };
    Ok(rendered)
}

/// Decode `text` as file `name`, turning a panic into a failure that
/// names the case.
fn decode_without_panic(
    name: &str,
    text: &str,
    case: &str,
) -> Result<Result<String, String>, String> {
    catch_unwind(AssertUnwindSafe(|| decode(name, text)))
        .map_err(|_| format!("{name}: reading it {case} panicked"))
}

/// Byte offsets of every number token in `text`.
fn numbers(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'0'..=b'9' if !in_string => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'-' | b'+')
                {
                    i += 1;
                }
                out.push((start, i));
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

fn splice(text: &str, (start, end): (usize, usize), with: &str) -> String {
    format!("{}{with}{}", &text[..start], &text[end..])
}

fn pick(fixture: &Fixture, file: usize) -> (&'static str, &str) {
    let (name, text) = &fixture.files[file];
    (name, text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncation at any byte is an error, never a panic.
    #[test]
    fn truncated_files_are_refused(file in 0usize..9, at in 0.0f64..1.0) {
        let fixture = fixture();
        let (name, text) = pick(fixture, file);
        let cut = (text.len() as f64 * at) as usize;
        let damaged = String::from_utf8_lossy(&text.as_bytes()[..cut]).into_owned();
        let outcome = decode_without_panic(name, &damaged, &format!("cut at byte {cut}"))?;
        prop_assert!(outcome.is_err(), "{name} cut at byte {cut} decoded");
    }

    /// One byte overwritten with any value decodes or is refused; the
    /// decode never panics.
    #[test]
    fn one_overwritten_byte_never_panics(file in 0usize..9, at in 0.0f64..1.0, byte in 0u8..=255) {
        let fixture = fixture();
        let (name, text) = pick(fixture, file);
        let mut bytes = text.as_bytes().to_vec();
        let pos = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
        bytes[pos] = byte;
        let damaged = String::from_utf8_lossy(&bytes).into_owned();
        let _ = decode_without_panic(name, &damaged, &format!("with byte {pos} set to {byte}"))?;
    }

    /// A number past `u32::MAX` or a negative number in place of any
    /// number is refused wherever the file holds an id or a count; only
    /// a score may take such a value.
    #[test]
    fn out_of_range_numbers_are_refused(
        file in 0usize..9,
        at in 0.0f64..1.0,
        which in 0usize..4,
    ) {
        let fixture = fixture();
        let (name, text) = pick(fixture, file);
        let tokens = numbers(text);
        let token = tokens[((tokens.len() as f64 * at) as usize).min(tokens.len() - 1)];
        let replacement = ["4294967296", "18446744073709551616", "-1", "-4294967297"][which];
        let original = &text[token.0..token.1];
        let damaged = splice(text, token, replacement);
        let outcome = decode_without_panic(name, &damaged, &format!("with {original} at byte {} as {replacement}", token.0))?;
        // A header count is a `usize`: one past `u32::MAX` still fits,
        // and the load refuses it against the payload.
        let fits_usize = name == "snapshot.json" && which == 0;
        if !original.contains('.') && !original.contains('e') && !fits_usize {
            prop_assert!(
                outcome.is_err(),
                "{name}: integer {original} at byte {} replaced by {replacement} decoded", token.0
            );
        }
    }

    /// A key the type does not name, or a repeat of one it does (which
    /// keeps its first value), changes nothing, wherever the object.
    #[test]
    fn unknown_and_repeated_keys_change_nothing(file in 0usize..9, at in 0.0f64..1.0, repeat in 0u8..2) {
        let fixture = fixture();
        let (name, text) = pick(fixture, file);
        let open = pick_object(text, at);
        let key_start = open + 1 + (text[open + 1..].len() - text[open + 1..].trim_start().len());
        let key_end = key_start + 1 + text[key_start + 1..].find('"').unwrap() + 1;
        let key = &text[key_start..key_end];
        // A repeat goes last, after the key it repeats; an unknown key
        // goes first.
        let (at, inserted) = if repeat == 1 {
            (matching_close(text, open), format!(",{key}:[[1,\"x\"],{{\"y\":null}}]"))
        } else {
            (open + 1, "\"zz_unknown\":{\"a\":[1,-2.5e3,true,\"\\ud83e\\udd80\"]},".to_string())
        };
        let damaged = splice(text, (at, at), &inserted);
        let outcome = decode_without_panic(name, &damaged, &format!("with {inserted} at byte {at}"))?;
        prop_assert_eq!(&outcome, pristine(name), "{} with {} at byte {}", name, inserted, at);
    }

    /// Nesting past the reader's bound is refused, inside any object.
    #[test]
    fn nesting_past_the_bound_is_refused(file in 0usize..9, at in 0.0f64..1.0, depth in 129usize..2000) {
        let fixture = fixture();
        let (name, text) = pick(fixture, file);
        let open = pick_object(text, at);
        let deep = format!("\"zz\":{}{},", "[".repeat(depth), "]".repeat(depth));
        let damaged = splice(text, (open + 1, open + 1), &deep);
        let outcome = decode_without_panic(name, &damaged, &format!("nested {depth} deep"))?;
        match outcome {
            Err(e) => prop_assert!(e.contains("nesting deeper than 128"), "{name}: {e}"),
            Ok(_) => prop_assert!(false, "{name} nested {depth} deep decoded"),
        }
    }
}

/// The offset of the `{` of an object, picked by `at` in `0.0..1.0`
/// from all the objects in `text`.
fn pick_object(text: &str, at: f64) -> usize {
    let opens: Vec<usize> = text
        .match_indices('{')
        .map(|(i, _)| i)
        // An object, not a brace inside a string: a key follows.
        .filter(|&i| text[i + 1..].trim_start().starts_with('"'))
        .collect();
    opens[((opens.len() as f64 * at) as usize).min(opens.len() - 1)]
}

/// The offset of the `}` that closes the object opened at `open`.
fn matching_close(text: &str, open: usize) -> usize {
    let bytes = text.as_bytes();
    let (mut depth, mut in_string, mut i) = (0usize, false, open);
    loop {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'{' | b'[' if !in_string => depth += 1,
            b'}' | b']' if !in_string => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// What the pristine file `name` decodes to.
fn pristine(name: &str) -> &'static Result<String, String> {
    static PRISTINE: OnceLock<Vec<(&'static str, Result<String, String>)>> = OnceLock::new();
    let decoded = PRISTINE.get_or_init(|| {
        fixture()
            .files
            .iter()
            .map(|(name, text)| (*name, decode(name, text)))
            .collect()
    });
    &decoded.iter().find(|(n, _)| *n == name).unwrap().1
}

/// Load a copy of the snapshot whose file `name` holds `text`, and
/// query every pair of what loads.
fn load_with(fixture: &Fixture, tag: &str, name: &str, text: &str) -> Result<(), String> {
    load_with_all(fixture, tag, &[(name, text)])
}

/// [`load_with`] for a copy whose files `damaged` names hold its texts.
fn load_with_all(fixture: &Fixture, tag: &str, damaged: &[(&str, &str)]) -> Result<(), String> {
    let dir = scratch_dir(tag);
    std::fs::write(dir.join("ontology.obo"), &fixture.obo).unwrap();
    for (file, pristine) in &fixture.files {
        let content = damaged
            .iter()
            .find(|(name, _)| name == file)
            .map_or(pristine.as_str(), |(_, text)| text);
        std::fs::write(dir.join(file), content).unwrap();
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| load(&dir)))
        .map_err(|_| format!("loading or querying it panicked with {damaged:?} {tag}"));
    std::fs::remove_dir_all(&dir).unwrap();
    outcome?
}

fn load(dir: &Path) -> Result<(), String> {
    let snap = load_snapshot(dir, EngineConfig::default()).map_err(|e| e.to_string())?;
    for (kind, function) in snap.pairs() {
        if let Err(e) = snap
            .searcher()
            .query("biological process", kind, function, 0)
        {
            panic!("a loaded pair does not answer: {e}");
        }
    }
    Ok(())
}

/// Whole-snapshot loads: every file truncated, an integer in every file
/// pushed past `u32::MAX`, and a deep nest in the header are refused;
/// a byte overwritten in the corpus text loads and answers.
#[test]
fn load_snapshot_refuses_damage_and_never_panics() {
    let fixture = fixture();
    for (name, text) in &fixture.files {
        let cut = &text[..text.len() / 2];
        assert!(
            load_with(fixture, "cut", name, cut).is_err(),
            "{name} cut in half loaded"
        );
        let ids: Vec<(usize, usize)> = numbers(text)
            .into_iter()
            .filter(|&(start, end)| !text[start..end].contains(['.', 'e']))
            .collect();
        let token = ids[ids.len() / 2];
        let damaged = splice(text, token, "4294967296");
        assert!(
            load_with(fixture, "big", name, &damaged).is_err(),
            "{name} with {} at byte {} past u32::MAX loaded",
            &text[token.0..token.1],
            token.0
        );
    }
    let header = &fixture.files[0].1;
    let deep = format!(
        "{{\"zz\":{}{},{}",
        "[".repeat(200),
        "]".repeat(200),
        &header[1..]
    );
    let err = load_with(fixture, "deep", "snapshot.json", &deep).expect_err("deep nesting");
    assert!(err.contains("nesting deeper than 128"), "{err}");
    let corpus = &fixture.files[1].1;
    let at = corpus.find("\"title\":\"").unwrap() + "\"title\":\"".len();
    let damaged = splice(corpus, (at, at + 1), "Q");
    load_with(fixture, "title", "corpus.json", &damaged).expect("a changed title loads");
}

/// An id that points nowhere loads today only if nothing checks it:
/// each of the corpus's six id fields, set just past its range, is
/// refused by the whole load, with an error naming the field.
#[test]
fn corpus_ids_past_their_range_are_refused() {
    let fixture = fixture();
    let pristine = &fixture.files[1].1;
    let file: CorpusFile = serde_json::from_str(pristine).unwrap();
    let (papers, authors) = (file.papers.len() as u32, file.author_names.len() as u32);
    let terms = 80;
    let with = |what: &str, damage: &dyn Fn(&mut CorpusFile)| {
        let mut file: CorpusFile = serde_json::from_str(pristine).unwrap();
        damage(&mut file);
        let err = load_with(
            fixture,
            "ids",
            "corpus.json",
            &serde_json::to_string(&file).unwrap(),
        )
        .expect_err(what);
        assert!(
            err.contains("corrupt snapshot: corpus.json"),
            "{what}: {err}"
        );
        err
    };
    let first = |f: &CorpusFile, has: fn(&Paper) -> bool| f.papers.iter().position(has).unwrap();
    let cited = first(&file, |p| !p.references.is_empty());
    let bylined = first(&file, |p| !p.authors.is_empty());
    let topical = first(&file, |p| !p.true_topics.is_empty());
    let err = with("a misplaced id", &|f| f.papers[7].id = PaperId(papers + 1));
    assert!(err.contains("position 7 has id 401"), "{err}");
    let err = with("a reference", &|f| {
        f.papers[cited].references[0] = PaperId(papers)
    });
    assert!(
        err.contains(&format!("paper {cited}: references entry 400")),
        "{err}"
    );
    let err = with("an evidence paper", &|f| f.evidence[0].1[0] = papers);
    assert!(err.contains("paper 400 is out of range"), "{err}");
    let err = with("an author", &|f| {
        f.papers[bylined].authors[0] = AuthorId(authors)
    });
    assert!(
        err.contains(&format!("paper {bylined}: authors entry {authors}")),
        "{err}"
    );
    let err = with("an evidence term", &|f| f.evidence[0].0 = terms);
    assert!(err.contains("evidence names term 80"), "{err}");
    let err = with("a true topic", &|f| {
        f.papers[topical].true_topics[0] = TermId(terms)
    });
    assert!(
        err.contains(&format!("paper {topical} names true topic 80")),
        "{err}"
    );
}

/// The load reads the corpus on the calling thread and the tables on a
/// second one, yet reports what reading the files one after another
/// would: with two files damaged, the error of the earlier one alone.
#[test]
fn two_damaged_files_give_the_earlier_files_error() {
    let fixture = fixture();
    // In load order: the corpus, then the sets, then the prestige.
    let damaged: Vec<(&str, &str)> = [1, 2, 7]
        .map(|i| {
            let (name, text) = pick(fixture, i);
            (name, &text[..text.len() / 2])
        })
        .to_vec();
    let alone: Vec<String> = damaged
        .iter()
        .map(|&one| load_with_all(fixture, "alone", &[one]).expect_err(one.0))
        .collect();
    for (i, a) in alone.iter().enumerate() {
        assert!(!alone[i + 1..].contains(a), "two files fail alike: {a}");
    }
    for (earlier, later) in [(0, 1), (0, 2), (1, 2)] {
        let both = [damaged[earlier], damaged[later]];
        for order in [both, [both[1], both[0]]] {
            let err = load_with_all(fixture, "both", &order).expect_err("two damaged files");
            assert_eq!(err, alone[earlier], "{} and {}", both[0].0, both[1].0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// An integer of any file set to any value up to well past the
    /// corpus: the whole load refuses the snapshot or loads one that
    /// answers, and never panics.
    #[test]
    fn loads_with_any_id_never_panic(file in 0usize..9, at in 0.0f64..1.0, value in 0u32..100_000) {
        let fixture = fixture();
        let (name, text) = pick(fixture, file);
        let ids: Vec<(usize, usize)> = numbers(text)
            .into_iter()
            .filter(|&(start, end)| !text[start..end].contains(['.', 'e']))
            .collect();
        let token = ids[((ids.len() as f64 * at) as usize).min(ids.len() - 1)];
        let damaged = splice(text, token, &value.to_string());
        if let Err(e) = load_with(fixture, "id", name, &damaged) {
            prop_assert!(!e.contains("panicked"), "{e}");
        }
    }
}
