//! Snapshot persistence round trip: a warm-loaded snapshot must
//! reproduce the in-memory build's `SearchResult` lists exactly, and a
//! damaged snapshot directory must fail with a clean [`PersistError`],
//! never a panic.

use litsearch::context_search::persist::{
    load_snapshot, save_snapshot, ContextSetsFile, PersistError, PrestigeColumnsFile,
    SNAPSHOT_VERSION,
};
use litsearch::context_search::{ContextSetKind, EngineConfig, ScoreFunction};
use litsearch::demo::{snapshot, Scale};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("litsearch_snap_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_loaded_snapshot_reproduces_search_results_exactly() {
    let snap = snapshot(Scale::Tiny, 9);
    let dir = scratch_dir("roundtrip");
    save_snapshot(&snap, &dir).expect("save");
    let loaded = load_snapshot(&dir, EngineConfig::default()).expect("load");

    assert_eq!(loaded.pairs(), snap.pairs());
    assert!(
        loaded.patterns().is_none(),
        "mined patterns are a build intermediate, not persisted"
    );

    let queries: Vec<String> = snap
        .ontology()
        .term_ids()
        .map(|t| snap.ontology().term(t).name.clone())
        .take(12)
        .collect();
    let (cold, warm) = (snap.searcher(), loaded.searcher());
    for (kind, function) in snap.pairs() {
        for q in &queries {
            let a = cold.query(q, kind, function, 0).expect("prepared");
            let b = warm.query(q, kind, function, 0).expect("persisted");
            assert_eq!(
                a.len(),
                b.len(),
                "{q:?} {}/{}",
                kind.name(),
                function.name()
            );
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.paper, y.paper);
                assert_eq!(x.relevancy, y.relevancy);
                assert_eq!(x.matching, y.matching);
                assert_eq!(x.prestige, y.prestige);
                assert_eq!(x.context, y.context);
            }
        }
        // The baseline path agrees too (vocabulary round-tripped).
        assert_eq!(
            snap.keyword_search(&queries[0], 0.05),
            loaded.keyword_search(&queries[0], 0.05)
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn damaged_snapshots_fail_cleanly_not_loudly() {
    let snap = snapshot(Scale::Tiny, 9);
    let dir = scratch_dir("damage");
    save_snapshot(&snap, &dir).expect("save");
    let header_path = dir.join("snapshot.json");
    let pristine = std::fs::read_to_string(&header_path).unwrap();

    // A future format version is refused, not misread.
    let tampered = pristine.replace(
        &format!("\"version\": {SNAPSHOT_VERSION}"),
        "\"version\": 99",
    );
    assert_ne!(tampered, pristine, "header must carry the current version");
    std::fs::write(&header_path, tampered).unwrap();
    let err = load_snapshot(&dir, EngineConfig::default()).unwrap_err();
    assert!(
        matches!(err, PersistError::VersionMismatch { found: 99, .. }),
        "{err}"
    );

    // A foreign file is recognized as not-a-snapshot.
    std::fs::write(
        &header_path,
        pristine.replace("litsearch-snapshot", "something-else"),
    )
    .unwrap();
    let err = load_snapshot(&dir, EngineConfig::default()).unwrap_err();
    assert!(matches!(err, PersistError::BadMagic(_)), "{err}");

    // Garbled payload JSON surfaces as a parse error, not a panic.
    std::fs::write(&header_path, &pristine).unwrap();
    std::fs::write(dir.join("corpus.json"), "{ definitely not a corpus").unwrap();
    let err = load_snapshot(&dir, EngineConfig::default()).unwrap_err();
    assert!(matches!(err, PersistError::Json(_)), "{err}");

    // A missing payload file surfaces as an I/O error naming the path.
    let sets_path = dir.join("sets_text.json");
    std::fs::remove_file(&sets_path).unwrap();
    save_header_and_corpus(&dir, &pristine, &snap);
    let err = load_snapshot(&dir, EngineConfig::default()).unwrap_err();
    match err {
        PersistError::Io { path, .. } => assert_eq!(path, sets_path),
        other => panic!("expected Io, got {other}"),
    }

    // Entries a query would misread are refused, naming the file and
    // the context: in a prestige table, a paper past the corpus, a paper
    // listed twice in one column and a context past the ontology; in a
    // context set, a member past the corpus, a representative past the
    // corpus and a context past the ontology.
    save_snapshot(&snap, &dir).expect("save");
    let (papers, terms) = (snap.corpus().len() as u32, snap.ontology().len() as u32);
    let prestige = "prestige_text_text.json";
    let table = || -> PrestigeColumnsFile { serde_json::from_str(&read(&dir, prestige)).unwrap() };
    let mut t = table();
    let (c, ps, vs) = &mut t.columns[0];
    let c = *c;
    ps.push(99_999);
    vs.push(1.0);
    let damaged = serde_json::to_string(&t).unwrap();
    assert_refused(&dir, prestige, damaged, c, "names paper 99999");
    let mut t = table();
    let (c, ps, vs) = &mut t.columns[1];
    let c = *c;
    ps.push(ps[0]);
    vs.push(vs[0]);
    let damaged = serde_json::to_string(&t).unwrap();
    assert_refused(&dir, prestige, damaged, c, "twice");
    let mut t = table();
    t.columns[2].0 = terms + 5;
    let damaged = serde_json::to_string(&t).unwrap();
    assert_refused(&dir, prestige, damaged, terms + 5, "terms");
    let set_file =
        |file: &str| -> ContextSetsFile { serde_json::from_str(&read(&dir, file)).unwrap() };
    let sets = "sets_pattern.json";
    let mut m = set_file(sets);
    let (c, ps) = &mut m.members[0];
    let c = *c;
    ps.insert(0, papers);
    let damaged = serde_json::to_string(&m).unwrap();
    assert_refused(&dir, sets, damaged, c, &format!("names paper {papers}"));
    let mut m = set_file(sets);
    m.members[1].0 = terms;
    let damaged = serde_json::to_string(&m).unwrap();
    assert_refused(&dir, sets, damaged, terms, "terms");
    let sets = "sets_text.json";
    let mut m = set_file(sets);
    let (c, p) = &mut m.representatives[0];
    let c = *c;
    *p = papers + 1;
    let damaged = serde_json::to_string(&m).unwrap();
    assert_refused(&dir, sets, damaged, c, "papers");

    // A context listed twice would load with one of its entries dropped
    // or shadowed: refused in each field of a context set and as two
    // columns of one prestige table.
    let mut m = set_file(sets);
    let c = m.representatives[0].0;
    m.representatives[1].0 = c;
    let damaged = serde_json::to_string(&m).unwrap();
    assert_refused(&dir, sets, damaged, c, "representatives lists");
    let sets = "sets_pattern.json";
    let mut m = set_file(sets);
    let c = m.members[0].0;
    m.members[1].0 = c;
    let damaged = serde_json::to_string(&m).unwrap();
    assert_refused(&dir, sets, damaged, c, "members lists");
    let mut m = set_file(sets);
    m.inherited_from.extend([(c, 0), (c, 0)]);
    let damaged = serde_json::to_string(&m).unwrap();
    assert_refused(&dir, sets, damaged, c, "inherited_from lists");
    let mut t = table();
    let c = t.columns[0].0;
    t.columns[1].0 = c;
    let damaged = serde_json::to_string(&t).unwrap();
    assert_refused(&dir, prestige, damaged, c, "twice");
    load_snapshot(&dir, EngineConfig::default()).expect("every damage was undone");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_save_over_an_older_snapshot_leaves_no_header() {
    let (a, b) = (snapshot(Scale::Tiny, 9), snapshot(Scale::Tiny, 10));
    let dir = scratch_dir("resave");
    save_snapshot(&a, &dir).expect("save A");
    // B's save fails on one payload file: a directory stands in its way.
    let blocked = dir.join("prestige_text_text.json");
    std::fs::remove_file(&blocked).unwrap();
    std::fs::create_dir(&blocked).unwrap();
    let err = save_snapshot(&b, &dir).unwrap_err();
    assert!(
        matches!(&err, PersistError::Io { path, .. } if *path == blocked),
        "{err}"
    );
    // A's header must not vouch for B's corpus beside A's tables.
    assert!(!dir.join("snapshot.json").exists());
    let err = load_snapshot(&dir, EngineConfig::default()).unwrap_err();
    assert!(matches!(err, PersistError::Io { .. }), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_save_blocked_on_both_lanes_names_the_corpus_and_writes_no_header() {
    let snap = snapshot(Scale::Tiny, 9);
    let dir = scratch_dir("blocked");
    for file in ["corpus.json", "prestige_pattern_citation.json"] {
        std::fs::create_dir_all(dir.join(file)).unwrap();
    }
    let err = save_snapshot(&snap, &dir).unwrap_err();
    assert!(
        matches!(&err, PersistError::Io { path, .. } if path.ends_with("corpus.json")),
        "{err}"
    );
    assert!(!dir.join("snapshot.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file)).unwrap()
}

/// Write `damaged` over `file`, expect a typed `Corrupt` error that
/// names the file, the context and `what`, then put the file back.
fn assert_refused(dir: &Path, file: &str, damaged: String, context: u32, what: &str) {
    let pristine = read(dir, file);
    std::fs::write(dir.join(file), damaged).unwrap();
    let err = load_snapshot(dir, EngineConfig::default()).unwrap_err();
    std::fs::write(dir.join(file), pristine).unwrap();
    let message = err.to_string();
    assert!(matches!(err, PersistError::Corrupt(_)), "{file}: {message}");
    for part in [file, &format!("context {context} "), what] {
        assert!(message.contains(part), "{message:?} lacks {part:?}");
    }
}

/// Restore the header and corpus after the tampering steps above.
fn save_header_and_corpus(
    dir: &std::path::Path,
    pristine_header: &str,
    snap: &litsearch::context_search::EngineSnapshot,
) {
    std::fs::write(dir.join("snapshot.json"), pristine_header).unwrap();
    let ontology = snap.ontology();
    let term_names: Vec<String> = ontology
        .term_ids()
        .map(|t| ontology.term(t).name.clone())
        .collect();
    std::fs::write(dir.join("corpus.json"), snap.corpus().to_json(&term_names)).unwrap();
}

#[test]
fn serving_a_missing_pair_from_a_warm_snapshot_is_a_clean_error() {
    // Persist only what was prepared: a subset snapshot round-trips its
    // subset, and asking for more is an error, not a recompute.
    use litsearch::context_search::{EngineSnapshot, PrepareOptions};
    let (ocfg, ccfg) = litsearch::demo::configs(Scale::Tiny, 9);
    let onto = litsearch::ontology::generate_ontology(&ocfg);
    let corp = litsearch::corpus::generate_corpus(&onto, &ccfg);
    let snap = EngineSnapshot::prepare_with(
        onto,
        corp,
        EngineConfig::default(),
        PrepareOptions {
            pairs: vec![(ContextSetKind::TextBased, ScoreFunction::Citation)],
        },
    );
    let dir = scratch_dir("subset");
    save_snapshot(&snap, &dir).expect("save");
    let loaded = load_snapshot(&dir, EngineConfig::default()).expect("load");
    assert_eq!(
        loaded.pairs(),
        vec![(ContextSetKind::TextBased, ScoreFunction::Citation)]
    );
    let err = loaded
        .searcher()
        .query(
            "binding",
            ContextSetKind::PatternBased,
            ScoreFunction::Pattern,
            5,
        )
        .unwrap_err();
    assert!(err.to_string().contains("no prestige table"));
    std::fs::remove_dir_all(&dir).unwrap();
}
