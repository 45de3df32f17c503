//! Persistence of the offline-computed state.
//!
//! The paradigm's whole point is that context assignment and prestige
//! computation happen *before* query time (paper §1: "two query
//! independent pre-processing steps"). This module serializes the two
//! artifacts — [`ContextPaperSets`] and [`PrestigeScores`] — to a
//! stable JSON representation, and composes them (plus the ontology and
//! corpus) into a full [`EngineSnapshot`] directory via
//! [`save_snapshot`] / [`load_snapshot`], so a deployment prepares once
//! and warm-starts the search service from disk — skipping context
//! assignment, pattern mining, and every per-context prestige/PageRank
//! computation on load.
//!
//! Snapshot directory layout (versioned by [`SnapshotHeader`]):
//! `snapshot.json` (header, written last), `ontology.obo`,
//! `corpus.json`, `sets_{kind}.json`, and one
//! `prestige_{kind}_{function}.json` per prepared pair — the same file
//! names and JSON formats the `litsearch` CLI uses for its piecemeal
//! artifacts, so the two stay mutually readable.

use crate::config::EngineConfig;
use crate::context::{ContextId, ContextPaperSets, ContextSetKind};
use crate::indexes::CorpusIndex;
use crate::prestige::{PrestigeScores, ScoreFunction};
use crate::snapshot::{EngineSnapshot, PrestigePair};
use corpus::store::CorpusFile;
use corpus::{Corpus, PaperId};
use ontology::Ontology;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Stable on-disk form of [`ContextPaperSets`].
#[derive(Debug, Serialize, Deserialize)]
pub struct ContextSetsFile {
    /// "text" or "pattern".
    pub kind: String,
    /// `(context, members)` pairs, sorted by context id.
    pub members: Vec<(u32, Vec<u32>)>,
    /// `(context, representative)` pairs.
    pub representatives: Vec<(u32, u32)>,
    /// `(context, ancestor-it-inherited-from)` pairs.
    pub inherited_from: Vec<(u32, u32)>,
}

/// Stable on-disk form of [`PrestigeScores`]: native sorted columns,
/// so loading is a validation pass instead of a rebuild-and-sort.
#[derive(Debug, Serialize, Deserialize)]
pub struct PrestigeColumnsFile {
    /// "citation", "text", or "pattern".
    pub function: String,
    /// `(context, papers, values)` column triples: contexts ascending,
    /// papers ascending within each context, values parallel.
    pub columns: Vec<(u32, Vec<u32>, Vec<f64>)>,
}

/// The magic string identifying a snapshot directory's header file.
pub const SNAPSHOT_MAGIC: &str = "litsearch-snapshot";

/// The on-disk snapshot format version. Bump on any layout change;
/// [`load_snapshot`] rejects every other version with a clean
/// [`PersistError::VersionMismatch`].
///
/// Version history: 1 = pair-shaped prestige files (no longer read);
/// 2 = columnar prestige files ([`PrestigeColumnsFile`]).
pub const SNAPSHOT_VERSION: u32 = 2;

/// The `snapshot.json` header of a snapshot directory: identifies the
/// format, versions it, and records enough shape to cross-check the
/// payload files against.
#[derive(Debug, Serialize, Deserialize)]
pub struct SnapshotHeader {
    /// Always [`SNAPSHOT_MAGIC`].
    pub magic: String,
    /// Always [`SNAPSHOT_VERSION`] for files this build writes.
    pub version: u32,
    /// Paper count of the persisted corpus.
    pub papers: usize,
    /// Term count of the persisted ontology.
    pub terms: usize,
    /// The prepared (kind, function) prestige pairs, by name.
    pub pairs: Vec<(String, String)>,
}

/// Errors raised when loading persisted state.
#[derive(Debug)]
pub enum PersistError {
    /// The JSON was malformed.
    Json(serde_json::Error),
    /// An enum discriminant string was unknown.
    UnknownTag(String),
    /// A snapshot file could not be read or written.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The header's magic string is not [`SNAPSHOT_MAGIC`] — this is
    /// not a snapshot directory.
    BadMagic(String),
    /// The snapshot was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// A payload file contradicts the header (wrong tag, wrong shape).
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Json(e) => write!(f, "malformed persisted state: {e}"),
            Self::UnknownTag(t) => write!(f, "unknown tag {t:?}"),
            Self::Io { path, source } => {
                write!(f, "snapshot I/O failed on {}: {source}", path.display())
            }
            Self::BadMagic(m) => write!(
                f,
                "not a snapshot: header magic is {m:?}, expected {SNAPSHOT_MAGIC:?}"
            ),
            Self::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} is not supported \
                 (this build reads version {expected})"
            ),
            Self::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Json(e) => Some(e),
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        Self::Json(e)
    }
}

/// Serialize context paper sets to JSON.
pub fn context_sets_to_json(sets: &ContextPaperSets) -> Result<String, PersistError> {
    let mut members: Vec<(u32, Vec<u32>)> = sets
        .contexts()
        .map(|c| (c.0, sets.members(c).iter().map(|p| p.0).collect()))
        .collect();
    members.sort_unstable_by_key(|&(c, _)| c);
    let mut representatives: Vec<(u32, u32)> = sets
        .representatives
        .iter()
        .map(|(&c, &p)| (c.0, p.0))
        .collect();
    representatives.sort_unstable();
    let mut inherited_from: Vec<(u32, u32)> = sets
        .inherited_from
        .iter()
        .map(|(&c, &a)| (c.0, a.0))
        .collect();
    inherited_from.sort_unstable();
    let file = ContextSetsFile {
        kind: match sets.kind {
            ContextSetKind::TextBased => "text".to_string(),
            ContextSetKind::PatternBased => "pattern".to_string(),
        },
        members,
        representatives,
        inherited_from,
    };
    Ok(serde_json::to_string(&file)?)
}

/// Load context paper sets from JSON produced by
/// [`context_sets_to_json`].
pub fn context_sets_from_json(json: &str) -> Result<ContextPaperSets, PersistError> {
    context_sets_from_file(serde_json::from_str(json)?)
}

fn context_sets_from_file(file: ContextSetsFile) -> Result<ContextPaperSets, PersistError> {
    let kind = match file.kind.as_str() {
        "text" => ContextSetKind::TextBased,
        "pattern" => ContextSetKind::PatternBased,
        other => return Err(PersistError::UnknownTag(other.to_string())),
    };
    let members = once_per_context(
        "members",
        file.members
            .into_iter()
            .map(|(c, ps)| (c, ps.into_iter().map(PaperId).collect())),
    )?;
    let mut sets = ContextPaperSets::new(members, kind);
    sets.representatives = once_per_context(
        "representatives",
        file.representatives
            .into_iter()
            .map(|(c, p)| (c, PaperId(p))),
    )?;
    sets.inherited_from = once_per_context(
        "inherited_from",
        file.inherited_from
            .into_iter()
            .map(|(c, a)| (c, ontology::TermId(a))),
    )?;
    Ok(sets)
}

/// Collect one field's `(context, value)` entries, refusing a context
/// listed twice: a map would keep the last entry and drop the other
/// silently.
fn once_per_context<V>(
    field: &str,
    entries: impl ExactSizeIterator<Item = (u32, V)>,
) -> Result<HashMap<ContextId, V>, PersistError> {
    let mut map = HashMap::with_capacity(entries.len());
    for (c, value) in entries {
        if map.insert(ontology::TermId(c), value).is_some() {
            return Err(PersistError::Corrupt(format!(
                "{field} lists context {c} twice"
            )));
        }
    }
    Ok(map)
}

/// Serialize prestige scores to JSON (the columnar shape — the
/// in-memory columns go to disk as-is, contexts ascending).
pub fn prestige_to_json(prestige: &PrestigeScores) -> Result<String, PersistError> {
    let columns: Vec<(u32, Vec<u32>, Vec<f64>)> = prestige
        .iter_columns()
        .map(|(c, papers, values)| (c.0, papers.iter().map(|p| p.0).collect(), values.to_vec()))
        .collect();
    let file = PrestigeColumnsFile {
        function: prestige.function.name().to_string(),
        columns,
    };
    Ok(serde_json::to_string(&file)?)
}

/// Load prestige scores from JSON produced by [`prestige_to_json`].
pub fn prestige_from_json(json: &str) -> Result<PrestigeScores, PersistError> {
    let file: PrestigeColumnsFile = serde_json::from_str(json)?;
    let function = function_from_name(&file.function)?;
    let mut cols: Vec<(ContextId, Vec<PaperId>, Vec<f64>)> = Vec::with_capacity(file.columns.len());
    for (c, papers, values) in file.columns {
        if papers.len() != values.len() {
            return Err(PersistError::Corrupt(format!(
                "prestige context {c}: {} papers but {} values",
                papers.len(),
                values.len()
            )));
        }
        cols.push((
            ontology::TermId(c),
            papers.into_iter().map(PaperId).collect(),
            values,
        ));
    }
    let table = PrestigeScores::from_context_columns(cols, function);
    // The columns are sorted by context: a repeat sits next to its
    // first column.
    if let Some(c) = table
        .contexts()
        .zip(table.contexts().skip(1))
        .find_map(|(a, b)| (a == b).then_some(a))
    {
        return Err(PersistError::Corrupt(format!(
            "prestige table lists context {} twice",
            c.0
        )));
    }
    Ok(table)
}

fn sets_file_name(kind: ContextSetKind) -> String {
    format!("sets_{}.json", kind.name())
}

fn prestige_file_name(kind: ContextSetKind, function: ScoreFunction) -> String {
    format!("prestige_{}_{}.json", kind.name(), function.name())
}

fn read_file(path: &Path) -> Result<String, PersistError> {
    std::fs::read_to_string(path).map_err(|source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn write_file(path: &Path, content: &str) -> Result<(), PersistError> {
    std::fs::write(path, content).map_err(|source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn kind_from_name(name: &str) -> Result<ContextSetKind, PersistError> {
    match name {
        "text" => Ok(ContextSetKind::TextBased),
        "pattern" => Ok(ContextSetKind::PatternBased),
        other => Err(PersistError::UnknownTag(other.to_string())),
    }
}

fn function_from_name(name: &str) -> Result<ScoreFunction, PersistError> {
    match name {
        "citation" => Ok(ScoreFunction::Citation),
        "text" => Ok(ScoreFunction::Text),
        "pattern" => Ok(ScoreFunction::Pattern),
        other => Err(PersistError::UnknownTag(other.to_string())),
    }
}

/// Name the payload file `name` in a [`PersistError::Corrupt`] raised
/// while reading it.
fn in_file(name: &str) -> impl Fn(PersistError) -> PersistError + '_ {
    move |e| match e {
        PersistError::Corrupt(what) => PersistError::Corrupt(format!("{name}: {what}")),
        other => other,
    }
}

/// Check one column of the payload file `name` against the header:
/// its context must be an ontology term and its papers corpus papers.
/// A query reads these entries as they stand, so an entry past the
/// ontology or the corpus is refused here rather than misread there.
fn check_column(
    name: &str,
    header: &SnapshotHeader,
    context: u32,
    papers: impl IntoIterator<Item = u32>,
) -> Result<(), PersistError> {
    if context as usize >= header.terms {
        return Err(PersistError::Corrupt(format!(
            "{name}: context {context} is past the header's {} terms",
            header.terms
        )));
    }
    if let Some(p) = papers.into_iter().find(|&p| p as usize >= header.papers) {
        return Err(PersistError::Corrupt(format!(
            "{name}: context {context} names paper {p}, past the header's {} papers",
            header.papers
        )));
    }
    Ok(())
}

/// Write a full snapshot directory: header, ontology, corpus, both
/// context paper sets, and every prepared prestige table.
///
/// The header is written last, so a directory interrupted mid-save
/// never presents itself as loadable; a header an earlier save left is
/// removed before any payload file is written, so it cannot vouch for a
/// mix of old and new files. The corpus is serialized with the
/// ontology's term names (in term-id order) as its extra texts — the
/// same convention `generate_corpus` and the CLI use — so the rebuilt
/// vocabulary, and therefore every TF-IDF vector and query analysis, is
/// bit-identical after [`load_snapshot`].
///
/// The payload is written on two lanes: a second thread writes the
/// ontology and the corpus, while the calling thread writes both sets
/// files and then the prestige files. Both lanes run to the end; then
/// the corpus lane's error wins, and after it the tables lane's first,
/// which is the error writing the files one after another in that
/// order gives. The header follows only when both lanes succeed.
pub fn save_snapshot(snapshot: &EngineSnapshot, dir: &Path) -> Result<(), PersistError> {
    let _span = obs::span("persist.save_snapshot");
    std::fs::create_dir_all(dir).map_err(|source| PersistError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let header_path = dir.join("snapshot.json");
    if let Err(source) = std::fs::remove_file(&header_path) {
        if source.kind() != std::io::ErrorKind::NotFound {
            return Err(PersistError::Io {
                path: header_path,
                source,
            });
        }
    }
    let pairs = snapshot.pairs();
    let (corpus_lane, tables_lane) = std::thread::scope(|scope| {
        let corpus = scope.spawn(|| save_corpus(snapshot, dir));
        let tables = save_tables(snapshot, dir, &pairs);
        (corpus.join(), tables)
    });
    corpus_lane.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
    tables_lane?;
    let header = SnapshotHeader {
        magic: SNAPSHOT_MAGIC.to_string(),
        version: SNAPSHOT_VERSION,
        papers: snapshot.corpus().len(),
        terms: snapshot.ontology().len(),
        pairs: pairs
            .iter()
            .map(|&(k, f)| (k.name().to_string(), f.name().to_string()))
            .collect(),
    };
    write_file(&header_path, &serde_json::to_string_pretty(&header)?)?;
    obs::counter("persist.snapshots_saved", 1);
    Ok(())
}

/// The corpus lane of [`save_snapshot`]: `ontology.obo`, then
/// `corpus.json`.
fn save_corpus(snapshot: &EngineSnapshot, dir: &Path) -> Result<(), PersistError> {
    let ontology = snapshot.ontology();
    write_file(
        &dir.join("ontology.obo"),
        &ontology::obo::write_obo(ontology),
    )?;
    let term_names: Vec<String> = ontology
        .term_ids()
        .map(|t| ontology.term(t).name.clone())
        .collect();
    write_file(
        &dir.join("corpus.json"),
        &snapshot.corpus().to_json(&term_names),
    )
}

/// The tables lane of [`save_snapshot`]: both sets files, then the
/// prestige files of `pairs` in order, stopping at the first error.
fn save_tables(
    snapshot: &EngineSnapshot,
    dir: &Path,
    pairs: &[PrestigePair],
) -> Result<(), PersistError> {
    for kind in [ContextSetKind::TextBased, ContextSetKind::PatternBased] {
        write_file(
            &dir.join(sets_file_name(kind)),
            &context_sets_to_json(snapshot.sets(kind))?,
        )?;
    }
    for &(kind, function) in pairs {
        let table = snapshot.prestige(kind, function).ok_or_else(|| {
            PersistError::Corrupt(format!(
                "pairs() listed unprepared table {}/{}",
                kind.name(),
                function.name()
            ))
        })?;
        write_file(
            &dir.join(prestige_file_name(kind, function)),
            &prestige_to_json(table)?,
        )?;
    }
    Ok(())
}

/// Warm-start: load a snapshot directory written by [`save_snapshot`].
///
/// Rebuilds only the query-time index (tokenization, TF-IDF vectors,
/// the citation graph, and one global PageRank) — context assignment,
/// pattern mining, and every per-context prestige/PageRank computation
/// are read back from disk instead of recomputed. The returned snapshot
/// has `patterns() == None`.
///
/// After the header and the ontology, two lanes run side by side: a
/// second thread reads and checks both context sets files and every
/// prestige file, while the calling thread reads, checks and analyzes
/// the corpus and builds the index. Both lanes run to the end; then the
/// corpus lane's error wins, and after it the tables lane's first, which
/// is the error loading the files one after another in that order gives.
pub fn load_snapshot(
    dir: &Path,
    config: EngineConfig,
) -> Result<Arc<EngineSnapshot>, PersistError> {
    let _span = obs::span("persist.load_snapshot");
    let clock = obs::MonotonicClock::default();
    let load_start_ns = obs::Clock::now_ns(&clock);
    let header: SnapshotHeader = serde_json::from_str(&read_file(&dir.join("snapshot.json"))?)?;
    if header.magic != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic(header.magic));
    }
    if header.version != SNAPSHOT_VERSION {
        return Err(PersistError::VersionMismatch {
            found: header.version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let ontology = ontology::obo::parse_obo(&read_file(&dir.join("ontology.obo"))?)
        .map_err(|e| PersistError::Corrupt(format!("ontology.obo: {e}")))?;
    let (corpus_lane, tables_lane) = std::thread::scope(|scope| {
        let tables = scope.spawn(|| load_tables(dir, &header));
        let corpus = load_corpus(dir, &header, &ontology, &config);
        (corpus, tables.join())
    });
    let tables_lane = tables_lane.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    let (corpus, index) = corpus_lane?;
    let tables = tables_lane?;
    obs::counter("persist.snapshots_loaded", 1);
    // Surface parse-bound load cost directly (the span only reaches the
    // histogram; the gauge makes the latest load time greppable in any
    // metrics snapshot).
    let load_ms = (obs::Clock::now_ns(&clock).saturating_sub(load_start_ns)) as f64 / 1e6;
    obs::gauge("persist.load_snapshot_ms", load_ms);
    Ok(Arc::new(EngineSnapshot::from_parts(
        ontology,
        corpus,
        config,
        index,
        tables.text_sets,
        tables.pattern_sets,
        tables.prestige,
        None,
    )))
}

/// The corpus lane of [`load_snapshot`]: read, decode, check and
/// analyze `corpus.json`, then build the index.
fn load_corpus(
    dir: &Path,
    header: &SnapshotHeader,
    ontology: &Ontology,
    config: &EngineConfig,
) -> Result<(Corpus, CorpusIndex), PersistError> {
    let text = read_file(&dir.join("corpus.json"))?;
    let file: CorpusFile = serde_json::from_str(&text)?;
    // The text goes before the analysis, which holds the most memory
    // while the tables lane holds its own.
    drop(text);
    check_corpus_terms(&file, header)?;
    let corpus =
        Corpus::from_file(file).map_err(|e| PersistError::Corrupt(format!("corpus.json: {e}")))?;
    if corpus.len() != header.papers || ontology.len() != header.terms {
        return Err(PersistError::Corrupt(format!(
            "header promises {} papers / {} terms, payload has {} / {}",
            header.papers,
            header.terms,
            corpus.len(),
            ontology.len()
        )));
    }
    let index = CorpusIndex::build(ontology, &corpus, &config.pagerank);
    Ok((corpus, index))
}

/// Check the ontology terms the corpus names against the header: an
/// evidence term or a paper's true topic past the ontology is refused.
fn check_corpus_terms(file: &CorpusFile, header: &SnapshotHeader) -> Result<(), PersistError> {
    let past = |term: u32| term as usize >= header.terms;
    if let Some((term, _)) = file.evidence.iter().find(|(term, _)| past(*term)) {
        return Err(PersistError::Corrupt(format!(
            "corpus.json: evidence names term {term}, past the header's {} terms",
            header.terms
        )));
    }
    for paper in &file.papers {
        if let Some(topic) = paper.true_topics.iter().find(|t| past(t.0)) {
            return Err(PersistError::Corrupt(format!(
                "corpus.json: paper {} names true topic {}, past the header's {} terms",
                paper.id.0, topic.0, header.terms
            )));
        }
    }
    Ok(())
}

/// What the tables lane of [`load_snapshot`] reads: both context paper
/// sets and every prestige table the header lists.
struct Tables {
    text_sets: ContextPaperSets,
    pattern_sets: ContextPaperSets,
    prestige: HashMap<PrestigePair, PrestigeScores>,
}

/// The tables lane of [`load_snapshot`]: read and check the two sets
/// files, then the prestige files in the header's order, stopping at
/// the first error.
fn load_tables(dir: &Path, header: &SnapshotHeader) -> Result<Tables, PersistError> {
    let text_sets = load_sets(dir, header, ContextSetKind::TextBased)?;
    let pattern_sets = load_sets(dir, header, ContextSetKind::PatternBased)?;
    let mut prestige: HashMap<PrestigePair, PrestigeScores> = HashMap::new();
    for (kind_name, function_name) in &header.pairs {
        let kind = kind_from_name(kind_name)?;
        let function = function_from_name(function_name)?;
        let name = prestige_file_name(kind, function);
        let table = prestige_from_json(&read_file(&dir.join(&name))?).map_err(in_file(&name))?;
        if table.function != function {
            return Err(PersistError::Corrupt(format!(
                "{name} holds a {} table",
                table.function.name()
            )));
        }
        for (c, papers, _) in table.iter_columns() {
            // The columns are ascending: the last paper is the largest,
            // and a repeat sits next to its first entry.
            check_column(&name, header, c.0, papers.last().map(|p| p.0))?;
            if let Some((p, _)) = papers
                .iter()
                .zip(papers.iter().skip(1))
                .find(|(a, b)| a == b)
            {
                return Err(PersistError::Corrupt(format!(
                    "{name}: context {} lists paper {} twice",
                    c.0, p.0
                )));
            }
        }
        prestige.insert((kind, function), table);
    }
    Ok(Tables {
        text_sets,
        pattern_sets,
        prestige,
    })
}

/// Read and check the `kind` context sets file of a snapshot.
fn load_sets(
    dir: &Path,
    header: &SnapshotHeader,
    kind: ContextSetKind,
) -> Result<ContextPaperSets, PersistError> {
    let name = sets_file_name(kind);
    let file: ContextSetsFile = serde_json::from_str(&read_file(&dir.join(&name))?)?;
    for (c, members) in &file.members {
        check_column(&name, header, *c, members.iter().copied())?;
    }
    for &(c, p) in &file.representatives {
        check_column(&name, header, c, [p])?;
    }
    for &(c, ancestor) in &file.inherited_from {
        check_column(&name, header, c, [])?;
        check_column(&name, header, ancestor, [])?;
    }
    let sets = context_sets_from_file(file).map_err(in_file(&name))?;
    if sets.kind != kind {
        return Err(PersistError::Corrupt(format!(
            "{name} holds a {:?} set",
            sets.kind
        )));
    }
    Ok(sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontology::TermId;

    fn sample_sets() -> ContextPaperSets {
        let mut members = HashMap::new();
        members.insert(TermId(3), vec![PaperId(5), PaperId(1)]);
        members.insert(TermId(7), vec![PaperId(2)]);
        let mut sets = ContextPaperSets::new(members, ContextSetKind::PatternBased);
        sets.representatives.insert(TermId(3), PaperId(1));
        sets.inherited_from.insert(TermId(7), TermId(3));
        sets
    }

    #[test]
    fn context_sets_round_trip() {
        let sets = sample_sets();
        let json = context_sets_to_json(&sets).unwrap();
        let loaded = context_sets_from_json(&json).unwrap();
        assert_eq!(loaded.kind, sets.kind);
        assert_eq!(loaded.members(TermId(3)), sets.members(TermId(3)));
        assert_eq!(loaded.members(TermId(7)), sets.members(TermId(7)));
        assert_eq!(loaded.representatives, sets.representatives);
        assert_eq!(loaded.inherited_from, sets.inherited_from);
    }

    #[test]
    fn prestige_round_trips() {
        let mut scores = HashMap::new();
        scores.insert(TermId(3), vec![(PaperId(1), 0.25), (PaperId(5), 1.0)]);
        let prestige = PrestigeScores::new(scores, ScoreFunction::Text);
        let json = prestige_to_json(&prestige).unwrap();
        let loaded = prestige_from_json(&json).unwrap();
        assert_eq!(loaded.function, ScoreFunction::Text);
        assert_eq!(loaded.scores(TermId(3)), prestige.scores(TermId(3)));
    }

    #[test]
    fn v2_column_length_mismatch_is_corrupt() {
        let json = r#"{"function":"text","columns":[[3,[1,5],[0.25]]]}"#;
        assert!(matches!(
            prestige_from_json(json),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(matches!(
            context_sets_from_json("{"),
            Err(PersistError::Json(_))
        ));
        assert!(matches!(
            prestige_from_json(r#"{"function":"voodoo","columns":[]}"#),
            Err(PersistError::UnknownTag(_))
        ));
        // A value of the wrong type inside the columns is reported as
        // such, not as a missing field of some other shape.
        let err = prestige_from_json(r#"{"function":"text","columns":[[3,[1],"x"]]}"#).unwrap_err();
        assert!(matches!(err, PersistError::Json(_)), "{err}");
        assert!(!err.to_string().contains("scores"), "{err}");
        assert!(matches!(
            context_sets_from_json(
                r#"{"kind":"voodoo","members":[],"representatives":[],"inherited_from":[]}"#
            ),
            Err(PersistError::UnknownTag(_))
        ));
    }

    #[test]
    fn json_is_stable_and_sorted() {
        let sets = sample_sets();
        let a = context_sets_to_json(&sets).unwrap();
        let b = context_sets_to_json(&sets).unwrap();
        assert_eq!(a, b, "serialization must be deterministic");
        // Context 3 precedes context 7 in the output.
        assert!(a.find("[3,").unwrap() < a.find("[7,").unwrap());
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("litsearch_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn header_json(magic: &str, version: u32) -> String {
        format!(r#"{{"magic":{magic:?},"version":{version},"papers":0,"terms":0,"pairs":[]}}"#)
    }

    #[test]
    fn loading_a_non_snapshot_is_a_clean_error() {
        let dir = scratch_dir("badmagic");
        std::fs::write(dir.join("snapshot.json"), header_json("not-a-snapshot", 1)).unwrap();
        let err = load_snapshot(&dir, EngineConfig::default()).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loading_a_future_version_is_a_clean_error() {
        // Version 1 (pair-shaped prestige files) is as unreadable as a
        // version from the future.
        for version in [1, 99] {
            let dir = scratch_dir("version");
            std::fs::write(
                dir.join("snapshot.json"),
                header_json(SNAPSHOT_MAGIC, version),
            )
            .unwrap();
            let err = load_snapshot(&dir, EngineConfig::default()).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::VersionMismatch {
                        found,
                        expected: SNAPSHOT_VERSION
                    } if found == version
                ),
                "{err}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn missing_and_garbled_snapshot_files_are_clean_errors() {
        // No header at all → Io, not a panic.
        let dir = scratch_dir("missing");
        let err = load_snapshot(&dir, EngineConfig::default()).unwrap_err();
        assert!(matches!(err, PersistError::Io { .. }), "{err}");
        // A valid header over garbage payloads → Json/Corrupt, not a panic.
        std::fs::write(
            dir.join("snapshot.json"),
            header_json(SNAPSHOT_MAGIC, SNAPSHOT_VERSION),
        )
        .unwrap();
        std::fs::write(dir.join("ontology.obo"), "[Term]\nthis is not obo").unwrap();
        let err = load_snapshot(&dir, EngineConfig::default()).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt(_) | PersistError::Io { .. }),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
