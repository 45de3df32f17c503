//! End-to-end and per-layer benchmark of litsearch.
//!
//! One run generates the workload's corpus, prepares a snapshot with
//! `litsearch prepare`, starts `litsearch serve --workers 2` several
//! times, and loads the last server from two closed-loop callers in this
//! process for `--seconds`, checking every answer. With `--trace 1` it
//! instead replays the same inputs through each layer's public calls
//! (see `traced.rs`). The last line of stdout is the run's JSON result.
//! README.md records the workloads, metrics and steadiness evidence.

mod check;
mod json;
mod load;
mod traced;

use check::{Columns, Expected, Spec};
use context_search::config::RelevancyWeights;
use context_search::persist::load_snapshot;
use context_search::{ContextSetKind, EngineConfig, ScoreFunction, Searcher};
use corpus::queries::{generate_queries, QueryConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

pub(crate) struct Workload {
    pub(crate) name: &'static str,
    pub(crate) papers: usize,
    pub(crate) terms: usize,
    /// Results asked for per query.
    pub(crate) limit: usize,
    /// `litsearch prepare` runs per run; `prepare_s` is their median.
    /// One at 16k, where a prepare takes ~25 s of the run's time budget.
    /// A traced run makes as many rounds of the serial prepare and the
    /// stages.
    pub(crate) prepares: usize,
}

pub(crate) const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "wire_6k",
        papers: 6_000,
        terms: 400,
        limit: 10,
        prepares: 3,
    },
    Workload {
        name: "deep_16k",
        papers: 16_000,
        terms: 1_000,
        limit: 100,
        prepares: 1,
    },
];

/// The five prepared (paper set, function) pairs of Figs 5.1–5.3; the
/// query mix rotates over them.
pub(crate) const PAIRS: [(ContextSetKind, ScoreFunction); 5] = [
    (ContextSetKind::TextBased, ScoreFunction::Text),
    (ContextSetKind::TextBased, ScoreFunction::Citation),
    (ContextSetKind::PatternBased, ScoreFunction::Pattern),
    (ContextSetKind::PatternBased, ScoreFunction::Citation),
    (ContextSetKind::PatternBased, ScoreFunction::Text),
];

/// Fresh server starts per run; `setup_s` is their median.
const SETUP_STARTS: usize = 3;

/// Seed of every run's ontology and corpus. A workload's offline inputs
/// stay the same across `--seed`s, so that the snapshot's size and the
/// offline and warm-start times compare one corpus, not ten; `--seed`
/// draws the query mix.
const CORPUS_SEED: u64 = 1;

/// Query sets drawn per run. One set is the paper's ~120 paraphrase
/// queries; five sets from derived seeds make a run's mean query cost
/// depend less on which terms one draw happens to pick.
const QUERY_SETS: u64 = 5;

/// One request of the query mix.
pub(crate) struct Entry {
    pub(crate) query: String,
    pub(crate) kind: ContextSetKind,
    pub(crate) function: ScoreFunction,
    pub(crate) limit: usize,
    /// Index of this request's prestige table in [`Mix::tables`].
    pub(crate) table: usize,
    /// The exact request bytes for a keep-alive connection.
    pub(crate) keep_alive: Vec<u8>,
    /// The same request with `connection: close`.
    pub(crate) close: Vec<u8>,
    pub(crate) expected: Expected,
}

/// The workload's requests, with what their answers must be.
pub(crate) struct Mix {
    pub(crate) entries: Vec<Entry>,
    pub(crate) tables: Vec<Columns>,
    pub(crate) weights: RelevancyWeights,
}

impl Mix {
    /// [`QUERY_SETS`] draws of the paper's ~120 generated paraphrase
    /// queries (seeded from `seed`) rotated over [`PAIRS`], each with its
    /// brute-force answer. Prestige tables and context members are read
    /// from the snapshot files.
    pub(crate) fn build(
        searcher: &Searcher,
        snapshot: &Path,
        seed: u64,
        limit: usize,
    ) -> Result<Self, String> {
        let tables = PAIRS
            .iter()
            .map(|(k, f)| {
                Columns::prestige_file(&snapshot.join(format!(
                    "prestige_{}_{}.json",
                    k.name(),
                    f.name()
                )))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut members = HashMap::new();
        for kind in [ContextSetKind::TextBased, ContextSetKind::PatternBased] {
            let path = snapshot.join(format!("sets_{}.json", kind.name()));
            members.insert(kind, check::members_file(&path)?);
        }
        let weights = EngineConfig::default().relevancy;
        let queries: Vec<_> = (0..QUERY_SETS)
            .flat_map(|k| {
                let config = QueryConfig {
                    seed: seed.wrapping_mul(QUERY_SETS).wrapping_add(k),
                    ..Default::default()
                };
                generate_queries(searcher.ontology(), searcher.corpus(), &config)
            })
            .collect();
        if queries.is_empty() {
            return Err("the generated corpus yields no queries".into());
        }
        let entries = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let table = i % PAIRS.len();
                let (kind, function) = PAIRS[table];
                let body = format!(
                    "{{\"query\":{},\"kind\":\"{}\",\"function\":\"{}\",\"limit\":{limit}}}",
                    json::quote(&q.text),
                    kind.name(),
                    function.name()
                );
                let expected = check::brute_force(
                    searcher,
                    &q.text,
                    kind,
                    &members[&kind],
                    &tables[table],
                    limit,
                    &weights,
                );
                Entry {
                    query: q.text.clone(),
                    kind,
                    function,
                    limit,
                    table,
                    keep_alive: request_bytes(&body, false),
                    close: request_bytes(&body, true),
                    expected,
                }
            })
            .collect();
        Ok(Self {
            entries,
            tables,
            weights,
        })
    }

    /// Check the 200 answer to request `i`.
    pub(crate) fn check(&self, i: usize, body: &[u8]) -> Result<(), String> {
        let e = &self.entries[i];
        let spec = Spec {
            limit: e.limit,
            table: &self.tables[e.table],
            expected: &e.expected,
            weights: &self.weights,
        };
        check::check_answer(body, &spec)
    }
}

fn request_bytes(body: &str, close: bool) -> Vec<u8> {
    format!(
        "POST /v1/search HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{}\r\n{body}",
        body.len(),
        if close { "connection: close\r\n" } else { "" },
    )
    .into_bytes()
}

pub(crate) struct Args {
    pub(crate) workload: &'static Workload,
    pub(crate) seed: u64,
    pub(crate) seconds: u64,
    pub(crate) trace: bool,
    pub(crate) litsearch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let name = get("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let number = |k: &str| {
        get(k)?
            .parse::<u64>()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds,
        trace,
        litsearch: PathBuf::from(get("litsearch")?),
    })
}

/// The run's working directory inside the checkout, removed on drop.
pub(crate) struct WorkDir(pub PathBuf);

impl WorkDir {
    fn create(args: &Args) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_work").join(format!(
            "{}-s{}-{}{}",
            args.workload.name,
            args.seed,
            if args.trace { "t" } else { "" },
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one `litsearch` subcommand to completion.
pub(crate) fn litsearch(args: &Args, argv: &[&str]) -> Result<(), String> {
    let out = Command::new(&args.litsearch)
        .args(argv)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", args.litsearch.display()))?;
    if !out.status.success() {
        return Err(format!(
            "litsearch {} failed ({}): {}",
            argv.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

/// `litsearch generate` with the workload's sizes and [`CORPUS_SEED`].
pub(crate) fn generate(args: &Args, out: &Path) -> Result<(), String> {
    let w = args.workload;
    litsearch(
        args,
        &[
            "generate",
            "--out",
            path_str(out)?,
            "--terms",
            &w.terms.to_string(),
            "--papers",
            &w.papers.to_string(),
            "--seed",
            &CORPUS_SEED.to_string(),
        ],
    )
}

pub(crate) fn path_str(path: &Path) -> Result<&str, String> {
    path.to_str()
        .ok_or_else(|| format!("{} is not UTF-8", path.display()))
}

pub(crate) fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of raw values (sorts them).
pub(crate) fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The run's result line.
pub(crate) struct Report {
    pub(crate) correct: bool,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                    json::quote(name),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The untraced run: every end-to-end metric.
fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let work = WorkDir::create(args)?;
    let data = work.0.join("data");
    let snapshot = work.0.join("snapshot");
    let run_start = Instant::now();
    generate(args, &data)?;
    let gen_s = run_start.elapsed().as_secs_f64();

    let mut prepares = Vec::with_capacity(w.prepares);
    for _ in 0..w.prepares {
        let _ = std::fs::remove_dir_all(&snapshot);
        let started = Instant::now();
        litsearch(
            args,
            &[
                "prepare",
                "--data",
                path_str(&data)?,
                "--out",
                path_str(&snapshot)?,
            ],
        )?;
        prepares.push(started.elapsed().as_secs_f64());
    }
    let snapshot_bytes = dir_bytes(&snapshot)?;

    let mix_start = Instant::now();
    let mix = {
        let loaded =
            load_snapshot(&snapshot, EngineConfig::default()).map_err(|e| e.to_string())?;
        Mix::build(&loaded.searcher(), &snapshot, args.seed, w.limit)?
    };
    let mix_s = mix_start.elapsed().as_secs_f64();

    // Each start is timed from launch to its first correct answer, sent
    // on its own connection with `connection: close` so that no worker
    // stays held by it. The last server stays up for the load.
    let mut setup = Vec::with_capacity(SETUP_STARTS);
    let mut probes = load::Tally::default();
    let mut server = None;
    for start in 0..SETUP_STARTS {
        drop(server.take());
        let launched = Instant::now();
        let s = load::Server::start(&args.litsearch, &snapshot, &work.0, &start.to_string())?;
        let mut probe = load::Caller::new(&mix, s.addr, true);
        let answered = probe.request(0).is_some();
        setup.push(launched.elapsed().as_secs_f64());
        probes.merge(probe.tally);
        if !answered {
            return Err(format!(
                "server start {start} did not give a correct first answer"
            ));
        }
        server = Some(s);
    }
    let server = server.ok_or("no server started")?;

    let (warm, load) = load::closed_loop(&mix, &server, Duration::from_secs(args.seconds))?;
    let peak_rss = server.peak_rss_bytes()?;
    drop(server);

    // Each serving metric is the median over the window's one-second
    // slices, so that a burst of CPU taken by other tenants moves a
    // slice or two, not the run's figure.
    let mut slices: Vec<Slice> = load
        .marks
        .windows(2)
        .map(|m| Slice {
            secs: (m[1].0 - m[0].0).as_secs_f64(),
            cpu_ns: m[1].1.saturating_sub(m[0].1),
            latency_ms: load
                .tally
                .samples
                .iter()
                .filter(|(done, _)| *done >= m[0].0 && *done < m[1].0)
                .map(|&(_, ns)| ns as f64 / 1e6)
                .collect(),
        })
        .collect();
    if slices.iter().any(|s| s.latency_ms.is_empty()) {
        return Err("a one-second slice of the measured window completed no answer".into());
    }
    for s in &mut slices {
        let n = s.latency_ms.len();
        eprintln!(
            "slice: {:.0} answers/s, {:.1} us cpu/answer, p50 {:.3} ms, p90 {:.3} ms",
            n as f64 / s.secs,
            s.cpu_ns as f64 / 1e3 / n as f64,
            quantile(&mut s.latency_ms, 0.5),
            quantile(&mut s.latency_ms, 0.9)
        );
    }
    let mut per_slice =
        |f: &dyn Fn(&mut Slice) -> f64| median(&mut slices.iter_mut().map(f).collect::<Vec<_>>());
    let p50 = per_slice(&|s| quantile(&mut s.latency_ms, 0.50));
    let p90 = per_slice(&|s| quantile(&mut s.latency_ms, 0.90));
    let qps = per_slice(&|s| s.latency_ms.len() as f64 / s.secs);
    let cpu_us = per_slice(&|s| s.cpu_ns as f64 / 1e3 / s.latency_ms.len() as f64);

    let mut all_ms: Vec<f64> = load
        .tally
        .samples
        .iter()
        .map(|&(_, ns)| ns as f64 / 1e6)
        .collect();
    let answers = all_ms.len();
    for q in [0.5, 0.9, 0.99, 0.999] {
        let at = quantile(&mut all_ms, q);
        let above = all_ms.iter().filter(|&&v| v > at).count();
        eprintln!(
            "{}: whole-window p{} {at:.3} ms, {above} of {answers} samples above",
            w.name,
            100.0 * q
        );
    }
    eprintln!(
        "{}: prepares {prepares:.3?} s; setup starts {setup:.3?} s; generate {gen_s:.1} s, mix {mix_s:.1} s; \
         hypervisor steal in the window {:.2} s; run total {:.1} s",
        w.name,
        load.steal_ticks as f64 / 100.0, // ticks of 1/100 s
        run_start.elapsed().as_secs_f64()
    );

    let mut tally = probes;
    tally.merge(warm);
    let wrong = tally.wrong + load.tally.wrong;
    tally.merge(load.tally);
    let metrics = vec![
        ("setup_s", median(&mut setup), "s"),
        ("prepare_s", median(&mut prepares), "s"),
        ("snapshot_mb", snapshot_bytes as f64 / 1e6, "MB"),
        ("server_rss_mb", peak_rss as f64 / 1e6, "MB"),
        ("p50_ms", p50, "ms"),
        ("p90_ms", p90, "ms"),
        ("qps", qps, "1/s"),
        ("cpu_us_per_req", cpu_us, "us"),
    ];
    Ok(Report {
        correct: wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// One second of the measured window.
struct Slice {
    secs: f64,
    cpu_ns: u64,
    latency_ms: Vec<f64>,
}

/// Total bytes of the regular files in `dir`.
pub(crate) fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.trace {
            traced::run(&args)
        } else {
            run(&args)
        }
    });
    match outcome {
        Ok(report) => {
            println!("{}", report.line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
