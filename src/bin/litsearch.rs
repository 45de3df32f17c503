//! `litsearch` — command-line front-end for the context-based
//! literature search library.
//!
//! The offline/online split of the paper as a pipeline of commands:
//!
//! ```text
//! litsearch generate --terms 400 --papers 2000 --out ./data
//! litsearch assign   --data ./data --kind pattern
//! litsearch prestige --data ./data --kind pattern --function pattern
//! litsearch search   --data ./data --kind pattern --function pattern \
//!                    --query "kinase signaling pathway"
//! litsearch stats    --data ./data
//! ```
//!
//! `generate` writes `ontology.obo` (the standard GO distribution
//! format) and `corpus.json`; `assign`/`prestige` write prepare's sets
//! and tables next to them, in the snapshot's file formats;
//! `search` prepares the one requested table (or loads a `prepare`d
//! snapshot) and prints ranked results.

use litsearch::context_search::assign::{build_pattern_sets, build_text_sets, patterns_by_context};
use litsearch::context_search::indexes::CorpusIndex;
use litsearch::context_search::persist::{
    context_sets_to_json, load_snapshot, prestige_to_json, save_snapshot,
};
use litsearch::context_search::{
    ContextSetKind, EngineConfig, EngineSnapshot, PrepareOptions, ScoreFunction, Searcher,
};
use litsearch::corpus::Corpus;
use litsearch::ontology::obo::{parse_obo, write_obo};
use litsearch::ontology::Ontology;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// One subcommand: what runs it and the flags it reads.
struct Command {
    name: &'static str,
    run: fn(&Flags) -> Result<(), String>,
    /// Flags that take a value, space-separated.
    values: &'static str,
    /// Flags that take none (present means on), space-separated.
    switches: &'static str,
}

/// Flags every command accepts besides its own.
const GLOBAL_FLAGS: &str = "metrics trace trace-jsonl";

const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        run: cmd_generate,
        values: "out terms papers seed",
        switches: "",
    },
    Command {
        name: "assign",
        run: cmd_assign,
        values: "data kind build-threads",
        switches: "",
    },
    Command {
        name: "prestige",
        run: cmd_prestige,
        values: "data kind function build-threads",
        switches: "",
    },
    Command {
        name: "prepare",
        run: cmd_prepare,
        values: "data out build-threads",
        switches: "",
    },
    Command {
        name: "search",
        run: cmd_search,
        values: "data snapshot kind function query limit repeat build-threads",
        switches: "",
    },
    Command {
        name: "stats",
        run: cmd_stats,
        values: "data",
        switches: "",
    },
    Command {
        name: "trace",
        run: cmd_trace,
        values: "file",
        switches: "",
    },
    Command {
        name: "top",
        run: cmd_top,
        values: "snapshot seed target threads queries qps kind function limit window \
                 slow-threshold-ms slow-capacity quality refresh-ms",
        switches: "once json fail-on-violation fail-on-shed",
    },
    Command {
        name: "quality",
        run: cmd_quality,
        values: "snapshot seed queries sample-every limit baseline write-baseline report out",
        switches: "fail-on-drift",
    },
    Command {
        name: "serve",
        run: cmd_serve,
        values: "snapshot seed addr port workers queue-depth deadline-ms kind function limit \
                 window slow-threshold-ms slow-capacity quality port-file slow-jsonl",
        switches: "no-shed",
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("error: unknown command {name:?}\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match Flags::parse(command, &args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Global flag: `--metrics PATH` turns on telemetry for any command
    // and writes a JSON MetricsSnapshot to PATH on success.
    let metrics_path = flags.get("metrics").map(PathBuf::from);
    if metrics_path.is_some() {
        obs::enable();
    }
    // Global flags: `--trace PATH` (Chrome trace format, loadable in
    // Perfetto / chrome://tracing) and `--trace-jsonl PATH` (one event
    // per line) capture per-query explain traces for any command.
    let trace_path = flags.get("trace").map(PathBuf::from);
    let trace_jsonl_path = flags.get("trace-jsonl").map(PathBuf::from);
    if trace_path.is_some() || trace_jsonl_path.is_some() {
        let id = obs::trace_start();
        eprintln!("tracing enabled (trace id {id})");
    }
    match (command.run)(&flags) {
        Ok(()) => {
            if let Some(path) = &metrics_path {
                if let Err(e) = obs::write_json(path) {
                    eprintln!("error: cannot write metrics to {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("metrics written to {}", path.display());
            }
            if trace_path.is_some() || trace_jsonl_path.is_some() {
                let Some(data) = obs::trace_finish() else {
                    eprintln!("error: trace was started but no data collected");
                    return ExitCode::FAILURE;
                };
                if data.dropped > 0 {
                    eprintln!(
                        "warning: trace buffer overflowed, {} event(s) dropped",
                        data.dropped
                    );
                }
                for (path, chrome) in [(&trace_path, true), (&trace_jsonl_path, false)] {
                    let Some(path) = path else { continue };
                    let res = if chrome {
                        data.write_chrome(path)
                    } else {
                        data.write_jsonl(path)
                    };
                    if let Err(e) = res {
                        eprintln!("error: cannot write trace to {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                    eprintln!(
                        "trace {} ({} events) written to {}",
                        data.trace_id,
                        data.events.len(),
                        path.display()
                    );
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `litsearch trace --file PATH`: summarize a previously captured
/// Chrome-format trace into a per-span self-time tree.
fn cmd_trace(flags: &Flags) -> Result<(), String> {
    let path = flags.require("file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let data = obs::TraceData::from_chrome_json(&text)
        .map_err(|e| format!("{path} is not a Chrome trace: {e}"))?;
    print!("{}", data.summary().render());
    if data.dropped > 0 {
        eprintln!(
            "warning: the trace sink dropped {} event(s) during capture \
             (tracked live as the obs.trace.dropped_events counter)",
            data.dropped
        );
    }
    Ok(())
}

/// The serving searcher: a warm snapshot from disk, or a tiny
/// in-process demo build when no `--snapshot` is given.
fn serve_searcher(flags: &Flags, seed: u64) -> Result<Searcher, String> {
    if let Some(dir) = flags.get("snapshot") {
        eprintln!("loading snapshot from {dir}…");
        let snapshot =
            load_snapshot(Path::new(dir), EngineConfig::default()).map_err(|e| e.to_string())?;
        Ok(snapshot.searcher())
    } else {
        eprintln!("no --snapshot: preparing a tiny in-process demo snapshot…");
        let snapshot = litsearch::demo::snapshot(litsearch::demo::Scale::Tiny, seed);
        Ok(snapshot.searcher())
    }
}

/// The (searcher, query texts) workload shared by `top` and `quality`:
/// [`serve_searcher`]'s snapshot and queries generated from it (40 for
/// the demo build).
fn dashboard_workload(flags: &Flags, seed: u64) -> Result<(Searcher, Vec<String>), String> {
    use litsearch::corpus::queries::{generate_queries, QueryConfig};

    let searcher = serve_searcher(flags, seed)?;
    let mut config = QueryConfig {
        seed,
        ..Default::default()
    };
    if flags.get("snapshot").is_none() {
        config.n_queries = 40;
    }
    let queries: Vec<String> = generate_queries(searcher.ontology(), searcher.corpus(), &config)
        .into_iter()
        .map(|q| q.text)
        .collect();
    if queries.is_empty() {
        return Err("workload produced no queries".to_string());
    }
    Ok((searcher, queries))
}

/// `serve`'s and `top`'s `--kind` and `--function`, pattern and
/// pattern when absent.
fn serve_pair(flags: &Flags) -> Result<(ContextSetKind, ScoreFunction), String> {
    let kind = match flags.get("kind") {
        Some(_) => parse_kind(flags)?,
        None => ContextSetKind::PatternBased,
    };
    let function = match flags.get("function") {
        Some(_) => parse_function(flags)?,
        None => ScoreFunction::Pattern,
    };
    Ok((kind, function))
}

/// `litsearch top`: drive keep-alive `/v1/search` load at a server and
/// render the serving dashboard — windowed per-series latencies, SLO
/// burn rates, and the slow-query leaderboard. `--target URL` drives a
/// running server. Without it, `top` starts the server in process as
/// `litsearch serve` does, one worker per client thread, so every row
/// but the client's is time the server measured, and `--quality N`
/// shadow-scores on that server. `--qps R` sends each client's
/// requests at R a second (an open loop). `--once --json` prints one
/// machine-readable report for CI.
fn cmd_top(flags: &Flags) -> Result<(), String> {
    use bench::load::{host_port, LoadConfig, LoadHarness, LoopMode};

    // Every flag is read before the snapshot loads: loading a large
    // snapshot costs real time, and a typo should fail now.
    let seed = flags.get_usize("seed", 2007)? as u64;
    let target = flags.get("target");
    if let Some(target) = target {
        host_port(target)?;
        if flags.get("quality").is_some() {
            return Err(
                "--quality shadow-scores on the server: pass it to `litsearch serve`, \
                 not to `top --target`"
                    .to_string(),
            );
        }
    }
    let (kind, function) = serve_pair(flags)?;
    let threads = flags.get_usize("threads", 4)?.max(1);
    let mode = match flags.get("qps") {
        None => LoopMode::Closed,
        Some(rate) => LoopMode::Open {
            qps_per_worker: rate.parse().map_err(|_| "--qps must be a number")?,
        },
    };
    let config = LoadConfig {
        threads,
        queries_per_thread: flags.get_usize("queries", 200)?,
        mode,
        limit: flags.get_usize("limit", 10)?,
        kind,
        function,
        window_secs: flags.get_usize("window", 60)? as u64,
        slow_threshold_ns: flags.get_usize("slow-threshold-ms", 50)? as u64 * 1_000_000,
        slow_capacity: flags.get_usize("slow-capacity", 10)?,
    };
    let refresh_ms = if flags.get_bool("once") {
        0
    } else {
        flags.get_usize("refresh-ms", 500)? as u64
    };
    let setup = match target {
        Some(_) => None,
        None => Some(ServeSetup::from_flags(
            flags,
            "127.0.0.1:0".to_string(),
            threads,
        )?),
    };

    let (searcher, queries) = dashboard_workload(flags, seed)?;
    let (serving, target, rolling) = match setup {
        Some(setup) => {
            let serving = setup.start(searcher)?;
            let target = format!("http://{}", serving.handle.local_addr());
            let rolling = Arc::clone(&serving.rolling);
            (Some(serving), target, rolling)
        }
        None => {
            let rolling = obs::RollingRecorder::new(
                obs::RollingConfig {
                    bucket_secs: 1,
                    window_secs: config.window_secs.max(60),
                    shards: threads,
                },
                Arc::new(obs::MonotonicClock::new()),
            );
            let target = target.unwrap_or_default().to_string();
            (None, target, Arc::new(rolling))
        }
    };
    eprintln!(
        "driving {target}: {threads} clients × {} queries…",
        config.queries_per_thread
    );
    let mut harness = LoadHarness::new(config, &target, rolling)?;
    harness.run(&queries, refresh_ms, |h| {
        // ANSI clear + home, then the current windowed view.
        print!("\x1b[2J\x1b[H{}", h.report().render_dashboard());
        use std::io::Write;
        let _ = std::io::stdout().flush();
    });
    // Drain the in-process server before reading the report, so it
    // holds every span the server recorded and every sample its shadow
    // scorer took.
    let quality = serving.and_then(|serving| {
        let shadow = serving.shadow.clone();
        serving.drain();
        shadow.map(|shadow| shadow.report())
    });
    let mut report = harness.report();
    report.quality = quality;
    if flags.get_bool("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_dashboard());
    }
    if report.transport_errors > 0 {
        eprintln!(
            "{} transport errors (counted as SLO errors)",
            report.transport_errors
        );
    }
    if report.has_hard_violation() && flags.get_bool("fail-on-violation") {
        return Err("SLO hard violation (see report)".to_string());
    }
    if report.shed + report.rejected > 0 && flags.get_bool("fail-on-shed") {
        return Err(format!(
            "the server shed load: {} × 429, {} × 503",
            report.shed, report.rejected
        ));
    }
    Ok(())
}

/// `litsearch quality`: shadow-score the sample stream of `--queries`
/// queries under every prestige function and emit the ranking-quality
/// report — per-function top-k overlap, winner agreement, score
/// margins and distributions, plus a drift verdict when judged against
/// a checked-in baseline. A pure function of the snapshot and the
/// stream, so CI can diff it.
fn cmd_quality(flags: &Flags) -> Result<(), String> {
    let seed = flags.get_usize("seed", 2007)? as u64;
    let report_kind = match flags.get("report").unwrap_or("md") {
        k @ ("json" | "md") => k,
        other => return Err(format!("--report must be json or md, got {other:?}")),
    };
    let baseline = match flags.get("baseline") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Some(obs::QualityBaseline::from_json(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    let n_queries = flags.get_usize("queries", 800)? as u64;
    let shadow = litsearch::context_search::ShadowConfig {
        sample_every: flags.get_usize("sample-every", 4)?.max(1) as u64,
        limit: flags.get_usize("limit", 10)?,
        ..Default::default()
    };

    let (searcher, queries) = dashboard_workload(flags, seed)?;
    let quality =
        bench::load::quality_gate(&searcher, &queries, n_queries, &shadow, baseline.as_ref());

    let rendered = match report_kind {
        "json" => quality.to_json(),
        _ => quality.to_markdown(),
    };
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("quality report: {path}");
        }
        None => print!("{rendered}"),
    }
    if let Some(path) = flags.get("write-baseline") {
        let derived = obs::QualityBaseline::from_summary(&quality.summary);
        std::fs::write(path, derived.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("quality baseline: {path}");
    }
    if quality
        .drift
        .as_ref()
        .is_some_and(|d| d.has_hard_violation())
    {
        if flags.get_bool("fail-on-drift") {
            return Err("ranking-quality drift is critical (see report)".to_string());
        }
        eprintln!("warning: ranking-quality drift is critical (see report)");
    }
    Ok(())
}

/// A server set up as `litsearch serve` sets one up. It is read from
/// the flags before the snapshot loads, so a bad flag fails fast.
struct ServeSetup {
    config: serve::ServerConfig,
    window_secs: u64,
    slow_threshold_ns: u64,
    slow_capacity: usize,
    quality_every: u64,
}

/// A running server and the telemetry it feeds.
struct Serving {
    handle: serve::ServerHandle,
    rolling: Arc<obs::RollingRecorder>,
    slowlog: Arc<obs::SlowQueryLog>,
    shadow: Option<Arc<litsearch::context_search::QualityShadow>>,
}

impl ServeSetup {
    fn from_flags(flags: &Flags, addr: String, workers: usize) -> Result<Self, String> {
        let (kind, function) = serve_pair(flags)?;
        Ok(Self {
            config: serve::ServerConfig {
                addr,
                workers,
                queue_depth: flags.get_usize("queue-depth", 64)?,
                deadline_ns: flags.get_usize("deadline-ms", 50)? as u64 * 1_000_000,
                shed: !flags.get_bool("no-shed"),
                defaults: serve::SearchDefaults {
                    kind,
                    function,
                    limit: flags.get_usize("limit", 10)?,
                },
                keep_alive_idle_ns: 5_000_000_000,
                shadow: None,
            },
            window_secs: flags.get_usize("window", 60)? as u64,
            slow_threshold_ns: flags.get_usize("slow-threshold-ms", 50)? as u64 * 1_000_000,
            slow_capacity: flags.get_usize("slow-capacity", 10)?,
            quality_every: flags.get_usize("quality", 0)? as u64,
        })
    }

    /// Turn telemetry on, stream spans into one rolling recorder (a
    /// shard per worker) so /metrics and dashboards see live windows,
    /// attach the slow-request leaderboard, spawn the shadow scorer
    /// when `--quality N` asks for one, and start serving.
    fn start(self, searcher: Searcher) -> Result<Serving, String> {
        let mut config = self.config;
        obs::enable();
        let clock: Arc<dyn obs::Clock> = Arc::new(obs::MonotonicClock::new());
        let rolling = Arc::new(obs::RollingRecorder::new(
            obs::RollingConfig {
                bucket_secs: 1,
                window_secs: self.window_secs.max(60),
                shards: config.workers,
            },
            Arc::clone(&clock),
        ));
        obs::attach_rolling(Arc::clone(&rolling));
        let slowlog = Arc::new(obs::SlowQueryLog::new(
            self.slow_threshold_ns,
            self.slow_capacity,
        ));
        obs::attach_slow_log(Arc::clone(&slowlog));
        if self.quality_every > 0 {
            config.shadow = Some(Arc::new(litsearch::context_search::QualityShadow::spawn(
                searcher.clone(),
                litsearch::context_search::ShadowConfig {
                    sample_every: self.quality_every,
                    kind: config.defaults.kind,
                    limit: config.defaults.limit,
                },
            )));
        }
        let shadow = config.shadow.clone();
        let addr = config.addr.clone();
        let handle = serve::start_with_clock(searcher, config, clock)
            .map_err(|e| format!("cannot start server on {addr}: {e}"))?;
        Ok(Serving {
            handle,
            rolling,
            slowlog,
            shadow,
        })
    }
}

impl Serving {
    /// Stop accepting, finish every admitted request, then drain the
    /// shadow scorer so every sample it took is aggregated.
    fn drain(self) -> serve::DrainSummary {
        let summary = self.handle.await_drained();
        if let Some(shadow) = &self.shadow {
            shadow.finish();
        }
        summary
    }
}

/// `litsearch serve`: put the lock-free [`Searcher`] behind the
/// hand-rolled HTTP frontend — bounded admission queue, per-request
/// deadlines with EWMA load shedding (429 + Retry-After), and graceful
/// drain on SIGTERM/SIGINT (stop accepting, finish in-flight, flush
/// obs snapshots). Endpoints: POST /v1/search, GET /healthz,
/// GET /metrics, GET /quality.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use std::io::Write as _;

    let seed = flags.get_usize("seed", 2007)? as u64;
    let host = flags.get("addr").unwrap_or("127.0.0.1");
    let port = flags.get_usize("port", 8080)?;
    let workers = flags.get_usize("workers", 4)?.max(1);
    let setup = ServeSetup::from_flags(flags, format!("{host}:{port}"), workers)?;
    let banner = format!(
        "{workers} workers, queue depth {}, deadline {} ms, shedding {} — SIGTERM/SIGINT drains",
        match setup.config.queue_depth {
            0 => "unbounded".to_string(),
            depth => depth.to_string(),
        },
        setup.config.deadline_ns / 1_000_000,
        if setup.config.shed { "on" } else { "off" },
    );

    let serving = setup.start(serve_searcher(flags, seed)?)?;
    let addr = serving.handle.local_addr();
    println!("listening on http://{addr}");
    let _ = std::io::stdout().flush();
    if let Some(path) = flags.get("port-file") {
        std::fs::write(path, addr.port().to_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!("{banner}");

    serve::signal::install_term_handler();
    while !serve::signal::term_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("signal received: draining (stop accepting, finish in-flight)…");
    let slowlog = Arc::clone(&serving.slowlog);
    let summary = serving.drain();
    eprintln!("drained: {}", summary.render());
    if let Some(path) = flags.get("slow-jsonl") {
        std::fs::write(path, slowlog.dump_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("slow-request log: {path}");
    }
    Ok(())
}

const USAGE: &str = "\
litsearch — context-based literature search (ICDE 2007 reproduction)

USAGE:
  litsearch generate --out DIR [--terms N] [--papers N] [--seed N]
  litsearch assign   --data DIR --kind text|pattern
  litsearch prestige --data DIR --kind text|pattern --function citation|text|pattern
  litsearch prepare  --data DIR --out DIR [--build-threads N]
  litsearch search   --data DIR --kind text|pattern --function citation|text|pattern
                     --query TEXT [--limit N] [--repeat N]
  litsearch search   --snapshot DIR --kind text|pattern --function citation|text|pattern
                     --query TEXT [--limit N] [--repeat N]
  litsearch stats    --data DIR
  litsearch trace    --file PATH
  litsearch top      [--snapshot DIR] [--target URL] [--threads N] [--queries N]
                     [--qps RATE] [--kind text|pattern]
                     [--function citation|text|pattern] [--limit N] [--window SECS]
                     [--slow-threshold-ms MS] [--slow-capacity N] [--quality N]
                     [--refresh-ms MS] [--once] [--json] [--fail-on-violation]
                     [--fail-on-shed]
  litsearch quality  [--snapshot DIR] [--queries N] [--sample-every N]
                     [--baseline PATH] [--write-baseline PATH] [--report json|md]
                     [--out PATH] [--fail-on-drift]
  litsearch serve    [--snapshot DIR] [--addr HOST] [--port P] [--workers N]
                     [--queue-depth D] [--deadline-ms T] [--no-shed]
                     [--kind text|pattern] [--function citation|text|pattern]
                     [--limit N] [--window SECS] [--slow-threshold-ms MS]
                     [--slow-capacity N] [--quality N] [--port-file PATH]
                     [--slow-jsonl PATH]
  litsearch help

A flag a command does not read is an error. `top`, `quality` and
`serve` also take `--seed N` (queries and the demo build).

`prepare` runs the whole offline phase — context sets, pattern mining,
and all five standard prestige tables — one stage after another, each
stage parallel across contexts (`--build-threads N` per-context
workers; 0, the default, uses every core; any N gives the same result),
and writes a versioned snapshot directory. The index build always runs
its three parts (whole-paper model, section models, citation graph)
side by side, whatever N. `search --snapshot DIR` warm-starts from
that directory, skipping every per-context prestige/PageRank
computation; it reads the corpus and the sets and prestige files on
two threads. `assign` and `prestige` write one set or table of that
phase into the data directory, and `search --data DIR` prepares its
one (kind, function) pair in process; both print and write exactly
what the snapshot holds.

Any command also accepts `--metrics PATH`: collect telemetry (spans,
counters, latency histograms) and write a JSON snapshot to PATH.
`search --repeat N` re-runs the query N times so the snapshot carries
p50/p95/p99 latency percentiles per pipeline stage.

Any command also accepts `--trace PATH` (Chrome trace format, open in
Perfetto or chrome://tracing) and/or `--trace-jsonl PATH` (one event
per line): capture begin/end span events plus explain instants — the
selected contexts, candidate counts per stage, and per-function score
components for the top results. `litsearch trace --file PATH` prints
a self-time tree summarizing a captured Chrome trace.

`top` sends keep-alive POST /v1/search requests from `--threads`
clients. Each client sends its next request when the last is answered,
or, given `--qps R`, R requests a second (an open loop). It renders a
live terminal dashboard: rolling-window p50/p95/p99 per series, SLO
burn rates, and the slowest queries. `--target URL` drives a running
`serve`; without it `top` starts the server in process as `serve`
does (over `--snapshot`, or a tiny demo build), one worker per client,
and the dashboard's rows other than `client.request` and `client.shed`
are the server's own spans. The objectives hold client latency to
`--slow-threshold-ms` at p99 and 99.9 % of answers to success.
`--quality N` shadow-scores one of every N queries on the in-process
server and adds the ranking-quality panel. `--once` runs one batch and
prints a single report; `--json` emits it machine-readable (the CI
artifact form); `--fail-on-violation` exits nonzero on a hard SLO
violation and `--fail-on-shed` on any 429 or 503.

`quality` shadow-scores every `--sample-every`-th of `--queries`
queries on one thread, with no load, and emits the ranking-quality
report: per-function top-k overlap, winning-context agreement, score
margins and per-context score distributions. `--baseline PATH` judges
the run against a checked-in baseline (warn/critical drift bands);
`--fail-on-drift` turns a critical verdict into a nonzero exit;
`--write-baseline PATH` derives a fresh baseline from this run.

`serve` puts the snapshot behind the hand-rolled HTTP/1.1 frontend:
POST /v1/search (JSON body: query, kind, function, limit — response
bytes identical to the in-process Searcher), GET /healthz, GET
/metrics, GET /quality. An acceptor thread feeds a bounded admission
queue (--queue-depth, 0 = unbounded); requests carry a deadline from
enqueue (--deadline-ms, 0 = off) and are shed with 429 + Retry-After
when the remaining budget is below the EWMA-estimated service cost
(--no-shed disables shedding for control runs; a full queue rejects
with 503 at the door). --port 0 binds an ephemeral port (written to
--port-file for scripts); SIGTERM/SIGINT triggers a graceful drain —
stop accepting, finish every admitted request, then flush metrics
(--metrics PATH) and the slow-request log (--slow-jsonl PATH).
--quality N shadow-scores one of every N served queries so /quality
reports live ranking-quality aggregates.";

/// Minimal `--flag value` parser (no external dependencies).
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parse `args` against the flags `command` reads (plus the global
    /// ones); any other flag is a usage error that names it.
    fn parse(command: &Command, args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
            let listed = |flags: &str| flags.split_whitespace().any(|flag| flag == key);
            if listed(command.switches) {
                pairs.push((key.to_string(), "true".to_string()));
                i += 1;
                continue;
            }
            if !listed(command.values) && !listed(GLOBAL_FLAGS) {
                return Err(format!("unknown flag --{key} for `{}`", command.name));
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
            i += 2;
        }
        Ok(Self { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} must be a number")),
            None => Ok(default),
        }
    }

    fn get_bool(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v == "true")
    }
}

fn data_paths(dir: &str) -> (PathBuf, PathBuf) {
    let d = Path::new(dir);
    (d.join("ontology.obo"), d.join("corpus.json"))
}

fn load_data(flags: &Flags) -> Result<(Ontology, Corpus, String), String> {
    let dir = flags.require("data")?.to_string();
    let (onto_path, corpus_path) = data_paths(&dir);
    let onto_text = std::fs::read_to_string(&onto_path)
        .map_err(|e| format!("cannot read {}: {e}", onto_path.display()))?;
    let ontology = parse_obo(&onto_text).map_err(|e| format!("bad ontology: {e}"))?;
    let corpus_text = std::fs::read_to_string(&corpus_path)
        .map_err(|e| format!("cannot read {}: {e}", corpus_path.display()))?;
    let corpus = Corpus::from_json(&corpus_text).map_err(|e| format!("bad corpus: {e}"))?;
    Ok((ontology, corpus, dir))
}

fn parse_kind(flags: &Flags) -> Result<ContextSetKind, String> {
    match flags.require("kind")? {
        "text" => Ok(ContextSetKind::TextBased),
        "pattern" => Ok(ContextSetKind::PatternBased),
        other => Err(format!("--kind must be text or pattern, got {other:?}")),
    }
}

fn parse_function(flags: &Flags) -> Result<ScoreFunction, String> {
    match flags.require("function")? {
        "citation" => Ok(ScoreFunction::Citation),
        "text" => Ok(ScoreFunction::Text),
        "pattern" => Ok(ScoreFunction::Pattern),
        other => Err(format!(
            "--function must be citation, text or pattern, got {other:?}"
        )),
    }
}

fn sets_path(dir: &str, kind: ContextSetKind) -> PathBuf {
    Path::new(dir).join(format!("sets_{}.json", kind.name()))
}

fn prestige_path(dir: &str, kind: ContextSetKind, function: ScoreFunction) -> PathBuf {
    Path::new(dir).join(format!("prestige_{}_{}.json", kind.name(), function.name()))
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let out = flags.require("out")?.to_string();
    let n_terms = flags.get_usize("terms", 400)?;
    let n_papers = flags.get_usize("papers", 2_000)?;
    let seed = flags.get_usize("seed", 42)? as u64;
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {out}: {e}"))?;

    eprintln!("generating {n_terms}-term ontology and {n_papers}-paper corpus (seed {seed})…");
    let ontology = litsearch::ontology::generate_ontology(&litsearch::ontology::GeneratorConfig {
        n_terms,
        seed,
        ..Default::default()
    });
    let corpus = litsearch::corpus::generate_corpus(
        &ontology,
        &litsearch::corpus::CorpusConfig {
            n_papers,
            seed: seed.wrapping_add(1),
            ..Default::default()
        },
    );
    let term_names: Vec<String> = ontology
        .term_ids()
        .map(|t| ontology.term(t).name.clone())
        .collect();
    let (onto_path, corpus_path) = data_paths(&out);
    std::fs::write(&onto_path, write_obo(&ontology)).map_err(|e| e.to_string())?;
    std::fs::write(&corpus_path, corpus.to_json(&term_names)).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} and {}",
        onto_path.display(),
        corpus_path.display()
    );
    Ok(())
}

/// `litsearch assign`: one context paper set, built by prepare's own
/// stage functions.
fn cmd_assign(flags: &Flags) -> Result<(), String> {
    let (ontology, corpus, dir) = load_data(flags)?;
    let kind = parse_kind(flags)?;
    let config = engine_config(flags)?;
    eprintln!("building the corpus index…");
    let index = CorpusIndex::build(&ontology, &corpus, &config.pagerank);
    eprintln!("assigning papers to contexts ({})…", kind.name());
    let sets = match kind {
        ContextSetKind::TextBased => build_text_sets(&ontology, &corpus, &index, &config),
        ContextSetKind::PatternBased => {
            let patterns = patterns_by_context(&ontology, &corpus, &index, &config);
            build_pattern_sets(&ontology, &corpus, &index, &patterns, &config)
        }
    };
    let path = sets_path(&dir, kind);
    let json = context_sets_to_json(&sets).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} ({} contexts, mean size {:.1})",
        path.display(),
        sets.n_contexts(),
        sets.mean_size()
    );
    Ok(())
}

/// Run prepare for the one (kind, function) pair a command reads.
fn prepare_pair(
    flags: &Flags,
    kind: ContextSetKind,
    function: ScoreFunction,
) -> Result<Arc<EngineSnapshot>, String> {
    let (ontology, corpus, _dir) = load_data(flags)?;
    let options = PrepareOptions {
        pairs: vec![(kind, function)],
    };
    eprintln!(
        "preparing the ({}, {}) prestige table…",
        kind.name(),
        function.name()
    );
    Ok(EngineSnapshot::prepare_with(
        ontology,
        corpus,
        engine_config(flags)?,
        options,
    ))
}

/// `litsearch prestige`: prepare's table for one pair.
fn cmd_prestige(flags: &Flags) -> Result<(), String> {
    let kind = parse_kind(flags)?;
    let function = parse_function(flags)?;
    let dir = flags.require("data")?;
    let snapshot = prepare_pair(flags, kind, function)?;
    let prestige = snapshot
        .prestige(kind, function)
        .ok_or("prepare skipped the requested pair")?;
    let path = prestige_path(dir, kind, function);
    let json = prestige_to_json(prestige).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} ({} scored contexts)",
        path.display(),
        prestige.contexts().count()
    );
    Ok(())
}

fn engine_config(flags: &Flags) -> Result<EngineConfig, String> {
    let default = EngineConfig::default();
    Ok(EngineConfig {
        build_threads: flags.get_usize("build-threads", default.build_threads)?,
        ..default
    })
}

/// `litsearch prepare`: run the full offline phase, stage by stage, and
/// write a versioned snapshot directory for warm starts.
fn cmd_prepare(flags: &Flags) -> Result<(), String> {
    let (ontology, corpus, _dir) = load_data(flags)?;
    let out = flags.require("out")?.to_string();
    let config = engine_config(flags)?;
    eprintln!(
        "preparing snapshot (build threads: {})…",
        if config.build_threads == 0 {
            "auto".to_string()
        } else {
            config.build_threads.to_string()
        }
    );
    let snapshot = EngineSnapshot::prepare(ontology, corpus, config);
    save_snapshot(&snapshot, Path::new(&out)).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote snapshot to {out} ({} contexts text / {} pattern, {} prestige tables)",
        snapshot.sets(ContextSetKind::TextBased).n_contexts(),
        snapshot.sets(ContextSetKind::PatternBased).n_contexts(),
        snapshot.pairs().len()
    );
    Ok(())
}

/// `litsearch search`: one query against a warm-loaded `--snapshot`
/// directory, or against the one pair prepared in process from a
/// `--data` directory; both print through the same [`Searcher`].
fn cmd_search(flags: &Flags) -> Result<(), String> {
    let kind = parse_kind(flags)?;
    let function = parse_function(flags)?;
    let query = flags.require("query")?.to_string();
    let limit = flags.get_usize("limit", 10)?;
    let repeat = flags.get_usize("repeat", 1)?.max(1);
    let snapshot = if let Some(snap_dir) = flags.get("snapshot") {
        eprintln!("loading snapshot from {snap_dir}…");
        load_snapshot(Path::new(snap_dir), engine_config(flags)?).map_err(|e| e.to_string())?
    } else {
        prepare_pair(flags, kind, function)?
    };
    let searcher = snapshot.searcher();

    // Repeats before the reported run populate the latency histograms
    // so --metrics percentiles are meaningful.
    let mut hits = Vec::new();
    for _ in 0..repeat {
        hits = searcher
            .query(&query, kind, function, limit)
            .map_err(|e| e.to_string())?;
    }

    let ontology = searcher.ontology();
    println!("query: {query:?}");
    println!("selected contexts:");
    for (c, score) in searcher.select_contexts(&query, searcher.sets(kind)) {
        println!(
            "  {:.2}  {} (level {})",
            score,
            ontology.term(c).name,
            ontology.level(c)
        );
    }
    println!("\ntop {} results:", hits.len());
    for (rank, h) in hits.iter().enumerate() {
        let p = searcher.corpus().paper(h.paper);
        println!(
            "  {:>2}. R={:.3} (prestige {:.3}, match {:.3})  {}",
            rank + 1,
            h.relevancy,
            h.prestige,
            h.matching,
            p.title
        );
        println!("      {}", snapshot.snippet(h.paper, &query));
    }
    if obs::enabled() {
        let snap = obs::snapshot();
        eprintln!("\nquery latency breakdown over {repeat} run(s):");
        for name in [
            "engine.search",
            "search.select_contexts",
            "search.candidates",
            "search.rank",
        ] {
            if let Some(s) = snap.span(name) {
                eprintln!(
                    "  {name:<24} p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  (n={})",
                    s.p50_ns as f64 / 1e6,
                    s.p95_ns as f64 / 1e6,
                    s.p99_ns as f64 / 1e6,
                    s.count
                );
            }
        }
    }
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let (ontology, corpus, _) = load_data(flags)?;
    let stats = litsearch::corpus::stats::CorpusStats::compute(&corpus);
    println!(
        "ontology : {} terms, max level {}",
        ontology.len(),
        ontology.max_level()
    );
    println!("papers   : {}", stats.n_papers);
    println!("authors  : {}", stats.n_authors);
    println!(
        "citations: {} (mean {:.1}/paper)",
        stats.n_citations, stats.mean_references
    );
    println!("vocab    : {} analyzed terms", stats.vocab_size);
    println!(
        "evidence : {} terms with training papers",
        stats.terms_with_evidence
    );
    Ok(())
}
