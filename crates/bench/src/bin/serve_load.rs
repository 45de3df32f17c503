//! `serve_load` — load generator over a shared [`Searcher`] in process
//! (closed loop) or a running `litsearch serve` over the wire (closed
//! or open loop), emitting the full serving-observability report:
//! windowed per-stage latencies, SLO burn rates, and the slow-query
//! leaderboard with captured explain traces.
//!
//! ```text
//! serve_load [--snapshot DIR]        serve a warm snapshot from disk
//!            [--terms N --papers N --seed N --quick]
//!                                    …or generate + prepare in-process
//!            [--threads N]           worker threads        (default 8)
//!            [--queries N]           queries per worker    (default 200)
//!            [--mode closed|open]    loop shape            (default closed;
//!                                    open needs --target)
//!            [--qps RATE]            open-loop per-worker arrival rate
//!            [--kind text|pattern]   context paper set     (default pattern)
//!            [--function citation|text|pattern]
//!            [--limit N]             results per query     (default 10)
//!            [--window SECS]         report window         (default 60)
//!            [--slow-threshold-ms MS] slow-query capture bar (default 50)
//!            [--slow-threshold-us US] …same, microseconds
//!            [--slo-latency-ms MS]   latency-SLO threshold (default 50)
//!            [--error-every N]       inject 1/N synthetic errors
//!            [--no-traces]           skip explain-trace capture
//!            [--out FILE]            full report JSON
//!            [--slo-json FILE]       SLO report JSON
//!            [--slo-md FILE]         SLO report markdown
//!            [--slow-jsonl FILE]     slow-query log incl. traces, JSONL
//!            [--quiet]               suppress the dashboard on stdout
//!            [--fail-on-violation]   exit 1 on any hard SLO violation
//!            [--quality N]           shadow-score 1/N queries under all
//!                                    three prestige functions
//!            [--quality-top-pct F]   overlap depth as a fraction (default 0.10)
//!
//! Network mode (drive a running `litsearch serve` over the wire):
//!            [--target http://HOST:PORT]  POST /v1/search instead of
//!                                    calling the Searcher in-process
//!            [--fail-on-shed]        exit 1 if the server shed (429)
//!                                    or rejected (503) anything
//! ```
//!
//! The ranking-quality drift gate is `litsearch quality`; overload is
//! checked on the real server in `tests/serve_overload.rs`.
//!
//! Exit code 0 on success, 1 on a hard SLO violation (only with
//! `--fail-on-violation`) or a shed (only with `--fail-on-shed`), 2 on
//! usage/IO errors.

use bench::load::{LoadConfig, LoadHarness, LoopMode, QualityLoadConfig};
use bench::netload;
use bench::setup::{ExpConfig, Setup};
use context_search::persist::load_snapshot;
use context_search::{ContextSetKind, EngineConfig, ScoreFunction, Searcher};
use corpus::queries::{generate_queries, QueryConfig};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

struct Args {
    snapshot: Option<String>,
    terms: usize,
    papers: usize,
    seed: u64,
    quick: bool,
    config: LoadConfig,
    qps: f64,
    open: bool,
    out: Option<String>,
    slo_json: Option<String>,
    slo_md: Option<String>,
    slow_jsonl: Option<String>,
    quiet: bool,
    fail_on_violation: bool,
    target: Option<String>,
    fail_on_shed: bool,
    slo_latency_ns: u64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        snapshot: None,
        terms: 200,
        papers: 1_500,
        seed: 2007,
        quick: false,
        config: LoadConfig {
            threads: 8,
            queries_per_thread: 200,
            ..Default::default()
        },
        qps: 200.0,
        open: false,
        out: None,
        slo_json: None,
        slo_md: None,
        slow_jsonl: None,
        quiet: false,
        fail_on_violation: false,
        target: None,
        fail_on_shed: false,
        slo_latency_ns: 50 * 1_000_000,
    };
    // Quality knobs accumulate here; the config gets them only when
    // `--quality` actually enables sampling.
    let mut quality = QualityLoadConfig::default();
    let mut quality_on = false;
    let mut i = 0;
    let next = |argv: &[String], i: usize, what: &str| -> Result<String, String> {
        argv.get(i)
            .cloned()
            .ok_or_else(|| format!("{what} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--snapshot" => {
                i += 1;
                a.snapshot = Some(next(&argv, i, "--snapshot")?);
            }
            "--terms" => {
                i += 1;
                a.terms = parse(&next(&argv, i, "--terms")?)?;
            }
            "--papers" => {
                i += 1;
                a.papers = parse(&next(&argv, i, "--papers")?)?;
            }
            "--seed" => {
                i += 1;
                a.seed = parse(&next(&argv, i, "--seed")?)?;
            }
            "--quick" => a.quick = true,
            "--threads" => {
                i += 1;
                a.config.threads = parse(&next(&argv, i, "--threads")?)?;
            }
            "--queries" => {
                i += 1;
                a.config.queries_per_thread = parse(&next(&argv, i, "--queries")?)?;
            }
            "--mode" => {
                i += 1;
                match next(&argv, i, "--mode")?.as_str() {
                    "closed" => a.open = false,
                    "open" => a.open = true,
                    other => return Err(format!("--mode wants closed|open, got {other:?}")),
                }
            }
            "--qps" => {
                i += 1;
                a.qps = parse(&next(&argv, i, "--qps")?)?;
            }
            "--kind" => {
                i += 1;
                a.config.kind = match next(&argv, i, "--kind")?.as_str() {
                    "text" => ContextSetKind::TextBased,
                    "pattern" => ContextSetKind::PatternBased,
                    other => return Err(format!("--kind wants text|pattern, got {other:?}")),
                };
            }
            "--function" => {
                i += 1;
                a.config.function = match next(&argv, i, "--function")?.as_str() {
                    "citation" => ScoreFunction::Citation,
                    "text" => ScoreFunction::Text,
                    "pattern" => ScoreFunction::Pattern,
                    other => {
                        return Err(format!(
                            "--function wants citation|text|pattern, got {other:?}"
                        ))
                    }
                };
            }
            "--limit" => {
                i += 1;
                a.config.limit = parse(&next(&argv, i, "--limit")?)?;
            }
            "--window" => {
                i += 1;
                a.config.window_secs = parse(&next(&argv, i, "--window")?)?;
            }
            "--slow-threshold-ms" => {
                i += 1;
                let ms: u64 = parse(&next(&argv, i, "--slow-threshold-ms")?)?;
                a.config.slow_threshold_ns = ms * 1_000_000;
            }
            "--slow-threshold-us" => {
                i += 1;
                let us: u64 = parse(&next(&argv, i, "--slow-threshold-us")?)?;
                a.config.slow_threshold_ns = us * 1_000;
            }
            "--slo-latency-ms" => {
                i += 1;
                let ms: u64 = parse(&next(&argv, i, "--slo-latency-ms")?)?;
                a.slo_latency_ns = ms * 1_000_000;
                a.config.slos = bench::load::default_serve_slos(a.slo_latency_ns);
            }
            "--error-every" => {
                i += 1;
                a.config.error_every = parse(&next(&argv, i, "--error-every")?)?;
            }
            "--no-traces" => a.config.capture_traces = false,
            "--out" => {
                i += 1;
                a.out = Some(next(&argv, i, "--out")?);
            }
            "--slo-json" => {
                i += 1;
                a.slo_json = Some(next(&argv, i, "--slo-json")?);
            }
            "--slo-md" => {
                i += 1;
                a.slo_md = Some(next(&argv, i, "--slo-md")?);
            }
            "--slow-jsonl" => {
                i += 1;
                a.slow_jsonl = Some(next(&argv, i, "--slow-jsonl")?);
            }
            "--quiet" => a.quiet = true,
            "--fail-on-violation" => a.fail_on_violation = true,
            "--quality" => {
                i += 1;
                let every: u64 = parse(&next(&argv, i, "--quality")?)?;
                quality.sample_every = every.max(1);
                quality_on = true;
            }
            "--quality-top-pct" => {
                i += 1;
                quality.top_pct = parse(&next(&argv, i, "--quality-top-pct")?)?;
            }
            "--target" => {
                i += 1;
                a.target = Some(next(&argv, i, "--target")?);
            }
            "--fail-on-shed" => a.fail_on_shed = true,
            flag => return Err(format!("unknown flag {flag}")),
        }
        i += 1;
    }
    if a.open {
        // In process there is no queue to wait in: an open loop would
        // report service time as latency.
        if a.target.is_none() {
            return Err(
                "--mode open paces arrivals at a server; it needs --target http://HOST:PORT"
                    .to_string(),
            );
        }
        a.config.mode = LoopMode::Open {
            qps_per_worker: a.qps,
        };
    }
    if quality_on {
        a.config.quality = Some(quality);
    }
    Ok(a)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad numeric value {s:?}"))
}

/// The workload's (searcher, query texts), from a warm snapshot or an
/// in-process generate + prepare.
fn workload(a: &Args) -> Result<(Searcher, Vec<String>), String> {
    if let Some(dir) = &a.snapshot {
        eprintln!("loading snapshot from {dir}…");
        let snapshot =
            load_snapshot(Path::new(dir), EngineConfig::default()).map_err(|e| e.to_string())?;
        let queries = generate_queries(
            snapshot.ontology(),
            snapshot.corpus(),
            &QueryConfig {
                seed: a.seed,
                ..Default::default()
            },
        );
        let queries = queries.into_iter().map(|q| q.text).collect();
        Ok((snapshot.searcher(), queries))
    } else {
        let mut cfg = ExpConfig {
            n_terms: a.terms,
            n_papers: a.papers,
            seed: a.seed,
            min_context_size: 10,
            ..Default::default()
        };
        if a.quick {
            cfg.n_terms = 200;
            cfg.n_papers = 1_500;
            cfg.n_queries = 40;
        }
        eprintln!(
            "generating + preparing ({} terms, {} papers)…",
            cfg.n_terms, cfg.n_papers
        );
        let setup = Setup::build(cfg);
        let queries = setup.queries.iter().map(|q| q.text.clone()).collect();
        Ok((setup.searcher, queries))
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.target.is_some() {
        return run_network_mode(&args);
    }
    let (searcher, queries) = workload(&args)?;
    if queries.is_empty() {
        return Err("workload produced no queries".to_string());
    }
    eprintln!(
        "running closed loop: {} workers × {} queries…",
        args.config.threads, args.config.queries_per_thread,
    );
    let harness = LoadHarness::new(args.config.clone());
    let report = harness.run(&searcher, &queries);

    if !args.quiet {
        print!("{}", report.render_dashboard());
    }
    if let Some(path) = &args.out {
        write_file(path, &report.to_json())?;
        eprintln!("report: {path}");
    }
    if let Some(path) = &args.slo_json {
        write_file(path, &report.slo.to_json())?;
        eprintln!("slo report: {path}");
    }
    if let Some(path) = &args.slo_md {
        write_file(path, &report.slo.to_markdown())?;
        eprintln!("slo report: {path}");
    }
    if let Some(path) = &args.slow_jsonl {
        write_file(path, &harness.slowlog().dump_jsonl())?;
        eprintln!("slow-query log: {path}");
    }
    if report.has_hard_violation() {
        eprintln!("SLO HARD VIOLATION (see report)");
        return Ok(!args.fail_on_violation);
    }
    Ok(true)
}

/// `--target` mode: drive a live server over the wire with the PR 5
/// worker model and gate on the network SLOs.
fn run_network_mode(args: &Args) -> Result<bool, String> {
    let target = args.target.as_deref().unwrap_or_default();
    let (_searcher, queries) = workload(args)?;
    if queries.is_empty() {
        return Err("workload produced no queries".to_string());
    }
    let mut config = args.config.clone();
    config.capture_traces = false;
    config.slos = netload::network_serve_slos(args.slo_latency_ns);
    // Shadow scoring runs inside the server (`litsearch serve
    // --quality N`), not in the client.
    config.quality = None;
    eprintln!(
        "driving {target}: {} loop, {} workers × {} queries…",
        if args.open { "open" } else { "closed" },
        config.threads,
        config.queries_per_thread,
    );
    let harness = LoadHarness::new(config);
    let net = netload::run_network(&harness, target, &queries)?;

    if !args.quiet {
        print!("{}", net.render_dashboard());
    }
    if let Some(path) = &args.out {
        write_file(path, &net.to_json())?;
        eprintln!("report: {path}");
    }
    if let Some(path) = &args.slo_json {
        write_file(path, &net.report.slo.to_json())?;
        eprintln!("slo report: {path}");
    }
    if let Some(path) = &args.slo_md {
        write_file(path, &net.report.slo.to_markdown())?;
        eprintln!("slo report: {path}");
    }
    if let Some(path) = &args.slow_jsonl {
        write_file(path, &harness.slowlog().dump_jsonl())?;
        eprintln!("slow-query log: {path}");
    }
    let mut ok = true;
    if net.report.has_hard_violation() {
        eprintln!("SLO HARD VIOLATION (see report)");
        if args.fail_on_violation {
            ok = false;
        }
    }
    if net.shed + net.rejected > 0 {
        eprintln!(
            "server shed load at this rate: {} × 429, {} × 503",
            net.shed, net.rejected
        );
        if args.fail_on_shed {
            ok = false;
        }
    }
    if net.transport_errors > 0 {
        eprintln!(
            "{} transport errors (counted as SLO errors)",
            net.transport_errors
        );
    }
    Ok(ok)
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))
}
