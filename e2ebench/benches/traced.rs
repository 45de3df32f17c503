//! Traced mode: every per-layer metric, timed from this file around
//! each layer's public calls while replaying the workload's own inputs
//! (generated data, snapshot files, request bytes). The program's own
//! `obs` spans are not used: their histograms step by 6–12 %, and spans
//! on worker threads do not count against their parent.
//!
//! Spans (name, start, end, parent, request id) stay in memory and are
//! written to `.bench_out/` when the run ends; each layer's self time is
//! printed before the result line.
//!
//! Where a layer's parts are timed separately they must add up to the
//! whole within a tenth, or the run fails: the warm-start steps against
//! `load_snapshot`, and select + candidates + rank against the query.
//! The offline stages against the serial prepare are printed only.

use crate::load::{Caller, Server, Tally};
use crate::{generate, median, Args, Mix, Report, WorkDir, PAIRS};
use context_search::assign::{build_pattern_sets, build_text_sets, patterns_by_context};
use context_search::indexes::CorpusIndex;
use context_search::persist::{
    context_sets_from_json, load_snapshot, prestige_from_json, save_snapshot,
};
use context_search::prestige::{
    citation::citation_prestige, pattern::pattern_prestige, text::text_prestige,
};
use context_search::{ContextSetKind, EngineConfig, EngineSnapshot, ScoreFunction};
use corpus::Corpus;
use ontology::obo::parse_obo;
use serve::{
    encode_results, parse_request, AdmissionQueue, AppState, Parsed, PendingConn, SearchDefaults,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

/// Repetitions of each in-process call per request of the mix.
const REPS: usize = 3;
/// Loopback repetitions per request and exchange kind.
const WIRE_REPS: usize = 3;
/// Calls per `obs` micro-measurement.
const OBS_CALLS: u32 = 100_000;
/// Enqueue → dequeue handoffs timed.
const HANDOFFS: usize = 1_000;
/// Alternating rounds of the warm-start steps and the whole loader.
const WARM_ROUNDS: usize = 5;
/// Seconds the server is left without requests to read its idle CPU.
const IDLE_S: u64 = 3;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// In-memory span recorder; nesting follows the call stack.
pub(crate) struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span of `name` for request `req` (0 = no
    /// request); returns `f`'s value and the span's duration in ns.
    fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        let origin = self.origin;
        let span = &mut self.spans[id];
        span.start_ns = (start - origin).as_nanos() as u64;
        span.end_ns = (end - origin).as_nanos() as u64;
        (out, span.end_ns - span.start_ns)
    }

    /// [`span`](Self::span), but returning the process CPU time `f`
    /// took rather than its wall time.
    fn span_cpu<R>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        let before = process_cpu_ns();
        let (out, _) = self.span(name, req, f);
        (out, process_cpu_ns() - before)
    }

    /// Per span name: count, total and self time (total minus the time
    /// its direct children cover; children never overlap here).
    fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = table.entry(s.name).or_insert((0, 0, 0));
            let total = s.end_ns - s.start_ns;
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child);
        }
        table
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.req
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Mean over the mix of each request's median over its repetitions.
fn mean_of_medians(per_request: &mut [Vec<f64>]) -> f64 {
    let n = per_request.len() as f64;
    per_request.iter_mut().map(|v| median(v)).sum::<f64>() / n
}

/// Process CPU time in ns: user + system time of every thread, those
/// that have exited included (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`).
/// The kernel keeps time the hypervisor gives this vCPU to other tenants
/// (steal) out of it, and the offline stages spread over worker threads,
/// so the offline and warm-start parts are timed in it rather than in
/// wall time.
fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Print how far `parts` is from `whole`; `Err` names a miss by more
/// than a tenth.
fn adds_up(what: &str, parts: f64, whole: f64) -> Result<(), String> {
    let off = (parts - whole) / whole;
    let ok = off.abs() <= 0.1;
    eprintln!(
        "sum check {what}: parts {parts:.3} vs whole {whole:.3} ({:+.1} %) {}",
        100.0 * off,
        if ok { "ok" } else { "OUTSIDE A TENTH" }
    );
    if ok {
        Ok(())
    } else {
        Err(format!("{what}: parts {:+.1} % off the whole", 100.0 * off))
    }
}

pub(crate) fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let work = WorkDir::create(args)?;
    let data = work.0.join("data");
    let snapshot_dir = work.0.join("snapshot");
    generate(args, &data)?;
    let mut tr = Tracer::new();
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut misses = Vec::new();
    let config = EngineConfig::default();

    // Offline phase, in process CPU time: the whole plan on one build
    // thread and its save, then each stage on its own, in dependency
    // order, on the same ontology and corpus. As many alternating rounds
    // as the untraced run has prepares; each figure is the mean over them.
    let read = |name: &str| read_text(&data.join(name));
    let serial_config = EngineConfig {
        build_threads: 1,
        ..EngineConfig::default()
    };
    let (mut serial_ns, mut save_ns) = (0, 0);
    let mut stage_rounds = Vec::with_capacity(w.prepares);
    for round in 1..=w.prepares {
        let ontology = parse_obo(&read("ontology.obo")?).map_err(|e| e.to_string())?;
        let corpus = Corpus::from_json(&read("corpus.json")?).map_err(|e| e.to_string())?;
        let (snapshot, serial) = tr.span_cpu("prepare.serial", 0, |_| {
            EngineSnapshot::prepare(ontology, corpus, serial_config.clone())
        });
        let (saved, save) = tr.span_cpu("prepare.save", 0, |_| {
            save_snapshot(&snapshot, &snapshot_dir)
        });
        saved.map_err(|e| e.to_string())?;
        let stages = time_stages(&mut tr, &snapshot, &config);
        eprintln!(
            "prepare round {round}: stages {:.0} ms, serial {:.0} ms (process CPU)",
            ms(stages.sum()),
            ms(serial)
        );
        serial_ns += serial / w.prepares as u64;
        save_ns += save / w.prepares as u64;
        stage_rounds.push(stages);
    }
    let stage_ns = StageTimes::mean(&stage_rounds);
    metrics.extend([
        ("prepare.text_sets_ms", ms(stage_ns.text_sets), "ms"),
        ("prepare.patterns_ms", ms(stage_ns.patterns), "ms"),
        ("prepare.pattern_sets_ms", ms(stage_ns.pattern_sets), "ms"),
    ]);
    for (name, &(compute, _)) in PRESTIGE_METRICS.iter().zip(&stage_ns.pairs) {
        metrics.push((name, ms(compute), "ms"));
    }
    // Printed, not held to a tenth: at 16k one round of each takes
    // ~23 s, and the host's speed moves by more than a tenth between two
    // such phases (see README.md).
    let _ = adds_up(
        "prepare stages vs prepare.serial_ms",
        ms(stage_ns.sum()),
        ms(serial_ns),
    );
    metrics.extend([
        (
            "prepare.propagate_ms",
            ms(stage_ns.pairs.iter().map(|p| p.1).sum()),
            "ms",
        ),
        ("prepare.save_ms", ms(save_ns), "ms"),
        ("prepare.serial_ms", ms(serial_ns), "ms"),
        (
            "prepare.critical_path_ms",
            ms(stage_ns.critical_path()),
            "ms",
        ),
    ]);

    // Warm start, in process CPU time: the loader's steps one by one, in
    // its own order, then the loader whole, in alternating rounds; each
    // figure is its mean over the rounds.
    let mut warm = [0.0; 7];
    let mut loaded = None;
    for round in 1..=WARM_ROUNDS {
        // Free the previous round's snapshot before loading another.
        drop(loaded.take());
        let (times, snapshot) = time_warm_start(&mut tr, &snapshot_dir, &config)?;
        eprintln!(
            "warm-start round {round}: steps {:.0} ms, load_snapshot {:.0} ms (process CPU)",
            times[..6].iter().sum::<f64>(),
            times[6]
        );
        for (sum, t) in warm.iter_mut().zip(times) {
            *sum += t / WARM_ROUNDS as f64;
        }
        loaded = Some(snapshot);
    }
    let loaded = loaded.ok_or("no warm-start round ran")?;
    misses.extend(
        adds_up(
            "read + parse + index.build_ms vs persist.load_ms",
            warm[..6].iter().sum(),
            warm[6],
        )
        .err(),
    );
    metrics.extend([
        ("persist.read_ms", warm[0], "ms"),
        ("persist.obo_ms", warm[1], "ms"),
        ("persist.corpus_ms", warm[2], "ms"),
        ("persist.sets_ms", warm[3], "ms"),
        ("persist.prestige_ms", warm[4], "ms"),
        ("index.build_ms", warm[5], "ms"),
        ("persist.load_ms", warm[6], "ms"),
    ]);

    // Online phase in process, with telemetry set up as `litsearch serve`
    // sets it up: enabled, a rolling recorder and a slow-request log.
    obs::enable();
    let clock: Arc<dyn obs::Clock> = Arc::new(obs::MonotonicClock::new());
    let rolling_config = obs::RollingConfig {
        bucket_secs: 1,
        window_secs: 60,
        shards: 2,
    };
    obs::attach_rolling(Arc::new(obs::RollingRecorder::new(rolling_config, clock)));
    obs::attach_slow_log(Arc::new(obs::SlowQueryLog::new(50_000_000, 10)));
    let searcher = loaded.searcher();
    let mix = Mix::build(&searcher, &snapshot_dir, args.seed, w.limit)?;
    let state = AppState {
        searcher: searcher.clone(),
        defaults: SearchDefaults::default(),
        draining: Arc::new(AtomicBool::new(false)),
        queue_depth: Arc::new(AtomicU64::new(0)),
        served_seq: Arc::new(AtomicU64::new(0)),
        shadow: None,
    };
    let n = mix.entries.len();
    let per_req = || vec![Vec::with_capacity(REPS); n];
    let (mut select, mut candidates, mut rank, mut query) =
        (per_req(), per_req(), per_req(), per_req());
    let (mut encode, mut parse, mut request) = (per_req(), per_req(), per_req());
    let mut counts = [0u64; 4];
    let (mut response_bytes, mut spans_per_req) = (0usize, 0u64);
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let mut scratch = textproc::CandidateScratch::new();
    let (index, corpus) = (searcher.index(), searcher.corpus());
    for (i, e) in mix.entries.iter().enumerate() {
        let req = i as u64 + 1;
        for rep in 0..REPS {
            // An untimed run of the same query first, so that the parts
            // and the whole after it find the same data in the caches;
            // the parts then run in the query's own order — query vector,
            // context selection, candidate gathering.
            black_box(searcher.query_with_stats(&e.query, e.kind, e.function, e.limit))
                .map_err(|err| err.to_string())?;
            // Rank has no public entry point of its own; its time is the
            // program's own `search.rank` span inside the timed query, read
            // as the exact total the registry keeps, not from its histogram.
            let rank_before = span_total_ns("search.rank");
            let sets = searcher.sets(e.kind);
            let (qvec, vector_ns) = tr.span("search.query_vector", req, |_| {
                index.query_vector(corpus, &e.query)
            });
            let (_, ns) = tr.span("search.select", req, |_| {
                black_box(searcher.select_contexts(&e.query, sets))
            });
            select[i].push(us(ns));
            let (_, ns) = tr.span("search.candidates", req, |_| {
                index.keyword_search_columns(&qvec, 0.0, &mut scratch);
                black_box(scratch.len())
            });
            candidates[i].push(us(vector_ns + ns));
            let (answer, ns) = tr.span("search.query", req, |_| {
                searcher.query_with_stats(&e.query, e.kind, e.function, e.limit)
            });
            rank[i].push(us(span_total_ns("search.rank") - rank_before));
            let (results, stats) = answer.map_err(|err| err.to_string())?;
            query[i].push(us(ns));
            let (body, ns) = tr.span("handler.encode", req, |_| encode_results(&results));
            encode[i].push(us(ns));
            let (parsed, ns) = tr.span("http.parse", req, |_| parse_request(&e.keep_alive));
            parse[i].push(us(ns));
            let Parsed::Complete(parsed, _) = parsed else {
                return Err(format!("request {i} bytes do not parse"));
            };
            let spans_before = span_count();
            let (response, ns) = tr.span("handler.request", req, |_| {
                serve::handler::handle_request(&state, &parsed)
            });
            request[i].push(us(ns));
            if rep == 0 {
                spans_per_req += span_count() - spans_before;
                counts[0] += stats.selected_contexts;
                counts[1] += stats.keyword_candidates;
                counts[2] += stats.scored_pairs;
                counts[3] += stats.heap_pushes;
                response_bytes += response.body.len();
                attempted += 1;
                let verdict = if response.status != 200 {
                    Err(format!("status {}", response.status))
                } else if response.body != body.as_bytes() {
                    Err("handler body differs from encode_results".to_string())
                } else {
                    mix.check(i, &response.body)
                };
                if let Err(err) = verdict {
                    eprintln!("request {i} ({:?}) wrong in process: {err}", e.query);
                    failed += 1;
                    wrong += 1;
                }
            }
        }
    }
    let query_us = mean_of_medians(&mut query);
    let select_us = mean_of_medians(&mut select);
    let candidates_us = mean_of_medians(&mut candidates);
    let rank_us = mean_of_medians(&mut rank);
    misses.extend(
        adds_up(
            "search select + candidates + rank vs search.query_us",
            select_us + candidates_us + rank_us,
            query_us,
        )
        .err(),
    );
    let request_us = mean_of_medians(&mut request);
    let nf = n as f64;
    metrics.extend([
        ("search.select_us", select_us, "us"),
        ("search.candidates_us", candidates_us, "us"),
        ("search.rank_us", rank_us, "us"),
        ("search.query_us", query_us, "us"),
        ("search.contexts", counts[0] as f64 / nf, "count"),
        ("search.candidates", counts[1] as f64 / nf, "count"),
        ("search.scored_pairs", counts[2] as f64 / nf, "count"),
        ("search.heap_pushes", counts[3] as f64 / nf, "count"),
        ("handler.request_us", request_us, "us"),
        ("handler.encode_us", mean_of_medians(&mut encode), "us"),
        (
            "handler.response_kb",
            response_bytes as f64 / 1e3 / nf,
            "kB",
        ),
        ("http.parse_us", mean_of_medians(&mut parse), "us"),
        ("obs.spans_per_req", spans_per_req as f64 / nf, "count"),
    ]);

    let ((span_ns, span_2t_ns, counter_ns), _) = tr.span("obs", 0, |_| obs_costs());
    metrics.extend([
        ("obs.span_ns", span_ns, "ns"),
        ("obs.span_2t_ns", span_2t_ns, "ns"),
        ("obs.counter_ns", counter_ns, "ns"),
    ]);
    let (handoff, _) = tr.span("admission.handoff", 0, |_| handoff_us());
    metrics.push(("admission.handoff_us", handoff?, "us"));

    // Loopback to a real `litsearch serve`: each request of the mix over
    // a keep-alive connection and over a new connection each, and
    // `GET /healthz` (the server's wire path with no search behind it) on
    // the keep-alive connection.
    let server = Server::start(&args.litsearch, &snapshot_dir, &work.0, "traced")?;
    let mut fresh = Caller::new(&mix, server.addr, true);
    let mut loopback = Tally::default();
    let (mut wire, mut conn) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let req = i as u64 + 1;
        // A keep-alive connection must never sit idle (the server charges
        // idle time to its next request's deadline), so each request gets
        // its own, warmed by one untimed request and closed after.
        let mut keep = Caller::new(&mix, server.addr, false);
        keep.request(i);
        let keep_us = wire_median(&mut tr, "server.keep_alive", req, || {
            keep.request(i).map(|(d, _)| d)
        });
        // The first `/healthz` after a search answers slower than the
        // ones after it (median 40–91 µs against 29–50 µs over the
        // traced runs of both workloads), so it is left untimed.
        keep.healthz();
        wire.push(wire_median(&mut tr, "server.healthz", req, || {
            keep.healthz()
        }));
        loopback.merge(keep.tally);
        let fresh_us = wire_median(&mut tr, "server.new_conn", req, || {
            fresh.request(i).map(|(d, _)| d)
        });
        conn.push(fresh_us - keep_us);
    }
    loopback.merge(fresh.tally);
    attempted += loopback.attempted;
    failed += loopback.failed;
    wrong += loopback.wrong;
    std::thread::sleep(Duration::from_millis(200));
    let cpu_start = server.cpu_ns()?;
    tr.span("server.idle", 0, |_| {
        std::thread::sleep(Duration::from_secs(IDLE_S))
    });
    let idle_ns = server.cpu_ns()? - cpu_start;
    drop(server);
    metrics.extend([
        ("server.wire_us", median(&mut wire), "us"),
        ("server.conn_us", median(&mut conn), "us"),
        (
            "server.idle_cpu_ms_per_s",
            ms(idle_ns) / IDLE_S as f64,
            "ms/s",
        ),
    ]);

    // What a span costs the replay: two clock reads and a push.
    let mut probe = Tracer::new();
    let started = Instant::now();
    for _ in 0..OBS_CALLS {
        probe.span("overhead", 0, |_| ());
    }
    eprintln!(
        "tracing overhead: {:.0} ns per span; the in-process replay records 7 spans per request and repetition",
        started.elapsed().as_nanos() as f64 / f64::from(OBS_CALLS)
    );

    let trace_path = Path::new(".bench_out").join(format!("trace-{}-s{}.jsonl", w.name, args.seed));
    tr.write(&trace_path)?;
    print_self_times(&tr, &trace_path);
    if !misses.is_empty() {
        return Err(format!(
            "separately timed parts do not add up to their whole: {}",
            misses.join("; ")
        ));
    }
    Ok(Report {
        correct: wrong == 0,
        attempted,
        failed,
        metrics,
    })
}

const PRESTIGE_METRICS: [&str; 5] = [
    "prepare.prestige.text_text_ms",
    "prepare.prestige.text_citation_ms",
    "prepare.prestige.pattern_pattern_ms",
    "prepare.prestige.pattern_citation_ms",
    "prepare.prestige.pattern_text_ms",
];

/// Stage times (ns) of the prepare plan, in [`PAIRS`] order for the
/// prestige pairs as (compute, propagate).
struct StageTimes {
    index: u64,
    text_sets: u64,
    patterns: u64,
    pattern_sets: u64,
    pairs: Vec<(u64, u64)>,
}

impl StageTimes {
    /// Stage by stage mean of several rounds.
    fn mean(rounds: &[StageTimes]) -> StageTimes {
        let n = rounds.len() as u64;
        let mean = |f: &dyn Fn(&StageTimes) -> u64| rounds.iter().map(f).sum::<u64>() / n;
        StageTimes {
            index: mean(&|r| r.index),
            text_sets: mean(&|r| r.text_sets),
            patterns: mean(&|r| r.patterns),
            pattern_sets: mean(&|r| r.pattern_sets),
            pairs: (0..PAIRS.len())
                .map(|k| (mean(&|r| r.pairs[k].0), mean(&|r| r.pairs[k].1)))
                .collect(),
        }
    }

    /// Every stage, as the serial plan runs them one after another.
    fn sum(&self) -> u64 {
        self.index
            + self.text_sets
            + self.patterns
            + self.pattern_sets
            + self.pairs.iter().map(|&(c, p)| c + p).sum::<u64>()
    }

    /// Longest path through the plan's stage DAG under these times:
    /// index → text sets | patterns → pattern sets → each pair's
    /// prestige → its propagation. Pattern prestige also waits for the
    /// patterns; (pattern set, text function) also for the text sets.
    fn critical_path(&self) -> u64 {
        let text_sets = self.index + self.text_sets;
        let patterns = self.index + self.patterns;
        let pattern_sets = patterns + self.pattern_sets;
        let mut end = text_sets.max(pattern_sets);
        for (&(kind, function), &(compute, propagate)) in PAIRS.iter().zip(&self.pairs) {
            let mut ready = match kind {
                ContextSetKind::TextBased => text_sets,
                ContextSetKind::PatternBased => pattern_sets,
            };
            if function == ScoreFunction::Pattern {
                ready = ready.max(patterns);
            }
            if (kind, function) == (ContextSetKind::PatternBased, ScoreFunction::Text) {
                ready = ready.max(text_sets);
            }
            end = end.max(ready + compute + propagate);
        }
        end
    }
}

/// Each prepare stage on its own, as `EngineSnapshot::prepare` runs it.
fn time_stages(tr: &mut Tracer, snapshot: &EngineSnapshot, config: &EngineConfig) -> StageTimes {
    let (o, c) = (snapshot.ontology(), snapshot.corpus());
    let (index, index_ns) = tr.span_cpu("prepare.index", 0, |_| {
        CorpusIndex::build(o, c, &config.pagerank)
    });
    let (text_sets, text_sets_ns) = tr.span_cpu("prepare.text_sets", 0, |_| {
        build_text_sets(o, c, &index, config)
    });
    let (patterns, patterns_ns) = tr.span_cpu("prepare.patterns", 0, |_| {
        patterns_by_context(o, c, &index, config)
    });
    let (pattern_sets, pattern_sets_ns) = tr.span_cpu("prepare.pattern_sets", 0, |_| {
        build_pattern_sets(o, c, &index, &patterns, config)
    });
    let mut pairs = Vec::with_capacity(PAIRS.len());
    for (&(kind, function), name) in PAIRS.iter().zip(PRESTIGE_METRICS) {
        let sets = match kind {
            ContextSetKind::TextBased => &text_sets,
            ContextSetKind::PatternBased => &pattern_sets,
        };
        let (mut scores, compute_ns) = tr.span_cpu(name, 0, |_| match (kind, function) {
            (_, ScoreFunction::Citation) => citation_prestige(sets, &index.graph, config),
            (ContextSetKind::PatternBased, ScoreFunction::Text) => {
                // Fig 5.3: text prestige over the pattern set, for the
                // contexts that have a text-set representative.
                let mut view = sets.clone();
                view.representatives = text_sets.representatives.clone();
                text_prestige(&view, c, &index, config)
            }
            (_, ScoreFunction::Text) => text_prestige(sets, c, &index, config),
            (_, ScoreFunction::Pattern) => {
                pattern_prestige(o, sets, c, &index, &patterns, config, true)
            }
        });
        let (_, propagate_ns) = tr.span_cpu("prepare.propagate", 0, |_| {
            scores.propagate_hierarchy_max(o, sets)
        });
        black_box(scores);
        pairs.push((compute_ns, propagate_ns));
    }
    StageTimes {
        index: index_ns,
        text_sets: text_sets_ns,
        patterns: patterns_ns,
        pattern_sets: pattern_sets_ns,
        pairs,
    }
}

/// One warm-start round: read, obo, corpus, sets, prestige and index
/// build, then `load_snapshot` whole (process CPU ms each), and the
/// loaded snapshot. The steps run in the loader's own order, each file
/// read (`std::fs::read` + UTF-8 check) just before it is parsed and
/// its text dropped after, so that both hold the same memory.
fn time_warm_start(
    tr: &mut Tracer,
    dir: &Path,
    config: &EngineConfig,
) -> Result<([f64; 7], Arc<EngineSnapshot>), String> {
    let mut read_ns = 0;
    let mut read = |tr: &mut Tracer, name: &str| {
        let (text, ns) = tr.span_cpu("persist.read", 0, |_| read_text(&dir.join(name)));
        read_ns += ns;
        text
    };
    black_box(read(tr, "snapshot.json")?);
    let obo = read(tr, "ontology.obo")?;
    let (ontology, obo_ns) = tr.span_cpu("persist.obo", 0, |_| parse_obo(&obo));
    drop(obo);
    let ontology = ontology.map_err(|e| e.to_string())?;
    let json = read(tr, "corpus.json")?;
    let (corpus, corpus_ns) = tr.span_cpu("persist.corpus", 0, |_| Corpus::from_json(&json));
    drop(json);
    let corpus = corpus.map_err(|e| e.to_string())?;
    let (index, index_ns) = tr.span_cpu("index.build", 0, |_| {
        CorpusIndex::build(&ontology, &corpus, &config.pagerank)
    });
    let mut sets = Vec::with_capacity(2);
    let mut sets_ns = 0;
    for kind in [ContextSetKind::TextBased, ContextSetKind::PatternBased] {
        let text = read(tr, &format!("sets_{}.json", kind.name()))?;
        let (parsed, ns) = tr.span_cpu("persist.sets", 0, |_| context_sets_from_json(&text));
        sets.push(parsed.map_err(|e| e.to_string())?);
        sets_ns += ns;
    }
    let mut tables = Vec::with_capacity(PAIRS.len());
    let mut prestige_ns = 0;
    for (kind, function) in PAIRS {
        let text = read(tr, &format!("prestige_{}_{}.json", kind.name(), function.name()))?;
        let (parsed, ns) = tr.span_cpu("persist.prestige", 0, |_| prestige_from_json(&text));
        tables.push(parsed.map_err(|e| e.to_string())?);
        prestige_ns += ns;
    }
    drop((ontology, corpus, index, sets, tables));
    let (loaded, load_ns) = tr.span_cpu("persist.load", 0, |_| {
        load_snapshot(dir, EngineConfig::default())
    });
    let loaded = loaded.map_err(|e| e.to_string())?;
    let times = [
        read_ns,
        obo_ns,
        corpus_ns,
        sets_ns,
        prestige_ns,
        index_ns,
        load_ns,
    ]
    .map(ms);
    Ok((times, loaded))
}

fn read_text(path: &Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    String::from_utf8(bytes).map_err(|_| format!("{} is not UTF-8", path.display()))
}

/// Median latency (µs) of [`WIRE_REPS`] loopback exchanges, each in a
/// span; failed exchanges are counted by the caller and left out.
fn wire_median(
    tr: &mut Tracer,
    name: &'static str,
    req: u64,
    mut exchange: impl FnMut() -> Option<Duration>,
) -> f64 {
    let mut latencies: Vec<f64> = (0..WIRE_REPS)
        .filter_map(|_| tr.span(name, req, |_| exchange()).0)
        .map(|d| us(d.as_nanos() as u64))
        .collect();
    median(&mut latencies)
}

fn span_count() -> u64 {
    obs::snapshot().spans.iter().map(|s| s.count).sum()
}

/// Total ns the registry has recorded for the span `name` so far.
fn span_total_ns(name: &str) -> u64 {
    obs::snapshot()
        .spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.total_ns)
}

/// Cost of one enabled `obs::span` open and close, alone and with two
/// threads contending, and of one `obs::counter` bump, in ns.
fn obs_costs() -> (f64, f64, f64) {
    let spans = || {
        let start = Instant::now();
        for _ in 0..OBS_CALLS {
            drop(black_box(obs::span("serve.http.exec")));
        }
        start.elapsed().as_nanos() as f64 / f64::from(OBS_CALLS)
    };
    let alone = spans();
    let both = Barrier::new(2);
    let contended = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    both.wait();
                    spans()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("span thread"))
            .sum::<f64>()
            / 2.0
    });
    let start = Instant::now();
    for _ in 0..OBS_CALLS {
        obs::counter(black_box("serve.http.responses"), 1);
    }
    let counter = start.elapsed().as_nanos() as f64 / f64::from(OBS_CALLS);
    (alone, contended, counter)
}

/// Median time from `AdmissionQueue::enqueue_conn` on this thread to
/// `dequeue_conn` returning on a second thread already waiting in it.
fn handoff_us() -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let client = TcpStream::connect(listener.local_addr().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let (accepted, _) = listener.accept().map_err(|e| e.to_string())?;
    let queue = AdmissionQueue::with_depth(64);
    let (back_tx, back_rx) = mpsc::channel::<(PendingConn, Instant)>();
    let mut handoffs = Vec::with_capacity(HANDOFFS);
    std::thread::scope(|scope| {
        let queue = &queue;
        let worker = scope.spawn(move || {
            while let Some(conn) = queue.dequeue_conn() {
                let got = Instant::now();
                if back_tx.send((conn, got)).is_err() {
                    break;
                }
            }
        });
        let mut conn = PendingConn {
            stream: accepted,
            enqueue_ns: 0,
        };
        for _ in 0..HANDOFFS {
            // Give the worker time to block in `dequeue_conn` again.
            std::thread::sleep(Duration::from_micros(200));
            let sent = Instant::now();
            if queue.enqueue_conn(conn).is_err() {
                break;
            }
            let Ok((back, got)) = back_rx.recv() else {
                break;
            };
            handoffs.push(us((got - sent).as_nanos() as u64));
            conn = back;
        }
        queue.close_intake();
        worker
            .join()
            .map_err(|_| "handoff worker panicked".to_string())
    })?;
    drop(client);
    if handoffs.len() != HANDOFFS {
        return Err("admission handoff loop stopped early".into());
    }
    Ok(median(&mut handoffs))
}

fn print_self_times(tr: &Tracer, trace_path: &Path) {
    let table = tr.self_times();
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "{:<40} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in table {
        let _ = writeln!(
            out,
            "{name:<40} {count:>8} {:>12.3} {:>12.3}",
            ms(total),
            ms(own)
        );
    }
    let _ = writeln!(out, "spans written to {}", trace_path.display());
}
