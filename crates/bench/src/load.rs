//! Load over the wire, and the ranking-quality drift gate.
//!
//! [`LoadHarness::run`] drives keep-alive `POST /v1/search` requests at
//! a running server from N client threads, in a closed loop (a thread
//! sends its next request when the previous answer arrives) or an open
//! loop (arrivals at a fixed per-thread rate; latency is anchored at
//! the scheduled arrival, so time spent waiting on the server counts
//! and there is no coordinated omission). Client-observed latency lands
//! in the `client.request` rolling series, `429` deadline sheds and
//! `503` door rejections in `client.shed`: a shed is the server keeping
//! its latency promise, not a failure, but a nominal-load run should
//! shed nothing (CI's serve-smoke gates on exactly that). The slowest
//! answers enter a leaderboard under their query text.
//!
//! [`LoadHarness::report`] reads the windows, the SLO burn rates and
//! the leaderboard into one [`LoadReport`]. When the server runs in the
//! same process (`litsearch top` without `--target`), its own spans
//! (`serve.http.*`, `serve.query`, `search.*`) stream into the same
//! recorder, so every other row of the report is time the server
//! measured. Overload is checked on the real server under a manual
//! clock, in `tests/serve_overload.rs`.
//!
//! [`quality_gate`] is the ranking-quality drift gate: a sample stream
//! shadow-scored on the calling thread, with no load and no time
//! passing.

use context_search::{shadow_evaluate, ContextSetKind, ScoreFunction, Searcher, ShadowConfig};
use obs::{
    QualityAggregator, QualityBaseline, QualityReport, RollingRecorder, SloReport, SloSpec,
    SlowQuery, SlowQueryLog, WindowStats,
};
use serde::Value;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How client threads pace their requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopMode {
    /// Next request starts when the previous one is answered.
    Closed,
    /// Arrivals at a fixed per-thread rate; latency includes queueing.
    Open {
        /// Arrival rate per client thread, requests per second.
        qps_per_worker: f64,
    },
}

impl LoopMode {
    fn name(&self) -> &'static str {
        match self {
            LoopMode::Closed => "closed",
            LoopMode::Open { .. } => "open",
        }
    }
}

/// Shape of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Client threads, each with one keep-alive connection.
    pub threads: usize,
    /// Requests sent per client thread.
    pub queries_per_thread: usize,
    /// Closed or open loop.
    pub mode: LoopMode,
    /// Result limit per request.
    pub limit: usize,
    /// Context paper set asked for.
    pub kind: ContextSetKind,
    /// Prestige function asked for.
    pub function: ScoreFunction,
    /// Window the report reads, seconds.
    pub window_secs: u64,
    /// Slow-query threshold, and the bound of the latency objective
    /// ([`network_serve_slos`]), nanoseconds.
    pub slow_threshold_ns: u64,
    /// Slow-query leaderboard size.
    pub slow_capacity: usize,
}

/// The serving objectives on client-observed latency: p99 of
/// `client.request` under the threshold, and 99.9% non-error responses.
pub fn network_serve_slos(latency_threshold_ns: u64) -> Vec<SloSpec> {
    vec![
        SloSpec::latency(
            "serve-http-latency-p99",
            "client.request",
            latency_threshold_ns,
            0.99,
        ),
        SloSpec::availability("serve-http-availability", "client.request", 0.999),
    ]
}

/// `litsearch quality`'s drift gate: the sample stream of a run of
/// `n_queries` queries — request `seq` in `1..=n_queries` asks query
/// `(seq − 1) mod queries.len()`, and every `shadow.sample_every`-th
/// is sampled — re-ranked under every prestige function by
/// [`shadow_evaluate`] on the calling thread, summarized and, given a
/// baseline, judged. A pure function of the snapshot and the stream.
pub fn quality_gate(
    searcher: &Searcher,
    queries: &[String],
    n_queries: u64,
    shadow: &ShadowConfig,
    baseline: Option<&QualityBaseline>,
) -> QualityReport {
    let aggregator = QualityAggregator::new();
    let every = shadow.sample_every.max(1);
    if !queries.is_empty() {
        for seq in (every..=n_queries).step_by(every as usize) {
            let query = &queries[((seq - 1) % queries.len() as u64) as usize];
            aggregator.record(&shadow_evaluate(searcher, shadow, query));
        }
    }
    let summary = aggregator.summary();
    let drift = baseline.map(|b| b.evaluate(&summary));
    QualityReport { summary, drift }
}

/// `http://host:port` (or bare `host:port`) → `host:port`.
pub fn host_port(target: &str) -> Result<String, String> {
    let stripped = target
        .strip_prefix("http://")
        .unwrap_or(target)
        .trim_end_matches('/');
    if stripped.is_empty() || !stripped.contains(':') {
        return Err(format!("target {target:?} must look like http://HOST:PORT"));
    }
    Ok(stripped.to_string())
}

/// Answers counted over one run.
#[derive(Default)]
struct Tallies {
    requests: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    transport_errors: AtomicU64,
}

/// One load run: the configuration, the server it drives, and what the
/// run has observed so far.
pub struct LoadHarness {
    config: LoadConfig,
    target: String,
    host: String,
    rolling: Arc<RollingRecorder>,
    slowlog: SlowQueryLog,
    tallies: Tallies,
    /// Clock reading when [`run`](Self::run) started.
    start_ns: u64,
    /// Clock reading when [`run`](Self::run) returned.
    end_ns: Option<u64>,
}

impl LoadHarness {
    /// A run against `target` (`http://HOST:PORT`) that records into
    /// `rolling` and reads time from its clock.
    pub fn new(
        config: LoadConfig,
        target: &str,
        rolling: Arc<RollingRecorder>,
    ) -> Result<Self, String> {
        let host = host_port(target)?;
        let slowlog = SlowQueryLog::new(config.slow_threshold_ns, config.slow_capacity);
        let start_ns = rolling.clock().now_ns();
        Ok(Self {
            config,
            target: target.to_string(),
            host,
            rolling,
            slowlog,
            tallies: Tallies::default(),
            start_ns,
            end_ns: None,
        })
    }

    /// Drive the load to completion, calling `tick` every `tick_ms`
    /// milliseconds from the calling thread while clients are busy
    /// (live dashboard hook; `tick_ms = 0` disables ticking). Client
    /// `w` asks query `(w × queries_per_thread + i) mod queries.len()`
    /// as its `i`-th request.
    pub fn run(&mut self, queries: &[String], tick_ms: u64, mut tick: impl FnMut(&Self)) {
        self.start_ns = self.rolling.clock().now_ns();
        let this = &*self;
        let cfg = &this.config;
        let threads = cfg.threads.max(1);
        let live_clients = AtomicU64::new(threads as u64);
        if !queries.is_empty() {
            std::thread::scope(|scope| {
                for w in 0..threads {
                    let live_clients = &live_clients;
                    scope.spawn(move || {
                        let mut client = Client::default();
                        for i in 0..cfg.queries_per_thread {
                            let query = &queries[(w * cfg.queries_per_thread + i) % queries.len()];
                            this.send(&mut client, w, i, query);
                        }
                        live_clients.fetch_sub(1, Ordering::Relaxed);
                    });
                }
                if tick_ms > 0 {
                    while live_clients.load(Ordering::Relaxed) > 0 {
                        std::thread::sleep(Duration::from_millis(tick_ms));
                        tick(this);
                    }
                }
            });
        }
        self.end_ns = Some(self.rolling.clock().now_ns());
    }

    /// Send client `w`'s `i`-th request and record its answer.
    fn send(&self, client: &mut Client, w: usize, i: usize, query: &str) {
        let cfg = &self.config;
        let clock = self.rolling.clock();
        let request = search_request(&self.host, query, cfg.kind, cfg.function, cfg.limit);
        let anchor_ns = match cfg.mode {
            LoopMode::Closed => clock.now_ns(),
            LoopMode::Open { qps_per_worker } => {
                let arrival_ns =
                    self.start_ns + ((i as f64) * 1e9 / qps_per_worker.max(0.000_001)) as u64;
                let now = clock.now_ns();
                if arrival_ns > now {
                    std::thread::sleep(Duration::from_nanos(arrival_ns - now));
                }
                arrival_ns
            }
        };
        let outcome = client.exchange(&self.host, &request);
        let completion_ns = clock.now_ns();
        let latency_ns = completion_ns.saturating_sub(anchor_ns);

        let t = &self.tallies;
        t.requests.fetch_add(1, Ordering::Relaxed);
        let (series, error) = match outcome {
            Ok(429) => {
                t.shed.fetch_add(1, Ordering::Relaxed);
                ("client.shed", false)
            }
            Ok(503) => {
                t.rejected.fetch_add(1, Ordering::Relaxed);
                ("client.shed", false)
            }
            Ok(status) => {
                if self.slowlog.is_slow(latency_ns) {
                    self.slowlog.push(SlowQuery {
                        query: query.to_string(),
                        duration_ns: latency_ns,
                        ts_ns: completion_ns,
                        stats: vec![("status".to_string(), u64::from(status))],
                    });
                }
                ("client.request", status >= 400)
            }
            Err(_) => {
                t.transport_errors.fetch_add(1, Ordering::Relaxed);
                ("client.request", true)
            }
        };
        if error {
            t.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.rolling
            .record_at(w, series, completion_ns, latency_ns, error);
    }

    /// A report at the clock's current reading: what a live dashboard
    /// tick renders mid-run, and the final report once [`run`](Self::run)
    /// has returned.
    pub fn report(&self) -> LoadReport {
        let at_ns = self.rolling.clock().now_ns();
        let end_ns = self.end_ns.unwrap_or(at_ns);
        let t = &self.tallies;
        LoadReport {
            threads: self.config.threads,
            mode: self.config.mode.name(),
            target: self.target.clone(),
            total_queries: t.requests.load(Ordering::Relaxed),
            errors: t.errors.load(Ordering::Relaxed),
            shed: t.shed.load(Ordering::Relaxed),
            rejected: t.rejected.load(Ordering::Relaxed),
            transport_errors: t.transport_errors.load(Ordering::Relaxed),
            wall_ns: end_ns.saturating_sub(self.start_ns),
            window_secs: self.config.window_secs,
            windows: self.rolling.snapshot_at(self.config.window_secs, at_ns),
            slo: obs::slo::evaluate_at(
                &self.rolling,
                &network_serve_slos(self.config.slow_threshold_ns),
                &obs::default_burn_windows(),
                at_ns,
            ),
            slow: self.slowlog.leaderboard(),
            quality: None,
        }
    }
}

/// One client thread's keep-alive connection and read buffer.
#[derive(Default)]
struct Client {
    conn: Option<TcpStream>,
    scratch: Vec<u8>,
}

impl Client {
    /// Send `request` and read its answer's status. A stale keep-alive
    /// socket dies on first use, so a failure is retried once on a
    /// fresh connection.
    fn exchange(&mut self, host: &str, request: &[u8]) -> Result<u16, String> {
        let mut last_err = String::new();
        for _attempt in 0..2 {
            let stream = match self.conn.as_mut() {
                Some(stream) => stream,
                None => {
                    let fresh =
                        TcpStream::connect(host).map_err(|err| format!("connect {host}: {err}"))?;
                    let _ = fresh.set_nodelay(true);
                    let _ = fresh.set_read_timeout(Some(Duration::from_millis(100)));
                    self.conn.insert(fresh)
                }
            };
            let got = match stream.write_all(request) {
                Ok(()) => read_response(stream, &mut self.scratch),
                Err(err) => Err(format!("write failed: {err}")),
            };
            match got {
                Ok((status, close)) => {
                    if close {
                        self.conn = None;
                        self.scratch.clear();
                    }
                    return Ok(status);
                }
                Err(err) => {
                    self.conn = None;
                    self.scratch.clear();
                    last_err = err;
                }
            }
        }
        Err(last_err)
    }
}

/// Build the `/v1/search` request bytes for one query.
fn search_request(
    host: &str,
    query: &str,
    kind: ContextSetKind,
    function: ScoreFunction,
    limit: usize,
) -> Vec<u8> {
    let body = serde_json::to_string(&Value::Map(vec![
        ("query".to_string(), Value::Str(query.to_string())),
        ("kind".to_string(), Value::Str(kind.name().to_string())),
        (
            "function".to_string(),
            Value::Str(function.name().to_string()),
        ),
        ("limit".to_string(), Value::UInt(limit as u64)),
    ]))
    .expect("request body serializes");
    let mut bytes = format!(
        "POST /v1/search HTTP/1.1\r\nhost: {host}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Read one `content-length`-framed response. Returns the status code
/// and whether the server asked to close the connection.
fn read_response(stream: &mut TcpStream, scratch: &mut Vec<u8>) -> Result<(u16, bool), String> {
    scratch.clear();
    let mut chunk = [0u8; 8192];
    let mut fill = |scratch: &mut Vec<u8>, eof: &str| -> Result<(), String> {
        match stream.read(&mut chunk) {
            Ok(0) => Err(eof.to_string()),
            Ok(n) => {
                scratch.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(err)
                if err.kind() == ErrorKind::WouldBlock || err.kind() == ErrorKind::TimedOut =>
            {
                Ok(())
            }
            Err(err) => Err(format!("read failed: {err}")),
        }
    };
    let head_end = loop {
        if let Some(pos) = scratch.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if scratch.len() > 64 * 1024 {
            return Err("response head too large".to_string());
        }
        fill(scratch, "connection closed mid-response")?;
    };
    let head = std::str::from_utf8(&scratch[..head_end])
        .map_err(|_| "response head not UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| format!("bad content-length {value:?}"))?;
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    let total = head_end + 4 + content_length;
    while scratch.len() < total {
        fill(scratch, "connection closed mid-body")?;
    }
    scratch.drain(..total);
    Ok((status, close))
}

/// Everything one load run (or one live tick) observed.
pub struct LoadReport {
    /// Client threads that drove the load.
    pub threads: usize,
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// The server driven, `http://HOST:PORT`.
    pub target: String,
    /// Requests sent.
    pub total_queries: u64,
    /// Error answers (status ≥ 400 other than 429 and 503) plus
    /// transport failures.
    pub errors: u64,
    /// `429` deadline sheds (not errors).
    pub shed: u64,
    /// `503` queue-full rejections (not errors).
    pub rejected: u64,
    /// Connect, read and write failures (counted as errors).
    pub transport_errors: u64,
    /// Run length, nanoseconds.
    pub wall_ns: u64,
    /// Window the stats were read over, seconds.
    pub window_secs: u64,
    /// Windowed per-series stats, sorted by series name.
    pub windows: Vec<WindowStats>,
    /// The SLO evaluation at report time.
    pub slo: SloReport,
    /// Slow-query leaderboard, slowest first.
    pub slow: Vec<SlowQuery>,
    /// The server's ranking-quality report, when it shadow-scored.
    pub quality: Option<QualityReport>,
}

impl LoadReport {
    /// Whether any objective is in hard violation.
    pub fn has_hard_violation(&self) -> bool {
        self.slo.has_hard_violation()
    }

    /// JSON object form: tallies, windowed stats, SLO burn rates, the
    /// slow-query leaderboard and, when present, the quality report.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("threads".to_string(), Value::UInt(self.threads as u64)),
            ("mode".to_string(), Value::Str(self.mode.to_string())),
            ("target".to_string(), Value::Str(self.target.clone())),
            ("total_queries".to_string(), Value::UInt(self.total_queries)),
            ("errors".to_string(), Value::UInt(self.errors)),
            ("shed".to_string(), Value::UInt(self.shed)),
            ("rejected".to_string(), Value::UInt(self.rejected)),
            (
                "transport_errors".to_string(),
                Value::UInt(self.transport_errors),
            ),
            ("wall_ns".to_string(), Value::UInt(self.wall_ns)),
            ("window_secs".to_string(), Value::UInt(self.window_secs)),
            (
                "windows".to_string(),
                Value::Seq(self.windows.iter().map(WindowStats::to_value).collect()),
            ),
            ("slo".to_string(), self.slo.to_value()),
            (
                "slow_queries".to_string(),
                Value::Seq(self.slow.iter().map(SlowQuery::to_value).collect()),
            ),
        ];
        if let Some(quality) = &self.quality {
            fields.push(("quality".to_string(), quality.to_value()));
        }
        Value::Map(fields)
    }

    /// Pretty JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("report serializes")
    }

    /// The terminal dashboard: tallies, windowed per-series stats, SLO
    /// burn, the slow-query leaderboard and the quality panel —
    /// `litsearch top` renders exactly this.
    pub fn render_dashboard(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let status = |s: obs::SloStatus| match s {
            obs::SloStatus::Ok => "ok",
            obs::SloStatus::Warn => "WARN",
            obs::SloStatus::Critical => "CRITICAL",
        };
        let mut out = format!(
            "serving dashboard — {} loop, {} clients → {}, window {}s, t={:.1}s\n",
            self.mode,
            self.threads,
            self.target,
            self.window_secs,
            self.wall_ns as f64 / 1e9,
        );
        out.push_str(&format!(
            "requests {}  errors {}  shed(429) {}  rejected(503) {}  transport errors {}  \
             throughput {:.1} q/s\n\n",
            self.total_queries,
            self.errors,
            self.shed,
            self.rejected,
            self.transport_errors,
            if self.wall_ns == 0 {
                0.0
            } else {
                self.total_queries as f64 * 1e9 / self.wall_ns as f64
            },
        ));
        out.push_str(&format!(
            "{:<28} {:>7} {:>8} {:>9} {:>9} {:>9} {:>7}\n",
            "series", "count", "qps", "p50 ms", "p95 ms", "p99 ms", "err%"
        ));
        for w in &self.windows {
            out.push_str(&format!(
                "{:<28} {:>7} {:>8.1} {:>9.3} {:>9.3} {:>9.3} {:>6.2}%\n",
                w.name,
                w.count,
                w.qps,
                ms(w.p50_ns),
                ms(w.p95_ns),
                ms(w.p99_ns),
                w.error_rate * 100.0,
            ));
        }
        out.push_str("\nSLO burn:\n");
        out.push_str(&format!(
            "{:<24} {:>8} {:>12} {:>12} {:>9}\n",
            "objective", "target", "short burn", "long burn", "status"
        ));
        for e in &self.slo.evals {
            let burn = |i: usize| e.windows.get(i).map_or(0.0, |w| w.burn_rate);
            out.push_str(&format!(
                "{:<24} {:>8.4} {:>12.3} {:>12.3} {:>9}\n",
                e.spec.name,
                e.spec.target,
                burn(0),
                burn(1),
                status(e.status),
            ));
        }
        out.push_str("\nslow queries (client-observed, slowest first):\n");
        if self.slow.is_empty() {
            out.push_str("  none\n");
        }
        for s in &self.slow {
            let stats: Vec<String> = s.stats.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(
                "  {:>9.3} ms  {:<32} {}\n",
                ms(s.duration_ns),
                s.query,
                stats.join(" "),
            ));
        }
        if let Some(quality) = &self.quality {
            let s = &quality.summary;
            out.push_str(&format!(
                "\nranking quality (shadow-scored sample):\n\
                 sampled {}  dropped {}  winning-context agreement {:.1}%\n",
                s.sampled,
                s.dropped,
                100.0 * s.agreement_rate,
            ));
            out.push_str(&format!(
                "{:<34} {:>7} {:>10}\n",
                "overlap pair", "queries", "mean"
            ));
            for o in &s.overlaps {
                out.push_str(&format!(
                    "{:<34} {:>7} {:>10.4}\n",
                    o.series, o.count, o.mean
                ));
            }
            out.push_str(&format!(
                "{:<34} {:>7} {:>7} {:>7} {:>10}\n",
                "score function", "scores", "p50", "p90", "sep SD"
            ));
            for f in &s.functions {
                out.push_str(&format!(
                    "{:<34} {:>7} {:>7.3} {:>7.3} {:>10.2}\n",
                    f.series, f.count, f.p50, f.p90, f.separability_sd
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{ExpConfig, Setup};
    use std::sync::OnceLock;

    /// One tiny shared testbed for every test (building a snapshot is
    /// the expensive part).
    fn testbed() -> &'static (Setup, Vec<String>) {
        static TESTBED: OnceLock<(Setup, Vec<String>)> = OnceLock::new();
        TESTBED.get_or_init(|| {
            let setup = Setup::build(ExpConfig {
                n_terms: 60,
                n_papers: 150,
                n_queries: 12,
                seed: 5,
                min_context_size: 5,
                ..Default::default()
            });
            let queries: Vec<String> = setup.queries.iter().map(|q| q.text.clone()).collect();
            (setup, queries)
        })
    }

    #[test]
    fn host_port_accepts_http_prefix() {
        assert_eq!(
            host_port("http://127.0.0.1:8080").unwrap(),
            "127.0.0.1:8080"
        );
        assert_eq!(host_port("127.0.0.1:9/").unwrap(), "127.0.0.1:9");
        assert!(host_port("http://nohostport").is_err());
    }

    fn gate_config() -> ShadowConfig {
        ShadowConfig {
            sample_every: 2,
            limit: 10,
            ..Default::default()
        }
    }

    #[test]
    fn quality_gate_reports_are_identical_across_runs() {
        let (setup, queries) = testbed();
        let run = || {
            let report = quality_gate(&setup.searcher, queries, 60, &gate_config(), None);
            assert_eq!(report.summary.sampled, 30, "every second of 60 queries");
            assert_eq!(report.summary.dropped, 0);
            report.to_json()
        };
        let a = run();
        assert_eq!(a, run(), "the quality report is a pure function");
        assert!(a.contains("quality.overlap.citation_text"));
        assert!(a.contains("quality.separability.pattern"));
    }

    #[test]
    fn quality_drift_gate_fires_on_flattened_prestige() {
        let (setup, queries) = testbed();
        // A healthy run writes the baseline...
        let healthy = quality_gate(&setup.searcher, queries, 60, &gate_config(), None);
        let baseline = QualityBaseline::from_summary(&healthy.summary);
        let judged = quality_gate(
            &setup.searcher,
            queries,
            60,
            &gate_config(),
            Some(&baseline),
        );
        assert_eq!(
            judged.drift.as_ref().map(|d| d.status),
            Some(obs::SloStatus::Ok),
            "a healthy run judges clean against its own baseline"
        );

        // ...then the citation function collapses to a constant table
        // (the what-if override keeps the snapshot itself pristine).
        let flat = {
            let table = setup
                .searcher
                .prestige(ContextSetKind::PatternBased, ScoreFunction::Citation)
                .expect("citation table prepared");
            let mut by_context = std::collections::HashMap::new();
            for context in table.contexts() {
                by_context.insert(
                    context,
                    table
                        .scores(context)
                        .iter()
                        .map(|&(p, _)| (p, 1.0))
                        .collect::<Vec<_>>(),
                );
            }
            context_search::PrestigeScores::new(by_context, ScoreFunction::Citation)
        };
        let perturbed = setup.searcher.with_prestige_override(
            ContextSetKind::PatternBased,
            ScoreFunction::Citation,
            flat,
        );
        let drifted = quality_gate(&perturbed, queries, 60, &gate_config(), Some(&baseline));
        let drift = drifted.drift.as_ref().expect("baseline produces a verdict");
        assert!(
            drift.has_hard_violation(),
            "flattened prestige must trip the gate; verdict was {:?}: {}",
            drift.status,
            drift
                .checks
                .iter()
                .map(|c| format!(
                    "{} {} obs={:.4} [{}]",
                    c.name, c.subject, c.observed, c.bound
                ))
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}
