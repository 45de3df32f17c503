//! Closed-loop load generation over a shared lock-free [`Searcher`],
//! feeding the live-observability layer.
//!
//! N worker threads drive queries against one snapshot and record
//! end-to-end latencies into a sharded [`RollingRecorder`]; at the end
//! (and, live, on every tick) the harness reads windowed per-stage
//! stats, evaluates the configured SLOs, and reports the slow-query
//! leaderboard with captured explain traces.
//!
//! Latencies are wall-clock measurements from a [`MonotonicClock`];
//! the harness also enables global metrics and attaches its recorder
//! to the registry, so per-stage span durations (`engine.search`,
//! `search.*`) stream into their own windowed series. Each worker
//! issues its next query the moment the previous completes (latency =
//! service time). Open-loop arrivals, whose latency includes queue
//! wait, need a server to queue in: [`crate::netload::run_network`]
//! paces them over the wire.
//!
//! Slow-query capture: any query whose latency reaches the threshold
//! is re-executed once with the global tracer armed — queries are
//! deterministic, so the re-execution *is* the slow execution.
//! Captures are serialized behind a process-wide mutex and filtered to
//! the capturing thread's events, so concurrent workers never
//! interleave their explain traces.
//!
//! [`quality_gate`] is the ranking-quality drift gate: a sample stream
//! shadow-scored on the calling thread, with no load harness and no
//! time passing.

use context_search::{
    shadow_evaluate, ContextSetKind, QualityShadow, ScoreFunction, Searcher, ShadowConfig,
};
use obs::{
    Clock, ManualClock, MonotonicClock, QualityAggregator, QualityBaseline, QualityReport,
    RollingConfig, RollingRecorder, SloReport, SloSpec, SloTracker, SlowQuery, SlowQueryLog,
    TraceData, WindowStats,
};
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How workers pace their queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopMode {
    /// Next query starts when the previous one completes.
    Closed,
    /// Arrivals at a fixed per-worker rate; latency includes queueing.
    Open {
        /// Arrival rate per worker, queries per second.
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
    /// Worker threads (each owns one rolling shard).
    pub threads: usize,
    /// Queries issued per worker.
    pub queries_per_thread: usize,
    /// Closed or open loop. [`LoadHarness::run`] drives closed loops
    /// only; open loops pace arrivals over the wire
    /// ([`crate::netload::run_network`]).
    pub mode: LoopMode,
    /// Result limit per query.
    pub limit: usize,
    /// Context paper set served.
    pub kind: ContextSetKind,
    /// Prestige function served.
    pub function: ScoreFunction,
    /// Window the final report reads, seconds.
    pub window_secs: u64,
    /// Slow-query threshold, nanoseconds.
    pub slow_threshold_ns: u64,
    /// Slow-query leaderboard size.
    pub slow_capacity: usize,
    /// Capture an explain trace for each slow query.
    pub capture_traces: bool,
    /// Record every Nth query as an error (0 = none) — synthetic
    /// unavailability for exercising burn-rate alerts end to end.
    pub error_every: u64,
    /// Objectives evaluated over the run.
    pub slos: Vec<SloSpec>,
    /// Shadow-score a sample of queries and report ranking quality
    /// (`None` = off; the serve path is untouched either way).
    pub quality: Option<QualityLoadConfig>,
}

/// Quality-observability knobs for one load run.
#[derive(Debug, Clone)]
pub struct QualityLoadConfig {
    /// Shadow-score one of every `sample_every` queries (>= 1).
    pub sample_every: u64,
    /// Top fraction compared between the functions' rankings.
    pub top_pct: f64,
    /// Separability sketch bins.
    pub n_bins: usize,
    /// Bounded queue depth to the shadow worker; overflow samples are
    /// dropped and counted.
    pub queue_capacity: usize,
}

impl Default for QualityLoadConfig {
    fn default() -> Self {
        Self {
            sample_every: 4,
            top_pct: 0.10,
            n_bins: 10,
            queue_capacity: 256,
        }
    }
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            queries_per_thread: 100,
            mode: LoopMode::Closed,
            limit: 10,
            kind: ContextSetKind::PatternBased,
            function: ScoreFunction::Pattern,
            window_secs: 60,
            slow_threshold_ns: 50 * 1_000_000,
            slow_capacity: 16,
            capture_traces: true,
            error_every: 0,
            slos: default_serve_slos(50 * 1_000_000),
            quality: None,
        }
    }
}

/// The stock serving objectives: "99% of `serve.query` under the
/// threshold" and "99.9% of queries succeed".
pub fn default_serve_slos(latency_threshold_ns: u64) -> Vec<SloSpec> {
    vec![
        SloSpec::latency(
            "serve-latency-p99",
            "serve.query",
            latency_threshold_ns,
            0.99,
        ),
        SloSpec::availability("serve-availability", "serve.query", 0.999),
    ]
}

/// `litsearch quality`'s drift gate: the sample stream of a run of
/// `n_queries` queries — request `seq` in `1..=n_queries` asks query
/// `(seq − 1) mod queries.len()`, and every `shadow.sample_every`-th
/// is sampled — re-ranked under every prestige function by
/// [`shadow_evaluate`] on the calling thread, summarized into
/// `n_bins` separability bins and, given a baseline, judged. A pure
/// function of the snapshot and the stream: the report reads its
/// (never moving) clock at 0.
pub fn quality_gate(
    searcher: &Searcher,
    queries: &[String],
    n_queries: u64,
    shadow: &ShadowConfig,
    n_bins: usize,
    baseline: Option<&QualityBaseline>,
) -> QualityReport {
    let rolling = Arc::new(RollingRecorder::new(
        RollingConfig {
            bucket_secs: 1,
            window_secs: 60,
            shards: 1,
        },
        Arc::new(ManualClock::new(0)),
    ));
    let aggregator = QualityAggregator::new(rolling, n_bins);
    let every = shadow.sample_every.max(1);
    if !queries.is_empty() {
        for seq in (every..=n_queries).step_by(every as usize) {
            let query = &queries[((seq - 1) % queries.len() as u64) as usize];
            if let Some(event) = shadow_evaluate(searcher, shadow, query, 0, 0) {
                aggregator.record(&event);
            }
        }
    }
    let summary = aggregator.summary_at(0);
    let drift = baseline.map(|b| b.evaluate(&summary));
    QualityReport { summary, drift }
}

/// Serializes slow-query trace captures: the global tracer is a single
/// sink, so only one worker may arm it at a time.
static CAPTURE: Mutex<()> = Mutex::new(());

/// Re-execute `query` with the global tracer armed and return this
/// thread's events — the explain trace of the (deterministic) slow
/// execution. Goes through the span-free [`Searcher::search_with_stats`]
/// path so the re-execution never lands a second `serve.query`
/// observation in an attached rolling recorder.
fn capture_explain_trace(
    searcher: &Searcher,
    query: &str,
    kind: ContextSetKind,
    function: ScoreFunction,
    limit: usize,
) -> Option<TraceData> {
    let _serialize = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    let prestige = searcher.prestige(kind, function)?;
    let tid = obs::trace::current_tid();
    obs::trace_start();
    let _ = searcher.search_with_stats(query, searcher.sets(kind), prestige, limit);
    obs::trace_finish().map(|data| data.filter_tid(tid))
}

/// One load run's worth of shared observability state plus the
/// configuration to drive it.
pub struct LoadHarness {
    config: LoadConfig,
    rolling: Arc<RollingRecorder>,
    slo: Arc<SloTracker>,
    slowlog: Arc<SlowQueryLog>,
    clock: Arc<dyn Clock>,
    queries_issued: AtomicU64,
    errors_seen: AtomicU64,
    /// Quality aggregation, when the run shadow-scores (its series
    /// land in `rolling`, so dashboards show them alongside latency).
    quality_agg: Option<Arc<QualityAggregator>>,
}

impl LoadHarness {
    /// Build the harness around a fresh monotonic clock.
    pub fn new(config: LoadConfig) -> Self {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        // The ring must answer the report's window; sizing it to the
        // configured window (min 60 s) keeps memory bounded.
        let rolling = Arc::new(RollingRecorder::new(
            RollingConfig {
                bucket_secs: 1,
                window_secs: config.window_secs.max(60),
                shards: config.threads.max(1),
            },
            clock.clone(),
        ));
        let slo = Arc::new(SloTracker::new(
            config.slos.clone(),
            obs::default_burn_windows(),
        ));
        let slowlog = Arc::new(SlowQueryLog::new(
            config.slow_threshold_ns,
            config.slow_capacity,
        ));
        let quality_agg = config
            .quality
            .as_ref()
            .map(|qc| Arc::new(QualityAggregator::new(rolling.clone(), qc.n_bins)));
        Self {
            config,
            rolling,
            slo,
            slowlog,
            clock,
            queries_issued: AtomicU64::new(0),
            errors_seen: AtomicU64::new(0),
            quality_agg,
        }
    }

    /// The harness's rolling recorder (live dashboards read it).
    pub fn rolling(&self) -> &Arc<RollingRecorder> {
        &self.rolling
    }

    /// The harness's SLO tracker.
    pub fn slo(&self) -> &Arc<SloTracker> {
        &self.slo
    }

    /// The harness's slow-query log.
    pub fn slowlog(&self) -> &Arc<SlowQueryLog> {
        &self.slowlog
    }

    /// The harness clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The quality aggregator, when this run shadow-scores.
    pub fn quality(&self) -> Option<&Arc<QualityAggregator>> {
        self.quality_agg.as_ref()
    }

    /// The configuration this harness runs.
    pub fn config(&self) -> &LoadConfig {
        &self.config
    }

    /// Run the load to completion and build the final report.
    pub fn run(&self, searcher: &Searcher, queries: &[String]) -> LoadReport {
        self.run_with_tick(searcher, queries, 0, |_| {})
    }

    /// [`run`](Self::run), invoking `tick` every `tick_ms` milliseconds
    /// from the calling thread while workers are busy (live dashboard
    /// hook; `tick_ms = 0` disables ticking). The callback sees the
    /// harness, so it can snapshot windows and SLOs mid-run.
    pub fn run_with_tick(
        &self,
        searcher: &Searcher,
        queries: &[String],
        tick_ms: u64,
        mut tick: impl FnMut(&Self),
    ) -> LoadReport {
        assert!(!queries.is_empty(), "load run needs at least one query");
        let cfg = &self.config;
        assert_eq!(
            cfg.mode,
            LoopMode::Closed,
            "in-process runs are closed loops; open loops pace arrivals over the wire"
        );
        let threads = cfg.threads.max(1);
        // Per-stage span durations stream into the same recorder.
        obs::enable();
        obs::attach_rolling(self.rolling.clone());
        self.queries_issued.store(0, Ordering::Relaxed);
        self.errors_seen.store(0, Ordering::Relaxed);
        let total_errors = &self.errors_seen;
        let total_queries = &self.queries_issued;
        let live_workers = AtomicU64::new(threads as u64);

        // The shadow scorer lives outside the worker scope: workers
        // only submit; the background evaluation drains after they
        // finish, so the final report sees every accepted sample.
        let shadow = match (&cfg.quality, &self.quality_agg) {
            (Some(qc), Some(agg)) => Some(QualityShadow::spawn(
                searcher.clone(),
                ShadowConfig {
                    sample_every: qc.sample_every.max(1),
                    kind: cfg.kind,
                    limit: cfg.limit,
                    top_pct: qc.top_pct,
                    queue_capacity: qc.queue_capacity,
                },
                Arc::clone(agg),
            )),
            _ => None,
        };
        let shadow_ref = shadow.as_ref();

        std::thread::scope(|scope| {
            for w in 0..threads {
                let searcher = searcher.clone();
                let rolling = self.rolling.clone();
                let slowlog = self.slowlog.clone();
                let clock = self.clock.clone();
                let live_workers = &live_workers;
                scope.spawn(move || {
                    for i in 0..cfg.queries_per_thread {
                        let q_idx = (w * cfg.queries_per_thread + i) % queries.len();
                        let query = &queries[q_idx];
                        let seq = (w * cfg.queries_per_thread + i) as u64 + 1;
                        let injected_error =
                            cfg.error_every > 0 && seq.is_multiple_of(cfg.error_every);
                        total_queries.fetch_add(1, Ordering::Relaxed);

                        // Execute (errors are injected by skipping the
                        // execution — the "server" was unavailable).
                        let (stats, latency_ns) = if injected_error {
                            (Default::default(), 100_000)
                        } else {
                            // Span-free execution path: the worker
                            // records the end-to-end `serve.query`
                            // observation itself, so the attached
                            // registry feed (which carries the
                            // per-stage spans) never double-counts the
                            // serve series.
                            let t0 = clock.now_ns();
                            let executed =
                                searcher.prestige(cfg.kind, cfg.function).map(|prestige| {
                                    searcher.search_with_stats(
                                        query,
                                        searcher.sets(cfg.kind),
                                        prestige,
                                        cfg.limit,
                                    )
                                });
                            let elapsed = clock.now_ns().saturating_sub(t0);
                            match executed {
                                Some((_, stats)) => (stats, elapsed),
                                None => {
                                    total_errors.fetch_add(1, Ordering::Relaxed);
                                    rolling.record_at(
                                        w,
                                        "serve.query",
                                        clock.now_ns(),
                                        elapsed,
                                        true,
                                    );
                                    continue;
                                }
                            }
                        };

                        let completion_ns = clock.now_ns();
                        let error = injected_error;
                        if error {
                            total_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        rolling.record_at(w, "serve.query", completion_ns, latency_ns, error);
                        if !error {
                            if let Some(shadow) = shadow_ref {
                                // Deterministic sampling key: the same
                                // (worker, iteration) pair samples the
                                // same queries on every run.
                                shadow.observe_seq(seq, query, w, completion_ns);
                            }
                        }

                        if !error && slowlog.is_slow(latency_ns) {
                            let trace = if cfg.capture_traces {
                                capture_explain_trace(
                                    &searcher,
                                    query,
                                    cfg.kind,
                                    cfg.function,
                                    cfg.limit,
                                )
                            } else {
                                None
                            };
                            slowlog.push(SlowQuery {
                                query: query.clone(),
                                duration_ns: latency_ns,
                                ts_ns: completion_ns,
                                stats: vec![
                                    ("selected_contexts".to_string(), stats.selected_contexts),
                                    ("keyword_candidates".to_string(), stats.keyword_candidates),
                                    ("scored_pairs".to_string(), stats.scored_pairs),
                                    ("results".to_string(), stats.results),
                                    ("heap_pushes".to_string(), stats.heap_pushes),
                                ],
                                trace,
                            });
                        }
                    }
                    live_workers.fetch_sub(1, Ordering::Relaxed);
                });
            }
            if tick_ms > 0 {
                while live_workers.load(Ordering::Relaxed) > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(tick_ms));
                    tick(self);
                }
            }
        });
        // Drain and join the shadow worker: every accepted sample is
        // aggregated before the report reads the summary.
        if let Some(shadow) = &shadow {
            shadow.finish();
        }
        obs::global().detach_rolling();

        self.report_at(
            self.clock.now_ns(),
            total_queries.load(Ordering::Relaxed),
            total_errors.load(Ordering::Relaxed),
        )
    }

    /// A mid-run report at the clock's current reading — what a live
    /// dashboard tick renders.
    pub fn report_now(&self) -> LoadReport {
        self.report_at(
            self.clock.now_ns(),
            self.queries_issued.load(Ordering::Relaxed),
            self.errors_seen.load(Ordering::Relaxed),
        )
    }

    /// Build a report from the current recorder contents, read at
    /// `at_ns` on the harness timeline.
    pub fn report_at(&self, at_ns: u64, total_queries: u64, total_errors: u64) -> LoadReport {
        let windows = self.rolling.snapshot_at(self.config.window_secs, at_ns);
        let slo = self.slo.evaluate_at(&self.rolling, at_ns);
        let trace_dropped = obs::snapshot()
            .counter("obs.trace.dropped_events")
            .unwrap_or(0);
        let quality = self.quality_agg.as_ref().map(|agg| QualityReport {
            summary: agg.summary_at(at_ns),
            drift: None,
        });
        LoadReport {
            threads: self.config.threads,
            mode: self.config.mode.name(),
            total_queries,
            errors: total_errors,
            wall_ns: at_ns,
            window_secs: self.config.window_secs,
            windows,
            slo,
            slow: self.slowlog.leaderboard(),
            trace_dropped,
            quality,
        }
    }
}

/// Everything one load run (or one live tick) observed.
pub struct LoadReport {
    /// Worker threads that drove the load.
    pub threads: usize,
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// Queries issued (including injected errors).
    pub total_queries: u64,
    /// Errors observed (injected + real).
    pub errors: u64,
    /// Run length on the harness timeline, nanoseconds.
    pub wall_ns: u64,
    /// Window the stats were read over, seconds.
    pub window_secs: u64,
    /// Windowed per-series stats, sorted by series name.
    pub windows: Vec<WindowStats>,
    /// The SLO evaluation at end of run.
    pub slo: SloReport,
    /// Slow-query leaderboard, slowest first.
    pub slow: Vec<SlowQuery>,
    /// Global trace-sink overflow count at report time.
    pub trace_dropped: u64,
    /// Ranking-quality report, when the run shadow-scored.
    pub quality: Option<QualityReport>,
}

impl LoadReport {
    /// Whether any objective is in hard violation.
    pub fn has_hard_violation(&self) -> bool {
        self.slo.has_hard_violation()
    }

    /// JSON object form: windowed stats, SLO burn rates, and the
    /// slow-query leaderboard (minus trace internals).
    pub fn to_value(&self) -> Value {
        let slow: Vec<Value> = self
            .slow
            .iter()
            .map(|s| {
                let stats: Vec<(String, Value)> = s
                    .stats
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                    .collect();
                Value::Map(vec![
                    ("query".to_string(), Value::Str(s.query.clone())),
                    ("duration_ns".to_string(), Value::UInt(s.duration_ns)),
                    ("ts_ns".to_string(), Value::UInt(s.ts_ns)),
                    ("stats".to_string(), Value::Map(stats)),
                    ("trace_captured".to_string(), Value::Bool(s.trace.is_some())),
                ])
            })
            .collect();
        let mut value = Value::Map(vec![
            ("threads".to_string(), Value::UInt(self.threads as u64)),
            ("mode".to_string(), Value::Str(self.mode.to_string())),
            ("total_queries".to_string(), Value::UInt(self.total_queries)),
            ("errors".to_string(), Value::UInt(self.errors)),
            ("wall_ns".to_string(), Value::UInt(self.wall_ns)),
            ("window_secs".to_string(), Value::UInt(self.window_secs)),
            (
                "windows".to_string(),
                Value::Seq(self.windows.iter().map(WindowStats::to_value).collect()),
            ),
            ("slo".to_string(), self.slo.to_value()),
            ("slow_queries".to_string(), Value::Seq(slow)),
            ("trace_dropped".to_string(), Value::UInt(self.trace_dropped)),
        ]);
        if let (Value::Map(fields), Some(quality)) = (&mut value, &self.quality) {
            fields.push(("quality".to_string(), quality.to_value()));
        }
        value
    }

    /// Pretty JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("report serializes")
    }

    /// The terminal dashboard: windowed per-stage stats, SLO burn, and
    /// the slow-query leaderboard — `litsearch top` renders exactly
    /// this.
    pub fn render_dashboard(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = format!(
            "serving dashboard — {} loop, {} workers, window {}s, t={:.1}s\n",
            self.mode,
            self.threads,
            self.window_secs,
            self.wall_ns as f64 / 1e9,
        );
        out.push_str(&format!(
            "queries {}  errors {}  throughput {:.1} q/s overall\n\n",
            self.total_queries,
            self.errors,
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
                match e.status {
                    obs::SloStatus::Ok => "ok",
                    obs::SloStatus::Warn => "WARN",
                    obs::SloStatus::Critical => "CRITICAL",
                },
            ));
        }
        out.push_str("\nslow queries (threshold-crossing, slowest first):\n");
        if self.slow.is_empty() {
            out.push_str("  none\n");
        } else {
            for s in &self.slow {
                let stat = |key: &str| {
                    s.stats
                        .iter()
                        .find(|(k, _)| k == key)
                        .map_or(0, |(_, v)| *v)
                };
                out.push_str(&format!(
                    "  {:>9.3} ms  {:<32} scored_pairs={:<7} heap_pushes={:<7} trace={}\n",
                    ms(s.duration_ns),
                    s.query,
                    stat("scored_pairs"),
                    stat("heap_pushes"),
                    if s.trace.is_some() { "yes" } else { "no" },
                ));
            }
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
            if let Some(drift) = &quality.drift {
                let verdict = match drift.status {
                    obs::SloStatus::Ok => "ok",
                    obs::SloStatus::Warn => "WARN",
                    obs::SloStatus::Critical => "CRITICAL",
                };
                out.push_str(&format!("quality drift vs baseline: {verdict}\n"));
                for c in drift
                    .checks
                    .iter()
                    .filter(|c| c.status != obs::SloStatus::Ok)
                {
                    out.push_str(&format!(
                        "  {} {} observed {:.4} (bound {})\n",
                        c.name, c.subject, c.observed, c.bound
                    ));
                }
            }
        }
        if self.trace_dropped > 0 {
            out.push_str(&format!(
                "\nwarning: trace sink dropped {} events (obs.trace.dropped_events)\n",
                self.trace_dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{ExpConfig, Setup};
    use std::sync::OnceLock;

    /// One tiny shared testbed for every load test (building a
    /// snapshot is the expensive part).
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

    fn small_config(threads: usize) -> LoadConfig {
        LoadConfig {
            threads,
            queries_per_thread: 30,
            slow_capacity: 4,
            error_every: 10,
            ..Default::default()
        }
    }

    #[test]
    fn slow_queries_carry_captured_explain_traces() {
        let (setup, queries) = testbed();
        let harness = LoadHarness::new(LoadConfig {
            threads: 2,
            queries_per_thread: 10,
            slow_threshold_ns: 1, // everything is slow
            slow_capacity: 4,
            ..Default::default()
        });
        let report = harness.run(&setup.searcher, queries);
        assert!(!report.slow.is_empty());
        // Wall-clock order decides which queries make the leaderboard; a
        // query with no results has no score decomposition to explain.
        let results = |s: &SlowQuery| {
            s.stats
                .iter()
                .find(|(k, _)| k == "results")
                .map_or(0, |&(_, v)| v)
        };
        assert!(report.slow.iter().any(|s| results(s) > 0));
        for s in &report.slow {
            let trace = s.trace.as_ref().expect("slow query carries a trace");
            assert!(
                trace.events.iter().any(|e| e.name == "engine.search"),
                "trace has the search span"
            );
            assert!(
                results(s) == 0 || trace.events.iter().any(|e| e.name == "explain.hit"),
                "trace has explain instants"
            );
        }
    }

    #[test]
    fn injected_errors_burn_the_availability_slo() {
        let (setup, queries) = testbed();
        let harness = LoadHarness::new(LoadConfig {
            error_every: 2, // 50% unavailability
            capture_traces: false,
            ..small_config(2)
        });
        let report = harness.run(&setup.searcher, queries);
        assert_eq!(report.errors, 30, "every second query is an injected error");
        assert!(
            report.has_hard_violation(),
            "50% error rate against 99.9% availability must be critical"
        );
        let avail = report
            .slo
            .evals
            .iter()
            .find(|e| e.spec.name == "serve-availability")
            .expect("availability objective");
        assert_eq!(avail.status, obs::SloStatus::Critical);
        // The dashboard renders the violation.
        assert!(report.render_dashboard().contains("CRITICAL"));
    }

    #[test]
    fn dashboard_renders_all_sections() {
        let (setup, queries) = testbed();
        let report = LoadHarness::new(small_config(2)).run(&setup.searcher, queries);
        let dash = report.render_dashboard();
        assert!(dash.contains("serving dashboard"));
        assert!(dash.contains("serve.query"));
        assert!(dash.contains("SLO burn:"));
        assert!(dash.contains("slow queries"));
    }

    #[test]
    #[should_panic(expected = "closed loops")]
    fn in_process_open_loop_is_refused() {
        let (setup, queries) = testbed();
        LoadHarness::new(LoadConfig {
            mode: LoopMode::Open {
                qps_per_worker: 100.0,
            },
            ..small_config(1)
        })
        .run(&setup.searcher, queries);
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
            let report = quality_gate(&setup.searcher, queries, 60, &gate_config(), 10, None);
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
        let healthy = quality_gate(&setup.searcher, queries, 60, &gate_config(), 10, None);
        let baseline = QualityBaseline::from_summary(
            &healthy.summary,
            10,
            &obs::BaselineTolerances::default(),
        );
        let judged = quality_gate(
            &setup.searcher,
            queries,
            60,
            &gate_config(),
            10,
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
        let drifted = quality_gate(&perturbed, queries, 60, &gate_config(), 10, Some(&baseline));
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
