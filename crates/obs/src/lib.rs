//! Lightweight telemetry for the literature-search pipeline.
//!
//! One process-global [`Registry`] collects three kinds of metrics:
//!
//! - **counters** — monotonic totals (`counter("engine.queries", 1)`),
//! - **gauges** — last-write-wins values (`gauge("corpus.papers", n)`),
//! - **histograms** — log-scale latency distributions with p50/p95/p99
//!   extraction (`observe_ns("search.query_ns", ns)`),
//!
//! plus RAII **spans** ([`span`]) that time a scope, nest to attribute
//! self-time vs. child-time, and feed a per-span duration histogram.
//! Span names follow a `stage.substage` dotted convention, e.g.
//! `engine.search` with children `search.select_contexts`,
//! `search.candidates`, `search.rank`.
//!
//! Collection is **off by default**: every hook checks one relaxed
//! atomic load and bails, so instrumented hot paths cost ~1 ns per call
//! site when telemetry is disabled. Call [`enable`] (the CLI and bench
//! binaries do this when metrics output is requested), then [`snapshot`]
//! to export a [`MetricsSnapshot`] as JSON or markdown.
//!
//! The [`trace`] module adds the orthogonal per-request view: when a
//! trace is active ([`trace_start`]), every [`span`] additionally emits
//! individual begin/end events into a bounded sink, and instrumented
//! code can attach typed attributes with [`trace_instant`] — exported
//! as JSONL or Chrome trace format (see [`TraceData`]).
//!
//! The live-serving layer builds on both: [`rolling`] turns span
//! durations into windowed p50/p95/p99/QPS/error-rate ("right now",
//! not "whole run") once a [`RollingRecorder`] is attached with
//! [`attach_rolling`]; [`slo`] evaluates burn rates against declared
//! objectives; [`slowlog`] keeps the slowest requests. All of it reads
//! time through the injectable [`Clock`] in [`clock`], so windowed
//! output is deterministic under a [`ManualClock`].
//!
//! A thread whose work is not serving (the shadow scorer re-ranking a
//! sampled query) calls [`mute_thread`] once: its hooks record nothing
//! from then on, so the serving rows count served requests only. Its
//! own unit of work is a [`background_span`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

pub mod clock;
mod histogram;
pub mod quality;
pub mod rolling;
pub mod slo;
pub mod slowlog;
mod snapshot;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use histogram::Histogram;
pub use quality::{
    DriftCheck, FunctionScores, QualityAggregator, QualityBaseline, QualityDriftReport,
    QualityEvent, QualityReport, QualitySummary, ScoreSketch, SeriesMean,
};
pub use rolling::{RollingConfig, RollingRecorder, WindowStats, SECOND_NS};
pub use slo::{
    default_burn_windows, BurnWindow, SloEval, SloKind, SloReport, SloSpec, SloStatus, WindowBurn,
};
pub use slowlog::{SlowQuery, SlowQueryLog};
pub use snapshot::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, SpanSnapshot,
};
pub use trace::{
    AttrValue, SummaryNode, TraceData, TraceEvent, TraceId, TracePhase, TraceSummary, Tracer,
};

/// Aggregated timing state for one span name.
#[derive(Debug, Default)]
struct SpanStats {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    durations: Histogram,
}

/// A thread-safe metrics registry. Most code uses the process-global
/// one through the free functions in this crate; independent registries
/// exist for tests.
///
/// # Reset contract
///
/// [`reset`](Self::reset) drops every recorded datum — counters,
/// gauges, histograms, span stats — **and** clears the live-serving
/// attachments' state: an attached [`RollingRecorder`]'s windows are
/// emptied and an attached [`SlowQueryLog`] is cleared. The
/// attachments themselves stay attached and the enabled flag is
/// unchanged, so a reset registry keeps feeding the same windows. A
/// reset registry therefore reports empty windows until new
/// observations arrive. A ranking-quality summary is not registry
/// state: it belongs to the server's shadow scorer.
#[derive(Default)]
pub struct Registry {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, SpanStats>>,
    /// Fast-path flag mirroring `rolling.is_some()`: span drops check
    /// one relaxed load before touching the attachment mutex.
    rolling_on: AtomicBool,
    rolling: Mutex<Option<Arc<RollingRecorder>>>,
    slowlog: Mutex<Option<Arc<SlowQueryLog>>>,
}

impl Registry {
    /// New registry, disabled.
    pub const fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(false),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
            rolling_on: AtomicBool::new(false),
            rolling: Mutex::new(None),
            slowlog: Mutex::new(None),
        }
    }

    /// Turn collection on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn collection off (already-recorded data is kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether collection is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Drop all recorded data and clear the state of every live-serving
    /// attachment (rolling windows, slow-query log). The
    /// attachments stay attached; the enabled flag is unchanged. See
    /// the type-level reset contract.
    pub fn reset(&self) {
        self.counters.lock().clear();
        self.gauges.lock().clear();
        self.histograms.lock().clear();
        self.spans.lock().clear();
        if let Some(rolling) = self.rolling.lock().as_ref() {
            rolling.reset();
        }
        if let Some(slowlog) = self.slowlog.lock().as_ref() {
            slowlog.clear();
        }
    }

    /// Attach a rolling recorder: every span recorded from now on also
    /// lands in its time-bucketed windows (series name = span name).
    pub fn attach_rolling(&self, recorder: Arc<RollingRecorder>) {
        *self.rolling.lock() = Some(recorder);
        self.rolling_on.store(true, Ordering::Relaxed);
    }

    /// Detach the rolling recorder (its data is left as-is).
    pub fn detach_rolling(&self) {
        self.rolling_on.store(false, Ordering::Relaxed);
        *self.rolling.lock() = None;
    }

    /// The attached rolling recorder, if any.
    pub fn rolling(&self) -> Option<Arc<RollingRecorder>> {
        if !self.rolling_on.load(Ordering::Relaxed) {
            return None;
        }
        self.rolling.lock().clone()
    }

    /// Attach a slow-query log so [`reset`](Self::reset) covers it and
    /// dashboards can find it.
    pub fn attach_slow_log(&self, log: Arc<SlowQueryLog>) {
        *self.slowlog.lock() = Some(log);
    }

    /// The attached slow-query log, if any.
    pub fn slow_log(&self) -> Option<Arc<SlowQueryLog>> {
        self.slowlog.lock().clone()
    }

    /// Add `delta` to a monotonic counter.
    #[inline]
    pub fn counter(&self, name: &str, delta: u64) {
        if !self.is_enabled() || muted() {
            return;
        }
        let mut map = self.counters.lock();
        match map.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                map.insert(name.to_string(), delta);
            }
        }
    }

    /// Set a gauge to `value`.
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if !self.is_enabled() || muted() {
            return;
        }
        let mut map = self.gauges.lock();
        match map.get_mut(name) {
            Some(v) => *v = value,
            None => {
                map.insert(name.to_string(), value);
            }
        }
    }

    /// Record one observation into a log-scale histogram.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if !self.is_enabled() || muted() {
            return;
        }
        self.histograms
            .lock()
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Fold one closed span into the span table and, unless it is a
    /// [`background_span`], into the rolling windows.
    fn record_span(&self, name: &str, total_ns: u64, self_ns: u64, windowed: bool) {
        {
            let mut map = self.spans.lock();
            let stats = map.entry(name.to_string()).or_default();
            stats.count += 1;
            stats.total_ns += total_ns;
            stats.self_ns += self_ns;
            stats.durations.record(total_ns);
        }
        if !windowed {
            return;
        }
        if let Some(rolling) = self.rolling() {
            rolling.record(name, total_ns, false);
        }
    }

    /// Export everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(name, &value)| CounterSnapshot {
                name: name.clone(),
                value,
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .iter()
            .map(|(name, &value)| GaugeSnapshot {
                name: name.clone(),
                value,
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.clone(),
                count: h.count(),
                min: h.min(),
                max: h.max(),
                mean: h.mean(),
                p50: h.quantile(0.50),
                p95: h.quantile(0.95),
                p99: h.quantile(0.99),
            })
            .collect();
        let spans = self
            .spans
            .lock()
            .iter()
            .map(|(name, s)| SpanSnapshot {
                name: name.clone(),
                count: s.count,
                total_ns: s.total_ns,
                self_ns: s.self_ns,
                p50_ns: s.durations.quantile(0.50),
                p95_ns: s.durations.quantile(0.95),
                p99_ns: s.durations.quantile(0.99),
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-global registry the free functions below act on.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Turn on global metrics collection.
pub fn enable() {
    GLOBAL.enable();
}

/// Turn off global metrics collection (data is kept).
pub fn disable() {
    GLOBAL.disable();
}

/// Whether global collection is on.
#[inline]
pub fn enabled() -> bool {
    GLOBAL.is_enabled()
}

/// Drop all globally recorded data.
pub fn reset() {
    GLOBAL.reset();
}

/// Add `delta` to a global monotonic counter.
#[inline]
pub fn counter(name: &str, delta: u64) {
    GLOBAL.counter(name, delta);
}

/// Set a global gauge.
#[inline]
pub fn gauge(name: &str, value: f64) {
    GLOBAL.gauge(name, value);
}

/// Record a nanosecond (or any unit) observation into a global
/// histogram.
#[inline]
pub fn observe_ns(name: &str, ns: u64) {
    GLOBAL.observe(name, ns);
}

/// Snapshot the global registry.
pub fn snapshot() -> MetricsSnapshot {
    GLOBAL.snapshot()
}

/// Attach a rolling recorder to the global registry: span durations
/// start feeding its windowed stats.
pub fn attach_rolling(recorder: Arc<RollingRecorder>) {
    GLOBAL.attach_rolling(recorder);
}

/// The global registry's rolling recorder, if attached.
pub fn rolling() -> Option<Arc<RollingRecorder>> {
    GLOBAL.rolling()
}

/// Attach a slow-query log to the global registry.
pub fn attach_slow_log(log: Arc<SlowQueryLog>) {
    GLOBAL.attach_slow_log(log);
}

/// The global registry's slow-query log, if attached.
pub fn slow_log() -> Option<Arc<SlowQueryLog>> {
    GLOBAL.slow_log()
}

/// Snapshot the global registry as a JSON string (the `/metrics`
/// payload of the serving frontend; handlers call through this free
/// function so the lock-policed handler files never hold a guard).
pub fn snapshot_json() -> String {
    GLOBAL.snapshot().to_json()
}

/// Snapshot the global registry and write pretty JSON to `path`,
/// creating parent directories as needed.
pub fn write_json(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, snapshot().to_json())
}

// ---------------------------------------------------------------------
// Per-request tracing (free functions over trace::global())
// ---------------------------------------------------------------------

/// Start a new per-request trace with the default event capacity;
/// returns its process-unique id. Every subsequent [`span`] emits
/// begin/end events until [`trace_finish`] is called.
pub fn trace_start() -> TraceId {
    trace::global().start(trace::DEFAULT_CAPACITY)
}

/// Start a new trace bounded to `capacity` events.
pub fn trace_start_with_capacity(capacity: usize) -> TraceId {
    trace::global().start(capacity)
}

/// Stop tracing and drain the recorded events (`None` when no trace
/// was in progress).
pub fn trace_finish() -> Option<TraceData> {
    trace::global().finish()
}

/// Whether a trace is currently collecting events from this thread.
/// Guard attribute construction with this so disabled tracing costs
/// one relaxed load.
#[inline]
pub fn trace_enabled() -> bool {
    trace::global().is_enabled() && !muted()
}

/// Emit an instant event with typed attributes into the active trace
/// (no-op when tracing is off or the thread is muted). Attribute
/// values convert via `Into`: `("rank", 3usize.into())`,
/// `("context", name.into())`.
#[inline]
pub fn trace_instant(name: &str, attrs: Vec<(String, AttrValue)>) {
    if trace_enabled() {
        trace::global().record(trace::TracePhase::Instant, name, attrs);
    }
}

thread_local! {
    // Per-thread stack of child-time accumulators for open spans.
    // Pushed on span start, popped on drop; the popped total flows into
    // the parent's accumulator so self-time = elapsed − child time.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    // Set by [`mute_thread`]; never cleared.
    static MUTED: Cell<bool> = const { Cell::new(false) };
}

/// Mute the calling thread for the rest of its life: its spans,
/// counters, gauges, histogram observations and trace events record
/// nothing, in any registry, except [`background_span`]s. A thread that
/// re-runs served queries off the serve path (the shadow scorer) calls
/// it once when it starts, so the serving rows (`engine.search`,
/// `search.*`, `engine.queries`, …) count served requests only. Every
/// hook reads the flag after its enabled check, so the disabled path
/// stays one relaxed load.
pub fn mute_thread() {
    MUTED.with(|m| m.set(true));
}

#[inline]
fn muted() -> bool {
    MUTED.with(Cell::get)
}

/// RAII timer over the global registry: records duration (and
/// parent/child attribution) for `name` when dropped, and emits
/// begin/end events into the active trace. A no-op when both metrics
/// and tracing were disabled at construction.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    start: Instant,
    /// Metrics were enabled at construction (span-stack entry pushed).
    metrics: bool,
    /// A trace begin event was emitted and awaits its end event.
    traced: bool,
    /// Feed the rolling windows on close (false for background spans).
    windowed: bool,
}

/// Open a span named `name` (dotted `stage.substage` convention).
/// Bind the guard (`let _span = obs::span(...)`) — `let _ = ...` drops
/// it immediately and records a zero-length span.
#[must_use = "bind the guard; `let _ = obs::span(..)` drops it immediately"]
#[inline]
pub fn span(name: &'static str) -> Span {
    open_span(name, false)
}

/// Open a span for work off the serve path, such as the shadow
/// scorer's `quality.shadow_eval`: it records its count and times in
/// the registry's span table even on a muted thread ([`mute_thread`]),
/// and never enters the rolling windows, which hold serving time. It
/// emits no trace events on a muted thread.
#[must_use = "bind the guard; `let _ = obs::background_span(..)` drops it immediately"]
pub fn background_span(name: &'static str) -> Span {
    open_span(name, true)
}

#[inline]
fn open_span(name: &'static str, background: bool) -> Span {
    let metrics = enabled();
    let traced = trace::global().is_enabled();
    if !metrics && !traced {
        return Span { inner: None };
    }
    let muted = muted();
    let (metrics, traced) = (metrics && (background || !muted), traced && !muted);
    if !metrics && !traced {
        return Span { inner: None };
    }
    if metrics {
        SPAN_STACK.with(|s| s.borrow_mut().push(0));
    }
    if traced {
        trace::global().record(trace::TracePhase::Begin, name, Vec::new());
    }
    Span {
        inner: Some(SpanInner {
            name,
            start: Instant::now(),
            metrics,
            traced,
            windowed: !background,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            if inner.traced {
                trace::global().record(trace::TracePhase::End, inner.name, Vec::new());
            }
            if !inner.metrics {
                return;
            }
            let total_ns = inner.start.elapsed().as_nanos() as u64;
            let child_ns = SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let child = stack.pop().unwrap_or(0);
                if let Some(parent) = stack.last_mut() {
                    *parent += total_ns;
                }
                child
            });
            GLOBAL.record_span(
                inner.name,
                total_ns,
                total_ns.saturating_sub(child_ns),
                inner.windowed,
            );
        }
    }
}

/// Emit a progress line to stderr with a monotonic elapsed-time prefix.
/// Honors `OBS_QUIET=1` for silent runs. This is the single funnel for
/// pipeline progress output (bench setup, experiment runner), so it
/// stays distinguishable from real errors.
pub fn progress(msg: &str) {
    if std::env::var_os("OBS_QUIET").is_some_and(|v| v == "1") {
        return;
    }
    static START: Mutex<Option<Instant>> = Mutex::new(None);
    let elapsed = {
        let mut start = START.lock();
        start.get_or_insert_with(Instant::now).elapsed()
    };
    eprintln!("[{:8.2}s] {msg}", elapsed.as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.counter("a", 1);
        r.observe("b", 10);
        r.gauge("c", 1.0);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.gauges.is_empty());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        r.enable();
        r.counter("x", 2);
        r.counter("x", 3);
        r.gauge("g", 1.0);
        r.gauge("g", 2.5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x"), Some(5));
        assert_eq!(snap.gauges[0].value, 2.5);
    }
}
