//! Per-query event tracing.
//!
//! Where the metrics [`Registry`](crate::Registry) *aggregates* (one
//! histogram per span name across every execution), the tracer records
//! the *individual* events of one request: every span begin/end with a
//! nanosecond timestamp, plus instant events carrying typed
//! `key = value` attributes — the raw material for answering "why did
//! this query rank that paper here" and "which context got slower".
//!
//! Design:
//!
//! - **One process-global sink**, same pattern as the metrics registry:
//!   disabled collection costs one relaxed atomic load per call site.
//! - **Bounded**: the sink holds at most `capacity` events; once full,
//!   later events are counted as dropped instead of growing without
//!   bound (a long `run_all` at paper scale would otherwise OOM).
//! - **Process-unique trace IDs**: every [`trace_start`] mints a new
//!   id from the process id, the process start time, and a monotonic
//!   counter, so traces from concurrent or successive runs never
//!   collide and every exported event can be grepped by its trace.
//! - **Two exporters**: JSONL (one event per line, `grep`/`jq`
//!   friendly) and the Chrome trace-event format (a `traceEvents`
//!   array loadable in `chrome://tracing` and Perfetto).
//!
//! Span begin/end events are emitted automatically by [`crate::span`]
//! whenever tracing is enabled — instrumented code does not change.
//! Attribute-carrying instants are added with [`instant`], guarded by
//! [`enabled`] so attribute construction costs nothing when off.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use serde::Value;

/// A process-unique trace identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl TraceId {
    /// Parse the zero-padded hex form produced by `Display`.
    pub fn parse(s: &str) -> Option<TraceId> {
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

/// Mint the next process-unique trace id: process id and process start
/// time in the high bits (distinct across processes even if pids
/// recycle), a monotonic counter in the low bits (distinct within the
/// process).
fn next_trace_id() -> TraceId {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    static SALT: AtomicU64 = AtomicU64::new(0);
    let mut salt = SALT.load(Ordering::Relaxed);
    if salt == 0 {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15);
        salt = (std::process::id() as u64) ^ nanos.rotate_left(17) | 1;
        SALT.store(salt, Ordering::Relaxed);
    }
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    TraceId(salt.wrapping_mul(0x9e3779b97f4a7c15) ^ (n << 48 | n))
}

/// A typed attribute value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string attribute (context names, query text).
    Str(String),
    /// An unsigned integer (counts, ids, ranks).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (scores, weights).
    F64(f64),
    /// A boolean (flags).
    Bool(bool),
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl AttrValue {
    fn to_value(&self) -> Value {
        match self {
            AttrValue::Str(s) => Value::Str(s.clone()),
            AttrValue::U64(u) => Value::UInt(*u),
            AttrValue::I64(i) => {
                if *i >= 0 {
                    Value::UInt(*i as u64)
                } else {
                    Value::Int(*i)
                }
            }
            AttrValue::F64(f) => Value::Float(*f),
            AttrValue::Bool(b) => Value::Bool(*b),
        }
    }

    fn from_value(v: &Value) -> AttrValue {
        match v {
            Value::Str(s) => AttrValue::Str(s.clone()),
            Value::UInt(u) => AttrValue::U64(*u),
            Value::Int(i) => AttrValue::I64(*i),
            Value::Float(f) => AttrValue::F64(*f),
            Value::Bool(b) => AttrValue::Bool(*b),
            other => AttrValue::Str(format!("{other:?}")),
        }
    }
}

/// The kind of one trace event (Chrome trace-event phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A span opened (`ph: "B"`).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// A point-in-time event with attributes (`ph: "i"`).
    Instant,
}

impl TracePhase {
    fn code(self) -> &'static str {
        match self {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
            TracePhase::Instant => "i",
        }
    }

    fn from_code(s: &str) -> Option<TracePhase> {
        match s {
            "B" => Some(TracePhase::Begin),
            "E" => Some(TracePhase::End),
            "i" | "I" => Some(TracePhase::Instant),
            _ => None,
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Nanoseconds since the trace started.
    pub ts_ns: u64,
    /// Begin / End / Instant.
    pub phase: TracePhase,
    /// Event name (span names use the `stage.substage` convention).
    pub name: String,
    /// Small per-process thread number (Chrome `tid`).
    pub tid: u64,
    /// Typed attributes (`args` in the Chrome format).
    pub attrs: Vec<(String, AttrValue)>,
}

/// Everything one finished trace captured.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// The trace's process-unique id.
    pub trace_id: TraceId,
    /// Events in arrival order.
    pub events: Vec<TraceEvent>,
    /// Events discarded after the sink filled up.
    pub dropped: u64,
}

struct SinkState {
    trace_id: TraceId,
    epoch: Instant,
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// The bounded global event sink. Like the metrics [`crate::Registry`],
/// there is one process-global instance driven by free functions;
/// independent sinks exist for tests.
pub struct Tracer {
    enabled: AtomicBool,
    state: Mutex<Option<SinkState>>,
}

/// Default event capacity: generous for a query trace (a search emits
/// tens of events), bounded for a full experiment run.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

impl Tracer {
    /// New, disabled tracer.
    pub const fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            state: Mutex::new(None),
        }
    }

    /// Whether the sink is collecting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start a new trace with room for `capacity` events, replacing any
    /// trace in progress. Returns the new trace's id.
    pub fn start(&self, capacity: usize) -> TraceId {
        let trace_id = next_trace_id();
        *self.state.lock() = Some(SinkState {
            trace_id,
            epoch: Instant::now(),
            events: Vec::new(),
            capacity: capacity.max(1),
            dropped: 0,
        });
        self.enabled.store(true, Ordering::Relaxed);
        trace_id
    }

    /// Stop collecting and drain the trace. Returns `None` if no trace
    /// was in progress.
    pub fn finish(&self) -> Option<TraceData> {
        self.enabled.store(false, Ordering::Relaxed);
        let state = self.state.lock().take()?;
        Some(TraceData {
            trace_id: state.trace_id,
            events: state.events,
            dropped: state.dropped,
        })
    }

    /// Record one event (no-op when disabled or no trace is active).
    #[inline]
    pub fn record(&self, phase: TracePhase, name: &str, attrs: Vec<(String, AttrValue)>) {
        if !self.is_enabled() {
            return;
        }
        let mut guard = self.state.lock();
        let Some(state) = guard.as_mut() else {
            return;
        };
        if state.events.len() >= state.capacity {
            state.dropped += 1;
            drop(guard);
            // Surface the loss instead of silently truncating: the
            // global sink's overflows show up as a metrics counter
            // (test tracers stay out of the global registry).
            if std::ptr::eq(self, global()) {
                crate::counter("obs.trace.dropped_events", 1);
            }
            return;
        }
        let ts_ns = state.epoch.elapsed().as_nanos() as u64;
        state.events.push(TraceEvent {
            ts_ns,
            phase,
            name: name.to_string(),
            tid: current_tid(),
            attrs,
        });
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Small dense per-thread number, assigned on first use — the Chrome
/// `tid` field (real thread ids are opaque and unstable across
/// platforms). The rolling recorder shards by it too.
pub fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static NUMBER: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUMBER.with(|n| *n)
}

static GLOBAL_TRACER: Tracer = Tracer::new();

/// The process-global tracer the free functions in the crate root act
/// on.
pub fn global() -> &'static Tracer {
    &GLOBAL_TRACER
}

// ---------------------------------------------------------------------
// Export / import
// ---------------------------------------------------------------------

fn event_to_value(e: &TraceEvent, trace_id: TraceId, chrome: bool) -> Value {
    let mut map: Vec<(String, Value)> = vec![
        ("name".to_string(), Value::Str(e.name.clone())),
        ("ph".to_string(), Value::Str(e.phase.code().to_string())),
        ("tid".to_string(), Value::UInt(e.tid)),
    ];
    if chrome {
        // Chrome wants microsecond timestamps and a pid; instants need
        // an explicit scope to render.
        map.push(("cat".to_string(), Value::Str("pipeline".to_string())));
        map.push(("ts".to_string(), Value::Float(e.ts_ns as f64 / 1e3)));
        map.push(("pid".to_string(), Value::UInt(1)));
        if e.phase == TracePhase::Instant {
            map.push(("s".to_string(), Value::Str("t".to_string())));
        }
    } else {
        map.push(("ts_ns".to_string(), Value::UInt(e.ts_ns)));
        map.push(("trace_id".to_string(), Value::Str(trace_id.to_string())));
    }
    if !e.attrs.is_empty() {
        let args: Vec<(String, Value)> = e
            .attrs
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        map.push(("args".to_string(), Value::Map(args)));
    }
    Value::Map(map)
}

impl TraceData {
    /// One compact JSON object per line; every line carries the trace
    /// id so concatenated or interleaved trace files stay greppable.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let v = event_to_value(e, self.trace_id, false);
            out.push_str(&serde_json::to_string(&v).expect("event serializes"));
            out.push('\n');
        }
        out
    }

    /// The Chrome trace-event format (JSON object form): open the file
    /// in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| event_to_value(e, self.trace_id, true))
            .collect();
        let doc = Value::Map(vec![
            ("traceEvents".to_string(), Value::Seq(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
            (
                "otherData".to_string(),
                Value::Map(vec![
                    (
                        "trace_id".to_string(),
                        Value::Str(self.trace_id.to_string()),
                    ),
                    ("dropped".to_string(), Value::UInt(self.dropped)),
                ]),
            ),
        ]);
        serde_json::to_string_pretty(&doc).expect("trace serializes")
    }

    /// Write the Chrome-format trace to `path`, creating parent
    /// directories as needed.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        ensure_parent(path)?;
        std::fs::write(path, self.to_chrome_json())
    }

    /// Write the JSONL trace to `path`, creating parent directories as
    /// needed.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        ensure_parent(path)?;
        std::fs::write(path, self.to_jsonl())
    }

    /// Parse a Chrome-format trace back (the inverse of
    /// [`to_chrome_json`](Self::to_chrome_json); used by the `trace`
    /// CLI summarizer and the round-trip tests).
    pub fn from_chrome_json(text: &str) -> Result<TraceData, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let events_v = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or("missing traceEvents array")?;
        let mut events = Vec::with_capacity(events_v.len());
        for ev in events_v {
            let name = ev
                .get("name")
                .and_then(Value::as_str)
                .ok_or("event missing name")?
                .to_string();
            let phase = ev
                .get("ph")
                .and_then(Value::as_str)
                .and_then(TracePhase::from_code)
                .ok_or_else(|| format!("event {name:?} has no valid ph"))?;
            let ts_us = ev
                .get("ts")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {name:?} has no ts"))?;
            let tid = ev.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            let attrs = match ev.get("args") {
                Some(Value::Map(entries)) => entries
                    .iter()
                    .map(|(k, v)| (k.clone(), AttrValue::from_value(v)))
                    .collect(),
                _ => Vec::new(),
            };
            events.push(TraceEvent {
                ts_ns: (ts_us * 1e3).round() as u64,
                phase,
                name,
                tid,
                attrs,
            });
        }
        let trace_id = doc["otherData"]["trace_id"]
            .as_str()
            .and_then(TraceId::parse)
            .unwrap_or(TraceId(0));
        let dropped = doc["otherData"]["dropped"].as_f64().unwrap_or(0.0) as u64;
        Ok(TraceData {
            trace_id,
            events,
            dropped,
        })
    }

    /// Aggregate the trace into a self-time tree (see [`TraceSummary`]).
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::build(self)
    }
}

fn ensure_parent(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Self-time summary tree
// ---------------------------------------------------------------------

/// One node of the aggregated span tree: the same span name reached
/// through the same ancestor path, across all its executions.
#[derive(Debug, Clone)]
pub struct SummaryNode {
    /// Span (or instant) name.
    pub name: String,
    /// Executions aggregated into this node.
    pub count: u64,
    /// Total wall-clock nanoseconds (zero for instants).
    pub total_ns: u64,
    /// Total minus the time spent in child spans.
    pub self_ns: u64,
    /// Child nodes, in first-seen order.
    pub children: Vec<SummaryNode>,
}

impl SummaryNode {
    fn new(name: &str) -> Self {
        SummaryNode {
            name: name.to_string(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            children: Vec::new(),
        }
    }

    fn child_mut(&mut self, name: &str) -> &mut SummaryNode {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        self.children.push(SummaryNode::new(name));
        self.children.last_mut().expect("just pushed")
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let ms = |ns: u64| ns as f64 / 1e6;
        out.push_str(&format!(
            "{:indent$}{:<width$} ×{:<6} total {:>10.3} ms  self {:>10.3} ms\n",
            "",
            self.name,
            self.count,
            ms(self.total_ns),
            ms(self.self_ns),
            indent = depth * 2,
            width = 32usize.saturating_sub(depth * 2),
        ));
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// The whole trace folded into an aggregated tree: spans with the same
/// name and ancestry merge, instants show up as zero-duration leaves,
/// per-thread event streams are merged at the root.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// The trace this summarizes.
    pub trace_id: TraceId,
    /// Total events that went into the summary.
    pub n_events: usize,
    /// Events the sink had dropped (capacity overflow).
    pub dropped: u64,
    /// Top-level nodes (spans with no open parent on their thread).
    pub roots: Vec<SummaryNode>,
}

impl TraceSummary {
    fn build(data: &TraceData) -> TraceSummary {
        // Per-tid stack of (begin index, path through the tree). The
        // tree itself is navigated by index-paths to keep the borrow
        // checker out of recursive &mut chasing.
        let mut roots: Vec<SummaryNode> = Vec::new();
        let mut stacks: std::collections::HashMap<u64, Vec<(String, u64)>> =
            std::collections::HashMap::new();

        fn node_at<'a>(roots: &'a mut Vec<SummaryNode>, path: &[String]) -> &'a mut SummaryNode {
            let (first, rest) = path.split_first().expect("non-empty path");
            let idx = match roots.iter().position(|n| n.name == *first) {
                Some(i) => i,
                None => {
                    roots.push(SummaryNode::new(first));
                    roots.len() - 1
                }
            };
            let mut node = &mut roots[idx];
            for name in rest {
                node = node.child_mut(name);
            }
            node
        }

        for e in &data.events {
            let stack = stacks.entry(e.tid).or_default();
            match e.phase {
                TracePhase::Begin => {
                    stack.push((e.name.clone(), e.ts_ns));
                }
                TracePhase::End => {
                    // Pop the innermost matching begin; unmatched ends
                    // (sink filled mid-span) are ignored.
                    let Some(pos) = stack.iter().rposition(|(n, _)| *n == e.name) else {
                        continue;
                    };
                    let (_, begin_ts) = stack[pos];
                    let path: Vec<String> = stack[..=pos].iter().map(|(n, _)| n.clone()).collect();
                    stack.truncate(pos);
                    let dur = e.ts_ns.saturating_sub(begin_ts);
                    let node = node_at(&mut roots, &path);
                    node.count += 1;
                    node.total_ns += dur;
                }
                TracePhase::Instant => {
                    let mut path: Vec<String> = stack.iter().map(|(n, _)| n.clone()).collect();
                    path.push(e.name.clone());
                    let node = node_at(&mut roots, &path);
                    node.count += 1;
                }
            }
        }
        // Spans still open at the end of the trace contribute no time
        // (they never closed), matching the metrics registry behaviour.
        fn fill_self(node: &mut SummaryNode) {
            let child_total: u64 = node.children.iter().map(|c| c.total_ns).sum();
            node.self_ns = node.total_ns.saturating_sub(child_total);
            for c in &mut node.children {
                fill_self(c);
            }
        }
        for r in &mut roots {
            fill_self(r);
        }
        TraceSummary {
            trace_id: data.trace_id,
            n_events: data.events.len(),
            dropped: data.dropped,
            roots,
        }
    }

    /// Human-readable indentation tree, heaviest totals first at each
    /// level.
    pub fn render(&self) -> String {
        let mut roots = self.roots.clone();
        fn sort_rec(nodes: &mut [SummaryNode]) {
            nodes.sort_by_key(|n| std::cmp::Reverse(n.total_ns));
            for n in nodes {
                sort_rec(&mut n.children);
            }
        }
        sort_rec(&mut roots);
        let mut out = format!(
            "trace {}  ({} events, {} dropped)\n",
            self.trace_id, self.n_events, self.dropped
        );
        for r in &roots {
            r.render_into(&mut out, 0);
        }
        out
    }

    /// Find an aggregated node by name anywhere in the tree.
    pub fn find(&self, name: &str) -> Option<&SummaryNode> {
        fn rec<'a>(nodes: &'a [SummaryNode], name: &str) -> Option<&'a SummaryNode> {
            for n in nodes {
                if n.name == name {
                    return Some(n);
                }
                if let Some(found) = rec(&n.children, name) {
                    return Some(found);
                }
            }
            None
        }
        rec(&self.roots, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_round_trip_hex() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert_eq!(TraceId::parse(&a.to_string()), Some(a));
    }

    #[test]
    fn sink_bounds_and_counts_drops() {
        let t = Tracer::new();
        t.start(3);
        for _ in 0..5 {
            t.record(TracePhase::Instant, "x", Vec::new());
        }
        let data = t.finish().expect("trace active");
        assert_eq!(data.events.len(), 3);
        assert_eq!(data.dropped, 2);
        assert!(t.finish().is_none(), "finish drains");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.record(TracePhase::Instant, "x", Vec::new());
        assert!(t.finish().is_none());
    }

    #[test]
    fn summary_builds_nested_self_time() {
        let t = Tracer::new();
        let id = t.start(64);
        t.record(TracePhase::Begin, "outer", Vec::new());
        t.record(TracePhase::Begin, "inner", Vec::new());
        t.record(TracePhase::Instant, "note", vec![("k".into(), 1u64.into())]);
        t.record(TracePhase::End, "inner", Vec::new());
        t.record(TracePhase::End, "outer", Vec::new());
        let data = t.finish().unwrap();
        assert_eq!(data.trace_id, id);
        let summary = data.summary();
        let outer = summary.find("outer").expect("outer node");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.children.len(), 1);
        let inner = summary.find("inner").expect("inner node");
        assert!(inner.total_ns <= outer.total_ns);
        assert_eq!(
            outer.self_ns,
            outer.total_ns - inner.total_ns,
            "self excludes child time"
        );
        let note = summary.find("note").expect("instant leaf");
        assert_eq!((note.count, note.total_ns), (1, 0));
        assert!(summary.render().contains("outer"));
    }

    #[test]
    fn chrome_round_trip_preserves_events() {
        let t = Tracer::new();
        t.start(64);
        t.record(
            TracePhase::Begin,
            "engine.search",
            vec![("query".into(), "kinase".into())],
        );
        t.record(
            TracePhase::Instant,
            "explain.hit",
            vec![
                ("rank".into(), 1u64.into()),
                ("relevancy".into(), 0.75f64.into()),
                ("novel".into(), true.into()),
            ],
        );
        t.record(TracePhase::End, "engine.search", Vec::new());
        let data = t.finish().unwrap();
        let text = data.to_chrome_json();
        let back = TraceData::from_chrome_json(&text).expect("parses");
        assert_eq!(back.trace_id, data.trace_id);
        assert_eq!(back.events.len(), data.events.len());
        for (a, b) in back.events.iter().zip(&data.events) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.phase, b.phase);
            assert_eq!(a.attrs, b.attrs);
        }
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line_with_trace_id() {
        let t = Tracer::new();
        let id = t.start(64);
        t.record(TracePhase::Begin, "a", Vec::new());
        t.record(TracePhase::End, "a", Vec::new());
        let data = t.finish().unwrap();
        let jsonl = data.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: Value = serde_json::from_str(line).expect("line parses");
            assert_eq!(v["trace_id"].as_str(), Some(id.to_string().as_str()));
        }
    }

    #[test]
    fn unmatched_end_does_not_corrupt_summary() {
        let t = Tracer::new();
        t.start(64);
        t.record(TracePhase::End, "phantom", Vec::new());
        t.record(TracePhase::Begin, "real", Vec::new());
        t.record(TracePhase::End, "real", Vec::new());
        let summary = t.finish().unwrap().summary();
        assert!(summary.find("phantom").is_none());
        assert_eq!(summary.find("real").unwrap().count, 1);
    }
}
