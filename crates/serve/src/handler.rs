//! Pure request handlers: parsed [`Request`] in, [`Response`] out.
//!
//! These functions are the network edge of the serving stack and are
//! registered as entrypoint roots for the `panic-reachable-serving` and
//! `lock-reachable-hot-path` interprocedural lint rules (see
//! `crates/analysis/src/reach.rs`): everything reachable from here must
//! be panic-free and lock-free, same as the in-process
//! [`Searcher`](context_search::Searcher) path. The handlers do no
//! socket IO — the worker loop in [`crate::server`] owns reads, writes,
//! and deadline bookkeeping — so they stay trivially testable and keep
//! blocking calls off the policed path.

use context_search::{ContextSetKind, ScoreFunction, SearchResult, Searcher};
use serde::Value;
use std::fmt::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::http::{Request, Response};

/// Upper bound on a client-supplied `limit` (0 means "all results",
/// which is allowed; this only caps explicit positive limits).
pub const MAX_RESULT_LIMIT: usize = 10_000;

/// Server-side defaults for fields a `/v1/search` body may omit.
#[derive(Debug, Clone, Copy)]
pub struct SearchDefaults {
    /// §4 context set ranked against when the body has no `"kind"`.
    pub kind: ContextSetKind,
    /// §3 prestige function when the body has no `"function"`.
    pub function: ScoreFunction,
    /// Result depth when the body has no `"limit"`.
    pub limit: usize,
}

impl Default for SearchDefaults {
    fn default() -> Self {
        Self {
            kind: ContextSetKind::PatternBased,
            function: ScoreFunction::Pattern,
            limit: 10,
        }
    }
}

/// Shared state each worker hands to the handlers: the lock-free
/// [`Searcher`] plus atomics the drain path and `/healthz` read.
pub struct AppState {
    /// Clone-able lock-free handle over the engine snapshot.
    pub searcher: Searcher,
    /// Defaults for omitted `/v1/search` body fields.
    pub defaults: SearchDefaults,
    /// Set once at drain start; flips `/healthz` to `"draining"`.
    pub draining: Arc<AtomicBool>,
    /// Admission-queue depth gauge maintained by the server threads
    /// (handlers must not touch the queue itself — it locks).
    pub queue_depth: Arc<AtomicU64>,
    /// Monotonic sequence of served search requests (also the shadow
    /// sampling sequence, so sampling is deterministic per request).
    pub served_seq: Arc<AtomicU64>,
    /// Optional ranking-quality shadow scorer, fed every served search
    /// and read by `/quality`. `QualityShadow` lives in a lint-boundary
    /// file, so submitting from here is fine.
    pub shadow: Option<Arc<context_search::QualityShadow>>,
}

/// Dispatch a parsed request to its endpoint handler.
pub fn handle_request(state: &AppState, req: &Request) -> Response {
    match (req.method.as_str(), req.target.as_str()) {
        ("POST", "/v1/search") => handle_search(state, req),
        ("GET", "/healthz") => handle_healthz(state),
        ("GET", "/metrics") => handle_metrics(),
        ("GET", "/quality") => handle_quality(state),
        (_, "/v1/search") | (_, "/healthz") | (_, "/metrics") | (_, "/quality") => {
            Response::json_error(405, "method not allowed for this endpoint")
        }
        _ => Response::json_error(404, "no such endpoint"),
    }
}

/// `POST /v1/search`: JSON body → the exact bytes
/// [`encode_results`] produces for the equivalent in-process
/// [`Searcher::query`] call (the wire byte-identity contract).
pub fn handle_search(state: &AppState, req: &Request) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => return Response::json_error(400, "body must be UTF-8 JSON"),
    };
    let value: Value = match serde_json::from_str(body) {
        Ok(v) => v,
        Err(err) => return Response::json_error(400, &format!("bad JSON body: {err}")),
    };
    let query = match value.get("query").and_then(Value::as_str) {
        Some(q) => q,
        None => return Response::json_error(400, "missing string field \"query\""),
    };
    let kind = match value.get("kind").and_then(Value::as_str) {
        None => state.defaults.kind,
        Some("text") => ContextSetKind::TextBased,
        Some("pattern") => ContextSetKind::PatternBased,
        Some(other) => {
            return Response::json_error(400, &format!("unknown kind {other:?} (text|pattern)"))
        }
    };
    let function = match value.get("function").and_then(Value::as_str) {
        None => state.defaults.function,
        Some("citation") => ScoreFunction::Citation,
        Some("text") => ScoreFunction::Text,
        Some("pattern") => ScoreFunction::Pattern,
        Some(other) => {
            return Response::json_error(
                400,
                &format!("unknown function {other:?} (citation|text|pattern)"),
            )
        }
    };
    let limit = match value.get("limit") {
        None => state.defaults.limit,
        Some(raw) => match raw.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= MAX_RESULT_LIMIT as f64 => n as usize,
            _ => {
                return Response::json_error(
                    400,
                    &format!("\"limit\" must be an integer in 0..={MAX_RESULT_LIMIT}"),
                )
            }
        },
    };

    match state
        .searcher
        .query_with_stats(query, kind, function, limit)
    {
        Ok((results, _stats)) => {
            let seq = state.served_seq.fetch_add(1, Ordering::Relaxed);
            if let Some(shadow) = &state.shadow {
                shadow.observe(seq, query);
            }
            Response::json(200, encode_results(&results))
        }
        Err(err) => Response::json_error(422, &format!("{err}")),
    }
}

/// `GET /healthz`: liveness plus drain state and queue depth.
pub fn handle_healthz(state: &AppState) -> Response {
    let draining = state.draining.load(Ordering::Relaxed);
    let doc = Value::Map(vec![
        (
            "status".to_string(),
            Value::Str(if draining { "draining" } else { "ok" }.to_string()),
        ),
        (
            "queue_depth".to_string(),
            Value::UInt(state.queue_depth.load(Ordering::Relaxed)),
        ),
    ]);
    Response::json(200, serde_json::to_string(&doc).unwrap_or_default())
}

/// `GET /metrics`: the global obs snapshot as JSON.
pub fn handle_metrics() -> Response {
    Response::json(200, obs::snapshot_json())
}

/// `GET /quality`: the ranking-quality summary of the server's own
/// shadow scorer (404 when it has none — sampling is off).
pub fn handle_quality(state: &AppState) -> Response {
    match &state.shadow {
        // Type-qualified, so the lint's name-based call graph resolves
        // it to obs rather than to every `to_json` in the workspace.
        Some(shadow) => Response::json(200, obs::QualityReport::to_json(&shadow.report())),
        None => Response::json_error(404, "quality shadow sampling is not enabled"),
    }
}

/// Canonical JSON encoding of a result list: the single source of the
/// `/v1/search` response bytes, shared by the wire byte-identity test.
///
/// Written straight into one buffer, with the bytes a `serde_json` value
/// tree of the same document would give: integers in decimal, floats
/// through [`serde_json::write_f64`].
pub fn encode_results(results: &[SearchResult]) -> String {
    // About one result with full-precision scores per slot, plus one
    // slot for the envelope.
    let mut out = String::with_capacity(128 * (results.len() + 1));
    let _ = write!(out, "{{\"count\":{},\"results\":[", results.len());
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"paper\":{},\"relevancy\":", r.paper.0);
        serde_json::write_f64(&mut out, r.relevancy);
        out.push_str(",\"matching\":");
        serde_json::write_f64(&mut out, r.matching);
        out.push_str(",\"prestige\":");
        serde_json::write_f64(&mut out, r.prestige);
        let _ = write!(out, ",\"context\":{}}}", r.context.0);
    }
    out.push_str("]}");
    out
}
