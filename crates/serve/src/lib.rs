//! Network serving frontend for context-based literature search.
//!
//! A dependency-free HTTP/1.1 server over `std::net` that puts the
//! lock-free [`Searcher`](context_search::Searcher) behind a real
//! network edge with production overload behavior:
//!
//! - [`http`] — incremental, panic-free request parser and response
//!   writer (lint-policed: never panics on malformed input);
//! - [`admission`] — bounded FIFO between the acceptor and the worker
//!   pool, stamping enqueue time from the injectable [`obs::Clock`];
//! - [`handler`] — pure request→response endpoint handlers, registered
//!   as interprocedural lint roots like the in-process serve path;
//! - [`server`] — acceptor thread, worker pool, EWMA deadline
//!   shedding (429 + `Retry-After`), door rejection (503) on queue
//!   overflow, and graceful drain (zero dropped in-flight requests);
//! - [`signal`] — SIGTERM/SIGINT → drain flag, no external crates.
//!
//! Endpoints: `POST /v1/search` (byte-identical to in-process
//! [`Searcher::query`](context_search::Searcher::query) output),
//! `GET /healthz`, `GET /metrics`, `GET /quality`. See the README's
//! "Network serving" section for flags and overload semantics.

pub mod admission;
pub mod handler;
pub mod http;
pub mod server;
pub mod signal;

pub use admission::{AdmissionQueue, PendingConn};
pub use handler::{encode_results, AppState, SearchDefaults};
pub use http::{parse_request, parse_request_resuming, ParseError, Parsed, Request, Response};
pub use server::{
    start, start_with_clock, start_with_exec_hook, DrainSummary, ExecHook, ServerConfig,
    ServerHandle, ServerStats,
};
